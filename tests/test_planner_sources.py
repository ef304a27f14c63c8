"""Candidate sources against the naive oracle.

The planner takes each query's candidates from the schema, membership and
content maps and from per-property columns of stored rows, united with the
dirty documents. The acceptance suite never flushes, so every document there
stays dirty and no column is read. Here a disk repository with a small cache
flushes, fails to flush and reopens at random points, and after every step
each generated query must return what naive evaluation returns.
"""

from __future__ import annotations

import functools
import random

import pytest

import qgen
from harland.engine import CacheConfig, Repository
from harland.errors import NotConforming, SchemaViolation, StorageFailure, UnknownDocument
from harland.model import Constraint, DocumentKind, Schema, Value
from harland.query import Cmp, CmpOp, Exists, bag_matches, naive_eval

DAY_MS = 86_400_000

SCHEMAS = (
    Schema("tagged", {"tag": Constraint.from_text("text", "1..1")}),
    Schema("scored", {"score": Constraint.from_text("integer", "0..*"),
                      "when": Constraint.from_text("timestamp", "0..1")}),
    Schema("marker", {}),
)

VALUES = {
    "tag": [Value.text(t) for t in ("a", "b", "c")],
    "score": [Value.integer(n) for n in (-1, 0, 2, 5)],
    "when": [Value.timestamp(n * DAY_MS) for n in (0, 1, 3)],
    "misc": [Value.text("a"), Value.integer(2), Value.boolean(True), Value.floating(-0.0),
             Value.floating(0.0), Value.binary(b"\x01")],
}

TOKENS = ["alpha", "beta", "gamma"]


class _Driver:
    """Random steps against one disk repository, reopened now and then."""

    def __init__(self, tmp_path, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.root = tmp_path / "store"
        self.config = CacheConfig(max_docs=8, auto_flush=False)
        self.repo = Repository.init(self.root, config=self.config, id_seed=seed)
        for schema in SCHEMAS:
            self.repo.define_schema(schema)
        self.failed_flushes = 0
        self.unflushed: list = []  # (document, prop, bag before) per write since the last good flush

    def live(self, kind=None):
        ids = self.repo.document_ids()
        if kind is not None:
            ids = [d for d in ids if self.repo.document_kind(d) is kind]
        return ids

    def pick(self, kind=None):
        """A live document, mostly one of the newest few: a document whose
        flush failed is then often changed back or deleted before it is
        written."""
        ids = self.live(kind)
        if not ids:
            return None
        if self.rng.random() < 0.7:
            ids = sorted(ids, key=lambda d: d.value)[-4:]  # seeded ids grow
        return self.repo.get_document(self.rng.choice(ids))

    def values(self, prop: str) -> list[Value]:
        return [self.rng.choice(VALUES[prop]) for _ in range(self.rng.choice((1, 1, 2, 3)))]

    def step(self) -> None:
        rng = self.rng
        action = rng.choices(
            ["create", "write", "enforce", "member", "content", "delete", "flush", "reopen"],
            weights=[4, 10, 3, 3, 2, 2, 4, 1],
        )[0]
        if action == "create" or not self.live():
            kind = rng.choices(list(DocumentKind), weights=[6, 2, 2])[0]
            handle = self.repo.create_document(kind)
            for prop in rng.sample(sorted(VALUES), rng.randrange(3)):
                self.write(handle, prop, lambda: handle.set_property(prop, self.values(prop)))
        elif action == "write":
            handle, prop = self.pick(), rng.choice(sorted(VALUES))
            self.write(handle, prop, rng.choice([
                lambda: handle.set_property(prop, self.values(prop)),
                lambda: handle.add_values(prop, self.values(prop)),
                lambda: handle.remove_values(prop, self.values(prop)),
                lambda: handle.remove_property(prop),
            ]))
        elif action == "enforce":
            handle, name = self.pick(), rng.choice(SCHEMAS).name
            try:
                if rng.random() < 0.6:
                    handle.enforce(name)
                else:
                    handle.unenforce(name)
            except NotConforming:
                pass
        elif action == "member":
            collection = self.pick(DocumentKind.COLLECTION)
            if collection is not None:
                member = rng.choice(self.live())
                if rng.random() < 0.6:
                    collection.add_member(member)
                else:
                    collection.remove_member(member)
        elif action == "content":
            handle = self.pick(DocumentKind.CONTENT)
            if handle is not None:
                words = rng.sample(TOKENS + ["delta"], rng.randrange(0, 3))
                handle.put_content(" ".join(w.upper() if rng.random() < 0.3 else w for w in words).encode())
        elif action == "delete":
            self.pick().delete()
        elif action == "flush":
            if rng.random() < 0.4:
                self.repo.backend.fail_next_persist = True
            try:
                self.repo.flush()
                self.unflushed.clear()
            except StorageFailure:
                self.failed_flushes += 1
                if rng.random() < 0.5:
                    self.revert()
            finally:
                self.repo.backend.fail_next_persist = False
        else:
            self.repo.close()
            self.unflushed.clear()
            self.repo = Repository.open(self.root, config=self.config, id_seed=self.seed)

    def write(self, handle, prop: str, change) -> None:
        before = handle.values(prop)
        try:
            change()
        except SchemaViolation:
            return
        self.unflushed.append((handle.doc_id, prop, before))

    def revert(self) -> None:
        """Puts back every value written since the last good flush, so the
        next flush of those properties writes no rows."""
        for doc_id, prop, before in reversed(self.unflushed):
            try:
                self.repo.get_document(doc_id).set_property(prop, before)
            except (SchemaViolation, UnknownDocument):
                pass
        self.unflushed.clear()

    def check(self, queries: int) -> None:
        pools = qgen.ExprPools(
            schema_names=[s.name for s in SCHEMAS],
            prop_names=sorted(VALUES),
            collections=self.live(DocumentKind.COLLECTION),
            tokens=TOKENS + ["missing"],
            literals=[v for pool in VALUES.values() for v in pool],
        )
        prop = self.rng.choice(sorted(VALUES))
        exprs = [qgen.gen_expr(self.rng, pools, depth=3) for _ in range(queries)]
        exprs += [Exists(prop), Cmp(prop, CmpOp.EQ, self.rng.choice(VALUES[prop]))]  # one column each
        for expr in exprs:
            got = self.repo.query(expr).ids()
            assert got == sorted(naive_eval(expr, self.repo)), expr


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_sourced_queries_match_naive_through_flushes_failures_and_reopens(tmp_path, seed):
    driver = _Driver(tmp_path, seed)
    for _ in range(12):
        driver.repo.create_document()
    for _ in range(240):
        driver.step()
        driver.check(queries=4)
    assert driver.failed_flushes > 0
    driver.repo.close()


# ---- a cold store ----

def _mail_store(path, docs: int = 200, senders: int = 20) -> None:
    with Repository.init(path, config=CacheConfig(max_docs=docs + 1, auto_flush=False), id_seed=5) as repo:
        repo.define_schema(Schema("email", {"From": Constraint.from_text("text", "1..1"),
                                            "Subject": Constraint.from_text("text", "1..1")}))
        repo.define_schema(Schema("x", {}))
        for i in range(docs):
            handle = repo.create_document()
            handle.set_property("From", [Value.text(f"sender-{i % senders}")])
            handle.set_property("Subject", [Value.text(f"subject {i}")])
            handle.set_property("size", [Value.integer(i)])
            handle.enforce("email")
            if i % 7 == 0:
                handle.enforce("x")


def test_value_query_on_a_cold_store_fetches_no_document(tmp_path):
    _mail_store(tmp_path / "store")
    with Repository.open(tmp_path / "store", id_seed=5) as repo:
        assert repo.backend._columns == {}  # opening builds no column
        before = repo.stats()["backend_fetches"]
        ids = repo.query('From = "sender-3"').ids()
        assert repo.stats()["backend_fetches"] - before == 0 and len(ids) == 10
        assert set(repo.backend._columns) == {"From"}
        for query in ('From = "sender-3"', 'NOT schema:"x"', 'From = "sender-3" OR NOT schema:"x"',
                      'schema:"x" AND NOT size < 100', 'size >= 190 OR schema:"x"'):
            assert repo.query(query).ids() == sorted(repo.match_now(query)), query


def test_failed_batch_leaves_the_column_and_delete_drops_it(tmp_path):
    _mail_store(tmp_path / "store", docs=10, senders=2)
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False), id_seed=5) as repo:
        sender0 = repo.query('From = "sender-0"').ids()
        assert len(sender0) == 5
        first, second = (repo.get_document(d) for d in sender0[:2])
        first.set_property("From", [Value.text("sender-1")])
        repo.backend.fail_next_persist = True
        with pytest.raises(StorageFailure):
            repo.flush()
        first.set_property("From", [Value.text("sender-0")])  # back to what the store holds
        repo.flush()
        assert repo.query('From = "sender-0"').ids() == sender0
        second.delete()
        test = functools.partial(bag_matches, Cmp("From", CmpOp.EQ, Value.text("sender-0")))
        assert second.doc_id not in repo.backend.stored_matches("From", test)
        assert repo.query('From = "sender-0"').ids() == [d for d in sender0 if d != second.doc_id]


# ---- explain ----

def test_explain_is_stable_and_names_its_sources(tmp_path):
    _mail_store(tmp_path / "store", docs=40, senders=4)
    with Repository.open(tmp_path / "store", id_seed=5) as repo:
        queries = ('schema:"email"', 'From = "sender-1" AND schema:"x"', 'NOT schema:"x"',
                   'size < 3 OR size > 37', 'exists(size) AND NOT schema:"x"')
        first = [repo.explain(q) for q in queries]
        assert first == [repo.explain(q) for q in queries]

        by_schema, conjunction, negation, union, residual = first
        assert by_schema == {
            "sources": [{"source": "schema", "leaf": "HasSchema(name='email')", "candidates": 40}],
            "candidates": 40, "exact": True, "full_scan": False,
        }
        assert [s["source"] for s in conjunction["sources"]] == ["schema", "column"]
        assert conjunction["exact"] is True and conjunction["candidates"] == 1
        assert negation["sources"] == [{"source": "scan", "leaf": None, "candidates": 40}]
        assert negation["full_scan"] is True and negation["exact"] is False
        assert [s["source"] for s in union["sources"]] == ["column", "column"]
        assert union["candidates"] == 5 and union["full_scan"] is False
        assert [s["source"] for s in residual["sources"]] == ["column"]
        assert residual["exact"] is False
        for q, plan in zip(queries, first):
            if plan["exact"]:
                assert plan["candidates"] == len(repo.query(q))

        # a dirty document's values in memory may differ from its stored bag
        repo.get_document(repo.query(queries[1]).ids()[0]).set_property("size", [Value.integer(1)])
        dirty = repo.explain(queries[1])
        assert [s["source"] for s in dirty["sources"]] == ["schema", "column"]
        assert dirty["exact"] is False and dirty["candidates"] == 1
