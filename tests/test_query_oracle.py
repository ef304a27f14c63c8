"""Exact candidate sources against the naive oracle, with the traps in reach.

The planner answers a schema or content leaf from an inverted file kept at
install, the lower and upper bounds of one And on one property from one
slice of the property's postings, and evaluates only the candidates its
sources cannot vouch for: the dirty documents (a merged range tests each
clean multi-valued bag against its bounds in place). Here a disk
repository with a tiny cache takes random writes of multi-valued,
mixed-type bags (signed zeros among them), enforcements, memberships and
content, and flushes, failed flushes,
failed content writes, failed and real deletes and reopens in between; a
failed flush is often followed by putting back everything changed since
the last good flush, so the next flush writes nothing and the documents
turn clean on the committed state. After every step each generated query,
range pairs first of all, must return what naive evaluation returns, and
every inverted file and multi-valued set must equal a scan of its table.
"""

from __future__ import annotations

import random

import pytest

import qgen
from harland.engine import CacheConfig, Repository
from harland.errors import StorageFailure
from harland.model import ORDERED_TYPES, DocumentId, DocumentKind, Schema, Value
from harland.query import Cmp, CmpOp, Range, bag_matches, naive_eval
from harland.store import DiskBackend, DocumentRecord, Membership, MemoryBackend

SCHEMAS = ("a", "b")
TOKENS = ("red", "green", "blue")
POOL = {
    "x": [*map(Value.integer, range(6)), Value.floating(-0.0), Value.floating(0.0), Value.floating(1.5),
          Value.text("a"), Value.text("b")],
    "y": [*map(Value.integer, range(3))],
}


def _scan(table, terms) -> dict:
    """term -> set of documents, by a walk of every entry of table."""
    out: dict = {}
    for doc_id, entry in table.items():
        for term in terms(entry):
            out.setdefault(term, set()).add(doc_id)
    return out


def _as_sets(index: dict) -> dict:
    return {term: set(docs) for term, docs in index.items()}


class _Driver:
    def __init__(self, tmp_path, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.root = tmp_path / "store"
        self.config = CacheConfig(max_docs=6, auto_flush=False)
        self.repo = Repository.init(self.root, config=self.config, id_seed=seed)
        for name in SCHEMAS:
            self.repo.define_schema(Schema(name, {}))
        self.undo: list = []  # puts back each change since the last good flush, newest last
        self.seen = {"failed_flush": 0, "put_back": 0, "failed_content": 0, "failed_delete": 0, "reopen": 0}

    # ---- random steps ----

    def handle(self, kind=None):
        ids = self.repo.document_ids()
        if kind is not None:
            ids = [d for d in ids if self.repo.document_kind(d) is kind]
        return self.repo.get_document(self.rng.choice(ids)) if ids else None

    def bag(self, prop: str) -> list[Value]:
        return [self.rng.choice(POOL[prop]) for _ in range(self.rng.choice((1, 2, 2, 3)))]

    def step(self) -> None:
        action = self.rng.choices(
            ["create", "write", "enforce", "member", "content", "delete", "flush", "reopen"],
            weights=[3, 10, 4, 3, 2, 2, 5, 1],
        )[0]
        if action == "create" or not self.repo.document_ids():
            self.create()
        else:
            getattr(self, action)()

    def create(self) -> None:
        kind = self.rng.choices(list(DocumentKind), weights=[6, 2, 2])[0]
        handle = self.repo.create_document(kind)
        for prop in POOL:
            if self.rng.random() < 0.7:
                handle.set_property(prop, self.bag(prop))
        if kind is DocumentKind.CONTENT:
            handle.put_content(self.words())

    def write(self) -> None:
        handle, prop = self.handle(), self.rng.choice(sorted(POOL))
        before = handle.values(prop)
        self.rng.choice([
            lambda: handle.set_property(prop, self.bag(prop)),
            lambda: handle.add_values(prop, self.bag(prop)),
            lambda: handle.remove_values(prop, before[:1]),
            lambda: handle.remove_property(prop),
        ])()
        self.undo.append(lambda: handle.set_property(prop, before))

    def enforce(self) -> None:
        handle, name = self.handle(), self.rng.choice(SCHEMAS)
        if name in handle.enforced():
            handle.unenforce(name)
            self.undo.append(lambda: handle.enforce(name))
        else:
            handle.enforce(name)
            self.undo.append(lambda: handle.unenforce(name))

    def member(self) -> None:
        collection = self.handle(DocumentKind.COLLECTION)
        if collection is None:
            return
        member = self.handle().doc_id
        if member in collection.members():
            collection.remove_member(member)
            self.undo.append(lambda: collection.add_member(member))
        else:
            collection.add_member(member)
            self.undo.append(lambda: collection.remove_member(member))

    def words(self) -> bytes:
        words = self.rng.sample(TOKENS, self.rng.randrange(3))
        return " ".join(w.upper() if self.rng.random() < 0.3 else w for w in words).encode()

    def content(self) -> None:
        handle = self.handle(DocumentKind.CONTENT)
        if handle is None:
            return
        if self.rng.random() < 0.3:
            self.repo.backend.fail_next_persist = True
            with pytest.raises(StorageFailure):
                handle.put_content(self.words())
            self.seen["failed_content"] += 1
        else:
            handle.put_content(self.words())

    def delete(self) -> None:
        handle = self.handle()
        if self.rng.random() < 0.4:
            self.good_flush()  # a stored document, so the delete reaches the backend
            self.repo.backend.fail_next_persist = True
            with pytest.raises(StorageFailure):
                handle.delete()
            self.seen["failed_delete"] += 1
            if self.rng.random() < 0.5:
                return  # left with a pending record equal to its committed entry
        handle.delete()
        self.undo.clear()  # a put-back may name the deleted document

    def flush(self) -> None:
        if self.rng.random() < 0.6:
            self.good_flush()
            return
        self.repo.backend.fail_next_persist = True
        try:
            self.repo.flush()
        except StorageFailure:
            self.seen["failed_flush"] += 1
            if self.rng.random() < 0.6:
                for put_back in reversed(self.undo):
                    put_back()
                self.undo.clear()
                self.seen["put_back"] += 1
                if self.rng.random() < 0.7:
                    self.good_flush()  # writes nothing for what was put back
        finally:
            self.repo.backend.fail_next_persist = False

    def good_flush(self) -> None:
        self.repo.flush()
        self.undo.clear()

    def reopen(self) -> None:
        self.repo.close()
        self.undo.clear()
        self.repo = Repository.open(self.root, config=self.config, id_seed=self.seed)
        if self.rng.random() < 0.5:  # else each inverted file is built when first named
            for name in ("_enforcement", "_content", "_members"):
                self.repo.backend._index(name)
        self.seen["reopen"] += 1

    # ---- checks ----

    def check_indexes(self) -> None:
        backend = self.repo.backend
        scans = {
            "_enforcement": _scan(backend._enforcement, lambda entry: entry),
            "_content": _scan(backend._content, lambda ref: ref.tokens),
            "_members": _scan(backend._members, lambda members: members),
        }
        for name, index in backend._inverted.items():
            assert _as_sets(index) == scans[name], name
        for prop, column in backend._columns.items():
            assert column.multi == {d for d, values in column.bags.items() if len(values) > 1}, prop

    def check_queries(self) -> None:
        pools = qgen.ExprPools(
            schema_names=list(SCHEMAS),
            prop_names=sorted(POOL),
            collections=[d for d in self.repo.document_ids() if self.repo.document_kind(d) is DocumentKind.COLLECTION],
            tokens=list(TOKENS),
            literals=[v for pool in POOL.values() for v in pool],
        )
        exprs = [qgen.gen_range(self.rng, pools) for _ in range(4)]
        exprs += [qgen.gen_expr(self.rng, pools, depth=2) for _ in range(2)]
        for expr in exprs:
            assert self.repo.query(expr).ids() == sorted(naive_eval(expr, self.repo)), expr


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_exact_sources_match_naive_through_failures_put_backs_deletes_and_reopens(tmp_path, seed):
    driver = _Driver(tmp_path, seed)
    for _ in range(10):
        driver.create()
    driver.good_flush()
    for _ in range(260):
        driver.step()
        driver.check_indexes()
        driver.check_queries()
    assert all(driver.seen.values()), driver.seen
    driver.repo.close()


def test_a_range_pair_passed_by_two_values_of_one_bag():
    """x = {1, 10} lies in no interval of x > 5 AND x < 3, yet matches it:
    the source tests its stored bag against each bound in place and vouches
    for it, until a pending write makes it unsure."""
    repo = Repository.in_memory(CacheConfig(auto_flush=False), id_seed=3)
    spread, inside, outside = (repo.create_document() for _ in range(3))
    spread.set_property("x", [Value.integer(1), Value.integer(10)])
    inside.set_property("x", [Value.integer(4)])
    outside.set_property("x", [Value.integer(7)])
    repo.flush()
    assert repo.query("x > 5 AND x < 3").ids() == [spread.doc_id]
    assert repo.query("x >= 3 AND x <= 5").ids() == sorted([spread.doc_id, inside.doc_id])
    plan = repo.explain("x > 5 AND x < 3")
    assert plan["sources"] == [{
        "source": "column", "candidates": 1,
        "leaf": repr(Range("x", (Cmp("x", CmpOp.GT, Value.integer(5)), Cmp("x", CmpOp.LT, Value.integer(3))))),
    }]
    assert plan["exact"] is True  # the multi-valued bag passed in place: nothing is evaluated
    plan = repo.explain("x = 4 AND x < 7")  # {1, 10} fails x = 4, so it is no candidate
    assert [s["candidates"] for s in plan["sources"]] == [1] and plan["exact"] is True
    spread.set_property("x", [Value.integer(1), Value.integer(2)])  # pending: evaluated, and now out
    assert repo.explain("x > 5 AND x < 3")["exact"] is False
    assert repo.query("x > 5 AND x < 3").ids() == []
    repo.close()


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_range_pairs_over_multi_valued_bags_match_naive_with_pending_writes(seed):
    """Bags of one to four values of mixed types, signed zeros among them,
    with writes left pending between flushes. After every step each range
    pair returns what naive evaluation returns, and its source vouches
    (outside unsure) only for documents whose live bag passes every bound,
    and misses none that does."""
    rng = random.Random(seed)
    repo = Repository.in_memory(CacheConfig(auto_flush=False), id_seed=seed)
    handles = [repo.create_document() for _ in range(40)]

    def bag() -> list[Value]:
        return [rng.choice(POOL["x"]) for _ in range(rng.choice((1, 2, 2, 3, 4)))]

    for handle in handles:
        handle.set_property("x", bag())
    repo.flush()
    pools = qgen.ExprPools(schema_names=[], prop_names=["x"], collections=[], tokens=[], literals=POOL["x"])
    ordered = [v for v in POOL["x"] if v.vtype in ORDERED_TYPES]
    for _ in range(150):
        handle = rng.choice(handles)
        rng.choice([
            lambda: handle.set_property("x", bag()),
            lambda: handle.add_values("x", bag()),
            lambda: handle.remove_values("x", handle.values("x")[:1]),
            lambda: handle.remove_property("x"),
        ])()
        if rng.random() < 0.3:
            repo.flush()
        expr = qgen.gen_range(rng, pools)
        assert repo.query(expr).ids() == sorted(naive_eval(expr, repo)), expr
        low = rng.choice(ordered)
        high = rng.choice([v for v in ordered if v.vtype is low.vtype])
        leaves = (Cmp("x", rng.choice(qgen.LOWER_OPS), low), Cmp("x", rng.choice(qgen.UPPER_OPS), high))
        _, ids, unsure = repo.leaf_candidates([Range("x", leaves)])[Range("x", leaves)]
        passing = {h.doc_id for h in handles if all(bag_matches(leaf, h.values("x")) for leaf in leaves)}
        assert passing <= set(ids), leaves
        assert set(ids) - set(unsure) <= passing, leaves
    repo.close()


def test_a_range_pair_is_one_probe_and_clean_matches_are_never_evaluated():
    repo = Repository.in_memory(CacheConfig(auto_flush=False), id_seed=4)
    handles = [repo.create_document() for _ in range(50)]
    for i, handle in enumerate(handles):
        handle.set_property("n", [Value.integer(i)])
    repo.flush()
    before = repo.stats()
    assert repo.query("n >= 10 AND n < 20").ids() == sorted(h.doc_id for h in handles[10:20])
    after = repo.stats()
    assert after["column_probes"] - before["column_probes"] == 1
    assert after["backend_fetches"] == before["backend_fetches"]
    plan = repo.explain("n >= 10 AND n < 20")
    assert [(s["source"], s["candidates"]) for s in plan["sources"]] == [("column", 10)]
    assert plan["exact"] is True
    # two lower bounds alone are two slices, not a range
    assert [s["candidates"] for s in repo.explain("n > 10 AND n > 40")["sources"]] == [39, 9]
    handles[12].set_property("n", [Value.integer(99)])  # dirty: evaluated, and now out of range
    assert repo.explain("n >= 10 AND n < 20")["exact"] is False
    assert repo.query("n >= 10 AND n < 20").ids() == sorted(h.doc_id for h in handles[10:20] if h is not handles[12])
    repo.close()


@pytest.mark.parametrize("disk", [False, True])
def test_member_map_matches_a_scan_through_adds_removes_deletes_failures_and_reopens(tmp_path, disk):
    rng = random.Random(7)
    backend = DiskBackend.init(tmp_path / "store") if disk else MemoryBackend()
    ids = [DocumentId(n) for n in range(1, 25)]
    collections = ids[:6]
    backend.put_rows(meta=[DocumentRecord(d, DocumentKind.COLLECTION if d in collections else DocumentKind.PLAIN)
                           for d in ids])
    backend._index("_members")
    checks = failures = 0
    for _ in range(400):
        live = list(backend.stored_docs())
        held = [c for c in collections if c in backend.stored_docs()]
        roll = rng.random()
        backend.fail_next_persist = rng.random() < 0.15
        try:
            if roll < 0.5 and held:
                collection, member = rng.choice(held), rng.choice(live)
                if member in backend.stored_members().get(collection, ()):
                    backend.put_rows(meta_deletes=[Membership(collection, member)])
                else:
                    backend.put_rows(meta=[Membership(collection, member)])
            elif roll < 0.6 and len(live) > 8:
                backend.delete_document(rng.choice(live))
            elif roll < 0.65 and disk:
                backend.close()
                backend = DiskBackend.open(tmp_path / "store")
                if rng.random() < 0.5:
                    backend._index("_members")
        except StorageFailure:
            failures += 1
        backend.fail_next_persist = False
        if "_members" in backend._inverted:
            assert _as_sets(backend._inverted["_members"]) == _scan(backend._members, lambda members: members)
            checks += 1
    assert failures > 10 and checks > 200
    backend.close()
