"""The plan cache against plans compiled afresh.

A repository keeps the compiled plans of its recent query texts, keyed by
the text and the number of schemas defined. Here two in-memory
repositories with a small cache take the same random steps: schemas
defined one by one, documents created and written before and after each
definition, enforcements and flushes. One queries by text, so repeated
texts come from its cache; its twin queries by the parsed expression,
which compiles every time. After each query step both must return the
same ids, equal to naive evaluation, the same explain() output, the same
property reads through the cursor and the same backend_fetches delta
over the query and those reads; the cached repository compiles a text
only the first time it meets it at a given number of schemas.
"""

from __future__ import annotations

import random

import pytest

from harland.engine import PLAN_CACHE_SIZE, CacheConfig, Repository
from harland.errors import UnknownSchema
from harland.model import Constraint, Schema, Value
from harland.parsing import parse_query
from harland.query import naive_eval

CONSTRAINTS = {
    "p": Constraint.from_text("integer", "0..*"),
    "q": Constraint.from_text("text", "0..*"),
    "r": Constraint.from_text("integer", "0..*"),
    "t": Constraint.from_text("integer", "0..*"),
}
VALUES = {
    "p": [Value.integer(n) for n in range(5)],
    "q": [Value.text(t) for t in ("a", "b", "c")],
    "r": [Value.integer(n) for n in range(3)],
    "t": [Value.integer(n) for n in range(4)],
}
PROPS = sorted(VALUES)
SCHEMA_NAMES = ("s0", "s1", "s2", "s3")
TEXTS = (
    "exists(p)",
    'q = "a"',
    "p >= 1 AND p < 4",
    'schema:"s0"',
    'schema:"s1" AND exists(r)',
    'schema:"s2" OR q = "b"',
    'NOT schema:"s0" AND exists(q)',
    "exists(r) OR t = 2",
    'schema:"s3"',
    "t > 0",
)


class _Twins:
    """Two repositories that take the same steps; only their way of
    compiling a query differs."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        config = CacheConfig(max_docs=3, auto_flush=False)
        self.cached = Repository.in_memory(config, id_seed=seed)
        self.fresh = Repository.in_memory(config, id_seed=seed)
        self.defined: list[str] = []
        self.docs: list = []
        self.compiled_keys: set = set()  # (text, schemas defined) the cached repository has compiled
        self.seen = {"repeat": 0, "recompile": 0, "unknown": 0}

    def both(self, act) -> None:
        for repo in (self.cached, self.fresh):
            act(repo)

    def step(self) -> None:
        rng = self.rng
        action = rng.choices(["define", "create", "write", "enforce", "flush", "query"],
                             weights=[1, 3, 6, 3, 3, 6])[0]
        if action == "define" and len(self.defined) < len(SCHEMA_NAMES):
            name = SCHEMA_NAMES[len(self.defined)]
            props = rng.sample(PROPS, rng.randrange(1, 3))
            schema = Schema(name, {p: CONSTRAINTS[p] for p in props})
            self.both(lambda repo: repo.define_schema(schema))
            self.defined.append(name)
        elif action == "create" or not self.docs:
            ids = []
            self.both(lambda repo: ids.append(repo.create_document().doc_id))
            assert ids[0] == ids[1]
            self.docs.append(ids[0])
            self.write(ids[0])
        elif action == "write":
            self.write(rng.choice(self.docs))
        elif action == "enforce" and self.defined:
            doc_id, name = rng.choice(self.docs), rng.choice(self.defined)
            self.both(lambda repo: repo.get_document(doc_id).enforce(name))
        elif action == "flush":
            self.both(lambda repo: repo.flush())
        else:
            self.query(rng.choice(TEXTS))

    def write(self, doc_id) -> None:
        prop = self.rng.choice(PROPS)
        values = [self.rng.choice(VALUES[prop]) for _ in range(self.rng.choice((1, 1, 2)))]
        self.both(lambda repo: repo.get_document(doc_id).set_property(prop, values))

    def query(self, text: str) -> None:
        key = (text, len(self.defined))
        expr = parse_query(text)
        compiled = self.cached.stats()["plans_compiled"]
        outcomes = [self._run(self.cached, text), self._run(self.fresh, expr)]
        if outcomes[0] is None:
            assert outcomes[1] is None, text
            self.seen["unknown"] += 1
        else:
            assert outcomes[0] == outcomes[1], text
            assert self.cached.explain(text) == self.fresh.explain(expr), text
            for repo in (self.cached, self.fresh):  # both, so that both caches see the same reads
                assert outcomes[0][0] == sorted(naive_eval(expr, repo)), text
        grew = self.cached.stats()["plans_compiled"] - compiled
        if key in self.compiled_keys:
            assert grew == 0, text
            self.seen["repeat"] += 1
        else:
            assert grew == 1, text
            if any(k[0] == text for k in self.compiled_keys):
                self.seen["recompile"] += 1
            self.compiled_keys.add(key)

    @staticmethod
    def _run(repo: Repository, query):
        """(ids, each yielded document's reads, backend fetches over the query
        and the reads, the plan's prefetch slices), or None for a query that
        names an undefined schema."""
        before = repo.stats()["backend_fetches"]
        try:
            cursor = repo.query(query)
        except UnknownSchema:
            return None
        reads = [{p: handle.values(p) for p in PROPS} for handle in cursor]
        return cursor.ids(), reads, repo.stats()["backend_fetches"] - before, cursor._plan.prefetch_slices


@pytest.mark.parametrize("seed", [51, 52, 53, 54])
def test_cached_plans_match_fresh_ones_as_schemas_are_defined(seed):
    twins = _Twins(seed)
    for _ in range(6):
        twins.step()
    for _ in range(300):
        twins.step()
    assert twins.seen["repeat"] > 50 and twins.seen["recompile"] > 3 and twins.seen["unknown"] > 0, twins.seen
    assert len(twins.defined) == len(SCHEMA_NAMES)
    twins.both(lambda repo: repo.close())


def test_a_schema_defined_after_a_text_failed_is_prefetched_by_its_next_plan():
    repo = Repository.in_memory(CacheConfig(auto_flush=False), id_seed=2)
    with pytest.raises(UnknownSchema):
        repo.query('schema:"later"')
    slice_id = repo.define_schema(Schema("later", {"p": CONSTRAINTS["p"]}))
    doc = repo.create_document()
    doc.set_property("p", [Value.integer(1)])
    doc.enforce("later")
    cursor = repo.query('schema:"later"')
    assert cursor.ids() == [doc.doc_id]
    assert cursor._plan.prefetch_slices == {slice_id}
    with pytest.raises(UnknownSchema):  # still validated on every execute
        repo.query('schema:"never"')
    with pytest.raises(UnknownSchema):
        repo.query('schema:"never"')
    repo.close()


def test_the_cache_keeps_the_most_recent_texts_and_explain_shares_it():
    repo = Repository.in_memory(CacheConfig(auto_flush=False), id_seed=3)
    texts = [f"n = {i}" for i in range(PLAN_CACHE_SIZE + 1)]
    for text in texts:
        repo.query(text)
    compiled = repo.stats()["plans_compiled"]
    assert compiled == len(texts)
    for text in texts[-3:]:  # cached: neither query nor explain compiles
        repo.query(text)
        repo.explain(text)
    assert repo.stats()["plans_compiled"] == compiled
    repo.query(texts[0])  # the least recently used text left the cache
    assert repo.stats()["plans_compiled"] == compiled + 1
    repo.close()
