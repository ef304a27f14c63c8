"""Sorted per-property postings against a fresh rebuild and the naive oracle.

A comparison leaf (`=`, `<`, `<=`, `>`, `>=` on an ordered type) reads its
stored candidates from a bisect slice of the property's postings instead of
testing every bag. Here one property holds dense, multi-valued, mixed-type
bags (repeats, -0.0 beside +0.0, several types in one bag), and a disk
repository takes one write at a time, then a flush that may fail, with
deletes, failed deletes and reopens on the way. After every step each
column's postings must equal a rebuild from the stored rows and be ordered
by compare_values, every comparison whose literal is a stored value (so each
inclusive and exclusive edge is hit) must return what naive evaluation
returns, and the leaves a probe serves must not scan a column.
"""

from __future__ import annotations

import random

import pytest

import qgen
from harland.engine import CacheConfig, Repository
from harland.errors import StorageFailure
from harland.model import FLOAT, ORDERED_TYPES, Value, compare_values
from harland.query import Cmp, CmpOp, naive_eval
from harland.store import _Column

DAY_MS = 86_400_000

POOL = [
    Value.text(""), Value.text("a"), Value.text("ab"), Value.text("b"),
    Value.integer(-1), Value.integer(0), Value.integer(2),
    Value.floating(-0.0), Value.floating(0.0), Value.floating(-2.25), Value.floating(1.5),
    Value.timestamp(0), Value.timestamp(DAY_MS), Value.timestamp(3 * DAY_MS),
    Value.boolean(True), Value.binary(b"\x01"),
]
PROPS = ("v", "n")  # v: mixed types, several values per bag; n: one small integer, dense


def _bag(rng: random.Random, prop: str) -> list[Value]:
    if prop == "n":
        return [Value.integer(rng.randrange(4))]
    picked = [rng.choice(POOL) for _ in range(rng.choice((1, 1, 2, 3, 4)))]
    if rng.random() < 0.3:
        picked.append(picked[0])  # a repeat: two rows, one value
    return picked


def _probed(expr) -> bool:
    return isinstance(expr, Cmp) and expr.op is not CmpOp.NE and expr.literal.vtype in ORDERED_TYPES


class _Driver:
    def __init__(self, tmp_path, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.root = tmp_path / "store"
        self.config = CacheConfig(max_docs=8, auto_flush=False)
        self.repo = Repository.init(self.root, config=self.config, id_seed=seed)
        self.failures = self.reopens = 0

    def handle(self):
        return self.repo.get_document(self.rng.choice(self.repo.document_ids()))

    def write(self) -> None:
        rng, repo = self.rng, self.repo
        action = rng.choices(["create", "set", "add", "remove", "drop", "delete"], weights=[3, 8, 3, 3, 1, 2])[0]
        if action == "create" or not repo.document_ids():
            handle = repo.create_document()
            for prop in PROPS:
                handle.set_property(prop, _bag(rng, prop))
            return
        handle, prop = self.handle(), rng.choice(PROPS)
        if action == "set":
            handle.set_property(prop, _bag(rng, prop))
        elif action == "add":
            handle.add_values("v", _bag(rng, "v"))
        elif action == "remove":
            handle.remove_values("v", list(handle.values("v"))[: rng.randrange(1, 3)])
        elif action == "drop":
            handle.remove_property(prop)
        else:
            if rng.random() < 0.25:
                repo.flush()  # a stored document, so the delete reaches the backend
                repo.backend.fail_next_persist = True
                with pytest.raises(StorageFailure):
                    handle.delete()
                self.failures += 1
            handle.delete()

    def commit(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.2:
            self.repo.backend.fail_next_persist = True
            try:
                self.repo.flush()
            except StorageFailure:
                self.failures += 1
            finally:
                self.repo.backend.fail_next_persist = False  # when nothing was dirty
        elif roll < 0.9:
            self.repo.flush()
        elif roll < 0.93:
            self.repo.close()
            self.repo = Repository.open(self.root, config=self.config, id_seed=self.seed)
            self.reopens += 1
        # else: the write stays dirty and reaches queries through the overlay

    def check_postings(self) -> None:
        backend = self.repo.backend
        for prop, column in backend._columns.items():
            fresh = _Column(prop, backend._rows)
            assert column.postings == fresh.postings, prop
            assert {d: sorted(map(repr, b)) for d, b in column.bags.items()} == {
                d: sorted(map(repr, b)) for d, b in fresh.bags.items()}, prop
            for vtype, posting in column.postings.items():
                values = [Value(vtype, key[0] if vtype is FLOAT else key) for key, _ in posting]
                assert all(compare_values(a, b) in (-1, 0) for a, b in zip(values, values[1:])), vtype

    def check_queries(self) -> None:
        repo = self.repo
        ids = repo.document_ids()
        stored = {v for d in ids for prop in PROPS for v in repo.snapshot(d).values_of(prop)}
        literals = sorted(stored, key=repr) + POOL
        exprs = [Cmp(prop, op, lit) for prop in PROPS for op in CmpOp
                 for lit in self.rng.sample(literals, min(4, len(literals)))]
        pools = qgen.ExprPools(schema_names=[], prop_names=list(PROPS), collections=[], tokens=[],
                               literals=literals)
        exprs += [qgen.gen_expr(self.rng, pools, depth=3) for _ in range(4)]
        for expr in exprs:
            before = repo.stats()
            got = repo.query(expr).ids()
            after = repo.stats()
            assert got == sorted(naive_eval(expr, repo)), expr
            if _probed(expr):
                assert after["column_scans"] == before["column_scans"], expr
                assert after["column_probes"] == before["column_probes"] + 1, expr


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_postings_match_a_rebuild_and_probes_match_naive_between_single_writes(tmp_path, seed):
    driver = _Driver(tmp_path, seed)
    for _ in range(10):
        driver.write()
    driver.repo.flush()
    for _ in range(150):
        driver.write()
        driver.commit()
        driver.check_postings()
        driver.check_queries()
        driver.check_postings()
    assert driver.failures > 0 and driver.reopens > 0
    assert set(driver.repo.backend._columns) == set(PROPS)
    driver.repo.close()


def test_probe_edges_and_signed_zeros():
    repo = Repository.in_memory(CacheConfig(auto_flush=False), id_seed=4)
    bags = [[Value.floating(-0.0)], [Value.floating(0.0)], [Value.floating(0.0), Value.floating(-0.0)],
            [Value.integer(1), Value.integer(1)], [Value.integer(2), Value.text("2")], [Value.integer(3)]]
    handles = [repo.create_document() for _ in bags]
    for handle, values in zip(handles, bags):
        handle.set_property("x", values)
    repo.flush()
    a, b, c, d, e, f = (h.doc_id for h in handles)
    expected = {
        "x = -0.0": [a, c], "x = 0.0": [b, c], "x < 0.0": [a, c], "x <= -0.0": [a, c], "x > -0.0": [b, c],
        "x >= 0.0": [b, c], "x = 1": [d], "x < 2": [d], "x <= 2": [d, e], "x > 2": [f], "x >= 2": [e, f],
        'x = "2"': [e], 'x > "10"': [e],
    }
    for text, ids in expected.items():
        assert repo.query(text).ids() == sorted(ids), text
        assert repo.query(text).ids() == sorted(repo.match_now(text)), text
    assert repo.stats()["column_scans"] == 0 and repo.stats()["column_probes"] == 2 * len(expected)
    repo.query("x != 1").ids()
    assert repo.stats()["column_scans"] == 1
    repo.close()
