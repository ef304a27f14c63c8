"""A one-value bag change bisects the canonical bag instead of sorting it:
`Repository._apply_change` must give what `model.bag` of the whole
changed list gives, for duplicates, mixed types and both zeros."""

from __future__ import annotations

import random

from harland.engine import AddValues, RemoveValues, Repository
from harland.model import Value, bag

POOL = [
    Value.floating(0.0),
    Value.floating(-0.0),
    Value.floating(1.5),
    Value.floating(-2.25),
    Value.integer(0),
    Value.integer(-3),
    Value.integer(7),
    Value.text(""),
    Value.text("a"),
    Value.text("b"),
    Value.boolean(False),
    Value.boolean(True),
    Value.binary(b"\x00"),
    Value.timestamp(0),
    Value.timestamp(1_000),
]


def _added(old, values):
    return bag(list(old) + list(values))


def _removed(old, values):
    remaining = list(old)
    for v in values:
        if v in remaining:
            remaining.remove(v)
    return bag(remaining)


def _same(got, expected):
    """Equal bags whose floats also agree bit for bit (-0.0 is not 0.0)."""
    assert got == expected
    assert [repr(v.payload) for v in got] == [repr(v.payload) for v in expected]


def test_apply_change_matches_a_whole_sort():
    rng = random.Random(87)
    for _ in range(2_000):
        old = bag(rng.choices(POOL, k=rng.choice([0, 1, 3, 30, 200])))
        values = rng.choices(POOL, k=rng.choice([1, 1, 2, 5, 40]))
        _same(Repository._apply_change(old, AddValues("p", values)), _added(old, values))
        _same(Repository._apply_change(old, RemoveValues("p", values)), _removed(old, values))
        for v in old[:3]:  # a value the bag holds, maybe more than once
            _same(Repository._apply_change(old, RemoveValues("p", [v])), _removed(old, [v]))
