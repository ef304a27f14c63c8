"""A flush's bag batches against the row diff they replaced.

The engine hands the backend each dirty property's bag whole
(put_rows(bags=...)). Here a seeded run of set_property, add_values
(duplicates included), remove_values and remove_property on a few
documents of Repository.in_memory flushes at random points, and every
batch the engine writes is also applied to a twin MemoryBackend through
rows and deletes, made by the row diff that flushes used before: each
property's live bag and stored bag expanded to (value, ordinal) rows and
compared as sets. After each flush the two backends must hold the same
checkpoint bytes and the same rows, and the backend every live bag.
"""

from __future__ import annotations

import random

import pytest

from harland.engine import CacheConfig, Repository
from harland.errors import SchemaViolation
from harland.model import Constraint, Schema, Value, occurrences
from harland.store import MemoryBackend, PropertyRow, SliceAssignment

PROPS = ("a", "b", "c", "tag")
POOL = (
    Value.integer(1), Value.integer(2), Value.integer(3),
    Value.text("x"), Value.text("y"),
    Value.floating(0.0), Value.floating(-0.0),
)


def _row_diff(backend: MemoryBackend, bags, meta) -> tuple[list, list]:
    """The rows and row deletes that turn backend's stored bags into bags,
    each row in its property's slice as backend and meta assign it."""
    assigned = {(r.doc_id, r.prop): r.slice_id for r in meta if isinstance(r, SliceAssignment)}
    rows: list[PropertyRow] = []
    deletes: list[tuple] = []
    for (doc_id, prop), (_, bag) in bags.items():
        live = list(occurrences(bag))
        held = list(occurrences(backend.stored_bags_of(doc_id).get(prop, (None, ()))[1]))
        slice_id = assigned.get((doc_id, prop))
        if slice_id is None and live:
            slice_id = backend.stored_assignments_of(doc_id)[prop]
        live_rows, held_rows = set(live), set(held)
        rows += [PropertyRow(doc_id, slice_id, prop, *row) for row in live if row not in held_rows]
        deletes += [(doc_id, prop, *row) for row in held if row not in live_rows]
    return rows, deletes


def _twinned(repo: Repository) -> MemoryBackend:
    """A MemoryBackend that receives every batch repo's backend does, bags
    as the row diff against its own stored bags."""
    twin, put_rows = MemoryBackend(), repo.backend.put_rows

    def both(rows=(), deletes=(), meta=(), meta_deletes=(), bags=None):
        rows, deletes, meta, meta_deletes = list(rows), list(deletes), list(meta), list(meta_deletes)
        extra_rows, extra_deletes = _row_diff(twin, bags or {}, meta)
        twin.put_rows(rows + extra_rows, deletes + extra_deletes, meta, meta_deletes)
        put_rows(rows, deletes, meta, meta_deletes, bags)

    repo.backend.put_rows = both
    return twin


def _mutate(rng: random.Random, handle) -> None:
    prop = rng.choice(PROPS)
    values = [rng.choice(POOL) for _ in range(rng.randrange(4))]
    op = rng.randrange(10)
    if op < 3:
        handle.set_property(prop, values)
    elif op < 6:
        handle.add_values(prop, values + values[:1])  # a value added twice, or one already held
    elif op < 9:
        handle.remove_values(prop, values)
    else:
        handle.remove_property(prop)


@pytest.mark.parametrize("seed", range(4))
def test_bag_batches_write_what_the_row_diff_wrote(seed):
    rng = random.Random(seed)
    with Repository.in_memory(CacheConfig(max_docs=3, auto_flush=False), id_seed=seed) as repo:
        twin = _twinned(repo)
        # tag's slice is tagged's: a property outside the default slice
        repo.define_schema(Schema("tagged", {"tag": Constraint.from_text("integer", "0..*")}))
        handles = [repo.create_document() for _ in range(5)]
        handles[0].enforce("tagged")
        flushes = 0
        for _ in range(1500):
            try:
                _mutate(rng, rng.choice(handles))
            except SchemaViolation:  # a tag that is not an integer, on the enforcing document
                pass
            if rng.random() < 0.08:
                repo.flush()
                flushes += 1
                assert repo.backend._encode_checkpoint() == twin._encode_checkpoint()
                for handle in handles:
                    assert repo.backend.scan_rows(handle.doc_id) == twin.scan_rows(handle.doc_id)
                    stored = repo.backend.stored_bags_of(handle.doc_id)
                    assert {prop: stored.get(prop, (0, ()))[1] for prop in PROPS} == {
                        prop: handle.values(prop) for prop in PROPS
                    }
        assert flushes > 50
        assert any(home[0] for h in handles for home in repo.backend.stored_bags_of(h.doc_id).values())
