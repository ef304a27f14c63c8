"""Value, ordering, and snapshot invariants for the core model."""

from __future__ import annotations

import copy
import math
import struct

import pytest
from hypothesis import given, strategies as st

from harland.model import (
    Constraint,
    DocumentId,
    DocumentKind,
    DocumentSnapshot,
    Schema,
    Value,
    ValueType,
    bag,
    compare_values,
)

# Epoch milliseconds for 2001-05-01T00:00:00Z, computed by hand:
# 11443 days (31 years incl. 8 leap days, plus 120 days into 2001) * 86400 * 1000.
MAY_2001_MS = 988_675_200_000


def test_timestamp_text_round_trip():
    v = Value.timestamp_text("2001-05-01T00:00:00Z")
    assert v.payload == MAY_2001_MS
    assert v.to_timestamp_text() == "2001-05-01T00:00:00.000Z"
    again = Value.timestamp_text(v.to_timestamp_text())
    assert again == v


def test_timestamp_text_variants():
    base = Value.timestamp_text("2001-05-01T00:00:00Z")
    assert Value.timestamp_text("2001-05-01T00:00:00+00:00") == base
    assert Value.timestamp_text("2001-05-01T00:00:00.000Z") == base
    half = Value.timestamp_text("2001-05-01T00:00:00.5Z")
    assert half.payload == MAY_2001_MS + 500
    # sub-millisecond digits truncate
    assert Value.timestamp_text("2001-05-01T00:00:00.5009Z").payload == MAY_2001_MS + 500


def test_integer_bounds():
    Value.integer(2**63 - 1)
    Value.integer(-(2**63))
    with pytest.raises(ValueError):
        Value.integer(2**63)
    with pytest.raises(ValueError):
        Value.integer(True)  # bool is not an Integer


def test_nan_rejected_at_ingestion():
    with pytest.raises(ValueError):
        Value.floating(float("nan"))


def test_payload_type_checked():
    with pytest.raises(ValueError):
        Value.text(7)
    with pytest.raises(ValueError):
        Value.binary("not-bytes")
    with pytest.raises(ValueError):
        Value.boolean(1)
    with pytest.raises(ValueError):
        Value.text("\ud800")  # lone surrogate cannot round-trip through UTF-8


def test_float_equality_is_bitwise():
    assert Value.floating(0.0) != Value.floating(-0.0)
    assert Value.floating(1.5) == Value.floating(1.5)
    assert hash(Value.floating(2.5)) == hash(Value.floating(2.5))



def test_equal_values_hash_equal():
    floats = [0.0, -0.0, 5e-324, -5e-324, 1.5, -2.25, 1e300, math.inf, -math.inf]
    floats += [struct.unpack(">d", bits)[0] for bits in (b"\x3f\xf0\x00\x00\x00\x00\x00\x01", b"\x7f\xef" + b"\xff" * 6)]
    makers = [
        (Value.text, ["", "a", "été"]),
        (Value.integer, [0, 1, -1, 2**63 - 1]),
        (Value.floating, floats),
        (Value.boolean, [False, True]),
        (Value.timestamp, [0, 1, MAY_2001_MS]),
        (Value.binary, [b"", b"\x00", b"\x01"]),
    ]
    values = []
    for make, payloads in makers:
        for payload in payloads:
            a, b = make(payload), make(copy.copy(payload))
            assert a == b and hash(a) == hash(b)
            values.append(a)
    # every pair above differs: by type, by payload, or by float bits
    assert len(set(values)) == len(values)
    assert Value.floating(-0.0) != Value.floating(0.0)
    assert Value.boolean(True) != Value.integer(1) and Value.boolean(False) != Value.integer(0)
    assert {Value.boolean(True): "b"}.get(Value.integer(1)) is None
    assert len({Value.floating(0.0), Value.floating(-0.0), Value.integer(0), Value.timestamp(0)}) == 4

def test_cross_type_incomparable():
    assert compare_values(Value.integer(3), Value.text("3")) is None
    samples = {
        ValueType.TEXT: Value.text("a"),
        ValueType.INTEGER: Value.integer(1),
        ValueType.FLOAT: Value.floating(1.0),
        ValueType.BOOLEAN: Value.boolean(True),
        ValueType.TIMESTAMP: Value.timestamp(0),
        ValueType.BYTES: Value.binary(b"a"),
    }
    for ta, va in samples.items():
        for tb, vb in samples.items():
            if ta is not tb:
                assert compare_values(va, vb) is None


def test_equality_only_types():
    assert compare_values(Value.boolean(True), Value.boolean(True)) == 0
    assert compare_values(Value.boolean(True), Value.boolean(False)) is None
    assert compare_values(Value.binary(b"x"), Value.binary(b"x")) == 0
    assert compare_values(Value.binary(b"x"), Value.binary(b"y")) is None


def test_ordered_types():
    assert compare_values(Value.text("a"), Value.text("b")) == -1
    assert compare_values(Value.integer(5), Value.integer(5)) == 0
    assert compare_values(Value.timestamp(10), Value.timestamp(2)) == 1
    assert compare_values(Value.floating(-0.0), Value.floating(0.0)) == -1
    assert compare_values(Value.floating(math.inf), Value.floating(1e308)) == 1


_ordered = st.one_of(
    st.text(max_size=6).map(Value.text),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(Value.integer),
    st.floats(allow_nan=False).map(Value.floating),
    st.integers(min_value=-(2**40), max_value=2**40).map(Value.timestamp),
)


@given(_ordered, _ordered, _ordered)
def test_same_type_total_order(a, b, c):
    if not (a.vtype is b.vtype is c.vtype):
        return
    ab, ba = compare_values(a, b), compare_values(b, a)
    assert ab is not None and ab == -ba
    assert (ab == 0) == (a == b)
    if ab <= 0 and compare_values(b, c) <= 0:
        assert compare_values(a, c) <= 0


@given(st.lists(_ordered, max_size=8), st.randoms())
def test_bag_order_independence(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert bag(values) == bag(shuffled)
    assert len(bag(values)) == len(values)  # duplicates retained


def test_constraint_arity():
    c = Constraint.from_text("text", "1..1")
    assert c.value_type is ValueType.TEXT
    assert (c.min_count, c.max_count) == (1, 1)
    assert c.arity_text() == "1..1"
    assert Constraint.from_text("timestamp", "0..*").max_count is None
    with pytest.raises(ValueError):
        Constraint.from_text("text", "2..3")
    with pytest.raises(ValueError):
        Constraint(ValueType.TEXT, 1, 0)


def test_schema_may_be_empty():
    s = Schema("sync", {})
    assert s.constraints == {}
    with pytest.raises(ValueError):
        Schema("", {})


def test_snapshot_members_only_on_collections():
    did = DocumentId.parse("00000000-0000-0000-0000-000000000001")
    other = DocumentId.parse("00000000-0000-0000-0000-000000000002")
    with pytest.raises(ValueError):
        DocumentSnapshot(did, DocumentKind.PLAIN, {}, frozenset(), frozenset({other}))
    snap = DocumentSnapshot(did, DocumentKind.COLLECTION, {}, frozenset(), frozenset({other}))
    assert other in snap.members


def test_values_of_absent_is_empty():
    did = DocumentId.parse("00000000-0000-0000-0000-0000000000aa")
    snap = DocumentSnapshot(did, DocumentKind.PLAIN, {"x": bag([Value.integer(1)])}, frozenset(), frozenset())
    assert snap.values_of("missing") == ()
    assert snap.values_of("x") == (Value.integer(1),)


def test_document_id_round_trip():
    text = "123e4567-e89b-12d3-a456-426614174000"
    did = DocumentId.parse(text)
    assert str(did) == text
    assert DocumentId.parse(str(did)) == did
    assert DocumentId(1) < DocumentId(2)
