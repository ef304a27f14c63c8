"""Registry consistency, conformance checking, and mutation validation."""

from __future__ import annotations

import sys
import threading

import pytest

from harland.errors import DuplicateSchema, InconsistentSchema, UnknownSchema
from harland.model import (
    Constraint,
    DocumentId,
    DocumentKind,
    DocumentSnapshot,
    Schema,
    Value,
    bag,
)
from harland.schemas import Reason, SchemaRegistry, Violation

T1 = Value.timestamp_text("2001-05-01T00:00:00Z")
T2 = Value.timestamp_text("2001-06-01T00:00:00Z")


def todo_schema() -> Schema:
    return Schema(
        "to-do",
        {
            "Subject": Constraint.from_text("text", "1..1"),
            "Received": Constraint.from_text("timestamp", "1..1"),
            "Deadline": Constraint.from_text("timestamp", "1..1"),
            "Categories": Constraint.from_text("text", "0..*"),
        },
    )


def email_schema() -> Schema:
    return Schema(
        "email",
        {
            "Subject": Constraint.from_text("text", "1..1"),
            "Received": Constraint.from_text("timestamp", "1..1"),
            "From": Constraint.from_text("text", "1..1"),
        },
    )


def _snap(props: dict, enforced=frozenset()) -> DocumentSnapshot:
    return DocumentSnapshot(
        DocumentId(1), DocumentKind.PLAIN, {k: bag(v) for k, v in props.items()}, frozenset(enforced), frozenset()
    )


def test_define_assigns_registration_slices():
    reg = SchemaRegistry()
    assert reg.define(email_schema()) == 1
    assert reg.define(todo_schema()) == 2
    assert reg.slice_of_schema("email") == 1
    assert reg.slice_of_schema("to-do") == 2


def test_duplicate_name_rejected():
    reg = SchemaRegistry()
    reg.define(todo_schema())
    with pytest.raises(DuplicateSchema):
        reg.define(Schema("to-do", {}))


def test_inconsistent_shared_property_rejected():
    reg = SchemaRegistry()
    reg.define(email_schema())
    bad = Schema("memo", {"Subject": Constraint.from_text("text", "0..*")})
    with pytest.raises(InconsistentSchema) as exc:
        reg.define(bad)
    assert exc.value.existing == "email"
    assert exc.value.prop == "Subject"
    # identical constraint on the shared name is fine
    reg.define(Schema("memo", {"Subject": Constraint.from_text("text", "1..1")}))


def test_concurrent_definitions_take_distinct_slices():
    """Definers race one another and readers of the table they install into:
    every definition gets its own slice, and names() lists them by slice."""
    reg = SchemaRegistry()
    got: dict[str, int] = {}
    errors: list[BaseException] = []
    done = threading.Event()

    def define(worker: int) -> None:
        try:
            for i in range(25):
                name = f"s{worker}-{i}"
                got[name] = reg.define(Schema(name, {"shared": Constraint.from_text("text", "0..*")}))
        except BaseException as exc:
            errors.append(exc)

    def read() -> None:
        try:
            while not done.is_set():
                listed = reg.names()
                assert [reg.slice_of_schema(n) for n in listed] == list(range(1, len(listed) + 1))
                assert reg.schemas_containing("shared")[: len(listed)] == listed  # later: more at the end
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        definers = [threading.Thread(target=define, args=(w,)) for w in range(8)]
        readers = [threading.Thread(target=read) for _ in range(4)]
        for t in definers + readers:
            t.start()
        for t in definers:
            t.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in definers + readers)
    assert errors == []
    assert sorted(got.values()) == list(range(1, 201))
    assert reg.names() == sorted(got, key=got.__getitem__)


def test_conformance_missing_required():
    reg = SchemaRegistry()
    reg.define(todo_schema())
    snap = _snap({"Subject": [Value.text("x")], "Received": [T1]})
    vs = reg.violations(snap, "to-do")
    assert vs == [Violation("to-do", "Deadline", Reason.MISSING_REQUIRED)]


def test_conformance_full_doc():
    reg = SchemaRegistry()
    reg.define(todo_schema())
    snap = _snap({"Subject": [Value.text("x")], "Received": [T1], "Deadline": [T2]})
    assert reg.violations(snap, "to-do") == []


def test_conformance_wrong_type_and_too_many():
    reg = SchemaRegistry()
    reg.define(todo_schema())
    snap = _snap(
        {
            "Subject": [Value.text("a"), Value.text("b")],
            "Received": [Value.integer(5)],
            "Deadline": [T2],
        }
    )
    vs = reg.violations(snap, "to-do")
    assert Violation("to-do", "Subject", Reason.TOO_MANY_VALUES) in vs
    assert Violation("to-do", "Received", Reason.WRONG_TYPE) in vs
    assert len(vs) == 2


def test_unknown_schema():
    reg = SchemaRegistry()
    with pytest.raises(UnknownSchema):
        reg.violations(_snap({}), "nope")
    with pytest.raises(UnknownSchema):
        reg.get("nope")


def test_validate_mutation_refines_drained_required_property():
    reg = SchemaRegistry()
    reg.define(todo_schema())
    before = _snap(
        {"Subject": [Value.text("x")], "Received": [T1], "Deadline": [T2]},
        enforced={"to-do"},
    )
    proposed = _snap({"Subject": [Value.text("x")], "Received": [T1]}, enforced={"to-do"})
    vs = reg.validate_mutation(before, proposed)
    assert vs == [Violation("to-do", "Deadline", Reason.TOO_FEW_VALUES)]


def test_validate_mutation_ok_and_too_many():
    reg = SchemaRegistry()
    reg.define(todo_schema())
    before = _snap(
        {"Subject": [Value.text("x")], "Received": [T1], "Deadline": [T2]},
        enforced={"to-do"},
    )
    ok = _snap(
        {"Subject": [Value.text("y")], "Received": [T1], "Deadline": [T2],
         "Categories": [Value.text("a"), Value.text("a")]},
        enforced={"to-do"},
    )
    assert reg.validate_mutation(before, ok) == []
    two_subjects = _snap(
        {"Subject": [Value.text("x"), Value.text("y")], "Received": [T1], "Deadline": [T2]},
        enforced={"to-do"},
    )
    assert reg.validate_mutation(before, two_subjects) == [
        Violation("to-do", "Subject", Reason.TOO_MANY_VALUES)
    ]


def test_validate_mutation_ignores_unenforced_schemas():
    reg = SchemaRegistry()
    reg.define(todo_schema())
    before = _snap({}, enforced=set())
    proposed = _snap({"Deadline": [Value.text("wrong type")]})
    assert reg.validate_mutation(before, proposed) == []


def test_empty_schema_always_conforms():
    reg = SchemaRegistry()
    reg.define(Schema("sync", {}))
    assert reg.violations(_snap({"anything": [Value.integer(1)]}), "sync") == []
