"""Schema registry: definitions and conformance checks.

Which schemas exist and which slice each one owns is held by the store's
committed schema table alone; the registry checks and writes definitions
into it and reads them back. Which documents a schema is enforced on is
document metadata, held by the store's committed tables and the engine's
pending records; the registry only validates documents against schemas.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Mapping, Optional

from harland.errors import DuplicateSchema, InconsistentSchema, UnknownSchema
from harland.model import Constraint, DocumentSnapshot, Schema, Value
from harland.store import MemoryBackend, SchemaDef

DEFAULT_SLICE = 0


class Reason(Enum):
    MISSING_REQUIRED = "MissingRequired"
    TOO_MANY_VALUES = "TooManyValues"
    TOO_FEW_VALUES = "TooFewValues"
    WRONG_TYPE = "WrongType"


@dataclass(frozen=True)
class Violation:
    schema: str
    prop: str
    reason: Reason

    def __str__(self):
        return f"{self.schema} {self.prop} {self.reason.value}"


class SchemaRegistry:
    """The schemas of one store, read from the backend's committed schema
    table, which is their only record.

    define() writes a definition through the backend, so a schema exists
    once its batch has installed and not before. Each schema gets the slice
    id one past the highest in the table (slice 0 is the default slice for
    properties outside every schema), so "earliest registered" and "lowest
    slice id" coincide. A registry built without a backend keeps its
    definitions in a MemoryBackend of its own.
    """

    def __init__(self, backend: Optional[MemoryBackend] = None):
        self._backend = MemoryBackend() if backend is None else backend
        self._lock = threading.Lock()  # one define at a time

    def _defined(self) -> list[tuple[Schema, int]]:
        """(schema, slice id) of each definition, in slice id order. Copied
        first: the backend installs definitions under its own lock."""
        return sorted(dict(self._backend.schema_defs()).values(), key=itemgetter(1))

    # ---- definitions ----

    def define(self, schema: Schema) -> int:
        """Register a schema, durable before this returns, and return its slice id."""
        with self._lock:
            if self.has(schema.name):
                raise DuplicateSchema(f"schema {schema.name!r} is already defined")
            defined = self._defined()
            for other, _ in defined:
                for prop, constraint in schema.constraints.items():
                    theirs = other.constraints.get(prop)
                    if theirs is not None and theirs != constraint:
                        raise InconsistentSchema(other.name, prop)
            slice_id = max((s for _, s in defined), default=DEFAULT_SLICE) + 1
            self._backend.put_rows(meta=(SchemaDef(schema, slice_id),))
            return slice_id

    def _entry(self, name: str) -> tuple[Schema, int]:
        try:
            return self._backend.schema_defs()[name]
        except KeyError:
            raise UnknownSchema(f"schema {name!r} is not defined") from None

    def get(self, name: str) -> Schema:
        return self._entry(name)[0]

    def has(self, name: str) -> bool:
        return name in self._backend.schema_defs()

    def names(self) -> list[str]:
        """All registered names in registration (slice id) order."""
        return [schema.name for schema, _ in self._defined()]

    def slice_of_schema(self, name: str) -> int:
        return self._entry(name)[1]

    def schemas_containing(self, prop: str) -> list[str]:
        """Schemas that constrain prop, earliest registered first."""
        return [schema.name for schema, _ in self._defined() if prop in schema.constraints]

    def slice_for(self, prop: str, enforcement: Mapping[str, int]) -> int:
        """The slice a property's first write assigns it, permanently: that of
        the earliest enforced schema (by enforcement seq, from the document's
        schema -> seq map) that constrains it, else of the earliest
        registered schema that does, else the default slice."""
        best = (2, DEFAULT_SLICE)
        for schema, slice_id in dict(self._backend.schema_defs()).values():
            if prop in schema.constraints:
                seq = enforcement.get(schema.name)
                best = min(best, (1, slice_id) if seq is None else (0, seq, slice_id))
        return best[-1]

    # ---- conformance ----

    def violations(self, doc: DocumentSnapshot, name: str) -> list[Violation]:
        """All constraint violations of doc against one schema; empty when it conforms."""
        constraints = self.get(name).constraints
        return [
            Violation(name, prop, reason)
            for prop in sorted(constraints)
            for reason in _reasons(constraints[prop], doc.values_of(prop))
        ]

    def validate_mutation(self, before: DocumentSnapshot, proposed: DocumentSnapshot) -> list[Violation]:
        """Violations the proposed state would cause under before's enforced schemas.

        Only the properties whose bags differ between the two are checked,
        against the enforced schemas that constrain them: before conforms
        to each schema enforced on it (enforce checked it, and every
        mutation since), so no other property can violate one. The two
        snapshots may therefore hold the changed properties alone.

        An absent required property reads as MissingRequired in a plain
        conformance check; here, when the property held values before the
        mutation, the reason refines to TooFewValues: the mutation drained it.
        """
        if not before.enforced:
            return []
        changed = [
            prop for prop in before.properties.keys() | proposed.properties.keys()
            if before.values_of(prop) != proposed.values_of(prop)
        ]
        found: list[Violation] = []
        for name in sorted(before.enforced):
            constraints = self.get(name).constraints
            for prop in sorted(p for p in changed if p in constraints):
                for reason in _reasons(constraints[prop], proposed.values_of(prop)):
                    if reason is Reason.MISSING_REQUIRED and before.values_of(prop):
                        reason = Reason.TOO_FEW_VALUES
                    found.append(Violation(name, prop, reason))
        return found


def _reasons(constraint: Constraint, values: tuple[Value, ...]) -> list[Reason]:
    """How one property's bag violates its constraint, in report order."""
    found = []
    n = len(values)
    if n == 0 and constraint.min_count > 0:
        found.append(Reason.MISSING_REQUIRED)
    elif constraint.max_count is not None and n > constraint.max_count:
        found.append(Reason.TOO_MANY_VALUES)
    if any(v.vtype is not constraint.value_type for v in values):
        found.append(Reason.WRONG_TYPE)
    return found
