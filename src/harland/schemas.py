"""Schema registry: definitions and conformance checks.

The registry is the in-memory authority for which schemas exist and which
slice each one owns. Which documents a schema is enforced on is document
metadata, held by the store's committed tables and the engine's pending
records; the registry only validates documents against schemas.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from harland.errors import DuplicateSchema, InconsistentSchema, UnknownSchema
from harland.model import DocumentSnapshot, Schema

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
    """Registered schemas and their slices.

    Each schema gets a slice id equal to its registration ordinal (1-based;
    slice 0 is the default slice for properties outside every schema), so
    "earliest registered" and "lowest slice id" coincide.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._schemas: dict[str, Schema] = {}
        self._slice_ids: dict[str, int] = {}
        self._next_slice = 1

    # ---- definitions ----

    def define(self, schema: Schema, slice_id: Optional[int] = None) -> int:
        """Register a schema and return its slice id.

        slice_id is only passed when reloading persisted definitions.
        """
        with self._lock:
            if schema.name in self._schemas:
                raise DuplicateSchema(f"schema {schema.name!r} is already defined")
            for other in self._schemas.values():
                for prop, constraint in schema.constraints.items():
                    theirs = other.constraints.get(prop)
                    if theirs is not None and theirs != constraint:
                        raise InconsistentSchema(other.name, prop)
            if slice_id is None:
                slice_id = self._next_slice
            self._schemas[schema.name] = schema
            self._slice_ids[schema.name] = slice_id
            self._next_slice = max(self._next_slice, slice_id + 1)
            return slice_id

    def undefine(self, name: str) -> None:
        """Rolls back a definition that failed to persist. Not a general
        drop: enforcement referencing the name must not exist yet."""
        with self._lock:
            self._schemas.pop(name, None)
            self._slice_ids.pop(name, None)

    def get(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownSchema(f"schema {name!r} is not defined") from None

    def has(self, name: str) -> bool:
        return name in self._schemas

    def names(self) -> list[str]:
        """All registered names in registration (slice id) order."""
        with self._lock:
            return sorted(self._schemas, key=self._slice_ids.__getitem__)

    def slice_of_schema(self, name: str) -> int:
        self.get(name)
        return self._slice_ids[name]

    def schemas_containing(self, prop: str) -> list[str]:
        """Schemas that constrain prop, earliest registered first."""
        with self._lock:
            hits = [n for n, s in self._schemas.items() if prop in s.constraints]
            return sorted(hits, key=self._slice_ids.__getitem__)

    # ---- conformance ----

    def violations(self, doc: DocumentSnapshot, name: str) -> list[Violation]:
        """All constraint violations of doc against one schema; empty when it conforms."""
        schema = self.get(name)
        found: list[Violation] = []
        for prop in sorted(schema.constraints):
            constraint = schema.constraints[prop]
            values = doc.values_of(prop)
            n = len(values)
            if n == 0 and constraint.min_count > 0:
                found.append(Violation(name, prop, Reason.MISSING_REQUIRED))
            elif constraint.max_count is not None and n > constraint.max_count:
                found.append(Violation(name, prop, Reason.TOO_MANY_VALUES))
            if any(v.vtype is not constraint.value_type for v in values):
                found.append(Violation(name, prop, Reason.WRONG_TYPE))
        return found

    def validate_mutation(self, before: DocumentSnapshot, proposed: DocumentSnapshot) -> list[Violation]:
        """Violations the proposed state would cause under before's enforced schemas.

        An absent required property reads as MissingRequired in a plain
        conformance check; here, when the property held values before the
        mutation, the reason refines to TooFewValues: the mutation drained it.
        """
        found: list[Violation] = []
        for name in sorted(before.enforced):
            for v in self.violations(proposed, name):
                if v.reason is Reason.MISSING_REQUIRED and before.values_of(v.prop):
                    v = Violation(v.schema, v.prop, Reason.TOO_FEW_VALUES)
                found.append(v)
        return found
