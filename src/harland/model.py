"""Core data model: typed values, constraints, schemas, document snapshots.

Everything here is immutable. Mutation happens in the engine by building a
new snapshot; these types only describe state and compare it.
"""

from __future__ import annotations

import struct
import re
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from math import isnan
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_INT64_RANGE = "Integer payload out of signed 64-bit range"
_NAN = "NaN is rejected at ingestion"
_TS_RANGE = "Timestamp out of representable range"


def _dt_to_ms(dt: datetime) -> int:
    delta = dt - _EPOCH
    return delta.days * 86_400_000 + delta.seconds * 1000 + delta.microseconds // 1000


# datetime.min/max bound the representable timestamp range
_TS_MIN = _dt_to_ms(datetime.min.replace(tzinfo=timezone.utc))
_TS_MAX = _dt_to_ms(datetime.max.replace(tzinfo=timezone.utc))

_ISO_RE = re.compile(
    r"^(\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2})(?:\.(\d{1,9}))?(Z|[+-]\d{2}:\d{2})?$"
)


class ValueType(Enum):
    TEXT = "text"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    TIMESTAMP = "timestamp"
    BYTES = "bytes"


# types with a total order; Boolean and Bytes support equality only
ORDERED_TYPES = frozenset({ValueType.TEXT, ValueType.INTEGER, ValueType.FLOAT, ValueType.TIMESTAMP})
# For tests by identity on per-value paths: on Python 3.11, `in ORDERED_TYPES`
# runs Enum.__hash__ and `ValueType.FLOAT` an EnumType lookup, ~70 ns each.
TEXT, INTEGER, FLOAT, BOOLEAN, TIMESTAMP, BYTES = (
    ValueType.TEXT, ValueType.INTEGER, ValueType.FLOAT, ValueType.BOOLEAN, ValueType.TIMESTAMP, ValueType.BYTES
)


def check_payload(t: ValueType, p) -> None:
    """Raises ValueError unless p is a valid payload of a Value of type t:
    Integer in the signed 64-bit range, Float not NaN, Timestamp within
    datetime's range, and each payload of its type's Python type. Value
    checks every payload it is built with through this."""
    if t is TEXT:
        if not isinstance(p, str):
            raise ValueError("Text payload must be str")
        try:
            p.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"Text payload is not valid Unicode: {exc}") from exc
    elif t is INTEGER:
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError("Integer payload must be int")
        if not _INT64_MIN <= p <= _INT64_MAX:
            raise ValueError(_INT64_RANGE)
    elif t is FLOAT:
        if not isinstance(p, float):
            raise ValueError("Float payload must be float")
        if p != p:
            raise ValueError(_NAN)
    elif t is BOOLEAN:
        if not isinstance(p, bool):
            raise ValueError("Boolean payload must be bool")
    elif t is TIMESTAMP:
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError("Timestamp payload must be epoch milliseconds (int)")
        if not _TS_MIN <= p <= _TS_MAX:
            raise ValueError(_TS_RANGE)
    elif t is BYTES:
        if not isinstance(p, bytes):
            raise ValueError("Bytes payload must be bytes")


def check_payloads(t: ValueType, ps: list) -> None:
    """check_payload's range checks over a non-empty list of payloads of
    type t, each already of t's Python type, in aggregate: the least and
    greatest Integer or Timestamp, and any NaN Float. A reader that parses
    many payloads of one type (open) checks them through this."""
    if t is INTEGER:
        if min(ps) < _INT64_MIN or max(ps) > _INT64_MAX:
            raise ValueError(_INT64_RANGE)
    elif t is FLOAT:
        if any(map(isnan, ps)):
            raise ValueError(_NAN)
    elif t is TIMESTAMP:
        if min(ps) < _TS_MIN or max(ps) > _TS_MAX:
            raise ValueError(_TS_RANGE)


@dataclass(frozen=True, eq=False, slots=True)
class Value:
    """One typed value. Equality is bit-exact: Float compares by IEEE bits."""

    vtype: ValueType
    payload: object

    def __post_init__(self):
        check_payload(self.vtype, self.payload)

    # ---- constructors ----

    @classmethod
    def text(cls, s: str) -> "Value":
        return cls(ValueType.TEXT, s)

    @classmethod
    def integer(cls, i: int) -> "Value":
        return cls(ValueType.INTEGER, i)

    @classmethod
    def floating(cls, f: float) -> "Value":
        return cls(ValueType.FLOAT, f)

    @classmethod
    def boolean(cls, b: bool) -> "Value":
        return cls(ValueType.BOOLEAN, b)

    @classmethod
    def timestamp(cls, ms_or_dt) -> "Value":
        if isinstance(ms_or_dt, datetime):
            dt = ms_or_dt
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            return cls(ValueType.TIMESTAMP, _dt_to_ms(dt.astimezone(timezone.utc)))
        return cls(ValueType.TIMESTAMP, ms_or_dt)

    @classmethod
    def timestamp_text(cls, text: str) -> "Value":
        """Parse an ISO-8601 date-time; UTC assumed when no offset is given.

        Precision beyond milliseconds truncates.
        """
        m = _ISO_RE.match(text)
        if m is None:
            raise ValueError(f"not an ISO-8601 date-time: {text!r}")
        base, frac, offset = m.groups()
        micros = int((frac or "0").ljust(6, "0")[:6])
        if offset in (None, "Z"):
            offset = "+00:00"
        dt = datetime.fromisoformat(f"{base}{offset}").astimezone(timezone.utc)
        dt = dt.replace(microsecond=micros)
        return cls(ValueType.TIMESTAMP, _dt_to_ms(dt))

    @classmethod
    def binary(cls, b: bytes) -> "Value":
        return cls(ValueType.BYTES, b)

    # ---- rendering ----

    def to_timestamp_text(self) -> str:
        if self.vtype is not ValueType.TIMESTAMP:
            raise ValueError("not a Timestamp value")
        dt = _EPOCH + timedelta(milliseconds=self.payload)
        # %Y does not pad years before 1000, which timestamp_text requires
        return f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}.{self.payload % 1000:03d}Z"

    # ---- identity ----

    def _key(self):
        t, p = self.vtype, self.payload
        if t is FLOAT:
            p = struct.pack(">d", p)
        elif t is BOOLEAN:
            p = b"\x01" if p else b"\x00"
        return (t._value_, p)

    def __eq__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        t = self.vtype
        if t is not other.vtype:
            return False
        if t is FLOAT:
            return struct.pack(">d", self.payload) == struct.pack(">d", other.payload)
        return self.payload == other.payload  # what _key() compares for every other type

    def __hash__(self):
        # equal values have equal payloads, so this agrees with __eq__
        # without packing floats (-0.0 and 0.0 share a hash but not equality)
        return hash((self.vtype._value_, self.payload))

    def __repr__(self):
        return f"Value({self.vtype.value}, {self.payload!r})"


def sort_key(value: Value):
    """Deterministic total order over all values, used to canonicalize bags."""
    return value._key()


def bag(values: Iterable[Value]) -> tuple[Value, ...]:
    """Canonical form of a value bag: a tuple sorted by sort_key, duplicates kept."""
    return tuple(sorted(values, key=sort_key))


def occurrences(values: tuple[Value, ...]) -> Iterator[tuple[Value, int]]:
    """Each value of a canonical bag with its ordinal: 0 for the value's
    first occurrence, 1 for its second, and so on. Equal values of a bag
    are adjacent, since sort_key tells unequal values apart."""
    ordinal, last = 0, None
    for value in values:
        ordinal = ordinal + 1 if value == last else 0
        last = value
        yield value, ordinal


def compare_values(a: Value, b: Value) -> Optional[int]:
    """Compare two values: -1/0/+1, or None when incomparable.

    Values of different types never compare. Boolean and Bytes support
    equality only, so unequal pairs of those are incomparable too. Float
    uses a total order where -0.0 sorts below +0.0, matching bit equality.
    """
    t = a.vtype
    if t is not b.vtype:
        return None
    if t is not BOOLEAN and t is not BYTES:
        if t is FLOAT:
            if a.payload < b.payload:
                return -1
            if a.payload > b.payload:
                return 1
            if a._key() == b._key():
                return 0
            return -1 if struct.pack(">d", a.payload)[0] & 0x80 else 1
        if a.payload < b.payload:
            return -1
        if a.payload > b.payload:
            return 1
        return 0
    return 0 if a._key() == b._key() else None


_ARITIES = {"0..1": (0, 1), "1..1": (1, 1), "0..*": (0, None), "1..*": (1, None)}


@dataclass(frozen=True)
class Constraint:
    """Per-property rule: value type plus bag-size bounds.

    min_count is 0 or 1; max_count is 1 or None (unbounded).
    """

    value_type: ValueType
    min_count: int
    max_count: Optional[int]

    def __post_init__(self):
        if self.min_count not in (0, 1):
            raise ValueError("min_count must be 0 or 1")
        if self.max_count not in (1, None):
            raise ValueError("max_count must be 1 or unbounded (None)")
        if self.max_count is not None and self.min_count > self.max_count:
            raise ValueError("min_count exceeds max_count")

    @classmethod
    def from_text(cls, type_tag: str, arity: str) -> "Constraint":
        try:
            vtype = ValueType(type_tag)
        except ValueError:
            raise ValueError(f"unknown value type {type_tag!r}") from None
        if arity not in _ARITIES:
            raise ValueError(f"unknown arity {arity!r}, expected one of {sorted(_ARITIES)}")
        lo, hi = _ARITIES[arity]
        return cls(vtype, lo, hi)

    def arity_text(self) -> str:
        return f"{self.min_count}..{self.max_count if self.max_count is not None else '*'}"


@dataclass(frozen=True)
class Schema:
    """Named set of property constraints. May be empty (pure synchronization marker)."""

    name: str
    constraints: Mapping[str, Constraint] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("schema name must be non-empty")
        for prop in self.constraints:
            if not prop:
                raise ValueError("property names must be non-empty")


class DocumentKind(Enum):
    PLAIN = "plain"
    COLLECTION = "collection"
    CONTENT = "content"


class _IdFields(NamedTuple):
    value: int


class DocumentId(_IdFields):
    """Opaque 128-bit identifier, rendered in canonical UUID text form.

    A one-field tuple, so hashing, equality and ordering run in C: an id
    hashes and compares as (value,), and has length 1.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "DocumentId":
        if not 0 <= value < 2**128:
            raise ValueError("document id out of 128-bit range")
        return tuple.__new__(cls, (value,))

    @classmethod
    def parse(cls, text: str) -> "DocumentId":
        # the canonical form (what __str__ writes) skips building a uuid.UUID;
        # uuid.UUID reads it the same way, as the 32 digits between the hyphens
        if len(text) == 36 and text[8] == text[13] == text[18] == text[23] == "-":
            digits = text.replace("-", "")
            if len(digits) == 32:
                return cls(int(digits, 16))
        return cls(uuid.UUID(text).int)

    def __str__(self):
        h = "%032x" % self[0]
        return f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}"

    def __repr__(self):
        return f"DocumentId({self})"


@dataclass(frozen=True)
class DocumentSnapshot:
    """Immutable committed view of one document.

    properties maps name -> canonical value bag (never empty: a property
    with no values does not exist). members is populated only for
    collections.
    """

    doc_id: DocumentId
    kind: DocumentKind
    properties: Mapping[str, tuple[Value, ...]]
    enforced: frozenset[str]
    members: frozenset[DocumentId]

    def __post_init__(self):
        if self.members and self.kind is not DocumentKind.COLLECTION:
            raise ValueError("only collections have members")
        for name, values in self.properties.items():
            if not values:
                raise ValueError(f"property {name!r} has an empty bag; drop it instead")

    @classmethod
    def trusted(cls, doc_id: DocumentId, kind: DocumentKind, properties: Mapping[str, tuple[Value, ...]],
                enforced: frozenset[str], members: frozenset[DocumentId]) -> "DocumentSnapshot":
        """A snapshot built without __post_init__'s checks, for a caller that
        guarantees them: the engine, which never keeps an empty bag and
        gives members only to collections."""
        snapshot = object.__new__(cls)
        snapshot.__dict__.update(doc_id=doc_id, kind=kind, properties=properties, enforced=enforced, members=members)
        return snapshot

    def values_of(self, prop_name: str) -> tuple[Value, ...]:
        """The property's value bag; absent property reads as the empty bag."""
        return self.properties.get(prop_name, ())
