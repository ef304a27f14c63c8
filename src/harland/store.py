"""Vertical-row persistence: one row per property value, plus metadata.

Rows are the records of the checkpoint file and of the backend's write
and audit API (put_rows, scan_rows). In memory a backend keeps each
document's values as {prop: (slice, bag)}, bag the canonical model.bag
tuple, and makes rows from bags only where those need them; a read
(fetch_slices) hands over (prop, bag) pairs, each bag the backend's own
tuple, so the engine caches a reference, not a copy. Ordinals are
serial: a value held n times by a property of a document has the
ordinals 0 to n - 1, and the property has one slice. put_rows refuses a
batch whose result breaks either, and open raises CorruptStore for a
file that does.

Two reference backends share one checkpoint format:

    HARLAND-STORE v1
    PROPS
    <doc> <slice> <prop> <type:payload> <ordinal>      (tab separated)
    META
    DOC <doc> <kind>
    SCHEMA <name> <slice> <prop>:<type>:<arity>...
    ENFORCE <doc> <seq> <schema>
    ASSIGN <doc> <prop> <slice>
    MEMBER <collection> <member>
    CONTENT
    <doc> <length> <sorted tokens>
    END <decimal CRC32C of all prior bytes>

Fields are backslash-escaped (\\t, \\n, \\r, \\\\). Text and Bytes payloads
are lowercase hex so every value round-trips bit-exactly. Records are
written in a canonical sort order, which makes checkpoint bytes a pure
function of store state. Content bytes live outside the checkpoint in
content/<doc-id> files under the store root.

Every writer (put_rows, content_write, delete_document) stages, persists,
then installs. A batch copies only the entries it touches, each document's
map or set copied on its first edit, with None for an entry it removes or
empties, and checks every record against its staged entries first and the
committed tables second. The staged entries are the one record of what a
batch changes: they name the blocks to encode again and the documents
whose columns to refresh. The checkpoint is encoded from the committed
tables with the staged entries laid over them; only once it is written do
the staged entries replace the committed ones, one assignment or pop per
table and key. A failed write leaves every committed table as it was, so
a reader without the lock never sees an entry that is not on disk.

Every section except SCHEMA is document-major in sorted id order (MEMBER by
collection), so the body is a join of per-document record blocks. Each
section orders its ids in a sorted list of chunks, runs of about _CHUNK
(32) consecutive ids. A chunk is the one home of its blocks: it keeps
their joined bytes, beside its list of ids a list of each block's span in
those bytes, and one (CRC, length) of the whole. A batch clears the spans
of the documents it touches, and the next encode joins each changed chunk
again from slices of its old bytes and the blocks it encodes anew, and
checksums the joined bytes whole: a write encodes only the blocks it
changed and checksums only the chunks it changed, and the file is written
from one part per chunk. END is the root of one combine tree (_Tree, after
zlib's crc32_combine), the backend's image tree, whose leaves are the
parts the file is written from, in file order: each header, every chunk
of every section, and the SCHEMA block. Each document section's leaves
are padded with empty leaves to a multiple of _RUN (128), so a chunk that
one section gains or loses moves no other section's leaves. The backend
keeps the list of parts and the tree's leaves between writes, and each
section keeps the chunks a batch cleared and the first index where it
gained or lost one: an encode folds those chunks, puts their parts and
leaves in place, and re-folds only the tree nodes above the leaves that
changed, so a one-document write costs O(log chunks) combines. A write
never sorts a section; its Python work grows with the store only where a
chunk gained or lost moves the rest of its section's parts and leaves,
and where a section's padded run grows or shrinks, which lays the whole
image out again.

A DiskBackend writes those parts with os.pwritev into the inode of the
image that its last write replaced, kept as a spare beside the checkpoint
(store.hl1.old) while the backend is open, and renames the result onto
store.hl1, so the kernel copies the image once into pages it already
holds, and allocates blocks only for the bytes by which the image
outgrows the spare, before it writes them (see _atomic_write and
DiskBackend). store.hl1 always names a complete image.

Opening a store seeds the same cache from the bytes it has just read: each
chunk's bytes are one slice of the file, each document's run of lines is
its block and gives its span, and each chunk is checksummed whole, as an
encode checksums it. END is verified by folding, through the same image
tree, the leaves open checksums: each seeded chunk, after each seeded
section the same padding a write adds, and the bytes between seeded
chunks, broken where a write's leaves break: at the edges of each header
and of the SCHEMA lines. So in a file the encoder wrote, an empty section
included, open's leaves are the leaves of a write, and the first write
after open re-folds only the nodes above what it changed. SCHEMA lines
that are the canonical block are seeded as that section's chunk, so the
first write neither encodes nor checksums them again. A section whose
runs are out of order, repeat a document or hold a duplicate record loads
unseeded, and its first encode builds it canonically. A backend that
never encodes and never opens a file builds no cache. Should open read an
image that a writer in another process was overwriting, it reads once
more (see _load_root).

Open decodes in batches of _BATCH (512) lines: one UTF-8 decode and one
split per batch, marker lines found by substring search, and each
section's fields transposed into columns, so the work per record runs in C
(map, zip, dict and set builders). Each distinct id and value text is
parsed once; a canonical id or timestamp takes a fast path. Besides the
file's bytes and the tables it fills, open holds one batch's lines and
columns at a time, so its extra memory does not grow with the store.

Open checks every record that it could fail on later, an ordinal gap and
a property in two slices included, but it builds the entries of a seeded
PROPS, ENFORCE or ASSIGN section (_LAZY) late (Abadi et al.,
*Materialization Strategies in a Column-Oriented DBMS*, ICDE 2007): it
parses each id and int text, and each value text into its payload,
checked as Value checks it, builds no Value, bag or entry, and leaves
each chunk's bytes the one home of its documents' entries. The first
read of any of them (a fetch, a scan, a metadata read, a write or delete
of one, an inverted file, the engine's flush diff) builds the chunk's
entries with the same decoder, under the lock; a batch builds every
chunk it drops a block from before it drops it, so no span is cleared
while its entries live only in the bytes it names. A column is built
from the lines of its one property in each unbuilt PROPS chunk, and
builds no bag. The bags of an unseeded PROPS section, or of one with
a value, ordinal or slice text that the encoder would not write (two
texts could then read as one, and only Values tell duplicates and gaps
apart), are built at open.

The CRC32C kernel reduces the message modulo the polynomial by folding
with precomputed constants x^d mod P, as Gopal et al. do with a carry-less
multiply (*Fast CRC Computation for Generic Polynomials Using PCLMULQDQ*,
Intel, 2009), here with big-integer shifts and XORs: the input, read as
one integer, is halved again and again by moving its first half onto its
second as a product with a constant of few set bits, about a dozen C-level
operations per halving. The constants are built once per process for each
size class of a fixed chain, never per input length (a few KB in all).
Inputs of at most 28 bytes, and what the folds leave, take a loop over one
256-entry table.

For queries, a backend keeps a column per property that some query has
named: each stored document's value bag, and per ordered value type the
sorted postings, one (key, document) entry per stored value, where the
Python order of the keys is the order of compare_values. A committed batch
or delete moves only the entries of the bags it changed (bisect.insort and
exact removal), so a comparison is answered by a bisect slice instead of a
scan of every bag, and several comparisons of one And on one property by
the one slice where their slices overlap. A column also keeps the set of
its multi-valued documents: a bag whose leaves pass by different values
lies in no such overlap, so each of those bags is tested against the
bounds in place. Likewise inverted files (Zobel and Moffat, ACM
Computing Surveys 2006) map each schema to the documents enforcing it,
each content token to the documents holding it, and each member to the
collections holding it, built from the tables the first time a reader
names them and kept current by the install step. A term a reader asks for
is handed over in id order, from a sorted copy made on that read and kept
until the install step moves a document in or out of the term.
"""

from __future__ import annotations

import bisect
import errno
import functools
import io
import itertools
import logging
import os
import re
import sys
import threading
import time
from collections import ChainMap, deque
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timedelta
from math import copysign
from operator import add, attrgetter, floordiv, itemgetter, lt, ne, sub
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Optional, Union

from harland.errors import CorruptStore, StorageFailure, UnknownDocument
from harland.model import (
    BOOLEAN,
    BYTES,
    FLOAT,
    INTEGER,
    TEXT,
    TIMESTAMP,
    Constraint,
    DocumentId,
    DocumentKind,
    Schema,
    Value,
    ValueType,
    bag,
    check_payload,
    check_payloads,
    compare_values,
    occurrences,
)

logger = logging.getLogger(__name__)

MAGIC = "HARLAND-STORE v1"
CHECKPOINT_NAME = "store.hl1"
CONTENT_DIR = "content"


# ---- CRC32C (Castagnoli): polynomial folds for long inputs, a table loop for the rest, and combine ----

_POLY = 0x82F63B78  # bit-reflected
_SLACK = 96  # fold class c holds up to _SLACK + 2^(c + 7) bits, and picks its constant from _SLACK - 30 candidates
_TAIL = (_SLACK + 128) // 8  # 28 bytes: inputs this short, and what the folds leave of longer ones, take the table loop


def _make_crc_table() -> list[int]:
    """Maps a byte to the CRC register after it, from a zero register."""
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC_TABLE = _make_crc_table()


def _make_nibble_table() -> list[int]:
    """Maps the 4 bits shifted out of a register to their reduction mod P."""
    table = []
    for i in range(16):
        crc = i
        for _ in range(4):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_NIBBLE_TABLE = _make_nibble_table()


def _multmodp(a: int, b: int) -> int:
    """a * b modulo the CRC polynomial, both bit-reflected (bit 31 is x^0).

    Horner's rule over the eight 4-bit digits of a, highest degree first,
    with the 16 multiples of b by a 4-bit polynomial tabulated up front.
    """
    t = _NIBBLE_TABLE
    b1 = (b >> 1) ^ _POLY if b & 1 else b >> 1  # b * x
    b2 = (b1 >> 1) ^ _POLY if b1 & 1 else b1 >> 1
    b3 = (b2 >> 1) ^ _POLY if b2 & 1 else b2 >> 1
    b23 = b2 ^ b3
    b01 = b ^ b1
    m = (0, b3, b2, b23, b1, b1 ^ b3, b1 ^ b2, b1 ^ b23,
         b, b ^ b3, b ^ b2, b ^ b23, b01, b01 ^ b3, b01 ^ b2, b01 ^ b23)
    p = m[a & 15]
    p = (p >> 4) ^ t[p & 15] ^ m[a >> 4 & 15]
    p = (p >> 4) ^ t[p & 15] ^ m[a >> 8 & 15]
    p = (p >> 4) ^ t[p & 15] ^ m[a >> 12 & 15]
    p = (p >> 4) ^ t[p & 15] ^ m[a >> 16 & 15]
    p = (p >> 4) ^ t[p & 15] ^ m[a >> 20 & 15]
    p = (p >> 4) ^ t[p & 15] ^ m[a >> 24 & 15]
    return (p >> 4) ^ t[p & 15] ^ m[a >> 28]


def _make_x2n() -> list[int]:
    """x^(2^k) modulo the polynomial for k < 64."""
    powers = [1 << 30]  # x^1
    for _ in range(63):
        powers.append(_multmodp(powers[-1], powers[-1]))
    return powers


_X2N = _make_x2n()


@functools.cache
def _x8n_table(k: int) -> tuple[int, ...]:
    """x^(8 * b * 256^k) modulo the polynomial for each byte b; built on first use."""
    step = _X2N[3 + 8 * k]  # x^(8 * 256^k)
    table = [1 << 31]  # x^0
    for _ in range(255):
        table.append(_multmodp(step, table[-1]))
    return tuple(table)


def _x8n(n: int) -> int:
    """x^(8n) modulo the polynomial: moves a CRC past n bytes.

    One table factor per nonzero byte of n, so n < 2^32 takes at most three
    _multmodp calls, whatever n is; nothing is cached per n.
    """
    p = 1 << 31  # x^0
    k = 0
    while n:
        if n & 255:
            factor = _x8n_table(k)[n & 255]
            p = factor if p == 1 << 31 else _multmodp(factor, p)
        n >>= 8
        k += 1
    return p


@functools.cache
def _folds(c: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The folds that take a message of class c down to _TAIL bytes, largest
    first, as (k, shifts) pairs; built on first use, once per class.

    Class c holds up to L = _SLACK + 2^(c + 7) bits. Read little-endian and
    padded with leading zero bits to exactly L bits (zero bits ahead of a
    message do not change its polynomial), a message is an integer r whose
    bit i is the coefficient of x^(L-1-i). Its low k = 2^(c + 6) bits h
    stand for h'(x) * x^(L-k), h' of degree below k, which for any d <= L - k
    is congruent mod P to h'(x) * (x^d mod P) * x^(L-k-d). With d >= k + 31
    that product lies within the L - k bits above h, where in bit-reflected
    order it is h times the reflected constant, shifted by d - k - 31. So a
    fold is r = (r >> k) ^ (h << s1) ^ (h << s2) ^ ..., one term per s in
    shifts, and leaves _SLACK + 2^(c + 6) bits: the length of class c - 1. Of the _SLACK - 30
    admissible d, the one whose constant has the fewest set bits is kept
    (9 to 13 of 32), so a fold costs about a dozen C-level big-integer
    shifts and XORs over half the message.
    """
    if c == 0:
        return ()
    consts = [_multmodp(_X2N[c + 6], 1)]  # x^k * x^31, the constant of d = k + 31, k = 2^(c + 6)
    for _ in range(_SLACK - 31):
        const = consts[-1]
        consts.append((const >> 1) ^ _POLY if const & 1 else const >> 1)  # times x
    shift = min(range(len(consts)), key=lambda i: consts[i].bit_count())  # d - k - 31
    shifts = tuple(shift + t for t in range(32) if consts[shift] >> t & 1)
    return ((1 << (c + 6), shifts),) + _folds(c - 1)


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC32C of data, continuing from `value`, the CRC of the bytes before it.

    The register after a message is the message's polynomial times x^32
    modulo P, so any rewrite of the message that keeps its polynomial mod P
    keeps the CRC. An input longer than _TAIL bytes is read as one integer,
    with the starting register XORed into its first four bytes, and folded
    down a fixed chain of size classes (see _folds): each fold moves the
    first part of the message, its highest-degree terms, onto the rest as
    a product with a constant x^d mod P, which halves the message with
    about a dozen big-integer shifts and XORs. The constants depend on the
    class, not on the input's length. The 28 bytes the folds leave, and any
    input of at most that many bytes, go through a loop over one 256-entry
    table.
    """
    crc = value ^ 0xFFFFFFFF
    bits = 8 * len(data)
    if bits > 8 * _TAIL:
        c = ((bits - _SLACK - 1) >> 7).bit_length()  # the smallest class that holds the input
        r = (int.from_bytes(data, "little") ^ crc) << (_SLACK + (1 << (c + 7)) - bits)
        for k, shifts in _folds(c):
            h = r & ((1 << k) - 1)
            r >>= k
            for s in shifts:
                r ^= h << s
        data = r.to_bytes(_TAIL, "little")
        crc = 0
    table = _CRC_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def crc32c_combine(crc_a: int, crc_b: int, len_b: int) -> int:
    """crc32c(a + b) from crc32c(a), crc32c(b) and len(b), as zlib's crc32_combine:
    crc(A || B) = (crc(A) * x^(8|B|) mod P) xor crc(B)."""
    return _multmodp(_x8n(len_b), crc_a) ^ crc_b


# ---- record field escaping ----

_UNESCAPE = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}


def escape_field(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def unescape_field(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            out.append(_UNESCAPE.get(text[i + 1], text[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# ---- canonical value text encoding ----

def encode_value(value: Value) -> str:
    t = value.vtype
    if t is ValueType.TEXT:
        body = value.payload.encode("utf-8").hex()
    elif t is ValueType.BYTES:
        body = value.payload.hex()
    elif t is ValueType.INTEGER:
        body = str(value.payload)
    elif t is ValueType.FLOAT:
        body = repr(value.payload)
    elif t is ValueType.BOOLEAN:
        body = "true" if value.payload else "false"
    elif t is ValueType.TIMESTAMP:
        body = value.to_timestamp_text()
    else:  # pragma: no cover
        raise ValueError(f"unhandled value type {t}")
    return f"{t.value}:{body}"


_CANONICAL_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}Z")
_NAIVE_EPOCH = datetime(1970, 1, 1)
_ONE_MS = timedelta(milliseconds=1)
_BOOLEAN_TEXTS = frozenset(("true", "false"))

# Each parser below takes the bodies of one tag's value texts and returns
# (their payloads, whether each body is the one encode_value writes for its
# payload). It raises ValueError or OverflowError on a body that does not
# parse into a payload of its type's Python type; check_payloads then checks
# the payloads' range. Each step is a C-level map where it can be.


def _text_payloads(bodies: list[str]) -> tuple[list[str], bool]:
    raw = list(map(bytes.fromhex, bodies))
    return list(map(bytes.decode, raw)), list(map(bytes.hex, raw)) == bodies


def _bytes_payloads(bodies: list[str]) -> tuple[list[bytes], bool]:
    payloads = list(map(bytes.fromhex, bodies))
    return payloads, list(map(bytes.hex, payloads)) == bodies


def _integer_payloads(bodies: list[str]) -> tuple[list[int], bool]:
    payloads = list(map(int, bodies))
    return payloads, list(map(str, payloads)) == bodies


def _float_payloads(bodies: list[str]) -> tuple[list[float], bool]:
    payloads = list(map(float, bodies))
    return payloads, list(map(repr, payloads)) == bodies


def _boolean_payloads(bodies: list[str]) -> tuple[list[bool], bool]:
    if not _BOOLEAN_TEXTS.issuperset(bodies):
        raise ValueError(f"not a Boolean: {sorted(set(bodies) - _BOOLEAN_TEXTS)[0]!r}")
    return list(map("true".__eq__, bodies)), True


def _timestamp_payloads(bodies: list[str]) -> tuple[list[int], bool]:
    """[Value.timestamp_text(body).payload for body in bodies], in C-level
    maps when every body has the canonical form that encode_value writes
    (YYYY-MM-DDTHH:MM:SS.mmmZ, in UTC), which is then all the canonical
    test there is."""
    if not all(map(_CANONICAL_TIMESTAMP.fullmatch, bodies)):
        return [Value.timestamp_text(body).payload for body in bodies], False
    seconds = map(datetime.fromisoformat, map(itemgetter(slice(19)), bodies))
    millis = map(floordiv, map(sub, seconds, itertools.repeat(_NAIVE_EPOCH)), itertools.repeat(_ONE_MS))
    return list(map(add, millis, map(int, map(itemgetter(slice(20, 23)), bodies)))), True


def decode_timestamp(body: str) -> Value:
    """Value.timestamp_text(body), with a fast path for the canonical form."""
    return Value.timestamp(_timestamp_payloads([body])[0][0])


# value tag -> (type, its parser)
_PAYLOADS = {
    TEXT.value: (TEXT, _text_payloads),
    BYTES.value: (BYTES, _bytes_payloads),
    INTEGER.value: (INTEGER, _integer_payloads),
    FLOAT.value: (FLOAT, _float_payloads),
    BOOLEAN.value: (BOOLEAN, _boolean_payloads),
    TIMESTAMP.value: (TIMESTAMP, _timestamp_payloads),
}


def _checked_payload(text: str) -> tuple[ValueType, object]:
    """(type, payload) of an encoded value, checked as Value checks it
    (check_payload) but without building the Value; malformed text
    raises CorruptStore."""
    tag, sep, body = text.partition(":")
    parse = _PAYLOADS.get(tag) if sep else None
    if parse is None:
        raise CorruptStore(f"malformed value encoding {text!r}")
    vtype, payloads_of = parse
    try:
        (payload,), _ = payloads_of([body])
        check_payload(vtype, payload)
    except (ValueError, OverflowError) as exc:  # OverflowError: a timestamp offset past year 1 or 9999
        raise CorruptStore(f"malformed value encoding {text!r}: {exc}") from exc
    return vtype, payload


def decode_value(text: str) -> Value:
    return Value(*_checked_payload(text))


def _checked_by_tag(texts: Iterable[str]) -> Iterator[tuple[ValueType, list[str], list[str], list, bool]]:
    """(type, texts, bodies, payloads, canonical) for each tag among the
    encoded values texts: the texts of that tag, the body of each and its
    payload, parsed a type at a time (the parsers above) and checked as
    Value checks them (check_payloads), and whether every body of the tag
    is the one encode_value writes. The texts are sorted once, and each tag's texts
    are the run between two bisections, so no Python code runs per text. A
    malformed text raises CorruptStore, as _checked_payload does."""
    texts = sorted(texts)
    tagged = 0
    for tag, (vtype, payloads_of) in _PAYLOADS.items():
        lo = bisect.bisect_left(texts, tag + ":")
        hi = bisect.bisect_left(texts, tag + ";", lo)  # ";" follows ":"
        if lo == hi:
            continue
        group = texts[lo:hi]
        tagged += len(group)
        bodies = list(map(itemgetter(slice(len(tag) + 1, None)), group))
        try:
            payloads, canonical = payloads_of(bodies)
            check_payloads(vtype, payloads)
        except (ValueError, OverflowError):
            for text in group:
                _checked_payload(text)  # raises, naming the first malformed text
            raise
        yield vtype, group, bodies, payloads, canonical
    if tagged < len(texts):
        for text in texts:
            _checked_payload(text)  # raises at the first text of no known tag


# ---- content tokenization ----

def tokenize(data: bytes) -> frozenset[str]:
    """Maximal runs of Unicode alphanumerics in the UTF-8 decoding, case-folded.

    Bytes that do not decode are skipped; the index is a set, not a
    positional structure.
    """
    text = data.decode("utf-8", errors="ignore")
    tokens = set()
    run = []
    for ch in text:
        if ch.isalnum():
            run.append(ch)
        elif run:
            tokens.add("".join(run).casefold())
            run = []
    if run:
        tokens.add("".join(run).casefold())
    return frozenset(tokens)


# ---- rows and metadata records ----

class PropertyRow(NamedTuple):
    """One stored value: the vertical-storage unit."""

    doc_id: DocumentId
    slice_id: int
    prop: str
    value: Value
    ordinal: int

    def key(self):
        return (self.doc_id, self.prop, self.value, self.ordinal)


_new_row = tuple.__new__  # _new_row(PropertyRow, fields) skips the Python-level __new__
RowKey = tuple  # (doc_id, prop, value, ordinal)
Homes = dict  # one document's values, prop -> (slice, bag)


@dataclass(frozen=True)
class DocumentRecord:
    doc_id: DocumentId
    kind: DocumentKind


@dataclass(frozen=True)
class SchemaDef:
    schema: Schema
    slice_id: int


@dataclass(frozen=True)
class Enforcement:
    doc_id: DocumentId
    schema: str
    seq: int


@dataclass(frozen=True)
class SliceAssignment:
    doc_id: DocumentId
    prop: str
    slice_id: int


@dataclass(frozen=True)
class Membership:
    collection: DocumentId
    member: DocumentId


MetadataRecord = Union[DocumentRecord, SchemaDef, Enforcement, SliceAssignment, Membership]


@dataclass(frozen=True)
class ContentRef:
    doc_id: DocumentId
    length: int
    tokens: frozenset[str]


@dataclass
class MetaView:
    """A copy of every committed metadata table."""

    docs: dict[DocumentId, DocumentKind]
    schemas: dict[str, tuple[Schema, int]]
    enforcement: dict[DocumentId, dict[str, int]]
    assignments: dict[DocumentId, dict[str, int]]
    members: dict[DocumentId, set[DocumentId]]
    content: dict[DocumentId, ContentRef]


def _posting_key(value: Value):
    """value's key in its type's postings, whose Python order is the order of
    compare_values (a Float keeps -0.0 below +0.0), or None for a type with
    no order."""
    t = value.vtype
    if t is FLOAT:
        return (value.payload, copysign(1.0, value.payload))
    if t is BOOLEAN or t is BYTES:
        return None
    return value.payload


def _rows_of(doc_id: DocumentId, homes: Iterable[tuple[str, tuple]]) -> list[PropertyRow]:
    """The rows of each (prop, (slice, bag)) of homes, in that order."""
    rows: list[PropertyRow] = []
    append = rows.append
    for prop, (slice_id, values) in homes:
        if len(values) == 1:  # the usual bag: no ordinal to count
            append(_new_row(PropertyRow, (doc_id, slice_id, prop, values[0], 0)))
        else:
            for value, ordinal in occurrences(values):
                append(_new_row(PropertyRow, (doc_id, slice_id, prop, value, ordinal)))
    return rows


def _home(doc_id: DocumentId, prop: str, held: dict[tuple[Value, int], int],
          error: type[Exception] = StorageFailure) -> Optional[tuple[int, tuple[Value, ...]]]:
    """The (slice, bag) of one property of doc_id from its rows, (value,
    ordinal) -> slice, or None for none; error unless each value's
    ordinals are serial and every row has one slice."""
    if len(held) == 1:  # the usual property: one row
        ((value, ordinal), slice_id), = held.items()
        if ordinal:
            raise error(f"ordinals of ({doc_id}, {prop!r}) are not serial")
        return slice_id, (value,)
    values = bag(value for value, _ in held)
    if not all(row in held for row in occurrences(values)):  # as many rows: the same ones
        raise error(f"ordinals of ({doc_id}, {prop!r}) are not serial")
    slices = set(held.values())
    if len(slices) > 1:
        raise error(f"property ({doc_id}, {prop!r}) stored in {len(slices)} slices")
    return (slices.pop(), values) if values else None


def _edges(posting: list[tuple], literal: Value, signs: tuple[int, ...]) -> tuple[int, int]:
    """The slice of posting whose entries compare to literal by one of signs,
    a contiguous run of -1, 0 and 1."""
    key = _posting_key(literal)
    below = bisect.bisect_left(posting, key, key=itemgetter(0))
    above = bisect.bisect_right(posting, key, lo=below, key=itemgetter(0))
    bounds = (0, below, above, len(posting))
    return bounds[min(signs) + 1], bounds[max(signs) + 2]


class _Column:
    """One property's stored bags by document, the documents whose bag holds
    several values, and per ordered value type the sorted postings: one
    (key, document) entry per stored value."""

    __slots__ = ("bags", "multi", "postings")

    def __init__(self, prop: str, homes: dict[DocumentId, Homes],
                 bags: Iterable[tuple[DocumentId, tuple[Value, ...]]] = ()):
        """prop's column of the bags in homes, and of the (document, bag)
        pairs of bags, whose documents homes does not hold."""
        self.bags: dict[DocumentId, tuple[Value, ...]] = {
            doc_id: doc_homes[prop][1] for doc_id, doc_homes in homes.items() if prop in doc_homes
        }
        self.bags.update(bags)
        self.multi: set[DocumentId] = {doc_id for doc_id, values in self.bags.items() if len(values) > 1}
        self.postings: dict[ValueType, list[tuple]] = {}
        for doc_id, values in self.bags.items():
            for value in values:
                key = _posting_key(value)
                if key is not None:
                    self.postings.setdefault(value.vtype, []).append((key, doc_id))
        for posting in self.postings.values():
            posting.sort()

    def put(self, doc_id: DocumentId, values: tuple[Value, ...]) -> None:
        """Replaces doc_id's stored bag (empty: none), moving only its entries."""
        if self.bags.get(doc_id, ()) == values:
            return
        old = self.bags.pop(doc_id, ())
        if values:
            self.bags[doc_id] = values
        if len(values) > 1:
            self.multi.add(doc_id)
        else:
            self.multi.discard(doc_id)
        for value in old:
            key = _posting_key(value)
            if key is not None:
                posting = self.postings[value.vtype]
                del posting[bisect.bisect_left(posting, (key, doc_id))]
                if not posting:
                    del self.postings[value.vtype]
        for value in values:
            key = _posting_key(value)
            if key is not None:
                bisect.insort(self.postings.setdefault(value.vtype, []), (key, doc_id))

    def compared(self, bounds: list[tuple[Value, tuple[int, ...]]]) -> list[DocumentId]:
        """The documents whose stored bag passes every (literal, signs) of
        bounds, the literals all of one ordered type: each bound by some
        value whose compare_values against its literal is in its signs. The
        documents of one slice, where the slices of the bounds overlap, and
        when bounds holds several, each multi-valued bag tested in place,
        since it may pass each bound by a different value. A document may
        repeat."""
        posting = self.postings.get(bounds[0][0].vtype, [])
        edges = [_edges(posting, literal, signs) for literal, signs in bounds]
        start, end = max(map(itemgetter(0), edges)), min(map(itemgetter(1), edges))
        hits = list(map(itemgetter(1), posting[start:end]))
        if len(bounds) > 1:
            bags = self.bags
            hits += [
                doc_id for doc_id in self.multi
                if all(any(compare_values(v, literal) in signs for v in bags[doc_id]) for literal, signs in bounds)
            ]
        return hits


def _terms(entry) -> AbstractSet:
    """The terms an inverted file files an entry under: the schemas of an
    enforcement map, a collection's members, a content document's tokens;
    none for a removed entry."""
    if entry is None:
        return frozenset()
    return entry.tokens if isinstance(entry, ContentRef) else entry


def _invert(table: Mapping) -> dict:
    """An inverted file of table: each term of an entry -> {document: None},
    the documents in table order."""
    index: dict = {}
    for doc_id, entry in table.items():
        for term in _terms(entry):
            index.setdefault(term, {})[doc_id] = None
    return index


def _repost(index: dict, ordered: dict, doc_id: DocumentId, old, new) -> None:
    """Moves doc_id in index from the postings of the terms old to those of
    the terms new, and drops the id-ordered copy (ordered) of each term it
    moves; a term left with no document leaves index."""
    for term in old:
        if term not in new:
            ordered.pop(term, None)
            posting = index[term]
            del posting[doc_id]
            if not posting:
                del index[term]
    for term in new:
        if term not in old:
            ordered.pop(term, None)
            index.setdefault(term, {})[doc_id] = None



# the sections whose seeded chunks open checks but leaves as bytes, built a chunk at a time when first read
_LAZY = ("props", "enforce", "assign")


class MemoryBackend:
    """In-memory reference backend. One writer batch at a time; reads see
    only committed batches. Counters instrument every backend round trip."""

    def __init__(self):
        self._lock = threading.RLock()
        self._docs: dict[DocumentId, DocumentKind] = {}
        self._rows: dict[DocumentId, Homes] = {}  # bags, named for the rows they stand for
        self._schemas: dict[str, tuple[Schema, int]] = {}
        self._enforcement: dict[DocumentId, dict[str, int]] = {}
        self._assignments: dict[DocumentId, dict[str, int]] = {}
        self._members: dict[DocumentId, set[DocumentId]] = {}
        self._content: dict[DocumentId, ContentRef] = {}
        self._blobs: dict[DocumentId, bytes] = {}
        self._sections = {name: _Section() for name, _ in _LAYOUT}
        self._columns: dict[str, _Column] = {}  # for the properties some query has named
        self._inverted: dict[str, dict] = {}  # table name -> term -> {document: None}, once some reader names it
        self._ordered: dict[str, dict] = {}  # table name -> term -> its postings in id order, once read (_in_order)
        self._staged: dict[str, dict] = {}  # table -> key -> entry (None: removed), while a batch is written
        self.fetch_count = 0
        self.batch_count = 0
        self.scan_count = 0
        self.column_scans = 0  # leaves answered by testing every bag of a column
        self.column_probes = 0  # leaves answered by a bisect slice of a column's postings
        self.encoded_blocks = 0  # record blocks encoded from the tables, not taken from the cache
        self.checksummed_bytes = 0  # bytes passed to crc32c, by open and by encodes
        self.crc_combines = 0  # crc32c_combine calls, by open and by encodes
        self.checkpoint_writes = 0  # whole images written to a file
        self.decoded_chunks = 0  # seeded PROPS chunks whose bags were built after open
        self.decoded_meta_chunks = 0  # seeded ENFORCE and ASSIGN chunks whose entries were built after open
        self._unbuilt: set[_Chunk] = set()  # seeded chunks of the _LAZY sections whose entries are not built yet
        self._builder: Optional[_Decoder] = None  # builds them; its caches go with the last of them
        self._image = _Tree()  # END's fold over the parts of the file, from open or the first encode
        self._parts: list[bytes] = []  # the file's parts, END last, in step with the image tree's leaves
        self.fail_next_persist = False

    # ---- batches: stage, persist, install ----

    def put_rows(
        self,
        rows: Iterable[PropertyRow] = (),
        deletes: Iterable[RowKey] = (),
        meta: Iterable[MetadataRecord] = (),
        meta_deletes: Iterable[MetadataRecord] = (),
    ) -> None:
        """Apply one atomic batch; on any error nothing is applied. Records
        may come in any order: document records and schema definitions are
        staged before the records that name them, and deletes before rows.

        A row is stored when its property's bag holds its value at least
        ordinal + 1 times, so the batch's result must keep ordinals serial
        (a value held n times has the ordinals 0 to n - 1) and every
        property of a document in one slice; either failing raises
        StorageFailure."""
        deletes = [tuple(k) for k in deletes]
        meta = sorted(meta, key=lambda record: not isinstance(record, (DocumentRecord, SchemaDef)))
        with self._lock:
            staged: dict[str, dict] = {}
            entry = functools.partial(self._entry, staged)
            edit = functools.partial(self._edit, staged)
            for record in meta:
                if isinstance(record, DocumentRecord):
                    if entry("_docs", record.doc_id) is not None:
                        raise StorageFailure(f"document {record.doc_id} already exists")
                    staged.setdefault("_docs", {})[record.doc_id] = record.kind
                elif isinstance(record, SchemaDef):
                    name = record.schema.name
                    if entry("_schemas", name) is not None:
                        raise StorageFailure(f"schema {name!r} already stored")
                    staged.setdefault("_schemas", {})[name] = (record.schema, record.slice_id)
                elif isinstance(record, Enforcement):
                    if entry("_docs", record.doc_id) is None or entry("_schemas", record.schema) is None:
                        raise StorageFailure("enforcement references unknown document or schema")
                    edit("_enforcement", record.doc_id, dict)[record.schema] = record.seq
                elif isinstance(record, SliceAssignment):
                    if entry("_docs", record.doc_id) is None:
                        raise StorageFailure("slice assignment references unknown document")
                    assigned = edit("_assignments", record.doc_id, dict)
                    if assigned.setdefault(record.prop, record.slice_id) != record.slice_id:
                        raise StorageFailure(
                            f"slice assignment for ({record.doc_id}, {record.prop!r}) is write-once"
                        )
                elif isinstance(record, Membership):
                    if entry("_docs", record.collection) is None or entry("_docs", record.member) is None:
                        raise StorageFailure("membership references unknown document")
                    edit("_members", record.collection, set).add(record.member)
                else:
                    raise StorageFailure(f"unsupported metadata record {record!r}")
            for record in meta_deletes:
                if isinstance(record, Enforcement):
                    if edit("_enforcement", record.doc_id, dict).pop(record.schema, None) is None:
                        raise StorageFailure("retracting enforcement that is not stored")
                elif isinstance(record, Membership):
                    members = edit("_members", record.collection, set)
                    if record.member not in members:
                        raise StorageFailure("retracting membership that is not stored")
                    members.remove(record.member)
                else:
                    raise StorageFailure(f"metadata record {type(record).__name__} cannot be retracted")
            touched: dict[tuple, dict[tuple, int]] = {}  # (doc, prop) -> its rows, (value, ordinal) -> slice

            def touch(doc_id: DocumentId, prop: str) -> dict[tuple, int]:
                held = touched.get((doc_id, prop))
                if held is None:
                    slice_id, values = edit("_rows", doc_id, dict).get(prop, (0, ()))
                    held = touched[doc_id, prop] = dict.fromkeys(occurrences(values), slice_id)
                return held

            for key in deletes:
                if len(key) != 4:
                    raise StorageFailure(f"malformed row key {key!r}")
                if touch(*key[:2]).pop(key[2:], None) is None:
                    raise StorageFailure(f"deleting unknown row {key!r}")
            for row in rows:
                if entry("_docs", row.doc_id) is None:
                    raise StorageFailure(f"row for unknown document {row.doc_id}")
                if row.slice_id < 0:
                    raise StorageFailure("negative slice id")
                held = touch(row.doc_id, row.prop)
                size = len(held)
                held.setdefault((row.value, row.ordinal), row.slice_id)  # one hash of the value, not two
                if len(held) == size:
                    raise StorageFailure(f"row {row.key()!r} already stored")
            for (doc_id, prop), held in touched.items():
                home = _home(doc_id, prop, held)
                if home is None:
                    staged["_rows"][doc_id].pop(prop, None)
                else:
                    staged["_rows"][doc_id][prop] = home
            self._commit(staged)
            self.batch_count += 1

    def _entry(self, staged: dict[str, dict], name: str, key):
        """key's entry in table name as the batch staged leaves it, or None."""
        entries = staged.get(name, {})
        return entries[key] if key in entries else self._built(name, key)

    def _edit(self, staged: dict[str, dict], name: str, key, container: type):
        """The batch's own copy of key's map or set in table name, made on its
        first edit; a document's property map is copied, not its bags."""
        entries = staged.setdefault(name, {})
        if key not in entries:
            entries[key] = container(self._built(name, key) or ())
        return entries[key]

    def _commit(self, staged: dict[str, dict]) -> None:
        """Writes the checkpoint of the tables with staged laid over them, then
        moves each column's entries for the bags staged anew and installs
        staged, moving each staged key in its table's inverted file; a
        failed write leaves every table, inverted file and column as it was
        and only files the staged ids by the tables again."""
        for name in _CONTAINERS:  # an emptied map or set leaves its table
            entries = staged.get(name, {})
            for key, entry in entries.items():
                if not entry:
                    entries[key] = None
        self._staged = staged
        try:
            self._stale(staged)
            self._persist()
        except BaseException:
            self._staged = {}
            self._stale(staged)  # blocks encoded from staged before the write failed
            raise
        self._staged = {}
        if self._columns:  # a staged map shares the bags it did not change
            for doc_id, homes in staged.get("_rows", {}).items():
                held, homes = self._rows.get(doc_id) or {}, homes or {}
                for prop, column in self._columns.items():
                    home = homes.get(prop)
                    if home is not held.get(prop):
                        column.put(doc_id, home[1] if home else ())
        for name, entries in staged.items():
            table = getattr(self, name)
            index = self._inverted.get(name)
            for key, entry in entries.items():
                if index is not None:
                    _repost(index, self._ordered[name], key, _terms(table.get(key)), _terms(entry))
                if entry is None:
                    table.pop(key, None)
                else:
                    table[key] = entry

    # ---- reads ----

    def fetch_slices(self, doc_id: DocumentId, slice_ids: AbstractSet[int]) -> list[tuple[str, tuple[Value, ...]]]:
        """One round trip: (prop, bag) for each stored property of the
        requested slices, the bag the backend's own tuple, not a copy."""
        with self._lock:
            self.fetch_count += 1
            self._require(doc_id)
            return [(prop, values) for prop, (slice_id, values) in self.stored_bags_of(doc_id).items()
                    if slice_id in slice_ids]

    def stored_matches(self, prop: str, test) -> list[DocumentId]:
        """Stored documents whose bag for prop passes test(bag), in no
        particular order, by a scan of prop's column."""
        with self._lock:
            self.column_scans += 1
            return [doc_id for doc_id, values in self._column(prop).bags.items() if test(values)]

    def stored_compared(self, prop: str, bounds: list[tuple[Value, tuple[int, ...]]]) -> list[DocumentId]:
        """The stored documents whose prop bag passes each (literal, signs) of
        bounds (signs a contiguous run of -1, 0 and 1; the literals all of
        one ordered type), by some value whose compare_values against the
        literal is in signs: one bisect slice of prop's postings, plus, when
        bounds holds several, the multi-valued bags that pass them by
        different values, tested in place (see _Column.compared). A
        document may repeat."""
        with self._lock:
            self.column_probes += 1
            return self._column(prop).compared(bounds)

    def _column(self, prop: str) -> _Column:
        """prop's column, built the first time a caller names prop and kept
        current by every committed batch and delete. It is built from the
        built bags and, for each unbuilt PROPS chunk, from the lines of the
        chunk's bytes that name prop alone (_Decoder.bags_of), which open
        checked: no other bag of the chunk is built, and the chunk stays
        unbuilt (late materialization, as in Abadi et al., ICDE 2007)."""
        column = self._columns.get(prop)
        if column is None:
            unbuilt = [chunk for chunk in self._sections["props"].chunks or () if chunk in self._unbuilt]
            bags = itertools.chain.from_iterable(self._builder.bags_of(chunk.data, prop) for chunk in unbuilt)
            column = self._columns[prop] = _Column(prop, self._rows, bags)
        return column

    def stored_enforcing(self, schema: str) -> Mapping[DocumentId, None]:
        """The stored documents that enforce schema, from its inverted file,
        in id order (see _in_order)."""
        with self._lock:
            return self._in_order("_enforcement", schema)

    def stored_containing(self, token: str) -> Mapping[DocumentId, None]:
        """The stored content documents whose tokens hold token (casefolded),
        from their inverted file, in id order (see _in_order)."""
        with self._lock:
            return self._in_order("_content", token)

    def _in_order(self, name: str, term) -> Mapping[DocumentId, None]:
        """The documents of term in the inverted file of table name, as the
        keys of a dict in id order. The dict is made on the first read of
        the term and kept until a commit moves a document in or out of the
        term, which drops it (_repost): the same dict is handed to every
        reader until then, and a caller never changes it."""
        index = self._index(name)
        docs = self._ordered[name].get(term)
        if docs is None:
            posting = index.get(term)
            if not posting:
                return {}
            docs = self._ordered[name][term] = dict.fromkeys(sorted(posting))
        return docs

    def _index(self, name: str) -> dict:
        """The inverted file of table name (_enforcement, _content or
        _members), built from the table (every chunk of a lazily built one
        built first) the first time a caller names it, and kept current by
        every committed batch and delete."""
        index = self._inverted.get(name)
        if index is None:
            section = _SECTION_OF[name]
            if section in _LAZY:
                self._build_all((section,))
            index = self._inverted[name] = _invert(getattr(self, name))
            self._ordered[name] = {}
        return index

    def scan_rows(self, doc_id: DocumentId) -> list[PropertyRow]:
        """Every stored row for one document, ordered by slice, property,
        sort_key of the value and ordinal. Audit use."""
        with self._lock:
            self.scan_count += 1
            homes = self.stored_bags_of(doc_id).items()
            return _rows_of(doc_id, sorted(homes, key=lambda item: (item[1][0], item[0])))

    def meta_view(self) -> MetaView:
        with self._lock:
            self._build_all(("enforce", "assign"))
            return MetaView(
                docs=dict(self._docs),
                schemas=dict(self._schemas),
                enforcement={d: dict(m) for d, m in self._enforcement.items()},
                assignments={d: dict(m) for d, m in self._assignments.items()},
                members={d: set(m) for d, m in self._members.items()},
                content=dict(self._content),
            )

    # The committed tables, for the engine and the schema registry to read
    # without the lock. Each is the table itself, not a copy, and a caller
    # never changes it. A table of a lazily built section (enforcement,
    # assignments) is whole only once every chunk of it is built, so it is
    # read a document at a time (stored_*_of), which builds the one chunk
    # that holds the document; meta_view builds them all.

    def schema_defs(self) -> Mapping[str, tuple[Schema, int]]:
        return self._schemas

    def stored_docs(self) -> Mapping[DocumentId, DocumentKind]:
        return self._docs

    def stored_assignments_of(self, doc_id: DocumentId) -> Mapping[str, int]:
        """doc_id's committed prop -> slice assignments ({}: none)."""
        return self._assignments.get(doc_id) or self._built("_assignments", doc_id) or {}

    def stored_enforcement_of(self, doc_id: DocumentId) -> Mapping[str, int]:
        """doc_id's committed schema -> enforcement seq ({}: none)."""
        return self._enforcement.get(doc_id) or self._built("_enforcement", doc_id) or {}

    def stored_members(self) -> Mapping[DocumentId, AbstractSet[DocumentId]]:
        return self._members

    def stored_content(self) -> Mapping[DocumentId, ContentRef]:
        return self._content

    # ---- entries built when first read ----

    def stored_bags_of(self, doc_id: DocumentId) -> Homes:
        """doc_id's committed (slice, bag) by property ({}: none)."""
        return self._rows.get(doc_id) or self._built("_rows", doc_id) or {}

    def _built(self, name: str, key):
        """key's committed entry in table name, or None. Until something
        reads them, the entries of a seeded chunk of a lazily built section
        (_LAZY) live only in the chunk's bytes: the first read of any of
        them builds every document of the chunk, under the lock. A point
        read that finds its entry built need not call this."""
        section = _SECTION_OF.get(name)
        if self._unbuilt and section in _LAZY:  # read before the table: once empty, it stays so
            with self._lock:
                self._build_chunk(section, self._sections[section].holder(key.value))
        return getattr(self, name).get(key)

    def _build_chunk(self, section: str, chunk: Optional["_Chunk"]) -> None:
        """Builds the entries of chunk's documents, in the named lazily built
        section, from its bytes, unless they are built already; the caller
        holds the lock."""
        if chunk in self._unbuilt:
            self._builder.build(section, chunk.data)
            self._unbuilt.remove(chunk)
            if section == "props":
                self.decoded_chunks += 1
            else:
                self.decoded_meta_chunks += 1
            if not self._unbuilt:
                self._builder = None

    def _build_all(self, sections: Iterable[str] = _LAZY) -> None:
        """Builds every entry of sections still unbuilt, chunk by chunk in id order."""
        with self._lock:
            for section in sections:
                if self._unbuilt:
                    for chunk in self._sections[section].chunks or ():
                        self._build_chunk(section, chunk)

    def _require(self, doc_id: DocumentId) -> DocumentKind:
        kind = self._docs.get(doc_id)
        if kind is None:
            raise UnknownDocument(f"no document {doc_id}")
        return kind

    # ---- content ----

    def content_write(self, doc_id: DocumentId, data: bytes) -> ContentRef:
        with self._lock:
            self._require(doc_id)
            data = bytes(data)
            ref = ContentRef(doc_id, len(data), tokenize(data))
            old_blob = self._blobs.get(doc_id)
            self._persist_blob(doc_id, data)  # replaces the file whole or not at all
            try:
                self._commit({"_content": {doc_id: ref}, "_blobs": {doc_id: data}})
            except BaseException:
                if old_blob is None:
                    self._remove_blob_file(doc_id)
                else:
                    self._persist_blob(doc_id, old_blob)
                raise
            return ref

    def content_read(self, doc_id: DocumentId) -> bytes:
        with self._lock:
            self._require(doc_id)
            return self._blobs.get(doc_id, b"")

    # ---- deletion ----

    def delete_document(self, doc_id: DocumentId) -> None:
        """Remove values, metadata, memberships in both directions, and content."""
        with self._lock:
            self._require(doc_id)
            staged: dict[str, dict] = {}
            for collection in self._index("_members").get(doc_id, ()):
                self._edit(staged, "_members", collection, set).discard(doc_id)
            for name in ("_docs", "_rows", "_enforcement", "_assignments", "_members", "_content", "_blobs"):
                staged.setdefault(name, {})[doc_id] = None
            self._commit(staged)
            try:
                self._remove_blob_file(doc_id)
            except StorageFailure:
                pass  # the delete is committed; open never reads a leftover content file

    # ---- persistence hooks (memory backend keeps state only in RAM) ----

    def _persist(self) -> None:
        if self.fail_next_persist:
            self.fail_next_persist = False
            raise StorageFailure("injected persist failure")

    def _persist_blob(self, doc_id: DocumentId, data: bytes) -> None:
        pass

    def _remove_blob_file(self, doc_id: DocumentId) -> None:
        pass

    # ---- checkpoint codec ----

    def _stale(self, staged: dict[str, dict]) -> None:
        """Drops the cached encoding of each staged entry, in staged order, so
        a batch files its ids into a section's chunks the same way in every
        process: each document goes in or out of its section's chunks by
        whether the section's table, with the batch being written laid over
        it, holds it."""
        for name, entries in staged.items():
            section_name = _SECTION_OF.get(name)
            if section_name is None:
                continue
            section = self._sections[section_name]
            if section_name == "schema":
                section.chunks = None  # the next encode encodes the block again
                continue
            for doc_id in entries:
                if self._unbuilt and section_name in _LAZY:  # a chunk's bytes must outlive its unbuilt entries
                    self._build_chunk(section_name, section.holder(doc_id.value))
                section.drop(doc_id.value, self._entry(self._staged, name, doc_id) is not None)

    def _view(self, name: str) -> Mapping:
        """Table name with the entries of the batch being written (None:
        removed) laid over it."""
        entries = self._staged.get(name)
        return ChainMap(entries, getattr(self, name)) if entries else getattr(self, name)

    def _encode_checkpoint(self) -> bytes:
        """The checkpoint bytes: _checkpoint_parts() joined."""
        return b"".join(self._checkpoint_parts())

    def _checkpoint_parts(self) -> list[bytes]:
        """The checkpoint as the backend's kept list of parts, in file order:
        each non-empty header, each chunk of each section, then END; a
        caller reads it and never changes it. Only the chunks that a batch
        cleared since the last call are joined and checksummed again, their
        parts and leaves are replaced where they sit, and END re-folds only
        the nodes of the image tree above the leaves that changed (see
        _Tree). A chunk that a section gained or lost moves the section's
        later parts and leaves, within its padded run of leaves; when a run
        grows or shrinks, or a section is new to the image (the first
        encode, and the first after open), the whole image is laid out
        again and its leaves compared with the last ones."""
        sections = self._sections
        for name, section in sections.items():  # what can raise comes before any layout edit
            self._fold(name, section)
        if any(section.laid is None or _run(name, len(section.chunks)) != _run(name, section.laid)
               for name, section in sections.items()):
            self._lay_out()
        else:
            changed: list[int] = []
            part = leaf = 0
            for name, header in _LAYOUT:
                if header:
                    part += 1
                    leaf += 1
                section = sections[name]
                if section.cleared or section.moved is not None:
                    self._place(section, part, leaf, changed)
                part += section.laid
                leaf += _run(name, section.laid)
            if changed:
                self.crc_combines += self._image.refold(self._image.levels[0], sorted(changed))
        self._parts[-1] = f"END {self._image.root()[0]}\n".encode("ascii")
        return self._parts

    def _fold(self, name: str, section: "_Section") -> None:
        """Gives each chunk that a batch cleared its bytes and node again.
        The SCHEMA block is one chunk, or none when it is empty, encoded
        again after any batch that stages a schema. A document section is
        cut into chunks by the first encode that finds it has none; after
        that, a chunk whose node a batch cleared joins its blocks and
        checksums its bytes again, and the others are taken as they are."""
        if name == "schema":
            if section.chunks is None:
                block = self._schema_block()
                section.chunks = [_schema_chunk(block, self._leaf(block))] if block else []
                section.cleared = dict.fromkeys(section.chunks)
            return
        table_name, encode = _DOC_SECTIONS[name]
        table = self._view(table_name)
        if section.chunks is None:
            keys = sorted(doc_id.value for doc_id, entry in table.items() if entry is not None)
            section.chunks = [_Chunk(keys[i : i + _CHUNK]) for i in range(0, len(keys), _CHUNK)]
            section.cleared = dict.fromkeys(section.chunks)
        for chunk in section.cleared:
            if chunk.node is None:
                self._fold_chunk(chunk, table, encode)

    def _lay_out(self) -> None:
        """Builds the part list and the image tree's leaves from every chunk."""
        parts: list[bytes] = []
        leaves: list[int] = []
        for name, header in _LAYOUT:
            if header:
                parts.append(header)
                leaves.append(_HEADER_NODES[name])
            section = self._sections[name]
            parts += map(_DATA, section.chunks)
            leaves += map(_NODE, section.chunks)
            leaves += [0] * (_run(name, len(section.chunks)) - len(section.chunks))
            section.laid_out()
        parts.append(b"")  # END
        self._parts = parts
        self.crc_combines += self._image.refold(leaves)

    def _place(self, section: "_Section", part: int, leaf: int, changed: list[int]) -> None:
        """Puts the section's cleared chunks, and every chunk from the first
        one that moved, at their places in the part list and the leaves,
        whose positions for the section start at part and leaf; adds to
        changed each leaf position whose node changed."""
        parts, leaves = self._parts, self._image.levels[0]
        moved = section.moved
        for chunk in section.cleared:
            i = section.index(chunk)
            if moved is None or i < moved:
                parts[part + i] = chunk.data
                if leaves[leaf + i] != chunk.node:
                    leaves[leaf + i] = chunk.node
                    changed.append(leaf + i)
        if moved is not None:
            chunks = section.chunks
            end = max(section.laid, len(chunks))  # the leaves past it are padding before and after
            parts[part + moved : part + section.laid] = map(_DATA, chunks[moved:])
            nodes = list(map(_NODE, chunks[moved:]))
            nodes += [0] * (end - len(chunks))
            old = leaves[leaf + moved : leaf + end]
            leaves[leaf + moved : leaf + end] = nodes
            changed += itertools.compress(range(leaf + moved, leaf + end), map(ne, nodes, old))
        section.laid_out()

    def _schema_block(self) -> bytes:
        """The SCHEMA section's one block: every definition, by slice."""
        return "".join(
            schema_record(schema, slice_id) + "\n"
            for schema, slice_id in sorted(self._view("_schemas").values(), key=lambda pair: pair[1])
        ).encode("utf-8")

    def _fold_chunk(self, chunk: "_Chunk", table: Mapping, encode) -> None:
        """Joins a changed chunk's blocks again, its unchanged blocks sliced
        from its old bytes and the others encoded, and checksums the joined
        bytes whole, as open does."""
        old = memoryview(chunk.data) if chunk.data is not None else None
        parts = []
        for value, span in zip(chunk.keys, chunk.spans):
            if span is None:
                doc_id = DocumentId(value)
                parts.append(encode(str(doc_id), table[doc_id]).encode("utf-8"))
                self.encoded_blocks += 1
            else:
                parts.append(old[span >> 32 : span & 0xFFFFFFFF])
        chunk.data = b"".join(parts)
        chunk.spans = _spans(list(itertools.accumulate(map(len, parts), initial=0)))
        chunk.node = self._leaf(chunk.data)

    def _leaf(self, data) -> int:
        """The _node of data, its bytes counted in checksummed_bytes."""
        self.checksummed_bytes += len(data)
        return _node(crc32c(data), len(data))

    def _load_checkpoint(self, data: bytes) -> None:
        """Decodes a checkpoint into the tables, seeds the block cache from
        its bytes and checks END; corrupt input raises CorruptStore.

        A document section is seeded when its lines are contiguous and its
        runs of lines, one per document, arrive in strictly increasing id
        order with one record per line. Every body byte is checksummed once:
        each seeded chunk's span, and each gap between them (headers, SCHEMA
        lines, unseeded sections), cut at each header's edges and the SCHEMA
        lines' as a write cuts its leaves. Those are the leaves of the image
        tree, each seeded section's chunks padded as a write pads them, and
        END must equal the tree's root. SCHEMA lines equal to the canonical
        block become the SCHEMA section's chunk, with their leaf's node.

        Every record is checked here, each record of a lazily built section
        (PROPS, ENFORCE, ASSIGN) as the entries built from it will read it,
        a PROPS record's ordinals serial and one slice per property, so a
        file with an ordinal gap raises CorruptStore here, wherever the gap
        sits. The entries of a seeded lazily built section are deferred:
        they are built a chunk at a time on first read (see _built), and a
        column from a PROPS chunk's lines of one property (see _column).
        Everything else, DOC, SCHEMA, MEMBER and CONTENT, is decoded now.
        The DEBUG record splits the decode into the PROPS check, the META
        and CONTENT decode and the seeding, and counts the chunks left
        unbuilt.
        """
        started = time.perf_counter()
        try:
            idx = data.rindex(b"\nEND ")
        except ValueError:
            raise CorruptStore("missing END trailer") from None
        trailer = data[idx + 1 :]
        if not (trailer.startswith(b"END ") and trailer.endswith(b"\n")):
            raise CorruptStore("malformed END trailer")
        try:
            stated = int(trailer[4:-1])
        except ValueError:
            raise CorruptStore("malformed END trailer") from None
        body_end = idx + 1
        # batches of lines: a list of every line would hold the file twice over
        lines = itertools.islice(io.BytesIO(data), data.count(b"\n", 0, body_end))
        first = next(lines, b"")
        if first != f"{MAGIC}\n".encode("ascii"):
            raise CorruptStore("bad magic")
        decoder = _Decoder(self, len(first))
        try:
            for batch in iter(lambda: list(itertools.islice(lines, _BATCH)), []):
                decoder.feed(batch)
        except (LookupError, ValueError, OverflowError) as exc:
            raise CorruptStore(f"malformed record: {exc}") from exc
        seeding = time.perf_counter()
        seeded = self._seed_sections(data, decoder)
        decoded = time.perf_counter()
        leaves: list[int] = []
        gaps: dict[tuple[int, int], int] = {}  # (start, end) -> node, of each leaf between seeded chunks
        schema = tuple(decoder.schema_span or (0, 0))
        cuts = sorted({*decoder.cuts, *schema})
        pos = 0
        view = memoryview(data)
        for start, end, chunks in sorted(seeded, key=itemgetter(0)) + [(body_end, body_end, [])]:
            # a gap breaks where a write's leaves do: at each header and around the SCHEMA block
            edges = [pos, *(cut for cut in cuts if pos < cut < start), start]
            for span in zip(edges, edges[1:]):
                if span[1] > span[0]:
                    node = gaps[span] = self._leaf(view[span[0] : span[1]])
                    leaves.append(node)
            for chunk in chunks:
                chunk.node = self._leaf(chunk.data)
            leaves += map(_NODE, chunks)
            leaves += [0] * (-len(chunks) % _RUN)
            pos = end
        self.crc_combines += self._image.refold(leaves)
        if self._image.root()[0] != stated:
            raise CorruptStore("checksum mismatch")
        block = self._schema_block()
        if data[schema[0] : schema[1]] == block:  # canonical: seeded with the node its leaf has
            self._sections["schema"].chunks = [_schema_chunk(block, gaps[schema])] if block else []
        logger.debug(
            "opened checkpoint: %d bytes, %d records, %d distinct values, decode %.2f ms "
            "(PROPS check %.2f, META check %.2f, seeding %.2f), checksum %.2f ms, %d chunks unbuilt",
            len(data), decoder.records, len(decoder.checked), (decoded - started) * 1e3,
            decoder.seconds["PROPS"] * 1e3, (decoder.seconds["META"] + decoder.seconds["CONTENT"]) * 1e3,
            (decoded - seeding) * 1e3, (time.perf_counter() - decoded) * 1e3, len(self._unbuilt),
        )

    def _seed_sections(self, data: bytes, decoder: "_Decoder") -> list[tuple[int, int, list["_Chunk"]]]:
        """Keeps each run of lines of every seedable section as its document's
        block, and chunks the runs; returns (start, end, chunks) for every
        seeded section that holds a document, whose chunk nodes the caller
        fills in. A section is seedable when its records, counted as its
        table counts them, are its lines: a lazily built section's are
        counted from their texts (_Decoder.counts), the others' from their
        tables. The entries of a seeded lazily built section stay in its
        chunks' bytes until something reads them (_built); those of an
        unseeded one, or of a PROPS section that is not canonical (see
        _Decoder), are built now, which checks them."""
        seeded = []
        built = not decoder.canonical  # only Values tell its duplicate PROPS records and gaps apart
        if built:
            decoder.build_lines("props", data)
        for name, section_runs in decoder.runs.items():
            if name in decoder.counts and not (name == "props" and built):
                records = decoder.counts[name]
            elif name == "props":
                records = sum(len(values) for homes in self._rows.values() for _, values in homes.values())
            else:
                table = getattr(self, _DOC_SECTIONS[name][0])
                records = len(table) if name in ("doc", "content") else sum(map(len, table.values()))
            bounds = [start for _, start in section_runs] + [decoder.ends.get(name, 0)]
            # more lines than records: a duplicate record, or other lines inside the section
            if name in decoder.unseeded or (section_runs and records != data.count(b"\n", bounds[0], bounds[-1])):
                continue  # the first encode builds it from the table
            section = self._sections[name]
            keys = [value for value, _ in section_runs]
            section.chunks = []
            for i in range(0, len(keys), _CHUNK):
                edges = bounds[i : i + _CHUNK + 1]
                chunk = _Chunk(keys[i : i + _CHUNK], _spans(edges))
                chunk.data = data[edges[0] : edges[-1]]
                section.chunks.append(chunk)
            if keys:
                seeded.append((bounds[0], bounds[-1], section.chunks))
        for name in _LAZY:
            chunks = self._sections[name].chunks
            if name == "props" and built:
                continue
            if chunks is None:
                decoder.build_lines(name, data)
            elif chunks and name == "props":
                # exact here: one run per document, one text per value, ordinal and slice
                if decoder.wanted:
                    raise CorruptStore(f"ordinal gap: no PROPS record {min(decoder.wanted)!r}")
                if not decoder.one_slice:
                    raise CorruptStore("a property of a document stored in two slices")
            self._unbuilt.update(chunks or ())
        if self._unbuilt:
            self._builder = _Decoder(self, 0)
            self._builder.ids = decoder.ids
        return seeded

    # ---- checkpoint to / open from a store root directory ----

    def checkpoint(self, path) -> Path:
        """Write the full state to a store root; returns the checkpoint path."""
        with self._lock:
            root = Path(path)
            _make_dirs(root / CONTENT_DIR)
            for doc_id, blob in self._blobs.items():
                _replace_file(root / CONTENT_DIR / str(doc_id), blob)
            target = self._write_checkpoint(root / CHECKPOINT_NAME)
            _remove_spare(target)  # a one-shot write keeps no spare image
            return target

    def _write_checkpoint(self, target: Path) -> Path:
        """Writes the whole image to target, counted in checkpoint_writes."""
        parts = self._checkpoint_parts()
        _atomic_write(target, _Parts(parts, self._image.root()[1] + len(parts[-1])))
        self.checkpoint_writes += 1
        return target

    def close(self) -> None:
        """Ends the backend's use of files; a memory backend keeps none."""

    @classmethod
    def open(cls, path) -> "MemoryBackend":
        backend = cls()
        backend._load_root(Path(path))
        return backend

    def _load_root(self, root: Path) -> None:
        """Load the checkpoint and content files of a store root."""
        target = root / CHECKPOINT_NAME
        if not target.exists():
            raise StorageFailure(f"no store at {root}")
        data = _read_file(target)
        try:
            self._load_checkpoint(data)
        except CorruptStore:
            # A writer in another process may have overwritten the inode
            # this read while it read it (a spare image is recycled two
            # writes on, and can be target's again by then, so the inode
            # number tells nothing): read once more, and load what changed.
            again = _read_file(target)
            if again == data:
                raise
            MemoryBackend.__init__(self)  # start again from empty tables
            self._load_checkpoint(again)
        for doc_id in self._content:
            self._blobs[doc_id] = _read_file(root / CONTENT_DIR / str(doc_id))


def _fields(*parts: str) -> str:
    return "\t".join(escape_field(p) for p in parts)


def schema_record(schema: Schema, slice_id: int) -> str:
    """The checkpoint's SCHEMA record for one definition."""
    parts = ["SCHEMA", schema.name, str(slice_id)]
    for prop in sorted(schema.constraints):
        c = schema.constraints[prop]
        parts.append(f"{prop}:{c.value_type.value}:{c.arity_text()}")
    return _fields(*parts)


# ---- cached checkpoint encoding ----

class _Section:
    """Cached encoding of one checkpoint section: the sorted chunks that
    order a document section's ids, or the SCHEMA block as one chunk. A
    block's span lives in the chunk that holds the block, and a CRC only
    per chunk. Open or the first encode fills the chunks.

    Between encodes the section also keeps what a batch changed: the
    chunks whose node it cleared (and each new chunk), which the next
    encode folds again, and the lowest index at which it inserted or
    removed a chunk, from which on the section's parts and leaves move.
    laid is the count of chunks that the image's parts and leaves hold
    for the section, None while they hold none."""

    __slots__ = ("chunks", "cleared", "moved", "laid")

    def __init__(self):
        self.chunks: Optional[list[_Chunk]] = None  # every id of the section's table, in order
        self.cleared: dict[_Chunk, None] = {}  # in the chunks, with node None unless folded since
        self.moved: Optional[int] = None
        self.laid: Optional[int] = None

    def _at(self, value: int) -> int:
        """The index of the chunk that holds or would hold value, of a
        section that has chunks."""
        return max(bisect.bisect_right(self.chunks, value, key=_first_key) - 1, 0)

    def index(self, chunk: "_Chunk") -> int:
        """The index of one of the section's chunks; the SCHEMA block's is 0."""
        return self._at(chunk.keys[0]) if chunk.keys else 0

    def holder(self, value: int) -> Optional["_Chunk"]:
        """The chunk that holds or would hold value, or None when there is none."""
        return self.chunks[self._at(value)] if self.chunks else None

    def laid_out(self) -> None:
        """Notes that the image's parts and leaves hold the chunks as they are."""
        self.cleared = {}
        self.moved = None
        self.laid = len(self.chunks)

    def _move(self, i: int) -> None:
        self.moved = i if self.moved is None else min(self.moved, i)

    def drop(self, value: int, present: bool) -> None:
        """Forgets value's block, files value in or out of the chunks by
        present, and clears the node of the chunk that holds or would hold
        it. An id past the last one starts a new chunk once the last chunk
        holds _CHUNK ids; any other chunk splits past twice that."""
        chunks = self.chunks
        if chunks is None:
            return
        if not chunks or (value > chunks[-1].keys[-1] and len(chunks[-1].keys) >= _CHUNK):
            if present:
                chunks.append(_Chunk([value]))
                self.cleared[chunks[-1]] = None
                self._move(len(chunks) - 1)
            return
        i = self._at(value)
        chunk = chunks[i]
        keys, spans = chunk.keys, chunk.spans
        j = bisect.bisect_left(keys, value)
        held = j < len(keys) and keys[j] == value
        if held and present:
            spans[j] = None
        elif present:
            keys.insert(j, value)
            spans.insert(j, None)
            if len(keys) > 2 * _CHUNK:
                split = _Chunk(keys[_CHUNK:], spans[_CHUNK:])
                split.data = chunk.data  # its spans point into these bytes until it is folded
                chunks.insert(i + 1, split)
                self.cleared[split] = None
                self._move(i + 1)
                del keys[_CHUNK:], spans[_CHUNK:]
        elif held:
            del keys[j], spans[j]
            if not keys:
                del chunks[i]
                self.cleared.pop(chunk, None)
                self._move(i)
                return
        else:
            return  # neither held nor stored: nothing to fold again
        chunk.node = None
        self.cleared[chunk] = None


class _Chunk:
    """A run of consecutive ids of one section, in order, and per id its
    block's span (start << 32 | end) in the chunk's bytes, None until the
    block is encoded; from open or the first encode on, those joined bytes;
    and the _node (CRC32C and length) of the joined bytes while none of its
    blocks changed, arrived or left: its leaf in the image tree. The SCHEMA
    block is a chunk of no ids."""

    __slots__ = ("keys", "spans", "node", "data")

    def __init__(self, keys: list[int], spans: Optional[list] = None):
        self.keys = keys
        self.spans: list[Optional[int]] = [None] * len(keys) if spans is None else spans
        self.node: Optional[int] = None
        self.data: Optional[bytes] = None


def _schema_chunk(block: bytes, node: int) -> _Chunk:
    """The SCHEMA section's one chunk: block, of node, with no ids."""
    chunk = _Chunk([])
    chunk.data, chunk.node = block, node
    return chunk


def _first_key(chunk: _Chunk) -> int:
    return chunk.keys[0]


_DATA = attrgetter("data")
_NODE = attrgetter("node")


def _spans(edges: list[int]) -> list[int]:
    """The span (start << 32 | end) of each block, relative to the first,
    from the offsets of consecutive blocks and the end of the last."""
    base = edges[0]
    return [(start - base) << 32 | (end - base) for start, end in zip(edges, edges[1:])]


def _node(crc: int, length: int) -> int:
    """A _Tree node: the CRC32C and length of some bytes, as one int."""
    return length << 32 | crc


class _Tree:
    """The CRC32C and length of a sequence of parts, from each part's _node:
    a binary tree of crc32c_combine folds whose bottom level is the parts
    and whose every level above folds each pair below it, an odd last node
    carried up as it is. A node is one int (length << 32 | CRC), which
    keeps a tree of n parts near 2n small ints. Node 0 is an empty part:
    folded with another node, it carries that node up without a combine,
    so empty leaves cost only their place.

    refold re-folds only the nodes above the parts that changed, so one
    changed part of n costs log2(n) combines. A caller that knows which
    parts it changed names them; otherwise refold compares new parts with
    the last ones. When their count is the same, those that differ
    changed; when the count changed, every one from the first difference
    on, which for a part added or removed at the end is again log2(n)."""

    __slots__ = ("levels",)

    def __init__(self):
        self.levels: list[list[int]] = [[]]

    def root(self) -> tuple[int, int]:
        """(CRC32C, length) of all the parts joined; (0, 0) for none."""
        top = self.levels[-1]
        return (top[0] & 0xFFFFFFFF, top[0] >> 32) if top else (0, 0)

    def refold(self, parts: list[int], changed: Optional[Iterable[int]] = None) -> int:
        """Makes parts the bottom level; returns the number of combines.
        changed, in increasing order, holds every position whose part
        differs from the last bottom level's (parts may be that list,
        edited in place, at an unchanged length); without it the parts are
        compared."""
        if changed is None:
            old = self.levels[0]
            n = min(len(old), len(parts))
            # each block of 64 parts is compared whole first: one C-level list compare
            changed = [i for lo in range(0, n, 64) if old[lo : lo + 64] != parts[lo : lo + 64]
                       for i in range(lo, min(lo + 64, n)) if old[i] != parts[i]]
            if len(parts) != len(old):  # every position from the first difference on may have moved
                first = changed[0] if changed else n
                changed = range(first, max(len(old), len(parts)))
        level = self.levels[0] = parts
        combines = depth = 0
        while len(level) > 1:
            depth += 1
            if depth == len(self.levels):
                self.levels.append([])
            above = self.levels[depth]
            size = (len(level) + 1) // 2
            del above[size:]
            above += [0] * (size - len(above))
            # the parents of the changed nodes; one past size is gone, but its parent changed
            if isinstance(changed, range):
                changed = range(changed.start >> 1, (changed.stop + 1) >> 1)
            else:
                changed = list(dict.fromkeys(i >> 1 for i in changed))
            for j in changed:
                if j >= size:
                    break
                a = level[2 * j]
                b = level[2 * j + 1] if 2 * j + 1 < len(level) else 0
                if a and b:
                    crc = crc32c_combine(a & 0xFFFFFFFF, b & 0xFFFFFFFF, b >> 32)
                    above[j] = ((a >> 32) + (b >> 32)) << 32 | crc
                    combines += 1
                else:
                    above[j] = a or b
            level = above
        del self.levels[depth + 1 :]
        return combines


# The block encoders escape only the fields that can hold a tab, newline,
# CR or backslash: property and schema names and content tokens. Ids, kinds,
# integers and value texts never do (Text and Bytes payloads are hex).

def _props_block(doc: str, homes: Homes) -> str:
    names = {prop: escape_field(prop) for prop in homes}
    encoded = sorted(
        (slice_id, prop, encode_value(value), ordinal)
        for prop, (slice_id, values) in homes.items()
        for value, ordinal in occurrences(values)
    )
    return "".join(f"{doc}\t{s}\t{names[prop]}\t{value}\t{o}\n" for s, prop, value, o in encoded)


def _doc_block(doc: str, kind: DocumentKind) -> str:
    return f"DOC\t{doc}\t{kind.value}\n"


def _enforce_block(doc: str, entry: dict[str, int]) -> str:
    return "".join(
        f"ENFORCE\t{doc}\t{seq}\t{escape_field(name)}\n"
        for name, seq in sorted(entry.items(), key=lambda kv: kv[1])
    )


def _assign_block(doc: str, entry: dict[str, int]) -> str:
    return "".join(f"ASSIGN\t{doc}\t{escape_field(prop)}\t{entry[prop]}\n" for prop in sorted(entry))


def _member_block(collection: str, members: set[DocumentId]) -> str:
    return "".join(f"MEMBER\t{collection}\t{m}\n" for m in sorted(members))


def _content_block(doc: str, ref: ContentRef) -> str:
    return f"{doc}\t{ref.length}\t{escape_field(' '.join(sorted(ref.tokens)))}\n"


# sections in checkpoint order, each with the fixed text before it
_LAYOUT = (
    ("props", f"{MAGIC}\nPROPS\n".encode("ascii")),
    ("doc", b"META\n"),
    ("schema", b""),
    ("enforce", b""),
    ("assign", b""),
    ("member", b""),
    ("content", b"CONTENT\n"),
)
_HEADER_NODES = {name: _node(crc32c(header), len(header)) for name, header in _LAYOUT}
# the sections made of per-document blocks: the backend table each reads, and its block encoder
_DOC_SECTIONS = {
    "props": ("_rows", _props_block),
    "doc": ("_docs", _doc_block),
    "enforce": ("_enforcement", _enforce_block),
    "assign": ("_assignments", _assign_block),
    "member": ("_members", _member_block),
    "content": ("_content", _content_block),
}
# the section that encodes each table; _blobs live outside the checkpoint
_SECTION_OF = {table: name for name, (table, _) in _DOC_SECTIONS.items()} | {"_schemas": "schema"}
_CHUNK = 32  # ids per chunk: the last one takes new last ids up to this, any chunk splits past twice this
# a document section's leaves in the image tree, padded with empty ones to a
# multiple of this, so that a chunk gained or lost moves no other section's
_RUN = 128


def _run(name: str, chunks: int) -> int:
    """The image tree's leaves for a section of that many chunks: SCHEMA's
    zero or one, a document section's padded."""
    return chunks if name == "schema" else chunks + -chunks % _RUN


_CONTAINERS = ("_rows", "_enforcement", "_assignments", "_members")  # tables of maps or sets, never empty


def _make_dirs(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageFailure(f"cannot create {path}: {exc}") from exc


def _read_file(path: Path) -> bytes:
    """path's bytes; any OSError, a missing file included, is a StorageFailure."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise StorageFailure(f"cannot read {path}: {exc}") from exc


def _replace_file(target: Path, data: bytes) -> None:
    """Replaces target with data, whole or not at all: a new file, renamed onto it."""
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, target)
    except OSError as exc:
        raise StorageFailure(f"cannot write {target}: {exc}") from exc


def _spare(target: Path) -> Path:
    """Where the image that target named before its last write is kept."""
    return target.with_name(target.name + ".old")


class _Parts(NamedTuple):
    """Buffers to write joined, in file order, and their joined length."""

    parts: list
    length: int


def _atomic_write(target: Path, image: _Parts) -> None:
    """Replaces target with image's parts joined, whole or not at all,
    overwriting the inode of the image that target named before its last
    write.

    The spare (see _spare) is renamed to the temp name; the bytes by which
    the image is longer than it are allocated (_allocate), then it is
    overwritten in place and truncated; target's current image is linked
    as the next spare, and the temp file replaces target. A temp file that
    is another link to target (a crash between the link and the replace
    leaves the spare so) is unlinked and created afresh, so target's inode
    is never written. Without a spare, the temp file is a new one, and all
    of it is allocated.

    Allocating the growth changes no guarantee: nothing is fsynced, before
    or after, and a power loss may still leave an older or a torn image
    (see DiskBackend). It keeps the replace from flushing: ext4 (with its
    default auto_da_alloc) starts writeback of a file's whole page cache
    when a rename replaces another file with it while its new bytes wait
    for delayed allocation, and allocated blocks do not wait.
    """
    tmp = target.with_name(target.name + ".tmp")
    try:
        try:
            os.rename(_spare(target), tmp)
        except FileNotFoundError:
            pass
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT, 0o666)
        held = os.fstat(fd)
        size = held.st_size
        if held.st_nlink != 1:  # tmp is also target's image
            os.close(fd)
            os.unlink(tmp)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            size = 0
        try:
            if image.length > size:
                _allocate(fd, size, image.length - size)
            _pwrite_all(fd, image.parts, image.length)
            os.ftruncate(fd, image.length)
        finally:
            os.close(fd)
        try:
            os.link(target, _spare(target))
        except OSError as exc:
            # no image yet, or a file system without hard links: keep no spare
            if exc.errno not in (errno.ENOENT, errno.EPERM, errno.EOPNOTSUPP):
                raise
        os.replace(tmp, target)
    except OSError as exc:
        raise StorageFailure(f"cannot write {target}: {exc}") from exc


def _remove_spare(target: Path) -> None:
    try:
        os.unlink(_spare(target))
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise StorageFailure(f"cannot remove {_spare(target)}: {exc}") from exc


_UNALLOCATABLE = (errno.EOPNOTSUPP, errno.EINVAL, errno.ENOSYS)  # no fallocate on this file system


def _allocate(fd: int, offset: int, length: int) -> None:
    """Allocates length bytes of fd from offset with os.posix_fallocate,
    where the platform and the file system have it; any other OSError
    propagates."""
    allocate = getattr(os, "posix_fallocate", None)
    if allocate is None:
        return
    try:
        allocate(fd, offset, length)
    except OSError as exc:
        if exc.errno not in _UNALLOCATABLE:
            raise


_IOV_MAX = os.sysconf("SC_IOV_MAX")  # buffers per pwritev call


def _pwrite_all(fd: int, parts: list, length: int) -> None:
    """Writes parts joined, length bytes, at offset 0 of fd with os.pwritev,
    _IOV_MAX buffers a call. A call takes parts itself when they fit in
    one, and a slice otherwise: parts are never copied whole. Each call
    starts where the calls before it ended, as if every call wrote its
    whole batch; the calls write length bytes in all only when each did,
    so no buffer length is walked unless the total falls short. Then the
    image is written again from the start, resuming after each short write
    (_pwrite_resuming)."""
    if len(parts) <= _IOV_MAX:
        written = os.pwritev(fd, parts, 0)
    else:
        written = 0
        for first in range(0, len(parts), _IOV_MAX):
            written += os.pwritev(fd, parts[first : first + _IOV_MAX], written)
    if written != length:
        _pwrite_resuming(fd, parts, length)


def _pwrite_resuming(fd: int, parts: list, length: int) -> None:
    """Writes parts joined, length bytes, at offset 0 of fd, _IOV_MAX
    buffers a call; a call that ends short of length walks its buffers to
    find where the next one starts."""
    offset = first = skip = 0  # the next call starts skip bytes into parts[first]
    while offset < length:
        batch = parts[first : first + _IOV_MAX]
        if skip:
            batch = [memoryview(batch[0])[skip:], *batch[1:]]
        written = os.pwritev(fd, batch, offset)
        offset += written
        if offset < length:
            ends = list(itertools.accumulate(map(len, batch)))
            whole = bisect.bisect_right(ends, written)  # the buffers written whole
            skip = (0 if whole else skip) + written - (ends[whole - 1] if whole else 0)
            first += whole


# ---- checkpoint decoding ----

_BATCH = 512  # lines per decode batch
_MARKER_NEEDLES = tuple(f"\n{marker}\n" for marker in ("PROPS", "META", "CONTENT"))
_KINDS = {kind.value: kind for kind in DocumentKind}


class _Decoder:
    """Checks checkpoint lines and decodes them into a backend's tables, a
    batch at a time, noting each document section's runs of lines for
    seeding; later, builds a lazily built section's entries from whole
    lines (build), and one property's bags from PROPS lines (bags_of).

    A batch is decoded with one UTF-8 decode and one split. Its marker lines
    cut it into segments, a META segment is cut into groups of one record
    kind, and each group's fields are transposed into columns, so the work
    per record runs in C: ids and values are parsed once per distinct text,
    and the records of each run are filed in one dict or set per run. A run
    is a stretch of consecutive records of one section that name the same
    id text; marker lines do not end one, and one may span batches.

    The lazily built sections (_LAZY: PROPS, ENFORCE and ASSIGN) are checked
    as build would read them, but nothing of them is built. For each it
    parses each distinct id and int text, and counts the distinct records
    of each run, one group's runs at a time: (id, prop, slice, value,
    ordinal) texts for PROPS, (id, schema) for ENFORCE and (id, prop) for
    ASSIGN, as the built table keys them. That is the section's count of
    records, as its table counts them. For PROPS it also parses each
    distinct value text into its payload a type at a time and checks it
    (_checked_by_tag, as Value does); the count is exact while every value,
    ordinal and slice text is the one the encoder writes (canonical): no two
    texts then read as one. On the same texts it looks, for each record of
    ordinal other than 0, for the one below it, and through one (id, prop)
    -> slice map per group, for an (id, prop) with two slices; in a seeded
    section (one run per document) of canonical texts that is exact, and a
    gap or a second slice fails open. When a text is not canonical, only
    Values tell duplicates and gaps apart. build runs over a seeded chunk's
    bytes when something first reads them, and over every line of a lazily
    built section at the end of open when the section is unseeded, or for
    PROPS not canonical, checking them.
    Malformed input raises CorruptStore, LookupError or ValueError.
    """

    def __init__(self, backend: MemoryBackend, pos: int):
        self.backend = backend
        self.pos = pos  # offset of the next line
        self.marker: Optional[str] = None  # the last marker line
        self.current: Optional[str] = None  # the section of the last record
        self.run_text: Optional[str] = None  # the id text of the last record (None for SCHEMA)
        self.ids: dict[str, DocumentId] = {}
        self.values: dict[str, Value] = {}  # value text -> Value, for build
        self.checked: set[str] = set()  # the value texts whose payload is checked
        self.slices: set[str] = set()  # the PROPS slice texts read as ints
        self.ordinals: set[str] = set()  # the ordinal texts read as ints
        self.ints: set[str] = set()  # the ENFORCE seq and ASSIGN slice texts read as ints
        self.canonical = True  # every PROPS value, ordinal and slice text so far is the encoder's
        self.counts: dict[str, int] = dict.fromkeys(_LAZY, 0)  # distinct records of each run, summed
        self.last_run: dict[str, set[tuple]] = {}  # per lazily built section, the records of its last run so far
        self.wanted: set[tuple] = set()  # the record below each one of ordinal other than 0, not seen yet
        self.one_slice = True  # no (id, prop) texts so far with two slice texts
        self.last_slices: dict[tuple, str] = {}  # (id, prop) -> slice text, of the last PROPS run so far
        self.lines: dict[str, list[tuple[int, int]]] = {name: [] for name in _LAZY}  # each group's offsets
        # per document section: (id value, offset of its first line) for each run
        self.runs: dict[str, list[tuple[int, int]]] = {name: [] for name in _DOC_SECTIONS}
        self.ends: dict[str, int] = {}  # section -> offset just past its last line so far
        # where a write's leaves that are not chunks of ids start and end: each
        # header's edges (the magic and PROPS lines are one header) and the
        # SCHEMA lines' first offset and end
        self.cuts: list[int] = []
        self.schema_span: Optional[list[int]] = None
        self.unseeded: set[str] = set()
        self.records = 0
        self.seconds = {"PROPS": 0.0, "META": 0.0, "CONTENT": 0.0}  # spent on each marker's segments

    def feed(self, batch: list[bytes]) -> None:
        """Decodes the next lines, each with its newline."""
        text = b"".join(batch).decode("utf-8")
        lines = text.split("\n")  # the empty string after the last newline comes last
        starts = list(itertools.accumulate(map(len, batch), initial=self.pos))
        self.pos = starts[-1]
        escaped = "\\" in text
        lo = 0
        for at in _marker_lines(text) + [len(batch)]:
            if at > lo:
                self._segment(lines[lo:at], starts[lo : at + 1], escaped)
            if at < len(batch):
                self.marker = lines[at]
                self.cuts.append(starts[at + 1])
                if self.marker != "PROPS":
                    self.cuts.append(starts[at])
            lo = at + 1

    def _segment(self, lines: list[str], starts: list[int], escaped: bool) -> None:
        """Lines under one marker; starts holds each line's offset and the end."""
        if self.marker is None:
            raise CorruptStore(f"record outside any section: {lines[0]!r}")
        started = time.perf_counter()
        self.records += len(lines)
        rows = _split_fields(lines, escaped)
        if self.marker == "PROPS":
            self._props(rows, starts)
        elif self.marker == "CONTENT":
            self._content(rows, starts)
        else:
            kinds = list(map(itemgetter(0), rows))
            bounds = _changes(kinds)
            for a, b in zip(bounds, bounds[1:]):
                load = self._META.get(kinds[a])
                if load is None:
                    raise CorruptStore(f"unknown metadata record kind {kinds[a]!r}")
                load(self, rows[a:b], starts[a : b + 1])
        self.seconds[self.marker] += time.perf_counter() - started

    # ---- one group of records of one section, at open ----

    def _props(self, rows, starts) -> None:
        texts, slices, props, encoded, ordinals = _columns(rows, 5)
        self._note_ids(texts)
        if not (_check_ints(slices, self.slices) & _check_ints(ordinals, self.ordinals)):
            self.canonical = False
        self._check_values(encoded)
        continued = self.current == "props" and texts[0] == self.run_text
        bounds = self._runs("props", texts, starts)
        records = self._count("props", (texts, props, slices, encoded, ordinals), bounds, continued)
        # a record of ordinal other than 0 needs the one below it, which a
        # later group of its run may hold
        for i in itertools.compress(itertools.count(), map(ne, ordinals, itertools.repeat("0"))):
            below = (texts[i], props[i], slices[i], encoded[i], str(int(ordinals[i]) - 1))
            if below not in records:
                self.wanted.add(below)
        if self.wanted:
            self.wanted -= records
        # one slice per (id, prop): each record's slice is its pair's in one
        # map of the group, which starts from the last run's when it continues
        pairs = list(zip(texts, props))
        slice_of = dict(self.last_slices) if continued else {}
        slice_of.update(zip(pairs, slices))
        if self.one_slice and (
            any(map(ne, map(slice_of.__getitem__, pairs), slices))
            or (continued and any(slice_of[pair] != text for pair, text in self.last_slices.items()))
        ):
            self.one_slice = False
        last = bounds[-2]
        self.last_slices = slice_of if last == 0 else dict(zip(pairs[last:], slices[last:]))
        self.lines["props"].append((starts[0], starts[-1]))

    def _doc(self, rows, starts) -> None:
        _, texts, kinds = _columns(rows, 3)
        self.backend._docs.update(zip(self._parse_ids(texts), map(_KINDS.__getitem__, kinds)))
        self._runs("doc", texts, starts)

    def _schema(self, rows, starts) -> None:
        for fields in rows:
            constraints = {}
            for part in fields[3:]:
                prop, type_tag, arity = part.rsplit(":", 2)
                constraints[prop] = Constraint.from_text(type_tag, arity)
            self.backend._schemas[fields[1]] = (Schema(fields[1], constraints), int(fields[2]))
        self.schema_span = [(self.schema_span or starts)[0], starts[-1]]
        self.current, self.run_text = "schema", None  # SCHEMA lines make no run

    def _enforce(self, rows, starts) -> None:
        _, texts, seqs, names = _columns(rows, 4)
        self._check_entries("enforce", texts, seqs, names, starts)

    def _assign(self, rows, starts) -> None:
        _, texts, props, slices = _columns(rows, 4)
        self._check_entries("assign", texts, slices, props, starts)

    def _member(self, rows, starts) -> None:
        _, texts, member_texts = _columns(rows, 3)
        docs = self._parse_ids(texts)
        members = self._parse_ids(member_texts)
        bounds = self._runs("member", texts, starts)
        _merge(self.backend._members, docs, bounds, lambda a, b: set(members[a:b]))

    def _content(self, rows, starts) -> None:
        texts, lengths, tokens = _columns(rows, 3)
        self.backend._content.update(
            (doc, ContentRef(doc, int(length), frozenset(words.split(" ")) if words else frozenset()))
            for doc, length, words in zip(self._parse_ids(texts), lengths, tokens)
        )
        self._runs("content", texts, starts)

    _META = {"DOC": _doc, "SCHEMA": _schema, "ENFORCE": _enforce, "ASSIGN": _assign, "MEMBER": _member}

    def _check_entries(self, name: str, texts, ints, keys, starts) -> None:
        """Checks one group of ENFORCE or ASSIGN records (an id, an int and a
        key: a seq and a schema, or a slice and a property) as build would
        read them, and counts them by (id, key), as the built table holds
        them; builds nothing."""
        self._note_ids(texts)
        _check_ints(ints, self.ints)
        continued = self.current == name and texts[0] == self.run_text
        self._count(name, (texts, keys), self._runs(name, texts, starts), continued)
        self.lines[name].append((starts[0], starts[-1]))

    # ---- building what open checked ----

    def build_lines(self, name: str, data: bytes) -> None:
        """Builds every record of section name in data, the whole file."""
        self.build(name, b"".join(data[start:end] for start, end in self.lines[name]))

    def build(self, name: str, data: bytes) -> None:
        """Files the records of data, whole lines of the lazily built section
        name that open has checked and every record of each document they
        name, into the backend's table: one UTF-8 decode and one split,
        then columns, and one entry per document."""
        text = data.decode("utf-8")
        self._BUILD[name](self, _split_fields(text.split("\n")[:-1], "\\" in text))

    def _build_props(self, rows) -> None:
        """One bag map per document. A property with two slices, or a value
        whose ordinals are not 0 to n - 1, raises CorruptStore, which open's
        checks rule out for the chunks built after it."""
        texts, slices, props, encoded, ordinals = _columns(rows, 5)
        docs = self._parse_ids(texts)
        values = self._decode_values(encoded)
        slices, props, ordinals = list(map(int, slices)), list(map(sys.intern, props)), list(map(int, ordinals))
        held: dict[DocumentId, dict[str, list[int]]] = {}  # the lines of each property
        for i, doc_id, prop in zip(itertools.count(), docs, props):
            homes = held.get(doc_id)
            if homes is None:
                homes = held[doc_id] = {}
            homes.setdefault(prop, []).append(i)
        table = self.backend._rows
        for doc_id, homes in held.items():
            for prop, lines in homes.items():
                if len(lines) == 1 and not ordinals[lines[0]]:  # the usual case
                    homes[prop] = (slices[lines[0]], (values[lines[0]],))
                    continue
                rows: dict[tuple, int] = {}  # a record repeated counts once
                for i in lines:
                    if rows.setdefault((values[i], ordinals[i]), slices[i]) != slices[i]:
                        raise CorruptStore(f"property ({doc_id}, {prop!r}) stored in 2 slices")
                homes[prop] = _home(doc_id, prop, rows, CorruptStore)
            table[doc_id] = homes

    def _build_enforce(self, rows) -> None:
        _, texts, seqs, names = _columns(rows, 4)
        seqs = list(map(int, seqs))
        _merge(self.backend._enforcement, self._parse_ids(texts), _changes(texts),
               lambda a, b: dict(zip(names[a:b], seqs[a:b])))

    def _build_assign(self, rows) -> None:
        _, texts, props, slices = _columns(rows, 4)
        props, slices = list(map(sys.intern, props)), list(map(int, slices))
        _merge(self.backend._assignments, self._parse_ids(texts), _changes(texts),
               lambda a, b: dict(zip(props[a:b], slices[a:b])))

    _BUILD = {"props": _build_props, "enforce": _build_enforce, "assign": _build_assign}

    def bags_of(self, data: bytes, prop: str) -> list[tuple[DocumentId, tuple[Value, ...]]]:
        """(document, bag) for each document of data, whole PROPS lines that
        open has checked, whose prop bag holds a value: only the lines that
        name prop are split, and only their values built, so no other bag
        is. A seeded section's canonical lines hold each record once, so a
        document's lines of prop are its bag's values."""
        text = data.decode("utf-8")
        lines = text.split("\n")[:-1]
        needle = f"\t{escape_field(prop)}\t"  # in another field too, now and then: the split tells
        lines = list(itertools.compress(lines, map(str.__contains__, lines, itertools.repeat(needle))))
        if not lines:
            return []
        texts, _, props, encoded, _ = _columns(_split_fields(lines, "\\" in text), 5)
        named = list(map(prop.__eq__, props))
        docs = self._parse_ids(list(itertools.compress(texts, named)))
        values = self._decode_values(list(itertools.compress(encoded, named)))
        held: dict[DocumentId, list[Value]] = {}
        for doc_id, value in zip(docs, values):
            held.setdefault(doc_id, []).append(value)
        return [(doc_id, (found[0],) if len(found) == 1 else bag(found)) for doc_id, found in held.items()]

    # ---- shared steps ----

    def _note_ids(self, texts) -> None:
        """Parses each id text not seen before."""
        ids = self.ids
        for text in set(texts).difference(ids):
            ids[text] = DocumentId.parse(text)

    def _parse_ids(self, texts) -> list[DocumentId]:
        self._note_ids(texts)
        return list(map(self.ids.__getitem__, texts))

    def _decode_values(self, texts) -> list[Value]:
        values = self.values
        for vtype, group, _, payloads, _ in _checked_by_tag(set(texts).difference(values)):
            values.update(zip(group, map(Value, itertools.repeat(vtype), payloads)))
        return list(map(values.__getitem__, texts))

    def _check_values(self, texts) -> None:
        """Parses and checks the payload of each value text not seen before
        (see _checked_by_tag), and notes one that is not canonical."""
        fresh = set(texts).difference(self.checked)
        self.checked.update(fresh)
        for *_, canonical in _checked_by_tag(fresh):
            if not canonical:
                self.canonical = False

    def _count(self, name: str, columns: tuple, bounds: list[int], continued: bool) -> set[tuple]:
        """Adds the group's distinct records, the rows of columns, to the
        count of section name, and returns them, with the last run's when
        the group continues it. Records of different runs name different
        ids, so a group counts its runs' distinct records at once; one that
        continues the last run counts those it does not share with it."""
        records = set(zip(*columns))
        if continued:
            last = self.last_run[name]
            self.counts[name] -= len(last)
            records |= last
        self.counts[name] += len(records)
        start = bounds[-2]
        self.last_run[name] = records if start == 0 else set(zip(*(column[start:] for column in columns)))
        return records

    def _runs(self, name: str, texts, starts: list[int]) -> list[int]:
        """The bounds of the group's runs of equal id text (see _changes);
        notes each run that starts in the group, and the section's end."""
        bounds = _changes(texts)
        firsts = bounds[:-1]
        if name == self.current and texts[0] == self.run_text:
            firsts = firsts[1:]  # the group's first run continues the last one
        if firsts:
            values = [self.ids[texts[i]][0] for i in firsts]
            section_runs = self.runs[name]
            if (section_runs and values[0] <= section_runs[-1][0]) or not all(map(lt, values, values[1:])):
                self.unseeded.add(name)
            section_runs += zip(values, map(starts.__getitem__, firsts))
        self.current, self.run_text = name, texts[-1]
        self.ends[name] = starts[-1]
        return bounds


def _marker_lines(text: str) -> list[int]:
    """The indices, in order, of the marker lines (PROPS, META, CONTENT)
    among the lines of text, which ends with a newline."""
    padded = "\n" + text
    found = []
    for needle in _MARKER_NEEDLES:
        at = padded.find(needle)
        while at >= 0:
            found.append(padded.count("\n", 0, at))
            at = padded.find(needle, at + 1)
    return sorted(found)


def _check_ints(texts, seen: set[str]) -> bool:
    """Reads each text not in seen as an int (ValueError if one is not) and
    files it in seen; whether each of them is the int's canonical text."""
    fresh = set(texts).difference(seen)
    seen.update(fresh)
    return all([str(int(text)) == text for text in fresh])


def _split_fields(lines: list[str], escaped: bool) -> list[list[str]]:
    """Each line's tab-separated fields, unescaped when escaped is set."""
    rows = list(map(str.split, lines, itertools.repeat("\t")))
    if escaped:
        rows = [list(map(unescape_field, fields)) for fields in rows]
    return rows


def _changes(column) -> list[int]:
    """0, each index whose entry differs from the one before it, and len(column)."""
    return [0, *itertools.compress(itertools.count(1), map(ne, column[1:], column)), len(column)]


def _columns(rows: list[list[str]], width: int) -> list[tuple[str, ...]]:
    """The first width fields of the rows, as columns; later fields are
    ignored, and a row with fewer is malformed."""
    if min(map(len, rows)) < width:
        raise CorruptStore(f"record with fewer than {width} fields")
    return list(zip(*rows))[:width]


def _merge(table: dict, docs: list[DocumentId], bounds: list[int], part) -> None:
    """Files part(a, b), the records of the run of lines a to b, under the
    run's document: as its entry, or into the entry an earlier run made."""
    for a, b in zip(bounds, bounds[1:]):
        held = table.get(docs[a])
        if held is None:
            table[docs[a]] = part(a, b)
        else:
            held.update(part(a, b))


class DiskBackend(MemoryBackend):
    """On-disk backend: every committed batch rewrites the checkpoint, so a
    reopen after a crash sees exactly the committed batches.

    The file is written whole, but only the records the batch changed are
    encoded again, only the chunks that hold them are checksummed again,
    and only the image tree's nodes above those chunks are folded again;
    the rest come from the chunk cache and the image tree, which open seeds
    from the bytes it checked, so the first write after open costs what it
    changes too. Open checks every record but leaves the property values,
    enforcement and assignments of each seeded chunk in its bytes until
    something reads one of its documents, so a command pays to build only
    the chunks it reads. The engine commits all
    of a flush's documents in one batch (group commit), so a flush writes
    the file once or twice, whatever it changed.

    A write costs the kernel one copy of the image into pages it already
    holds. While the backend is open, the image that store.hl1 named before
    the last write stays beside it as a spare (store.hl1.old, a second
    link made just before the replace); the next write renames the spare
    to store.hl1.tmp, allocates the bytes by which the new image outgrows
    it (os.posix_fallocate, skipped where the platform or file system
    lacks it), writes the cached chunk bytes into it with os.pwritev,
    truncates it, and replaces store.hl1 with it (see _atomic_write). The
    first write after open has no spare, and allocates its whole temp
    file. close() removes the spare, and a one-shot checkpoint to a path
    keeps none, so a closed store holds store.hl1 and content/ only.
    store.hl1 always names a complete image; a killed process leaves one
    that passes its CRC check, and open recycles or replaces a spare or
    temp file it leaves. There is no fsync, and the allocation changes
    none of this: after a power loss the file may hold an older image, or
    a torn one that open reports as CorruptStore."""

    def __init__(self, root: Path):
        super().__init__()
        self.root = Path(root)

    @classmethod
    def init(cls, path) -> "DiskBackend":
        root = Path(path)
        if (root / CHECKPOINT_NAME).exists():
            raise StorageFailure(f"store already initialized at {root}")
        _make_dirs(root / CONTENT_DIR)
        backend = cls(root)
        backend._persist()
        return backend

    @classmethod
    def open(cls, path) -> "DiskBackend":
        backend = cls(path)
        backend._load_root(backend.root)
        return backend

    def _persist(self) -> None:
        super()._persist()  # honors injected failures
        self._write_checkpoint(self.root / CHECKPOINT_NAME)

    def close(self) -> None:
        """Removes the spare image."""
        with self._lock:
            _remove_spare(self.root / CHECKPOINT_NAME)

    def _persist_blob(self, doc_id: DocumentId, data: bytes) -> None:
        _replace_file(self.root / CONTENT_DIR / str(doc_id), data)

    def _remove_blob_file(self, doc_id: DocumentId) -> None:
        try:
            os.remove(self.root / CONTENT_DIR / str(doc_id))
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StorageFailure(f"cannot remove content file for {doc_id}: {exc}") from exc

    def checkpoint(self, path=None) -> Path:
        if path is None:
            with self._lock:
                return self._write_checkpoint(self.root / CHECKPOINT_NAME)
        return super().checkpoint(path)
