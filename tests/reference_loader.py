"""The line-at-a-time checkpoint loader, kept as the reference for the
batched columnar decoder in `harland.store`.

`load_line_at_a_time(data)` decodes a checkpoint one line at a time: it
parses every id with `DocumentId.parse`, every value with the original
`ValueType(tag)` dispatch and `Value.timestamp_text`, and files each row
and metadata entry one record at a time. A row goes into its property's
(slice, value -> ordinals); a second slice for one property is corrupt,
and once every line is read each value's ordinals must run 0, 1, 2, ...
with no gap, one at a time, before the values become the property's bag.
It seeds the returned backend's block cache and checks END exactly as
`MemoryBackend._load_checkpoint` specifies, the SCHEMA section seeded
when its lines are the canonical block. Stdlib only, so the stdlib
check script imports it too.
"""

from __future__ import annotations

import io
import itertools
import sys

from harland.errors import CorruptStore
from harland.model import Constraint, DocumentId, DocumentKind, Schema, Value, ValueType, bag
from harland.store import (
    MAGIC,
    ContentRef,
    MemoryBackend,
    _Chunk,
    _CHUNK,
    _DOC_SECTIONS,
    crc32c,
    crc32c_combine,
    schema_record,
    unescape_field,
)


def decode_value_reference(text: str) -> Value:
    tag, sep, body = text.partition(":")
    if not sep:
        raise CorruptStore(f"malformed value encoding {text!r}")
    try:
        t = ValueType(tag)
        if t is ValueType.TEXT:
            return Value.text(bytes.fromhex(body).decode("utf-8"))
        if t is ValueType.BYTES:
            return Value.binary(bytes.fromhex(body))
        if t is ValueType.INTEGER:
            return Value.integer(int(body))
        if t is ValueType.FLOAT:
            return Value.floating(float(body))
        if t is ValueType.BOOLEAN:
            if body not in ("true", "false"):
                raise ValueError(body)
            return Value.boolean(body == "true")
        if t is ValueType.TIMESTAMP:
            return Value.timestamp_text(body)
    except (ValueError, OverflowError) as exc:
        raise CorruptStore(f"malformed value encoding {text!r}: {exc}") from exc
    raise CorruptStore(f"unknown value tag {tag!r}")


def load_line_at_a_time(data: bytes) -> MemoryBackend:
    """A backend loaded from checkpoint bytes; corrupt input raises CorruptStore."""
    backend = MemoryBackend()
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
    lines = itertools.islice(io.BytesIO(data), data.count(b"\n", 0, body_end))
    first = next(lines, b"")
    if first != f"{MAGIC}\n".encode("ascii"):
        raise CorruptStore("bad magic")
    ids: dict[str, DocumentId] = {}
    values: dict[str, Value] = {}

    def parse_id(text: str) -> DocumentId:
        doc_id = ids.get(text)
        if doc_id is None:
            doc_id = ids[text] = DocumentId.parse(text)
        return doc_id

    props: dict[DocumentId, dict[str, tuple[int, dict[Value, set[int]]]]] = {}
    runs: dict[str, list[tuple[int, int]]] = {name: [] for name in _DOC_SECTIONS}
    ends: dict[str, int] = {}
    unseeded: set[str] = set()
    marker = current = run_text = None
    schema_span: list[int] = []  # the first SCHEMA line's offset and the last one's end
    pos = len(first)
    try:
        for raw in lines:
            line = raw.decode("utf-8")[:-1]
            if line in ("PROPS", "META", "CONTENT"):
                marker = line
                pos += len(raw)
                continue
            fields = line.split("\t")
            if "\\" in line:
                fields = [unescape_field(f) for f in fields]
            if marker == "PROPS":
                name, id_text = "props", fields[0]
                doc_id = parse_id(id_text)
                value = values.get(fields[3])
                if value is None:
                    value = values[fields[3]] = decode_value_reference(fields[3])
                slice_id, prop, ordinal = int(fields[1]), sys.intern(fields[2]), int(fields[4])
                home = props.setdefault(doc_id, {}).setdefault(prop, (slice_id, {}))
                if home[0] != slice_id:
                    raise CorruptStore(f"({doc_id}, {prop!r}) in slices {home[0]} and {slice_id}")
                home[1].setdefault(value, set()).add(ordinal)
            elif marker == "META":
                name, id_text = _load_meta_record(backend, fields, parse_id)
                if name == "schema":
                    schema_span[:] = [(schema_span or [pos])[0], pos + len(raw)]
            elif marker == "CONTENT":
                name, id_text = "content", fields[0]
                doc_id = parse_id(id_text)
                tokens = frozenset(fields[2].split(" ")) if fields[2] else frozenset()
                backend._content[doc_id] = ContentRef(doc_id, int(fields[1]), tokens)
            else:
                raise CorruptStore(f"record outside any section: {line!r}")
            if id_text != run_text or name != current:
                current, run_text = name, id_text
                if id_text is not None:
                    section_runs = runs[name]
                    id_value = ids[id_text].value
                    if section_runs and id_value <= section_runs[-1][0]:
                        unseeded.add(name)
                    section_runs.append((id_value, pos))
            pos += len(raw)
            ends[name] = pos
    except (IndexError, ValueError, OverflowError) as exc:
        raise CorruptStore(f"malformed record: {exc}") from exc
    for doc_id, homes in props.items():
        for prop, (slice_id, ordinals_of) in homes.items():
            for value, ordinals in ordinals_of.items():
                expected = 0
                for ordinal in sorted(ordinals):
                    if ordinal != expected:
                        raise CorruptStore(f"({doc_id}, {prop!r}, {value!r}) has no ordinal {expected}")
                    expected += 1
            values = [value for value, ordinals in ordinals_of.items() for _ in ordinals]
            backend._rows.setdefault(doc_id, {})[prop] = (slice_id, bag(values))
    seeded = _seed_sections(backend, data, runs, ends, unseeded)
    crc = pos = 0
    for start, chunk in sorted(seeded, key=lambda pair: pair[0]):
        if start > pos:
            crc = crc32c_combine(crc, crc32c(data[pos:start]), start - pos)
        length = len(chunk.data)
        chunk_crc = crc32c(data[start : start + length])
        chunk.node = length << 32 | chunk_crc
        crc = crc32c_combine(crc, chunk_crc, length)
        pos = start + length
    crc = crc32c_combine(crc, crc32c(data[pos:body_end]), body_end - pos)
    if crc != stated:
        raise CorruptStore("checksum mismatch")
    block = "".join(
        schema_record(schema, slice_id) + "\n"
        for schema, slice_id in sorted(backend._schemas.values(), key=lambda pair: pair[1])
    ).encode("utf-8")
    if data[slice(*schema_span or (0, 0))] == block:
        backend._sections["schema"].chunks = []
        if block:
            chunk = _Chunk([])
            chunk.data, chunk.node = block, len(block) << 32 | crc32c(block)
            backend._sections["schema"].chunks.append(chunk)
    return backend


def _seed_sections(backend, data: bytes, runs: dict, ends: dict, unseeded: set) -> list:
    seeded = []
    for name, section_runs in runs.items():
        table = getattr(backend, _DOC_SECTIONS[name][0])
        if name == "props":
            records = sum(len(values) for homes in table.values() for _, values in homes.values())
        else:
            records = len(table) if name in ("doc", "content") else sum(map(len, table.values()))
        bounds = [start for _, start in section_runs] + [ends.get(name, 0)]
        if name in unseeded or (section_runs and records != data.count(b"\n", bounds[0], bounds[-1])):
            continue
        section = backend._sections[name]
        keys = [value for value, _ in section_runs]
        section.chunks = []
        for i in range(0, len(keys), _CHUNK):
            chunk = _Chunk(keys[i : i + _CHUNK])
            start = bounds[i]
            chunk.data = data[start : bounds[i + len(chunk.keys)]]
            chunk.spans = [
                (bounds[k] - start) << 32 | (bounds[k + 1] - start) for k in range(i, i + len(chunk.keys))
            ]
            section.chunks.append(chunk)
            seeded.append((start, chunk))
    return seeded


def _load_meta_record(backend, fields: list[str], parse_id):
    kind = fields[0]
    if kind == "DOC":
        backend._docs[parse_id(fields[1])] = DocumentKind(fields[2])
        return "doc", fields[1]
    if kind == "SCHEMA":
        constraints = {}
        for part in fields[3:]:
            prop, type_tag, arity = part.rsplit(":", 2)
            constraints[prop] = Constraint.from_text(type_tag, arity)
        backend._schemas[fields[1]] = (Schema(fields[1], constraints), int(fields[2]))
        return "schema", None
    if kind == "ENFORCE":
        backend._enforcement.setdefault(parse_id(fields[1]), {})[fields[3]] = int(fields[2])
        return "enforce", fields[1]
    if kind == "ASSIGN":
        backend._assignments.setdefault(parse_id(fields[1]), {})[sys.intern(fields[2])] = int(fields[3])
        return "assign", fields[1]
    if kind == "MEMBER":
        backend._members.setdefault(parse_id(fields[1]), set()).add(parse_id(fields[2]))
        return "member", fields[1]
    raise CorruptStore(f"unknown metadata record kind {kind!r}")


TABLES = ("_docs", "_rows", "_schemas", "_enforcement", "_assignments", "_members", "_content")


def blocks_of(section) -> dict[int, bytes]:
    """A section's cached record blocks by document id value, each sliced
    from its chunk's bytes by its span; a block not encoded yet has none."""
    return {
        value: bytes(chunk.data[span >> 32 : span & 0xFFFFFFFF])
        for chunk in section.chunks or ()
        for value, span in zip(chunk.keys, chunk.spans)
        if span is not None
    }


def load_outcome(load, data: bytes):
    """("corrupt", None) when load(data) raises CorruptStore, else ("ok",
    state): every table, its rows built first (a seeded PROPS chunk builds
    them when first read), and for each section whether it is seeded and,
    per chunk, its keys, its blocks' bytes and its node."""
    try:
        backend = load(data)
    except CorruptStore:
        return "corrupt", None
    backend._build_all()
    tables = {name: getattr(backend, name) for name in TABLES}
    sections = {name: _seeded_chunks(section) for name, section in backend._sections.items()}
    return "ok", (tables, sections)


def _seeded_chunks(section):
    if section.chunks is None:
        return None
    blocks = blocks_of(section)
    return [(chunk.keys, [blocks[value] for value in chunk.keys], chunk.node) for chunk in section.chunks]


def load_batched(data: bytes) -> MemoryBackend:
    backend = MemoryBackend()
    backend._load_checkpoint(data)
    return backend
