"""The batched columnar checkpoint decoder against the line-at-a-time loader.

`reference_loader.load_line_at_a_time` is the loader the store had before
the decoder read a checkpoint a batch of lines at a time. Both run on the
same bytes: stores written by random batches (random ids, content,
memberships, escaped and non-ASCII property names and tokens), and CRC-valid
edits of them (END recomputed) that duplicate, move or drop lines, change
field counts, tags, kinds or id texts, or put a marker line where it does
not belong. Each must either raise CorruptStore in both loaders, or load
identical tables with the same sections seeded by identical blocks and
chunks. The decoder runs with batches of 1, 3 and 512 lines, so runs and
sections cross batch boundaries everywhere.

Also here: the timestamp fast path against `Value.timestamp_text`, the
tuple-based `DocumentId` and `PropertyRow` against their old semantics,
timestamps before year 1000, and the DEBUG record each open emits.
"""

from __future__ import annotations

import logging
import pickle
import random
import uuid

import pytest

from harland import store
from harland.engine import CacheConfig, Repository
from harland.errors import CorruptStore
from harland.model import _TS_MAX, _TS_MIN, DocumentId, Value
from harland.parsing import parse_cli_literal, render_literal
from harland.store import CHECKPOINT_NAME, PropertyRow, decode_timestamp

from reference_loader import load_batched, load_line_at_a_time, load_outcome
from test_checkpoint_cache import RandomWriter, _build_store, _with_crc


# ---- differential runs ----

def _same_outcome(data: bytes, monkeypatch) -> str:
    expected = load_outcome(load_line_at_a_time, data)
    for size in (1, 3, 512):
        with monkeypatch.context() as patch:
            patch.setattr(store, "_BATCH", size)
            assert load_outcome(load_batched, data) == expected, size
    return expected[0]


def _pick(rng: random.Random, lines: list[bytes]) -> int:
    return rng.randrange(1, len(lines))  # any line but the magic one


def _duplicate(rng, lines):
    i = _pick(rng, lines)
    return lines[: i + 1] + lines[i:]


def _move(rng, lines):
    line = lines.pop(_pick(rng, lines))
    lines.insert(_pick(rng, lines), line)
    return lines


def _drop(rng, lines):
    del lines[_pick(rng, lines)]
    return lines


def _swap_neighbours(rng, lines):
    i = _pick(rng, lines[:-1])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


def _fewer_fields(rng, lines):
    i = _pick(rng, lines)
    fields = lines[i][:-1].split(b"\t")
    if len(fields) > 1:
        del fields[rng.randrange(len(fields))]
    lines[i] = b"\t".join(fields) + b"\n"
    return lines


def _more_fields(rng, lines):
    i = _pick(rng, lines)
    lines[i] = lines[i][:-1] + b"\textra\n"
    return lines


def _marker(rng, lines):
    lines.insert(_pick(rng, lines), rng.choice((b"PROPS\n", b"META\n", b"CONTENT\n")))
    return lines


def _empty_line(rng, lines):
    lines.insert(_pick(rng, lines), b"\n")
    return lines


def _replace_once(old: bytes, new: bytes):
    def edit(rng, lines):
        hits = [i for i, line in enumerate(lines) if old in line]
        if hits:
            i = rng.choice(hits)
            lines[i] = lines[i].replace(old, new, 1)
        return lines
    return edit


def _id_text(rng, lines):
    """Rewrites one record's first id in another form uuid.UUID reads: the
    same document under another text, which starts a run of its own."""
    i = _pick(rng, lines)
    fields = lines[i].split(b"\t")
    at = 1 if fields[0] in (b"DOC", b"ENFORCE", b"ASSIGN", b"MEMBER") else 0
    text = fields[at].decode("utf-8", "replace")
    if len(text) == 36:
        fields[at] = rng.choice((text.upper(), "{" + text + "}", text.replace("-", ""),
                                 "\\" + text, text[:35] + "g")).encode("utf-8")
        lines[i] = b"\t".join(fields)
    return lines


def _move_run(rng, lines):
    """Moves every line of one document's run within a section somewhere else."""
    i = _pick(rng, lines)
    fields = lines[i].split(b"\t")
    key = fields[:2] if fields[0] in (b"DOC", b"ENFORCE", b"ASSIGN", b"MEMBER") else fields[:1]
    run = [j for j, line in enumerate(lines) if j and line.split(b"\t")[: len(key)] == key]
    moved = [lines[j] for j in run]
    kept = [line for j, line in enumerate(lines) if j not in run]
    at = _pick(rng, kept) if len(kept) > 1 else len(kept)
    return kept[:at] + moved + kept[at:]


def _other_slice(rng, lines):
    """Moves one PROPS record (five fields, a slice number second) to the
    next slice: corrupt unless it was the only record of its property."""
    records = [
        i for i, line in enumerate(lines)
        if line.count(b"\t") == 4 and not line.startswith(b"SCHEMA\t") and line.split(b"\t")[1].isdigit()
    ]
    if records:
        i = rng.choice(records)
        fields = lines[i].split(b"\t")
        fields[1] = str(int(fields[1]) + 1).encode("ascii")
        lines[i] = b"\t".join(fields)
    return lines


EDITS = (
    _duplicate, _move, _drop, _swap_neighbours, _fewer_fields, _more_fields, _marker, _empty_line,
    _id_text, _move_run, _other_slice,
    _replace_once(b"\t0\n", b"\t1\n"),  # an ordinal gap, or a slice moved
    _replace_once(b"\ttext:", b"\ttexx:"),
    _replace_once(b"\tinteger:", b"\tinteger:+"),
    _replace_once(b"\tboolean:true", b"\tboolean:yes"),
    _replace_once(b"Z\t", b"+00:00\t"),
    _replace_once(b"DOC\t", b"DOCS\t"),
    _replace_once(b"\tplain\n", b"\tplane\n"),
    _replace_once(b"ENFORCE\t", b"ASSIGN\t"),
    _replace_once(b"SCHEMA\t", b"SCHEMA\tx\t"),
    _replace_once(b"\tn\t", "\tn\u2028\x0b\x1c\r\t".encode("utf-8")),  # line breaks to str.splitlines only
)


def _edited(rng: random.Random, data: bytes) -> bytes:
    lines = data[: data.rindex(b"END ")].splitlines(keepends=True)
    for _ in range(rng.choice((1, 1, 2))):
        lines = rng.choice(EDITS)(rng, lines)
    return _with_crc(lines)


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_decoder_matches_line_at_a_time_loader_on_random_stores(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    root = tmp_path / "store"
    writer = RandomWriter(rng, root, monkeypatch, random_ids=seed % 2 == 0)
    outcomes = []
    for step in range(1, 181):
        writer.step()
        if step % 30 == 0:
            data = (root / CHECKPOINT_NAME).read_bytes()
            assert _same_outcome(data, monkeypatch) == "ok"
            outcomes += [_same_outcome(_edited(rng, data), monkeypatch) for _ in range(8)]
    assert {"ok", "corrupt"} <= set(outcomes)


def test_decoder_matches_line_at_a_time_loader_on_every_edit(tmp_path, monkeypatch):
    """Every edit, several times each, on a store with escaped titles, content
    and memberships whose sections span several 512-line batches."""
    data = _build_store(tmp_path / "store", 300)
    assert data.count(b"\n") > 3 * 512
    rng = random.Random(5)
    outcomes = {"ok": 0, "corrupt": 0}
    for edit in EDITS:
        for _ in range(3):
            lines = data[: data.rindex(b"END ")].splitlines(keepends=True)
            outcomes[_same_outcome(_with_crc(edit(rng, lines)), monkeypatch)] += 1
    assert outcomes["ok"] and outcomes["corrupt"]


def test_runs_and_markers_at_batch_boundaries(tmp_path, monkeypatch):
    """A marker line as the last and as the first line of a 512-line batch,
    and one document's run split by the boundary. The first batch starts
    after the magic line, so line 512k is the last of batch k."""
    data = _build_store(tmp_path / "store", 300)
    lines = data[: data.rindex(b"END ")].splitlines(keepends=True)
    assert lines[512].split(b"\t")[0] == lines[513].split(b"\t")[0]  # a PROPS run crosses the boundary
    assert lines[1536].split(b"\t")[:2] == lines[1537].split(b"\t")[:2]  # an ASSIGN run too
    assert _same_outcome(data, monkeypatch) == "ok"
    for at in (512, 513, 514, 1024, 1025):
        for marker in (b"PROPS\n", b"META\n", b"CONTENT\n"):
            _same_outcome(_with_crc(lines[:at] + [marker] + lines[at:]), monkeypatch)


def test_record_before_any_marker_is_a_corrupt_store(tmp_path):
    data = _build_store(tmp_path / "store", 5)
    lines = data[: data.rindex(b"END ")].splitlines(keepends=True)
    bad = _with_crc(lines[:1] + [lines[2]] + lines[1:])
    with pytest.raises(CorruptStore):
        load_batched(bad)
    with pytest.raises(CorruptStore):
        load_line_at_a_time(bad)


# ---- the timestamp fast path ----

def test_timestamp_fast_path_matches_timestamp_text():
    rng = random.Random(20)
    edges = [_TS_MIN, _TS_MAX, 0, -1, 1, -62_135_596_800_000, 253_402_300_799_999]
    for ms in edges + [rng.randint(_TS_MIN, _TS_MAX) for _ in range(20_000)]:
        text = Value.timestamp(ms).to_timestamp_text()
        assert decode_timestamp(text) == Value.timestamp_text(text) == Value.timestamp(ms), text


@pytest.mark.parametrize("text", [
    "2001-01-01T00:00:00Z",
    "2001-01-01 00:00:00.000Z",
    "2001-01-01T00:00:00.000+01:00",
    "2001-01-01T00:00:00.000",
    "2001-01-01T00:00:00.0001Z",
])
def test_other_timestamp_forms_take_timestamp_text(text):
    assert decode_timestamp(text) == Value.timestamp_text(text)


@pytest.mark.parametrize("text", [
    "2001-13-01T00:00:00.000Z", "0000-01-01T00:00:00.000Z", "2001-W01-1T00:00:00.000Z",
    "2001-01-01X00:00:00.000Z", "٢001-01-01T00:00:00.000Z", "2001-01-01T00:00:60.000Z",
])
def test_malformed_timestamps_fail_both_ways(text):
    with pytest.raises(ValueError):
        Value.timestamp_text(text)
    with pytest.raises(ValueError):
        decode_timestamp(text)


# ---- DocumentId and PropertyRow as tuples ----

def test_document_id_keeps_its_semantics():
    rng = random.Random(3)
    values = [0, 1, 2**64, 2**128 - 1] + [rng.randrange(2**128) for _ in range(500)]
    ids = [DocumentId(v) for v in values]
    for v, doc_id in zip(values, ids):
        assert doc_id.value == v
        assert hash(doc_id) == hash((v,))  # the frozen dataclass hashed its field tuple
        assert doc_id == DocumentId(v) and doc_id != DocumentId((v + 1) % 2**128)
        assert str(doc_id) == str(uuid.UUID(int=v))
        assert repr(doc_id) == f"DocumentId({uuid.UUID(int=v)})"
        assert DocumentId.parse(str(doc_id)) == doc_id
        assert DocumentId.parse(str(doc_id).upper()) == doc_id
        restored = pickle.loads(pickle.dumps(doc_id))
        assert restored == doc_id and type(restored) is DocumentId
    assert sorted(ids) == [DocumentId(v) for v in sorted(values)]
    assert sorted(ids, reverse=True)[0] > sorted(ids)[0]
    for bad in (2**128, -1):
        with pytest.raises(ValueError):
            DocumentId(bad)


@pytest.mark.parametrize("text", [
    "12345678-1234-5678-1234-567812345678",
    "12345678-1234-5678-1234-56781234567F",
    "{12345678-1234-5678-1234-567812345678}",
    "urn:uuid:12345678-1234-5678-1234-567812345678",
    "12345678123456781234567812345678",
    "+2345678-1234-5678-1234-567812345678",
    "12345678-1234-5678-1234-56781234567_",
    " 2345678-1234-5678-1234-567812345678",
    "12345678-1234-5678-1234-56781234567g",
    "12345678-1234-5678-1234-5678-2345678",
    "١٢345678-1234-5678-1234-567812345678",
    "",
])
def test_document_id_parse_reads_what_uuid_reads(text):
    try:
        expected = uuid.UUID(text).int
    except ValueError:
        with pytest.raises(ValueError):
            DocumentId.parse(text)
    else:
        assert DocumentId.parse(text) == DocumentId(expected)


def test_property_row_key_and_equality_are_unchanged():
    doc_id = DocumentId(7)
    row = PropertyRow(doc_id, 1, "Subject", Value.text("hi"), 0)
    assert row.key() == (doc_id, "Subject", Value.text("hi"), 0)
    assert (row.doc_id, row.slice_id, row.prop, row.value, row.ordinal) == (doc_id, 1, "Subject", Value.text("hi"), 0)
    assert row == PropertyRow(doc_id, 1, "Subject", Value.text("hi"), 0)
    assert hash(row) == hash(PropertyRow(doc_id, 1, "Subject", Value.text("hi"), 0))
    for other in (
        PropertyRow(DocumentId(8), 1, "Subject", Value.text("hi"), 0),
        PropertyRow(doc_id, 2, "Subject", Value.text("hi"), 0),
        PropertyRow(doc_id, 1, "subject", Value.text("hi"), 0),
        PropertyRow(doc_id, 1, "Subject", Value.text("ho"), 0),
        PropertyRow(doc_id, 1, "Subject", Value.text("hi"), 1),
    ):
        assert row != other


# ---- timestamps before year 1000 ----

@pytest.mark.parametrize("text", [
    "0001-01-01T00:00:00.000Z",
    "0399-02-08T01:25:23.804Z",
    "0999-12-31T23:59:59.999Z",
    "1000-01-01T00:00:00.000Z",
    "9999-12-31T23:59:59.999Z",
])
def test_timestamps_of_every_year_survive_reopen_and_the_cli(tmp_path, text):
    value = Value.timestamp_text(text)
    assert value.to_timestamp_text() == text
    assert parse_cli_literal(render_literal(value)) == value
    root = tmp_path / "store"
    with Repository.init(root, CacheConfig(auto_flush=False)) as repo:
        doc_id = repo.create_document().doc_id
        repo.get_document(doc_id).set_property("When", [value])
    with Repository.open(root) as repo:
        assert repo.get_document(doc_id).values("When") == (value,)
    assert f"timestamp:{text}".encode("ascii") in (root / CHECKPOINT_NAME).read_bytes()


# ---- observability ----

def test_open_logs_one_debug_record(tmp_path, caplog):
    root = tmp_path / "store"
    data = _build_store(root, 20)
    lines = data[: data.rindex(b"END ")].splitlines()
    records = len(lines) - 1 - sum(line in (b"PROPS", b"META", b"CONTENT") for line in lines)
    distinct = len({line.split(b"\t")[3] for line in lines[2 : lines.index(b"META")]})
    with caplog.at_level(logging.DEBUG, logger="harland.store"):
        store.DiskBackend.open(root)
    [record] = [r for r in caplog.records if r.name == "harland.store"]
    assert record.levelno == logging.DEBUG
    assert record.args[:3] == (len(data), records, distinct)
    assert all(ms >= 0 for ms in record.args[3:])
    message = record.getMessage()
    for part in (f"{len(data)} bytes", f"{records} records", f"{distinct} distinct values", "decode", "checksum"):
        assert part in message
