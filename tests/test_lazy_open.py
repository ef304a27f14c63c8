"""Open checks every record but builds a PROPS, ENFORCE or ASSIGN chunk's
entries on first read.

A seeded chunk of those sections keeps its bytes, and its documents'
entries are built from them, a chunk at a time, by whatever reads one of
them first: a fetch, a scan, a write, a delete, the engine's flush diff,
a metadata read, a `schema:` query. A column is built from the lines of
one property of each unbuilt PROPS chunk, and builds no bag. Here:

- the backend's `decoded_chunks` counter on the benchmark's 500-document
  cli store: a `get` builds one PROPS chunk, `schema list` none, and a
  query on a column none;
- a CRC-valid store whose bad value, slice, ordinal, seq or id sits in a
  chunk no command reads still fails open, a value at the edge of its
  type's range opens, both as the line-at-a-time loader loads them, and
  two texts of one value or ordinal on one document load as that loader
  loads them;
- a random replay against the shadow oracle that reopens the store
  between rounds and then reads, writes, enforces, retracts, fails a
  write, deletes, queries, explains, copies the metadata and checkpoints
  to a path in random order, so every kind of first touch meets an
  unbuilt chunk;
- readers on several threads racing to build one PROPS chunk, or one
  ENFORCE and one ASSIGN chunk, while another thread writes one of its
  documents;
- columns built from chunk bytes against columns built from the bags;
- the canonical test that decides whether open may count a PROPS
  section's records from their texts, against the encoder.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import sys
import threading
from pathlib import Path

import pytest

from harland import cli, store
from harland.engine import CacheConfig, Repository
from harland.errors import CorruptStore, StorageFailure
from harland.model import DocumentId, DocumentKind, Schema, Value, occurrences
from harland.query import HasSchema
from harland.store import (
    CHECKPOINT_NAME,
    DiskBackend,
    DocumentRecord,
    Enforcement,
    PropertyRow,
    SchemaDef,
    SliceAssignment,
)

from reference_loader import load_batched, load_line_at_a_time, load_outcome
from test_checkpoint_cache import PROPS, RandomWriter, _build_store, _random_value, _with_crc

_SPEC = importlib.util.spec_from_file_location(
    "bench_corpus", Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
)
corpus = sys.modules["bench_corpus"] = importlib.util.module_from_spec(_SPEC)  # dataclasses look it up
_SPEC.loader.exec_module(corpus)


# ---- what each cli command builds ----

@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    """The cli workload's store: 500 documents of the benchmark corpus, seed 1."""
    path = tmp_path_factory.mktemp("cli") / "store"
    docs = corpus.make_docs(random.Random(1), 500)
    corpus.build_store(docs, path)
    return path, docs


def _built_by(monkeypatch, path, *argv: str) -> tuple[int, str]:
    """(decoded_chunks once the command's body has run, its output)."""
    seen = []
    real = cli._run

    def run(repo, args, out):
        try:
            return real(repo, args, out)
        finally:
            seen.append(repo.stats()["decoded_chunks"])

    monkeypatch.setattr(cli, "_run", run)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--store", str(path), *argv]) == 0, argv
    return seen[0], out.getvalue()


def test_get_builds_one_chunk_and_schema_list_none(cli_store, monkeypatch):
    path, _ = cli_store
    backend = DiskBackend.open(path)
    chunks = backend._sections["props"].chunks
    assert len(chunks) > 10 and backend.decoded_chunks == 0
    target = DocumentId(chunks[len(chunks) // 2].keys[3])
    built, out = _built_by(monkeypatch, path, "get", str(target))
    assert built == 1
    assert out.startswith(f"id {target}\n") and "Subject = " in out
    assert _built_by(monkeypatch, path, "schema", "list") == (0, "email\nto-do\n")


def test_query_on_a_column_builds_every_chunk(cli_store, monkeypatch):
    path, docs = cli_store
    backend = DiskBackend.open(path)
    ids = sorted(backend.stored_docs())
    sender = docs[7].sender
    expected = sorted(
        str(d) for d in ids if any(r.value == Value.text(sender) for r in backend.scan_rows(d))
    )
    built, out = _built_by(monkeypatch, path, "query", f'From = "{sender}"')
    assert built == 0  # the From column is read from the chunks' bytes, and no bag is built
    assert out.split() == expected and expected


# ---- open still checks what no command reads ----

def _last_props_line(lines: list[bytes]) -> int:
    return lines.index(b"META\n") - 1


@pytest.mark.parametrize("field,bad", [
    (3, b"texx:61"),
    (3, b"boolean:yes"),
    (3, b"integer:9223372036854775808"),
    (3, b"float:nan"),
    (3, b"timestamp:0001-01-01T00:00:00+01:00"),
    (3, b"text:zz"),
    (1, b"x"),
    (4, b"1.5"),
])
def test_a_bad_record_in_a_chunk_no_command_reads_fails_open(tmp_path, field, bad):
    root = tmp_path / "store"
    data = _build_store(root, 200)
    lines = data[: data.rindex(b"END ")].splitlines(keepends=True)
    at = _last_props_line(lines)  # the last document's run: the last chunk
    fields = lines[at][:-1].split(b"\t")
    fields[field] = bad
    lines[at] = b"\t".join(fields) + b"\n"
    (root / CHECKPOINT_NAME).write_bytes(_with_crc(lines))
    with pytest.raises(CorruptStore):
        DiskBackend.open(root)
    with pytest.raises(CorruptStore):
        load_line_at_a_time((root / CHECKPOINT_NAME).read_bytes())


def _last_line(lines: list[bytes], kind: bytes) -> int:
    """The index of the last PROPS line, or of the last META record of kind."""
    if kind == b"PROPS":
        return _last_props_line(lines)
    return max(i for i, line in enumerate(lines) if line.startswith(kind + b"\t"))


@pytest.mark.parametrize("kind,field,bad,opens", [
    (b"ASSIGN", 3, b"1.5", False),
    (b"ASSIGN", 3, b"x", False),
    (b"ASSIGN", 1, b"x", False),
    (b"ENFORCE", 2, b"x", False),
    (b"ENFORCE", 1, b"1.5", False),
    (b"PROPS", 3, b"integer:9223372036854775808", False),
    (b"PROPS", 3, b"integer:-9223372036854775809", False),
    (b"PROPS", 3, b"integer:9223372036854775807", True),
    (b"PROPS", 3, b"integer:-9223372036854775808", True),
    (b"PROPS", 3, b"float:-nan", False),
    (b"PROPS", 3, b"float:inf", True),
    (b"PROPS", 3, b"text:ff", False),
    (b"PROPS", 3, b"text:616", False),
    (b"PROPS", 3, b"timestamp:9999-12-31T23:59:59.999-01:00", False),
    (b"PROPS", 3, b"timestamp:9999-12-31T23:59:59.999Z", True),
])
def test_a_bad_record_in_a_metadata_chunk_or_a_value_edge_opens_as_the_line_at_a_time_loader_says(
        tmp_path, kind, field, bad, opens):
    root = tmp_path / "store"
    data = _build_store(root, 200)
    lines = data[: data.rindex(b"END ")].splitlines(keepends=True)
    at = _last_line(lines, kind)  # the last document's run: the last chunk of its section
    fields = lines[at][:-1].split(b"\t")
    fields[field] = bad
    lines[at] = b"\t".join(fields) + b"\n"
    edited = _with_crc(lines)
    (root / CHECKPOINT_NAME).write_bytes(edited)
    expected = load_outcome(load_line_at_a_time, edited)
    assert expected[0] == ("ok" if opens else "corrupt")
    assert load_outcome(load_batched, edited) == expected
    if opens:
        backend = DiskBackend.open(root)
        section = "props" if kind == b"PROPS" else kind.decode().lower()
        assert backend._sections[section].chunks[-1] in backend._unbuilt
    else:
        with pytest.raises(CorruptStore):
            DiskBackend.open(root)


def _with_twin(data: bytes, old: bytes, new: bytes) -> bytes:
    """data with a copy of its first PROPS line holding old, that copy
    holding new instead, inserted just after it: one document's run."""
    lines = data[: data.rindex(b"END ")].splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if old in line)
    lines.insert(at + 1, lines[at].replace(old, new))
    return _with_crc(lines)


def _store_of(tmp_path, values: list[Value]) -> bytes:
    backend = store.MemoryBackend()
    ids = [DocumentId(1000 + i) for i in range(70)]
    backend.put_rows(
        meta=[DocumentRecord(d, DocumentKind.PLAIN) for d in ids],
        rows=[PropertyRow(d, 0, "n", values[i % len(values)], 0) for i, d in enumerate(ids)],
    )
    return backend.checkpoint(tmp_path / "store").read_bytes()


@pytest.mark.parametrize("old,new,seeded", [
    (b"\tinteger:5\t", b"\tinteger:+5\t", False),  # one value, two texts: a duplicate record
    (b"\tinteger:5\t0\n", b"\tinteger:5\t00\n", False),  # one ordinal, two texts
    (b"\tfloat:0.0\t", b"\tfloat:-0.0\t", True),  # equal floats, two values: no duplicate
])
def test_two_texts_of_one_value_load_as_the_line_at_a_time_loader_loads_them(tmp_path, old, new, seeded):
    data = _with_twin(_store_of(tmp_path, [Value.integer(5), Value.floating(0.0), Value.integer(6)]), old, new)
    expected = load_outcome(load_line_at_a_time, data)
    assert expected[0] == "ok"
    assert load_outcome(load_batched, data) == expected
    assert (expected[1][1]["props"] is not None) == seeded


# ---- a random replay that touches unbuilt chunks first in every way ----

def _rows_of(backend, doc_id) -> set:
    """The rows that fetches of slices 0, 1 and 2, one slice each, hand
    back: each occurrence of a value in a fetched bag, numbered from 0."""
    return {
        PropertyRow(doc_id, slice_id, prop, value, ordinal)
        for slice_id in (0, 1, 2)
        for prop, values in backend.fetch_slices(doc_id, {slice_id})
        for value, ordinal in occurrences(values)
    }


def _bag_rows_of(backend, doc_id) -> set:
    """The rows that the flush diff's accessor holds for doc_id: each
    occurrence of a value in a property's bag, numbered from 0."""
    return {
        PropertyRow(doc_id, slice_id, prop, value, values[:i].count(value))
        for prop, (slice_id, values) in backend.stored_bags_of(doc_id).items()
        for i, value in enumerate(values)
    }


def _entries(table: dict) -> dict:
    """A shadow table without the empty entries the backend never keeps."""
    return {doc_id: entry for doc_id, entry in table.items() if entry}


def _touch_metadata(writer: RandomWriter, rng: random.Random, action: str, doc_id: DocumentId, path) -> None:
    """One random first touch of the reopened store's ENFORCE or ASSIGN
    chunks, checked against the shadow."""
    backend, shadow = writer.backend, writer.shadow
    schemas = sorted(shadow.schemas)
    enforced = shadow.enforcement.get(doc_id, {})
    free = [name for name in schemas if name not in enforced]
    if action == "enforce" and free:
        writer.seq += 1
        writer.batch(meta=[Enforcement(doc_id, rng.choice(free), writer.seq)])
    elif action == "unenforce" and enforced:
        writer.batch(meta_deletes=[Enforcement(doc_id, rng.choice(sorted(enforced)), 0)])
    elif action == "delete":
        writer.call(lambda: backend.delete_document(doc_id), lambda: shadow.delete(doc_id))
    elif action in ("schema query", "explain") and schemas:
        name = rng.choice(schemas)
        holders = sorted(d for d, entry in shadow.enforcement.items() if name in entry)
        if action == "schema query":
            assert list(backend.stored_enforcing(name)) == holders
        else:
            repo = Repository(backend, CacheConfig(auto_flush=False))
            assert repo.explain(HasSchema(name))["candidates"] == len(holders)
    elif action == "meta view":
        view = backend.meta_view()
        assert view.enforcement == _entries(shadow.enforcement)
        assert view.assignments == _entries(shadow.assignments)
    elif action == "checkpoint":
        assert backend.checkpoint(path).read_bytes() == shadow.encode()
    elif action == "failed flush":  # the records an engine flush of doc_id would write
        records = [SliceAssignment(doc_id, prop, 1)
                   for prop in PROPS if prop not in shadow.assignments.get(doc_id, {})][:1]
        records += [Enforcement(doc_id, name, writer.seq + 1) for name in free[:1]]
        backend.fail_next_persist = True
        with pytest.raises(StorageFailure):
            if records:
                backend.put_rows(meta=records)
            else:
                backend.delete_document(doc_id)
        backend.fail_next_persist = False
        assert dict(backend.stored_enforcement_of(doc_id)) == enforced
    else:
        writer.step()


def _touch(writer: RandomWriter, rng: random.Random, path) -> None:
    """One random first touch of the reopened store, checked against the shadow."""
    backend, shadow = writer.backend, writer.shadow
    docs = sorted(shadow.docs)
    action = rng.choice(("fetch", "scan", "flush diff", "write", "write", "failed write", "query")
                        + ("enforce", "unenforce", "delete", "schema query", "explain", "meta view",
                           "checkpoint", "failed flush"))
    doc_id = rng.choice(docs)
    committed = set(shadow.rows.get(doc_id, {}).values())
    if action not in ("fetch", "scan", "flush diff", "write", "failed write", "query"):
        _touch_metadata(writer, rng, action, doc_id, path)
    elif action == "fetch":
        assert _rows_of(backend, doc_id) == committed
    elif action == "scan":
        assert set(backend.scan_rows(doc_id)) == committed
    elif action == "flush diff":
        assert _bag_rows_of(backend, doc_id) == committed
    elif action == "write":
        writer.step()
    elif action == "failed write":
        backend.fail_next_persist = True
        with pytest.raises(StorageFailure):
            if rng.random() < 0.5 or not committed:
                backend.delete_document(doc_id)
            else:
                backend.put_rows(deletes=[next(iter(committed)).key()])
        backend.fail_next_persist = False
        assert _rows_of(backend, doc_id) == committed
    else:
        prop = rng.choice(PROPS)
        holders = {d for d, rows in shadow.rows.items() if any(key[0] == prop for key in rows)}
        assert set(backend.stored_matches(prop, lambda bag: True)) == holders


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_reopened_store_matches_the_shadow_whatever_touches_a_chunk_first(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    writer = RandomWriter(rng, tmp_path / "store", monkeypatch)
    while len(writer.shadow.docs) < 90:
        writer.step()
    touched = meta_built = 0
    for _ in range(30):
        writer.backend.close()
        writer.backend = DiskBackend.open(writer.root)
        assert writer.backend._unbuilt
        for _ in range(rng.randrange(1, 5)):
            _touch(writer, rng, tmp_path / "copy")
            touched += 1
        meta_built += writer.backend.decoded_meta_chunks
        shadow = writer.shadow
        for doc_id in shadow.docs:
            assert _rows_of(writer.backend, doc_id) == set(shadow.rows.get(doc_id, {}).values())
            assert dict(writer.backend.stored_enforcement_of(doc_id)) == shadow.enforcement.get(doc_id, {})
            assert dict(writer.backend.stored_assignments_of(doc_id)) == shadow.assignments.get(doc_id, {})
        writer.check()
    assert touched > 60 and meta_built > 0


# ---- readers racing to build one chunk while a writer changes it ----

def test_readers_of_an_unbuilt_chunk_see_only_committed_rows_while_one_is_written(tmp_path):
    root = tmp_path / "store"
    backend = DiskBackend.init(root)
    ids = [DocumentId(5000 + i) for i in range(64)]
    backend.put_rows(
        meta=[DocumentRecord(d, DocumentKind.PLAIN) for d in ids],
        rows=[PropertyRow(d, 0, "n", Value.integer(i), 0) for i, d in enumerate(ids)],
    )
    backend.close()
    target = ids[5]
    states = [{PropertyRow(target, 0, "n", Value.integer(5), 0)}]
    for k in range(1, 6):
        states.append(states[-1] | {PropertyRow(target, 1, "m", Value.integer(k), 0)})
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade the interpreter often: races show
    try:
        for _ in range(8):
            backend = DiskBackend.open(root)
            (chunk,) = [c for c in backend._sections["props"].chunks if target.value in c.keys]
            assert chunk in backend._unbuilt
            others = [DocumentId(v) for v in chunk.keys if v != target.value]
            _race(backend, target, others, states)
            assert backend.decoded_chunks == 1
            assert _rows_of(backend, target) == states[-1]
            backend.close()
            # the next round starts from the first state again
            backend = DiskBackend.open(root)
            backend.put_rows(deletes=[row.key() for row in states[-1] - states[0]])
            backend.close()
    finally:
        sys.setswitchinterval(switch)


def test_readers_of_an_unbuilt_metadata_chunk_see_only_committed_entries_while_one_is_written(tmp_path):
    root = tmp_path / "store"
    backend = DiskBackend.init(root)
    ids = [DocumentId(5000 + i) for i in range(64)]
    backend.put_rows(meta=[
        *(SchemaDef(Schema(f"s{k}", {}), k + 1) for k in range(6)),
        *(DocumentRecord(d, DocumentKind.PLAIN) for d in ids),
        *(Enforcement(d, "s0", 1) for d in ids),
        *(SliceAssignment(d, "n", 0) for d in ids),
    ])
    backend.close()
    target = ids[5]
    states = [{"s0": 1}]
    for k in range(1, 6):
        states.append({**states[-1], f"s{k}": k + 1})
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade the interpreter often: races show
    try:
        for _ in range(8):
            backend = DiskBackend.open(root)
            chunks = [c for name in ("enforce", "assign") for c in backend._sections[name].chunks
                      if target.value in c.keys]
            assert len(chunks) == 2 and all(chunk in backend._unbuilt for chunk in chunks)
            others = [DocumentId(v) for v in chunks[0].keys if v != target.value]
            _race_metadata(backend, target, others, states)
            assert backend.decoded_meta_chunks == 2 and backend.decoded_chunks == 0
            assert dict(backend.stored_enforcement_of(target)) == states[-1]
            backend.close()
            # the next round starts from the first state again
            backend = DiskBackend.open(root)
            backend.put_rows(meta_deletes=[Enforcement(target, f"s{k}", 0) for k in range(1, 6)])
            backend.close()
    finally:
        sys.setswitchinterval(switch)


def _race_metadata(backend, target: DocumentId, others: list[DocumentId], states: list[dict]) -> None:
    """Four readers of the enforcement and assignments of target and
    others, while a writer moves target's enforcement through states."""
    start = threading.Barrier(5, timeout=60)
    errors: list[BaseException] = []

    def read(reader: int) -> None:
        rng = random.Random(reader)
        seen = 0
        try:
            start.wait()
            for _ in range(300):
                doc_id = rng.choice(others)
                if reader % 2:
                    assert dict(backend.stored_assignments_of(doc_id)) == {"n": 0}
                assert dict(backend.stored_enforcement_of(doc_id)) == {"s0": 1}
                at = states.index(dict(backend.stored_enforcement_of(target)))  # raises when no committed state
                assert at >= seen  # never back to an older state
                seen = at
                assert dict(backend.stored_assignments_of(target)) == {"n": 0}
        except BaseException as exc:
            errors.append(exc)

    def write() -> None:
        try:
            start.wait()
            for k in range(1, len(states)):
                backend.put_rows(meta=[Enforcement(target, f"s{k}", k + 1)])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)] + [threading.Thread(target=write)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def _race(backend, target: DocumentId, others: list[DocumentId], states: list[set]) -> None:
    """Four readers of target and others, by fetch and by the flush diff's
    accessor, while a writer moves target through states."""
    start = threading.Barrier(5, timeout=60)
    errors: list[BaseException] = []

    def read(reader: int) -> None:
        rng = random.Random(reader)
        seen = 0
        try:
            start.wait()
            for _ in range(300):
                doc_id = rng.choice(others)
                rows = _bag_rows_of(backend, doc_id) if reader % 2 else _rows_of(backend, doc_id)
                assert rows == {PropertyRow(doc_id, 0, "n", Value.integer(doc_id.value - 5000), 0)}
                got = _rows_of(backend, target) if reader % 2 else _bag_rows_of(backend, target)
                at = states.index(got)  # raises when it is no committed state
                assert at >= seen  # never back to an older state
                seen = at
        except BaseException as exc:
            errors.append(exc)

    def write() -> None:
        try:
            start.wait()
            for k in range(1, len(states)):
                backend.put_rows(rows=list(states[k] - states[k - 1]))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)] + [threading.Thread(target=write)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


# ---- a column built from chunk bytes is the column built from bags ----

def _assert_columns_equal(column, expected) -> None:
    assert column.bags == expected.bags
    assert column.multi == expected.multi
    assert column.postings == expected.postings


def _assert_columns_from_bytes(root) -> DiskBackend:
    """Opens root and builds the column of every stored property from the
    chunks' bytes, each equal to the column of the bags built whole;
    returns the backend, its columns built and no bag."""
    built = DiskBackend.open(root)
    built._build_all()
    props = sorted({prop for homes in built._rows.values() for prop in homes})
    backend = DiskBackend.open(root)
    for prop in props:
        _assert_columns_equal(backend._column(prop), store._Column(prop, built._rows))
    assert backend.decoded_chunks == 0 and set(backend._columns) == set(props)
    return backend


def test_columns_from_the_cli_stores_chunk_bytes_equal_columns_from_its_bags(cli_store):
    path, _ = cli_store
    backend = _assert_columns_from_bytes(path)
    assert backend._columns["Labels"].multi  # multi-valued bags
    assert len(backend._columns) > 5


@pytest.mark.parametrize("seed", [51, 52])
def test_columns_from_chunk_bytes_equal_columns_from_bags_and_stay_so_after_writes(tmp_path, monkeypatch, seed):
    writer = RandomWriter(random.Random(seed), tmp_path / "store", monkeypatch)
    while len(writer.shadow.docs) < 90:
        writer.step()
    writer.backend.close()
    writer.backend = _assert_columns_from_bytes(writer.root)
    assert any(column.multi for column in writer.backend._columns.values())
    for _ in range(40):
        writer.step()
    writer.check()
    backend = writer.backend
    backend._build_all()
    for prop, column in backend._columns.items():
        _assert_columns_equal(column, store._Column(prop, backend._rows))


# ---- the canonical test that lets open count records from their texts ----

def test_the_encoders_texts_are_canonical_and_no_other_text_is():
    rng = random.Random(41)
    values = [_random_value(rng) for _ in range(400)] + [Value.floating(v) for v in (0.0, -0.0, 1e300, 5e-324)]
    texts = sorted({store.encode_value(v) for v in values})
    parsed = list(store._checked_by_tag(texts))
    assert all(canonical for *_, canonical in parsed)
    assert {text: Value(vtype, payload) for vtype, group, _, payloads, _ in parsed
            for text, payload in zip(group, payloads)} == {text: store.decode_value(text) for text in texts}
    for other in ("integer:+5", "integer:05", "text:4A", "bytes:0A", "float:1e300", "float:0",
                  "timestamp:2001-01-01T00:00:00Z"):
        ((*_, canonical),) = store._checked_by_tag([other])
        assert not canonical, other
