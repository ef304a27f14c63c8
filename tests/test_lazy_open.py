"""Open checks every record but builds a PROPS chunk's rows on first read.

A seeded PROPS chunk keeps its bytes, and its documents' rows are built
from them, a chunk at a time, by whatever reads one of them first: a
fetch, a scan, a write, a delete, a column build or the engine's flush
diff. Here:

- the backend's `decoded_chunks` counter on the benchmark's 500-document
  cli store: a `get` builds one chunk, `schema list` none, and a query
  that builds a column every one;
- a CRC-valid store whose bad value, slice or ordinal sits in a chunk no
  command reads still fails open, and two texts of one value or ordinal
  on one document load as the line-at-a-time loader loads them;
- a random replay against the shadow oracle that reopens the store
  between rounds and then reads, writes, fails a write, deletes and
  queries in random order, so every kind of first touch meets an unbuilt
  chunk;
- readers on several threads racing to build one chunk while another
  thread writes one of its documents;
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
from harland.errors import CorruptStore, StorageFailure
from harland.model import DocumentId, DocumentKind, Value, occurrences
from harland.store import CHECKPOINT_NAME, DiskBackend, DocumentRecord, PropertyRow

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
    assert built == len(backend._sections["props"].chunks)
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


def _touch(writer: RandomWriter, rng: random.Random) -> None:
    """One random first touch of the reopened store, checked against the shadow."""
    backend, shadow = writer.backend, writer.shadow
    docs = sorted(shadow.docs)
    action = rng.choice(("fetch", "scan", "flush diff", "write", "write", "failed write", "query"))
    doc_id = rng.choice(docs)
    committed = set(shadow.rows.get(doc_id, {}).values())
    if action == "fetch":
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
    touched = 0
    for _ in range(30):
        writer.backend.close()
        writer.backend = DiskBackend.open(writer.root)
        assert writer.backend._unbuilt
        for _ in range(rng.randrange(1, 5)):
            _touch(writer, rng)
            touched += 1
        for doc_id in writer.shadow.docs:
            assert _rows_of(writer.backend, doc_id) == set(writer.shadow.rows.get(doc_id, {}).values())
        writer.check()
    assert touched > 60


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


# ---- the canonical test that lets open count records from their texts ----

def test_the_encoders_texts_are_canonical_and_no_other_text_is():
    rng = random.Random(41)
    values = [_random_value(rng) for _ in range(400)] + [Value.floating(v) for v in (0.0, -0.0, 1e300, 5e-324)]
    texts = sorted({store.encode_value(v) for v in values})
    parsed = list(store._parsed_by_tag(texts))
    assert all(store._canonical(vtype, bodies, payloads) for vtype, _, bodies, payloads in parsed)
    assert {text: Value(vtype, payload) for vtype, group, _, payloads in parsed
            for text, payload in zip(group, payloads)} == {text: store.decode_value(text) for text in texts}
    for other in ("integer:+5", "integer:05", "text:4A", "bytes:0A", "float:1e300", "float:0",
                  "timestamp:2001-01-01T00:00:00Z"):
        ((vtype, _, bodies, payloads),) = store._parsed_by_tag([other])
        assert not store._canonical(vtype, bodies, payloads), other
