"""Checkpoint format, value encoding, tokenization, and backend contracts."""

from __future__ import annotations

import pytest

from harland.errors import CorruptStore, StorageFailure, UnknownDocument
from harland.model import (
    Constraint,
    DocumentId,
    DocumentKind,
    Schema,
    Value,
)
from harland.store import (
    DiskBackend,
    Enforcement,
    DocumentRecord,
    MemoryBackend,
    Membership,
    PropertyRow,
    SchemaDef,
    SliceAssignment,
    crc32c,
    decode_value,
    encode_value,
    escape_field,
    tokenize,
    unescape_field,
)

D1 = DocumentId(1)
D2 = DocumentId(2)


# ---- codec primitives ----

def test_crc32c_known_vectors():
    # standard check value for the Castagnoli polynomial
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"") == 0


def test_value_encoding_frozen_forms():
    cases = {
        Value.text("Hi"): "text:4869",
        Value.integer(-7): "integer:-7",
        Value.floating(0.1): "float:0.1",
        Value.floating(-0.0): "float:-0.0",
        Value.boolean(True): "boolean:true",
        Value.boolean(False): "boolean:false",
        Value.timestamp_text("2001-05-01T00:00:00Z"): "timestamp:2001-05-01T00:00:00.000Z",
        Value.binary(b"\x00\xff"): "bytes:00ff",
    }
    for value, encoded in cases.items():
        assert encode_value(value) == encoded
        assert decode_value(encoded) == value


def test_value_encoding_round_trip_is_bit_exact():
    tricky = [
        Value.floating(1e300),
        Value.floating(5e-324),
        Value.text("naïve\ttab\nnewline"),
        Value.integer(2**63 - 1),
        Value.timestamp(-1),
    ]
    for v in tricky:
        assert decode_value(encode_value(v)) == v


def test_field_escaping():
    assert escape_field("a\tb") == "a\\tb"
    assert escape_field("back\\slash") == "back\\\\slash"
    assert escape_field("line\nbreak\r") == "line\\nbreak\\r"
    for raw in ["plain", "a\tb\nc\\d\re", "\\t", ""]:
        assert unescape_field(escape_field(raw)) == raw


def test_tokenize_frozen():
    assert tokenize(b"Status report due Friday") == frozenset({"status", "report", "due", "friday"})
    assert tokenize(b"Re: FY-01 plan, v2") == frozenset({"re", "fy", "01", "plan", "v2"})
    assert tokenize(b"") == frozenset()


# ---- backend helpers ----

def _seed(backend):
    backend.put_rows(
        rows=[
            PropertyRow(D1, 1, "Subject", Value.text("x"), 0),
            PropertyRow(D1, 1, "Received", Value.timestamp(0), 0),
            PropertyRow(D1, 2, "Deadline", Value.timestamp(10), 0),
        ],
        deletes=[],
        meta=[
            DocumentRecord(D1, DocumentKind.PLAIN),
            DocumentRecord(D2, DocumentKind.COLLECTION),
            SchemaDef(Schema("email", {"Subject": Constraint.from_text("text", "1..1")}), 1),
            Enforcement(D1, "email", 1),
            SliceAssignment(D1, "Subject", 1),
            SliceAssignment(D1, "Received", 1),
            SliceAssignment(D1, "Deadline", 2),
            Membership(D2, D1),
        ],
    )


def test_fetch_slices_returns_requested_rows():
    b = MemoryBackend()
    _seed(b)
    before = b.fetch_count
    fetched = b.fetch_slices(D1, {1})
    assert b.fetch_count == before + 1
    assert dict(fetched) == {"Subject": (Value.text("x"),), "Received": (Value.timestamp(0),)}
    # each bag is the backend's own tuple, handed over by reference
    assert all(values is b.stored_bags_of(D1)[prop][1] for prop, values in fetched)
    assert b.stored_docs()[D1] is DocumentKind.PLAIN
    assert b.stored_enforcement_of(D1) == {"email": 1}
    assert b.stored_assignments_of(D1) == {"Subject": 1, "Received": 1, "Deadline": 2}
    assert b.fetch_slices(D1, set()) == []
    with pytest.raises(UnknownDocument):
        b.fetch_slices(DocumentId(99), {1})


def test_put_rows_detects_drift():
    b = MemoryBackend()
    _seed(b)
    dup = PropertyRow(D1, 1, "Subject", Value.text("x"), 0)
    with pytest.raises(StorageFailure):
        b.put_rows(rows=[dup], deletes=[], meta=[])
    with pytest.raises(StorageFailure):
        b.put_rows(rows=[], deletes=[(D1, "Subject", Value.text("no-such"), 0)], meta=[])
    # neither failed batch changed anything
    assert {prop for prop, _ in b.fetch_slices(D1, {1})} == {"Subject", "Received"}


@pytest.mark.parametrize("rows,deletes", [
    ([PropertyRow(D1, 1, "Subject", Value.text("x"), 3)], []),  # x at 0 and 1: no ordinal 2
    ([], [(D1, "Subject", Value.text("x"), 0)]),  # leaves x at ordinal 1 alone
    ([PropertyRow(D1, 2, "Subject", Value.text("z"), 0)], []),  # Subject's rows are in slice 1
])
def test_put_rows_keeps_ordinals_serial_and_one_slice_per_property(tmp_path, rows, deletes):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    b.put_rows(rows=[PropertyRow(D1, 1, "Subject", Value.text("x"), 1)])
    image = (root / "store.hl1").read_bytes()
    stored = b.scan_rows(D1)
    with pytest.raises(StorageFailure):
        b.put_rows(rows=rows, deletes=deletes)
    assert b.scan_rows(D1) == stored
    assert (root / "store.hl1").read_bytes() == image
    assert DiskBackend.open(root).scan_rows(D1) == stored


def test_put_rows_replaces_value():
    b = MemoryBackend()
    _seed(b)
    b.put_rows(
        rows=[PropertyRow(D1, 1, "Subject", Value.text("y"), 0)],
        deletes=[(D1, "Subject", Value.text("x"), 0)],
        meta=[],
    )
    subject = [v for prop, values in b.fetch_slices(D1, {1}) if prop == "Subject" for v in values]
    assert subject == [Value.text("y")]


def test_meta_deletes_retract_records():
    b = MemoryBackend()
    _seed(b)
    b.put_rows(rows=[], deletes=[], meta=[], meta_deletes=[Enforcement(D1, "email", 0), Membership(D2, D1)])
    # an emptied entry leaves its table, as it would across a reopen
    assert D1 not in b.meta_view().enforcement
    assert D2 not in b.stored_members()


def test_stored_docs_hold_every_document():
    b = MemoryBackend()
    _seed(b)
    assert b.stored_docs() == {D1: DocumentKind.PLAIN, D2: DocumentKind.COLLECTION}


def test_put_rows_takes_records_before_the_documents_they_name():
    meta = [
        DocumentRecord(D1, DocumentKind.PLAIN),
        DocumentRecord(D2, DocumentKind.COLLECTION),
        SchemaDef(Schema("marker", {}), 1),
        Enforcement(D1, "marker", 1),
        Membership(D2, D1),
    ]
    forward, backward = MemoryBackend(), MemoryBackend()
    forward.put_rows(meta=meta)
    backward.put_rows(meta=meta[::-1])
    assert backward.batch_count == 1
    assert backward.stored_members() == {D2: {D1}}
    assert backward.meta_view().enforcement == {D1: {"marker": 1}}
    assert backward._encode_checkpoint() == forward._encode_checkpoint()


# ---- put_rows(bags=...): the engine's write shape ----

D3 = DocumentId(3)


@pytest.mark.parametrize("key,home", [
    ((DocumentId(99), "Subject"), (1, (Value.text("y"),))),  # no such document
    ((D1, "Fresh"), (-1, (Value.text("y"),))),  # negative slice
    ((D1, "Subject"), (2, (Value.text("y"),))),  # Subject's bag is in slice 1
])
def test_put_rows_refuses_a_bad_bag_and_applies_nothing(tmp_path, key, home):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    image = (root / "store.hl1").read_bytes()
    batches = b.batch_count
    meta = [DocumentRecord(D3, DocumentKind.PLAIN), Enforcement(D1, "email", 5), SliceAssignment(D1, "Fresh", 1)]
    good = {(D1, "Received"): (1, (Value.timestamp(5),))}
    with pytest.raises(StorageFailure):
        b.put_rows(meta=meta, meta_deletes=[Membership(D2, D1)], bags={**good, key: home})
    assert b.batch_count == batches
    assert (root / "store.hl1").read_bytes() == image
    assert D3 not in b.stored_docs()
    assert b.stored_enforcement_of(D1) == {"email": 1}
    assert b.stored_assignments_of(D1) == {"Subject": 1, "Received": 1, "Deadline": 2}
    assert b.stored_members() == {D2: {D1}}
    assert b.stored_bags_of(D1)["Received"] == (1, (Value.timestamp(0),))
    b.put_rows(meta=meta, meta_deletes=[Membership(D2, D1)], bags=good)  # the batch less the bad bag
    assert D3 in b.stored_docs() and b.stored_bags_of(D1)["Received"] == good[D1, "Received"]


def test_put_rows_stores_the_callers_bag_and_an_empty_bag_deletes():
    b = MemoryBackend()
    _seed(b)
    subject = (Value.text("a"), Value.text("a"), Value.text("b"))
    b.put_rows(bags={(D1, "Subject"): (1, subject), (D1, "Deadline"): (2, ())})
    homes = b.stored_bags_of(D1)
    assert homes["Subject"][1] is subject
    assert "Deadline" not in homes
    assert [row.key() for row in b.scan_rows(D1)] == [
        (D1, "Received", Value.timestamp(0), 0),
        (D1, "Subject", Value.text("a"), 0),
        (D1, "Subject", Value.text("a"), 1),
        (D1, "Subject", Value.text("b"), 0),
    ]
    b.put_rows(bags={(D1, "Subject"): (1, ()), (D1, "Received"): (0, ())})  # an empty bag's slice is not read
    assert D1 not in b._rows
    assert b.scan_rows(D1) == []


@pytest.mark.parametrize("rows,deletes", [
    ([PropertyRow(D1, 2, "Subject", Value.text("z"), 0)], []),  # the bag is in slice 1
    ([PropertyRow(D1, 1, "Subject", Value.text("y"), 2)], []),  # y at 0 only: no ordinal 1
    ([], [(D1, "Subject", Value.text("x"), 0)]),  # the bag holds no x
])
def test_put_rows_checks_a_bag_and_rows_of_one_property_together(rows, deletes):
    b = MemoryBackend()
    _seed(b)
    with pytest.raises(StorageFailure):
        b.put_rows(rows=rows, deletes=deletes, bags={(D1, "Subject"): (1, (Value.text("y"),))})
    assert b.stored_bags_of(D1)["Subject"] == (1, (Value.text("x"),))
    b.put_rows(rows=[PropertyRow(D1, 1, "Subject", Value.text("y"), 1)], bags={(D1, "Subject"): (1, (Value.text("y"),))})
    assert b.stored_bags_of(D1)["Subject"] == (1, (Value.text("y"), Value.text("y")))


def test_put_rows_rows_may_move_a_property_whose_rows_they_replace():
    b = MemoryBackend()
    _seed(b)
    b.put_rows(rows=[PropertyRow(D1, 2, "Subject", Value.text("z"), 0)], deletes=[(D1, "Subject", Value.text("x"), 0)])
    assert b.stored_bags_of(D1)["Subject"] == (2, (Value.text("z"),))


def test_content_round_trip_and_token_coherence():
    b = MemoryBackend()
    _seed(b)
    payload = b"Status report due Friday"
    b.content_write(D1, payload)
    assert b.content_read(D1) == payload
    ref = b.stored_content()[D1]
    assert ref.length == len(payload)
    assert ref.tokens == tokenize(payload)
    assert b.content_read(D2) == b""


def test_delete_document_cascades(tmp_path):
    b = DiskBackend.init(tmp_path / "store")
    _seed(b)
    b.content_write(D1, b"bytes here")
    b.delete_document(D1)
    with pytest.raises(UnknownDocument):
        b.fetch_slices(D1, {1})
    assert D2 not in b.stored_members()
    assert b.stored_docs() == {D2: DocumentKind.COLLECTION}
    reopened = DiskBackend.open(tmp_path / "store")
    assert reopened.stored_docs() == {D2: DocumentKind.COLLECTION}
    with pytest.raises(UnknownDocument):
        reopened.fetch_slices(D1, {1})


# ---- durability and the checkpoint file ----

def test_disk_backend_batches_survive_reopen(tmp_path):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    again = DiskBackend.open(root)
    fetched = again.fetch_slices(D1, {1, 2})
    assert {prop for prop, _ in fetched} == {"Subject", "Received", "Deadline"}
    assert again.stored_enforcement_of(D1) == {"email": 1}
    assert again.schema_defs()["email"][1] == 1  # slice id survived


def test_checkpoint_reopen_checkpoint_is_byte_identical(tmp_path):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    b.content_write(D1, b"alpha Beta GAMMA")
    first = (root / "store.hl1").read_bytes()
    reopened = DiskBackend.open(root)
    reopened.checkpoint()
    second = (root / "store.hl1").read_bytes()
    assert first == second


def test_checkpoint_deterministic_under_insertion_order(tmp_path):
    a, z = MemoryBackend(), MemoryBackend()
    rows = [
        PropertyRow(D1, 0, "b", Value.integer(2), 0),
        PropertyRow(D1, 0, "a", Value.integer(1), 0),
        PropertyRow(D1, 0, "a", Value.integer(1), 1),
    ]
    a.put_rows(rows=rows, deletes=[], meta=[DocumentRecord(D1, DocumentKind.PLAIN)])
    z.put_rows(rows=[], deletes=[], meta=[DocumentRecord(D1, DocumentKind.PLAIN)])
    # the other order, in batches whose results keep ordinals serial
    for batch in ([rows[2], rows[1]], [rows[0]]):
        z.put_rows(rows=batch, deletes=[], meta=[])
    pa, pz = tmp_path / "a", tmp_path / "z"
    a.checkpoint(pa)
    z.checkpoint(pz)
    assert (pa / "store.hl1").read_bytes() == (pz / "store.hl1").read_bytes()


def test_checkpoint_structure(tmp_path):
    b = MemoryBackend()
    _seed(b)
    b.checkpoint(tmp_path / "s")
    text = (tmp_path / "s" / "store.hl1").read_text()
    lines = text.splitlines()
    assert lines[0] == "HARLAND-STORE v1"
    assert [ln for ln in lines if ln in ("PROPS", "META", "CONTENT")] == ["PROPS", "META", "CONTENT"]
    assert lines[-1].startswith("END ")
    assert lines[-1].removeprefix("END ").isdigit()


def test_corruption_detected(tmp_path):
    b = MemoryBackend()
    _seed(b)
    b.checkpoint(tmp_path / "s")
    path = tmp_path / "s" / "store.hl1"
    raw = bytearray(path.read_bytes())
    flip = raw.index(b"PROPS"[0])
    raw[flip] ^= 0x20
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptStore):
        MemoryBackend.open(tmp_path / "s")
    path.write_bytes(b"NOT-A-STORE\n")
    with pytest.raises(CorruptStore):
        MemoryBackend.open(tmp_path / "s")


def test_failed_persist_applies_nothing(tmp_path):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    b.fail_next_persist = True
    with pytest.raises(StorageFailure):
        b.put_rows(
            rows=[PropertyRow(D1, 1, "Subject", Value.text("y"), 0)],
            deletes=[],
            meta=[],
        )
    subjects = [v for prop, values in b.fetch_slices(D1, {1}) if prop == "Subject" for v in values]
    assert subjects == [Value.text("x")]
    reopened = DiskBackend.open(root)
    subjects = [v for prop, values in reopened.fetch_slices(D1, {1}) if prop == "Subject" for v in values]
    assert subjects == [Value.text("x")]


def test_open_missing_store(tmp_path):
    with pytest.raises(StorageFailure):
        DiskBackend.open(tmp_path / "absent")


# ---- failed writes leave memory and disk as they were ----

def _image(backend):
    return backend._encode_checkpoint(), dict(backend._blobs)


def _assert_unchanged(backend, root, before, blob_on_disk):
    assert _image(backend) == before
    assert _image(DiskBackend.open(root)) == before
    blob = root / "content" / str(D1)
    if blob_on_disk is None:
        assert not blob.exists()
    else:
        assert blob.read_bytes() == blob_on_disk


def test_failed_delete_restores_the_document(tmp_path):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    b.content_write(D1, b"keep me")
    before = _image(b)
    b.fail_next_persist = True
    with pytest.raises(StorageFailure):
        b.delete_document(D1)
    _assert_unchanged(b, root, before, b"keep me")
    assert b.stored_members()[D2] == {D1}


def test_failed_blob_write_changes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    b.content_write(D1, b"old")
    before = _image(b)

    def full_disk(self, doc_id, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(DiskBackend, "_persist_blob", full_disk)
    with pytest.raises(OSError):
        b.content_write(D1, b"new and longer")
    monkeypatch.undo()
    _assert_unchanged(b, root, before, b"old")


@pytest.mark.parametrize("old", [None, b"old"])
def test_failed_content_commit_restores_the_blob_file(tmp_path, old):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    if old is not None:
        b.content_write(D1, old)
    before = _image(b)
    b.fail_next_persist = True
    with pytest.raises(StorageFailure):
        b.content_write(D1, b"new and longer")
    _assert_unchanged(b, root, before, old)


def test_os_errors_surface_as_storage_failures(tmp_path):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    (root / "store.hl1.tmp").mkdir()  # the temp name cannot be written
    with pytest.raises(StorageFailure):
        b.put_rows(meta=[DocumentRecord(DocumentId(3), DocumentKind.PLAIN)])
    with pytest.raises(StorageFailure):
        b.checkpoint()
    assert b.stored_docs() == {D1: DocumentKind.PLAIN, D2: DocumentKind.COLLECTION}
