"""put_rows is the backend's one writer.

A content write is one ContentWrite record and a delete one retracted
DocumentRecord, each in a put_rows batch, so `Handle.put_content` commits
its document's records and its blob in one batch and one checkpoint
write. DiskBackend._persist does the batch's file writes: it replaces the
blob files before the checkpoint, puts them back when either write fails,
and unlinks a deleted document's blob file after the checkpoint.
"""

from __future__ import annotations

import os

import pytest

from harland.engine import CacheConfig, Repository
from harland.errors import StorageFailure
from harland.model import Constraint, DocumentId, DocumentKind, Schema, Value
from harland.store import (
    DiskBackend,
    DocumentRecord,
    Enforcement,
    Membership,
    PropertyRow,
    SchemaDef,
    SliceAssignment,
    tokenize,
)

D1, D2, D3 = DocumentId(1), DocumentId(2), DocumentId(3)


def _repo(root):
    repo = Repository.init(root, CacheConfig(auto_flush=False), id_seed=5)
    repo.define_schema(Schema("tagged", {"tag": Constraint.from_text("text", "0..1")}))
    return repo


# ---- one batch and one checkpoint write per put_content ----

@pytest.mark.parametrize("clean", [False, True], ids=["new dirty document", "clean document"])
def test_put_content_is_one_batch_and_one_checkpoint_write(tmp_path, clean):
    with _repo(tmp_path / "store") as repo:
        doc = repo.create_document(DocumentKind.CONTENT)
        doc.set_property("tag", [Value.text("x")])
        if clean:
            repo.flush()
        before = repo.stats()
        doc.put_content(b"pick up the dry cleaning")
        after = repo.stats()
        assert after["backend_batches"] - before["backend_batches"] == 1
        assert after["checkpoint_writes"] - before["checkpoint_writes"] == 1
        assert repo.content_tokens(doc.doc_id) == tokenize(b"pick up the dry cleaning")
        assert doc.doc_id not in repo._dirty  # its records went with the blob
    with Repository.open(tmp_path / "store", CacheConfig(auto_flush=False)) as again:
        handle = again.get_document(doc.doc_id)
        assert handle.content() == b"pick up the dry cleaning"
        assert handle.values("tag") == (Value.text("x"),)


# ---- a failed put_content keeps the old blob and the document dirty ----

def _fail_persist(repo, monkeypatch, blob):
    repo.backend.fail_next_persist = True
    return StorageFailure


def _fail_blob(repo, monkeypatch, blob):
    def full_disk(self, doc_id, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(DiskBackend, "_persist_blob", full_disk)
    return OSError


def _fail_checkpoint(repo, monkeypatch, blob):
    def failing_write(self, target):
        assert blob.read_bytes() == b"new and longer"  # replaced before the checkpoint
        raise StorageFailure("injected checkpoint failure")

    monkeypatch.setattr(DiskBackend, "_write_checkpoint", failing_write)
    return StorageFailure


@pytest.mark.parametrize("old", [None, b"old words"], ids=["no old blob", "old blob"])
@pytest.mark.parametrize("fail", [_fail_persist, _fail_blob, _fail_checkpoint], ids=["persist", "blob", "checkpoint"])
def test_failed_put_content_keeps_the_old_blob_and_the_pending_record(tmp_path, monkeypatch, fail, old):
    root = tmp_path / "store"
    with _repo(root) as repo:
        doc = repo.create_document(DocumentKind.CONTENT)
        doc_id = doc.doc_id
        if old is not None:
            doc.put_content(old)
        doc.set_property("tag", [Value.text("x")])  # a new property: a pending slice assignment
        blob = root / "content" / str(doc_id)
        image = repo.backend._encode_checkpoint()
        error = fail(repo, monkeypatch, blob)
        with pytest.raises(error):
            doc.put_content(b"new and longer")
        monkeypatch.undo()
        assert repo.backend._encode_checkpoint() == image
        assert repo.backend._blobs.get(doc_id) == old
        if old is None:
            assert not blob.exists()
        else:
            assert blob.read_bytes() == old
        assert doc_id in repo._dirty and repo._cache[doc_id].pending is not None
        assert doc.content() == (old or b"")
        repo.flush()  # the document's records, not the content
        assert doc_id not in repo._dirty
    with Repository.open(root, CacheConfig(auto_flush=False)) as again:
        handle = again.get_document(doc_id)
        assert handle.values("tag") == (Value.text("x"),)
        assert handle.content() == (old or b"")
        assert again.content_tokens(doc_id) == (tokenize(old) if old else frozenset())


# ---- a delete is a retracted document record ----

def _seed(backend):
    """D1 a collection with values, enforcement, content and members, held
    by the collection D2; D3 a member of D1."""
    backend.put_rows(
        rows=[PropertyRow(D1, 1, "Subject", Value.text("x"), 0)],
        meta=[
            SchemaDef(Schema("email", {"Subject": Constraint.from_text("text", "1..1")}), 1),
            DocumentRecord(D1, DocumentKind.COLLECTION),
            DocumentRecord(D2, DocumentKind.COLLECTION),
            DocumentRecord(D3, DocumentKind.PLAIN),
            Enforcement(D1, "email", 1),
            SliceAssignment(D1, "Subject", 1),
            Membership(D2, D1),
            Membership(D1, D3),
        ],
    )
    backend.content_write(D1, b"bytes here")
    backend.content_write(D3, b"other bytes")


def _state(backend, root):
    backend._build_all()  # the entries an open left in the file's bytes
    tables = ("_docs", "_rows", "_enforcement", "_assignments", "_members", "_content", "_blobs")
    return (
        {name: getattr(backend, name) for name in tables},
        backend._encode_checkpoint(),
        (root / "store.hl1").read_bytes(),
        sorted(os.listdir(root / "content")),
    )


def test_retracting_a_document_record_is_delete_document(tmp_path):
    a = DiskBackend.init(tmp_path / "a")
    b = DiskBackend.init(tmp_path / "b")
    for backend in (a, b):
        _seed(backend)
    a.delete_document(D1)
    b.put_rows(meta_deletes=[DocumentRecord(D1, DocumentKind.COLLECTION)])
    assert _state(a, tmp_path / "a") == _state(b, tmp_path / "b")
    assert b.stored_docs() == {D2: DocumentKind.COLLECTION, D3: DocumentKind.PLAIN}
    assert b.stored_members() == {}
    assert sorted(os.listdir(tmp_path / "b" / "content")) == [str(D3)]
    assert _state(DiskBackend.open(tmp_path / "b"), tmp_path / "b")[:3] == _state(b, tmp_path / "b")[:3]


def test_a_delete_drops_memberships_the_same_batch_adds(tmp_path):
    b = DiskBackend.init(tmp_path / "store")
    _seed(b)
    b.put_rows(meta=[Membership(D2, D3)], meta_deletes=[DocumentRecord(D3, DocumentKind.PLAIN)])
    assert b.stored_members() == {D2: {D1}}
    assert DiskBackend.open(tmp_path / "store").stored_members() == {D2: {D1}}


def test_retracting_an_unknown_document_applies_nothing(tmp_path):
    b = DiskBackend.init(tmp_path / "store")
    _seed(b)
    before = _state(b, tmp_path / "store")
    with pytest.raises(StorageFailure):
        b.put_rows(meta=[Membership(D2, D3)], meta_deletes=[DocumentRecord(DocumentId(9), DocumentKind.PLAIN)])
    assert _state(b, tmp_path / "store") == before


def test_a_failed_blob_unlink_does_not_fail_the_delete(tmp_path):
    root = tmp_path / "store"
    b = DiskBackend.init(root)
    _seed(b)
    blob = root / "content" / str(D1)
    blob.unlink()
    blob.mkdir()  # a non-empty directory: the unlink fails
    (blob / "keep").write_bytes(b"")
    b.delete_document(D1)
    assert D1 not in b.stored_docs()
    assert blob.is_dir()
    again = DiskBackend.open(root)
    assert again.stored_docs() == {D2: DocumentKind.COLLECTION, D3: DocumentKind.PLAIN}
    assert again.content_read(D3) == b"other bytes"
