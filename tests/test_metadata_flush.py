"""Metadata flushes write exactly the keys that changed.

Every step runs on a disk repository whose cache holds two documents and on
an in-memory shadow with a cache large enough to keep everything. Between
steps the disk repository flushes and reads filler documents until the
documents under test have been evicted, so the next step reloads them from
the store. After each step the disk checkpoint must equal the shadow's
checkpoint byte for byte, before and after a reopen.
"""

from __future__ import annotations

from harland.engine import CacheConfig, Repository
from harland.model import Constraint, DocumentId, DocumentKind, Schema, Value
from harland.store import CHECKPOINT_NAME

SCHEMAS = (
    Schema("alpha", {"Subject": Constraint.from_text("text", "1..1")}),
    Schema("marker", {}),
)


class _Mirror:
    def __init__(self, tmp_path):
        self.root = tmp_path / "store"
        self.live = Repository.init(
            self.root, config=CacheConfig(max_docs=2, auto_flush=False), id_seed=7
        )
        self.shadow = Repository.in_memory(config=CacheConfig(auto_flush=False), id_seed=7)
        for repo in (self.live, self.shadow):
            for schema in SCHEMAS:
                repo.define_schema(schema)
        self.fillers = [self.create() for _ in range(3)]
        for filler in self.fillers:
            self.apply(filler, lambda h: h.set_property("n", [Value.integer(1)]))

    def create(self, kind: DocumentKind = DocumentKind.PLAIN) -> DocumentId:
        ids = {repo.create_document(kind).doc_id for repo in (self.live, self.shadow)}
        assert len(ids) == 1
        return ids.pop()

    def apply(self, doc_id: DocumentId, step) -> None:
        for repo in (self.live, self.shadow):
            step(repo.get_document(doc_id))

    def evict(self, *doc_ids: DocumentId) -> None:
        self.live.flush()
        for filler in self.fillers:
            self.live.get_document(filler).snapshot()
        assert set(self.live._cache).isdisjoint(doc_ids)

    def check(self) -> bytes:
        self.live.flush()
        self.shadow.flush()
        expected = self.shadow.backend._encode_checkpoint()
        stored = (self.root / CHECKPOINT_NAME).read_bytes()
        assert stored == expected
        reopened = Repository.open(self.root, config=CacheConfig(auto_flush=False))
        assert reopened.backend._encode_checkpoint() == expected
        reopened.close()
        return stored

    def close(self) -> None:
        self.live.close()
        self.shadow.close()


def _enforce_record(doc_id: DocumentId, seq: int, name: str) -> bytes:
    return f"ENFORCE\t{doc_id}\t{seq}\t{name}\n".encode()


def test_reenforce_in_one_window_writes_the_new_seq(tmp_path):
    m = _Mirror(tmp_path)
    doc = m.create()
    m.apply(doc, lambda h: h.set_property("Subject", [Value.text("s")]))
    m.apply(doc, lambda h: h.enforce("alpha"))
    m.apply(doc, lambda h: h.enforce("marker"))
    assert _enforce_record(doc, 1, "alpha") in m.check()
    m.evict(doc)
    m.apply(doc, lambda h: h.unenforce("alpha"))
    m.apply(doc, lambda h: h.enforce("alpha"))
    stored = m.check()
    assert _enforce_record(doc, 3, "alpha") in stored
    assert _enforce_record(doc, 1, "alpha") not in stored
    m.evict(doc)
    m.apply(doc, lambda h: h.unenforce("marker"))
    assert _enforce_record(doc, 2, "marker") not in m.check()
    m.close()


def test_enforce_then_unenforce_leaves_no_record(tmp_path):
    m = _Mirror(tmp_path)
    fresh = m.create()
    m.apply(fresh, lambda h: h.enforce("marker"))
    m.apply(fresh, lambda h: h.unenforce("marker"))
    stored = m.create()
    m.check()
    m.evict(fresh, stored)
    m.apply(stored, lambda h: h.enforce("marker"))
    m.apply(stored, lambda h: h.unenforce("marker"))
    assert b"ENFORCE" not in m.check()
    m.close()


def test_membership_of_an_unstored_member_lands_in_the_same_flush(tmp_path):
    m = _Mirror(tmp_path)
    stored = m.create(DocumentKind.COLLECTION)
    m.check()
    m.evict(stored)
    member = m.create()
    m.apply(stored, lambda h: h.add_member(member))
    m.check()

    # both new, the collection ahead of its member in the flush order: the
    # membership and the member's document record travel in one batch
    fresh = m.create(DocumentKind.COLLECTION)
    late = m.create()
    m.apply(fresh, lambda h: h.add_member(late))
    m.live.get_document(late).snapshot()
    assert m.live.flush() == 2
    assert f"MEMBER\t{fresh}\t{late}\n".encode() in m.check()
    m.close()


def test_stored_membership_whose_member_is_deleted(tmp_path):
    m = _Mirror(tmp_path)
    coll = m.create(DocumentKind.COLLECTION)
    kept, dropped, removed, added = (m.create() for _ in range(4))
    for member in (kept, dropped, removed):
        m.apply(coll, lambda h, member=member: h.add_member(member))
    m.check()
    m.evict(coll, kept, dropped, removed, added)

    m.apply(dropped, lambda h: h.delete())  # the store cascade drops the record
    m.apply(coll, lambda h: h.remove_member(removed))
    m.apply(removed, lambda h: h.delete())
    m.apply(coll, lambda h: h.add_member(added))
    m.apply(added, lambda h: h.delete())
    stored = m.check()
    assert stored.count(b"MEMBER\t") == 1
    assert f"MEMBER\t{coll}\t{kept}\n".encode() in stored
    m.close()
