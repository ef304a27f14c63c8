"""Group commit and the write path's cost, checked by counters.

A flush commits its documents as one backend batch, so it writes the
checkpoint once however many documents are dirty; a failed batch
leaves every document in it dirty with its pending record; a document
changed, flushed or deleted between the collection of its records and the
commit is collected again. A one-document write re-folds O(log chunks)
CRCs, so its combine count barely moves as the store grows tenfold. No test
here asserts a time.
"""

from __future__ import annotations

import random

import pytest

from harland import store
from harland.engine import CacheConfig, Repository
from harland.errors import StorageFailure
from harland.model import Constraint, DocumentKind, Schema, Value
from harland.store import CHECKPOINT_NAME, DiskBackend

from test_checkpoint_cache import cold_encode

NOTE = Schema("note", {"title": Constraint.from_text("text", "0..1")})


def _pair(tmp_path, seed: int = 5):
    """A disk repository and an in-memory shadow that take the same steps."""
    config = CacheConfig(auto_flush=False)
    live = Repository.init(tmp_path / "store", config=config, id_seed=seed)
    shadow = Repository.in_memory(config=config, id_seed=seed)
    for repo in (live, shadow):
        repo.define_schema(NOTE)
    return live, shadow


def _populate(repo: Repository, count: int) -> list:
    """count documents with values, enforcement and memberships, all dirty."""
    collection = repo.create_document(DocumentKind.COLLECTION)
    handles = [collection]
    for i in range(count - 1):
        handle = repo.create_document()
        handle.set_property("title", [Value.text(f"t{i}")])
        handle.set_property("n", [Value.integer(i), Value.integer(i % 3)])
        if i % 2:
            handle.enforce("note")
        if i % 3:
            collection.add_member(handle)
        handles.append(handle)
    return handles


def test_flush_of_200_dirty_documents_writes_the_checkpoint_once(tmp_path):
    live, shadow = _pair(tmp_path)
    for repo in (live, shadow):
        _populate(repo, 200)
    before = live.stats()
    assert live.flush() == 200
    after = live.stats()
    assert after["backend_batches"] - before["backend_batches"] == 1
    assert after["checkpoint_writes"] - before["checkpoint_writes"] == 1
    assert live._dirty == {}
    shadow.flush()
    assert (tmp_path / "store" / CHECKPOINT_NAME).read_bytes() == shadow.backend._encode_checkpoint()
    live.close()
    shadow.close()


def test_failed_group_commit_keeps_every_document_dirty_with_its_pending_record(tmp_path):
    live, shadow = _pair(tmp_path)
    for repo in (live, shadow):
        handles = _populate(repo, 40)
        repo.flush()
        for i, handle in enumerate(handles[1:]):  # values, enforcement and memberships change
            handle.set_property("title", [Value.text(f"changed {i}")])
            if i % 4 == 1:
                handle.unenforce("note")
            if i % 5 == 0:
                handles[0].remove_member(handle)
        handles[0].add_member(handles[-1])
        for _ in range(5):  # and new documents arrive, one a member
            handles[0].add_member(repo.create_document())
    committed = (tmp_path / "store" / CHECKPOINT_NAME).read_bytes()
    dirty = dict(live._dirty)
    pending = {doc_id: live._cache[doc_id].pending for doc_id in dirty}
    assert len(dirty) == 45 and sum(record is not None for record in pending.values()) > 10

    live.backend.fail_next_persist = True
    with pytest.raises(StorageFailure):
        live.flush()
    assert live._dirty == dirty
    assert {doc_id: live._cache[doc_id].pending for doc_id in dirty} == pending
    assert (tmp_path / "store" / CHECKPOINT_NAME).read_bytes() == committed

    assert live.flush() == 45
    assert live._dirty == {}
    shadow.flush()
    expected = shadow.backend._encode_checkpoint()
    assert (tmp_path / "store" / CHECKPOINT_NAME).read_bytes() == expected
    live.close()
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as reopened:
        assert reopened.backend._encode_checkpoint() == expected
        assert reopened.document_count() == shadow.document_count()
    shadow.close()


def _hook_collection(repo: Repository, monkeypatch, at: int, action) -> None:
    """Runs action while the flush collects its at-th document's records,
    after the earlier documents' were collected."""
    real = repo._flush_doc_locked
    calls = []

    def collecting(doc_id, idoc):
        calls.append(doc_id)
        if len(calls) == at:
            action()
        return real(doc_id, idoc)

    monkeypatch.setattr(repo, "_flush_doc_locked", collecting)


@pytest.mark.parametrize("change", ["mutate", "delete", "delete-member", "put-content", "flush"])
def test_document_changed_after_its_collection_is_collected_again(tmp_path, monkeypatch, change):
    live, shadow = _pair(tmp_path)
    steps = []
    for repo in (live, shadow):
        collection = repo.create_document(DocumentKind.COLLECTION)
        first, second = repo.create_document(DocumentKind.CONTENT), repo.create_document()
        for handle in (collection, first, second):
            handle.set_property("title", [Value.text("one")])
        collection.add_member(first)
        repo.flush()
        collection.set_property("title", [Value.text("two")])
        collection.remove_member(first)  # collected as a membership retraction
        first.set_property("title", [Value.text("two")])
        second.set_property("title", [Value.text("two")])
        steps.append({
            "mutate": lambda h=collection: h.set_property("title", [Value.text("three")]),
            "delete": lambda h=collection: h.delete(),
            "delete-member": lambda h=first: h.delete(),
            "put-content": lambda h=first: h.put_content(b"alpha beta"),
            "flush": repo.flush,
        }[change])
    assert list(live._dirty)[:2] == [collection.doc_id, first.doc_id]
    _hook_collection(live, monkeypatch, 3, steps[0])  # the collection and first are collected
    live.flush()
    monkeypatch.undo()
    steps[1]()
    shadow.flush()
    assert live._dirty == {}
    expected = shadow.backend._encode_checkpoint()
    assert (tmp_path / "store" / CHECKPOINT_NAME).read_bytes() == expected
    live.close()
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as reopened:
        assert reopened.backend._encode_checkpoint() == expected
    shadow.close()


@pytest.mark.parametrize("members_first", [False, True], ids=["collection-first", "members-first"])
def test_new_collection_with_new_members_flushes_as_one_batch(tmp_path, members_first):
    live, shadow = _pair(tmp_path)
    for repo in (live, shadow):
        members = [repo.create_document() for _ in range(50)] if members_first else []
        collection = repo.create_document(DocumentKind.COLLECTION)
        members = members or [repo.create_document() for _ in range(50)]
        for i, member in enumerate(members):
            member.set_property("title", [Value.text(f"m{i}")])
            collection.add_member(member)
        collection.add_member(collection)
    before = live.stats()
    assert live.flush() == 51
    after = live.stats()
    assert after["backend_batches"] - before["backend_batches"] == 1
    assert after["checkpoint_writes"] - before["checkpoint_writes"] == 1
    assert live._dirty == {}
    shadow.flush()
    expected = shadow.backend._encode_checkpoint()
    assert (tmp_path / "store" / CHECKPOINT_NAME).read_bytes() == expected
    live.close()
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as reopened:
        assert reopened.members_of(collection.doc_id) == {collection.doc_id, *(m.doc_id for m in members)}
    shadow.close()


def test_member_added_while_the_flush_collects_lands_in_the_same_batch(tmp_path, monkeypatch):
    live, shadow = _pair(tmp_path)
    arrivals = []
    for repo in (live, shadow):
        collection, other = repo.create_document(DocumentKind.COLLECTION), repo.create_document()
        repo.flush()
        collection.set_property("title", [Value.text("one")])
        other.set_property("title", [Value.text("one")])

        def arrive(repo=repo, collection=collection):
            member = repo.create_document()
            member.set_property("title", [Value.text("late")])
            collection.add_member(member)

        arrivals.append(arrive)
    _hook_collection(live, monkeypatch, 2, arrivals[0])  # after the collection is collected
    before = live.stats()
    assert live.flush() == 3
    after = live.stats()
    assert after["backend_batches"] - before["backend_batches"] == 1
    assert after["checkpoint_writes"] - before["checkpoint_writes"] == 1
    assert live._dirty == {}
    arrivals[1]()
    shadow.flush()
    assert (tmp_path / "store" / CHECKPOINT_NAME).read_bytes() == shadow.backend._encode_checkpoint()
    live.close()
    shadow.close()


def _combines_of_one_write(tmp_path, count: int) -> tuple[int, int, int]:
    """crc_combines of a one-property update and of a new document, each
    the second of its kind, on a disk store of count documents; then of
    the same update as the first write after the store is reopened."""
    root = tmp_path / f"store-{count}"
    repo = Repository.init(root, CacheConfig(max_docs=count + 8, auto_flush=False), id_seed=3)
    repo.define_schema(NOTE)
    handles = [repo.create_document() for _ in range(count)]
    for i, handle in enumerate(handles):
        handle.set_property("title", [Value.text(f"t{i}")])
        handle.enforce("note")
    repo.flush()
    target = handles[count // 3]

    def update(i):
        target.set_property("n", [Value.integer(i)])
        repo.flush()

    def new(i):
        handle = repo.create_document()
        handle.set_property("title", [Value.text(f"new {i}")])
        handle.enforce("note")
        repo.flush()

    counts = []
    for write in (update, new):
        write(0)
        before = repo.stats()["crc_combines"]
        write(1)
        counts.append(repo.stats()["crc_combines"] - before)
    repo.close()
    repo = Repository.open(root, CacheConfig(max_docs=count + 8, auto_flush=False))
    target = repo.get_document(target.doc_id)
    before = repo.stats()["crc_combines"]
    update(2)
    counts.append(repo.stats()["crc_combines"] - before)
    repo.close()
    return tuple(counts)


def test_one_document_write_combines_grow_with_log_of_the_store(tmp_path):
    """Open seeds the image tree with the leaves a write folds, so the
    first write after a reopen re-folds only the nodes above its chunk."""
    small = _combines_of_one_write(tmp_path, 640)
    large = _combines_of_one_write(tmp_path, 6400)
    assert all(0 < s for s in small)
    assert all(l <= 2 * s for l, s in zip(large, small)), (small, large)
    for update, new, first_after_reopen in (small, large):
        assert first_after_reopen <= 2 * update, (small, large)


def test_randomized_writes_keep_the_file_equal_to_a_cold_encode(tmp_path):
    """Chunks split, empty and refill; documents are deleted and schemas
    retracted; the repository reopens midway, so later writes edit seeded
    chunks. After every flush the file equals a cold encode of a reopen."""
    root = tmp_path / "store"
    rng = random.Random(21)
    repo = Repository.init(root, CacheConfig(auto_flush=False), id_seed=8)
    repo.define_schema(NOTE)
    collection = repo.create_document(DocumentKind.COLLECTION)
    live = []
    for step in range(60):
        for _ in range(rng.randrange(1, 40) if step < 30 else rng.randrange(8)):
            handle = repo.create_document()
            handle.set_property("title", [Value.text(f"s{step}")])
            live.append(handle.doc_id)
        for doc_id in rng.sample(live, min(len(live), rng.randrange(10))):
            handle = repo.get_document(doc_id)
            pick = rng.random()
            if pick < 0.3:
                handle.set_property("n", [Value.integer(rng.randrange(100))])
            elif pick < 0.5:
                handle.enforce("note")
            elif pick < 0.6:
                handle.unenforce("note")
            elif pick < 0.75:
                collection.add_member(handle)
            elif pick < 0.85:
                collection.remove_member(handle)
            else:
                handle.delete()
                live.remove(doc_id)
        if step == 40:  # empty a whole chunk: the first 80 ids still alive
            for doc_id in sorted(live)[:80]:
                repo.get_document(doc_id).delete()
                live.remove(doc_id)
        repo.flush()
        on_disk = (root / CHECKPOINT_NAME).read_bytes()
        assert cold_encode(DiskBackend.open(root)) == on_disk, step
        if step in (20, 45):
            repo.close()
            repo = Repository.open(root, CacheConfig(auto_flush=False), id_seed=8)
            collection = repo.get_document(collection.doc_id)
    assert max(len(chunk.keys) for chunk in repo.backend._sections["doc"].chunks) <= 2 * store._CHUNK
    assert len(repo.backend._sections["doc"].chunks) > 4
    repo.close()
