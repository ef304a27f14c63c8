"""Every metadata read against a plain-dict model, every flush against a shadow.

A disk repository whose cache holds two documents takes one step at a time
in a seeded random order: creates of each kind, property writes and
removals, enforce, unenforce and re-enforce, membership changes (a
collection holding itself, members with no store record yet, members
deleted later), content writes, deletes, flushes, flushes whose write
fails, and reads that evict. An in-memory shadow with an unbounded cache
takes the same steps. After each step every document's snapshot,
enforcement order and members, the id list and the count must equal the
model, and `schema:`, `member-of:` and `content:` queries must return what
naive evaluation returns. After each flush the checkpoint file must equal
the shadow's encoding byte for byte, and after a flush that wrote
everything no pending record may remain.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from harland.engine import CacheConfig, Repository
from harland.errors import StorageFailure, UnknownDocument
from harland.model import Constraint, DocumentKind, Schema, Value, bag
from harland.parsing import parse_query
from harland.query import naive_eval
from harland.store import CHECKPOINT_NAME, tokenize

SCHEMAS = (
    Schema("note", {"title": Constraint.from_text("text", "0..*")}),
    Schema("count", {"n": Constraint.from_text("integer", "0..*")}),
    Schema("tag", {}),
)
WORDS = ("alpha", "beta", "gamma", "delta")
VALUES = {  # every property keeps one type, so no enforced schema is ever violated
    "title": lambda rng: Value.text(rng.choice(WORDS)),
    "n": lambda rng: Value.integer(rng.randrange(4)),
    "x": lambda rng: Value.boolean(rng.random() < 0.5),
}
STEPS = {
    "create": 4, "set": 8, "drop": 2, "enforce": 5, "unenforce": 3, "add_member": 5,
    "remove_member": 2, "put_content": 2, "delete": 3, "flush": 3, "failed_flush": 2, "evict": 2,
}


class _Doc:
    def __init__(self, kind: DocumentKind):
        self.kind = kind
        self.props: dict = {}
        self.enforced: list[str] = []  # earliest enforced first
        self.members: set = set()
        self.content = b""


class _Driver:
    def __init__(self, tmp_path, seed: int):
        self.rng = random.Random(seed)
        self.root = tmp_path / "store"
        self.repo = Repository.init(self.root, config=CacheConfig(max_docs=2, auto_flush=False), id_seed=seed)
        self.shadow = Repository.in_memory(config=CacheConfig(auto_flush=False), id_seed=seed)
        for schema in SCHEMAS:
            self.both(lambda repo: repo.define_schema(schema))
        self.model: dict = {}
        self.flushes = self.failed_flushes = 0

    def both(self, fn):
        return [fn(repo) for repo in (self.repo, self.shadow)]

    def on(self, doc_id, fn):
        self.both(lambda repo: fn(repo.get_document(doc_id)))

    def pick(self, kind=None):
        ids = sorted(d for d, doc in self.model.items() if kind is None or doc.kind is kind)
        return self.rng.choice(ids) if ids else None

    def create(self, kind: DocumentKind):
        ids = set(self.both(lambda repo: repo.create_document(kind).doc_id))
        assert len(ids) == 1
        doc_id = ids.pop()
        self.model[doc_id] = _Doc(kind)
        return doc_id

    # ---- steps ----

    def step(self) -> None:
        name = self.rng.choices(list(STEPS), weights=list(STEPS.values()))[0]
        if not self.model:
            name = "create"
        getattr(self, "_" + name)()

    def _create(self):
        self.create(self.rng.choice(list(DocumentKind)))

    def _set(self):
        doc_id, prop = self.pick(), self.rng.choice(list(VALUES))
        values = [VALUES[prop](self.rng) for _ in range(self.rng.randrange(1, 4))]
        self.on(doc_id, lambda h: h.set_property(prop, values))
        self.model[doc_id].props[prop] = bag(values)

    def _drop(self):
        doc_id, prop = self.pick(), self.rng.choice(list(VALUES))
        self.on(doc_id, lambda h: h.remove_property(prop))
        self.model[doc_id].props.pop(prop, None)

    def _enforce(self):
        doc_id, name = self.pick(), self.rng.choice(SCHEMAS).name
        self.on(doc_id, lambda h: h.enforce(name))
        if name not in self.model[doc_id].enforced:
            self.model[doc_id].enforced.append(name)

    def _unenforce(self):
        doc_id = self.pick()
        enforced = self.model[doc_id].enforced
        name = self.rng.choice(enforced) if enforced and self.rng.random() < 0.8 else self.rng.choice(SCHEMAS).name
        self.on(doc_id, lambda h: h.unenforce(name))
        if name in enforced:
            enforced.remove(name)

    def _add_member(self):
        collection = self.pick(DocumentKind.COLLECTION)
        if collection is None:
            return self.create(DocumentKind.COLLECTION)
        way = self.rng.choice(("itself", "fresh", "any", "any"))
        if way == "itself":
            member = collection
        elif way == "fresh":  # no store record until the next flush
            member = self.create(self.rng.choice(list(DocumentKind)))
        else:
            member = self.pick()
        self.on(collection, lambda h: h.add_member(member))
        self.model[collection].members.add(member)

    def _remove_member(self):
        collection = self.pick(DocumentKind.COLLECTION)
        if collection is None:
            return
        members = sorted(self.model[collection].members)
        member = self.rng.choice(members) if members and self.rng.random() < 0.8 else self.pick()
        self.on(collection, lambda h: h.remove_member(member))
        self.model[collection].members.discard(member)

    def _put_content(self):
        doc_id = self.pick(DocumentKind.CONTENT)
        if doc_id is None:
            return self.create(DocumentKind.CONTENT)
        data = " ".join(self.rng.choice(WORDS) for _ in range(self.rng.randrange(4))).encode()
        self.on(doc_id, lambda h: h.put_content(data))
        self.model[doc_id].content = data

    def _delete(self):
        doc_id = self.pick()
        self.on(doc_id, lambda h: h.delete())
        del self.model[doc_id]
        for doc in self.model.values():
            doc.members.discard(doc_id)

    def _flush(self):
        self.both(lambda repo: repo.flush())
        self.flushes += 1
        assert (self.root / CHECKPOINT_NAME).read_bytes() == self.shadow.backend._encode_checkpoint()
        assert not self.repo._dirty
        assert all(idoc.pending is None for idoc in self.repo._cache.values())

    def _failed_flush(self):
        stored = (self.root / CHECKPOINT_NAME).read_bytes()
        self.repo.backend.fail_next_persist = True
        try:
            self.repo.flush()
        except StorageFailure:
            self.failed_flushes += 1
        finally:
            self.repo.backend.fail_next_persist = False
        assert (self.root / CHECKPOINT_NAME).read_bytes() == stored

    def _evict(self):
        for _ in range(3):
            self.repo.get_document(self.pick()).snapshot()

    # ---- checks ----

    def check(self) -> None:
        repo = self.repo
        assert repo.document_ids() == sorted(self.model) == self.shadow.document_ids()
        assert repo.document_count() == len(self.model)
        for doc_id, doc in self.model.items():
            handle = repo.get_document(doc_id)
            snap = handle.snapshot()
            assert (snap.kind, snap.properties, snap.enforced) == (doc.kind, doc.props, frozenset(doc.enforced))
            assert handle.enforced() == tuple(doc.enforced)
            assert snap.members == frozenset(doc.members)
            if doc.kind is DocumentKind.COLLECTION:
                assert handle.members() == frozenset(doc.members)
            if doc.kind is DocumentKind.CONTENT:
                assert handle.content() == doc.content
        for query, expected in self.queries():
            found = sorted(repo.query(query).ids())
            assert found == sorted(naive_eval(parse_query(query), repo)) == sorted(expected), query

    def queries(self):
        for schema in SCHEMAS:
            yield f'schema:"{schema.name}"', [d for d, doc in self.model.items() if schema.name in doc.enforced]
        for collection, doc in self.model.items():
            if doc.kind is DocumentKind.COLLECTION:
                yield f"member-of:{collection}", doc.members
        for word in WORDS:
            yield f'content:"{word}"', [d for d, doc in self.model.items() if word in tokenize(doc.content)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_metadata_reads_match_the_model_and_flushes_match_the_shadow(tmp_path, seed):
    driver = _Driver(tmp_path, seed)
    for _ in range(300):
        driver.step()
        driver.check()
    driver._flush()
    driver.check()
    driver.repo.close()
    assert driver.flushes >= 10 and driver.failed_flushes >= 3
    with Repository.open(driver.root, config=CacheConfig(auto_flush=False)) as reopened:
        assert reopened.document_ids() == sorted(driver.model)
        assert reopened.backend._encode_checkpoint() == driver.shadow.backend._encode_checkpoint()
    driver.shadow.close()


# ---- readers on other threads ----

def test_lock_free_reads_and_the_count_hold_while_the_flusher_stores_new_documents():
    """One thread creates and enforces documents, the background flusher moves
    them into the store, two threads read them back without the lock, and the
    main thread counts: a pending record dropped before its batch commits, or
    a count that sees a document twice or not at all, breaks an assertion."""
    repo = Repository.in_memory(config=CacheConfig(flush_interval=0.01), id_seed=4)
    repo.define_schema(SCHEMAS[2])
    done = threading.Event()
    ready: list = []  # ids whose enforcement has been committed by the writer
    errors: list = []

    def create():
        for i in range(3000):
            handle = repo.create_document()
            handle.set_property("n", [Value.integer(i)])
            handle.enforce("tag")
            ready.append(handle.doc_id)
        done.set()

    def read(rng):
        while not done.is_set():
            if ready:
                doc_id = ready[rng.randrange(len(ready))]
                if repo.document_kind(doc_id) is not DocumentKind.PLAIN or repo.enforced_of(doc_id) != {"tag"}:
                    errors.append(doc_id)

    threads = [threading.Thread(target=create)]
    threads += [threading.Thread(target=read, args=(random.Random(k),)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        last = samples = stored_seen = 0
        deadline = time.monotonic() + 60
        while not done.is_set() and time.monotonic() < deadline:
            first = repo.document_count()
            listed = len(repo.document_ids())
            second = repo.document_count()
            assert last <= first <= listed <= second
            last = second
            samples += 1
            stored_seen = max(stored_seen, len(repo.backend.stored_docs()))
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        done.set()
        repo.close()
    assert errors == []
    assert repo.document_count() == len(repo.document_ids()) == 3000
    assert samples > 10 and stored_seen > 0  # the flusher ran while documents were counted


def test_failed_delete_leaves_the_document_readable_from_another_thread(tmp_path, monkeypatch):
    repo = Repository.init(tmp_path / "store", config=CacheConfig(auto_flush=False), id_seed=3)
    repo.define_schema(SCHEMAS[2])
    collection = repo.create_document(DocumentKind.COLLECTION)
    collection.set_property("n", [Value.integer(1)])
    collection.enforce("tag")
    collection.add_member(collection)
    repo.flush()
    doc_id, expected = collection.doc_id, collection.snapshot()
    seen = []

    def read():
        try:
            # without the lock first, then a whole snapshot under it
            seen.append((repo.enforced_of(doc_id), repo.members_of(doc_id), repo.document_kind(doc_id)))
            seen.append(repo.get_document(doc_id).snapshot())
        except UnknownDocument as exc:
            seen.append(exc)

    reader = threading.Thread(target=read)
    real_persist = repo.backend._persist

    def persist_with_a_reader():
        # the delete is staged beside the committed entry, which stays until a write succeeds
        reader.start()
        reader.join(0.2)
        real_persist()

    monkeypatch.setattr(repo.backend, "_persist", persist_with_a_reader)
    repo.backend.fail_next_persist = True
    with pytest.raises(StorageFailure):
        collection.delete()
    reader.join(5)
    assert not reader.is_alive()
    assert seen == [({"tag"}, {doc_id}, DocumentKind.COLLECTION), expected]
    assert repo.get_document(doc_id).snapshot() == expected
    monkeypatch.undo()
    assert repo.flush() == 0  # the failed delete left nothing to write
    collection.delete()
    assert repo.document_ids() == []
    repo.close()



@pytest.mark.parametrize("write", ["rows", "content", "delete"])
def test_reads_during_a_failing_write_see_committed_state(tmp_path, monkeypatch, write):
    """A reader without the lock, running while the checkpoint write fails,
    sees what it saw before the write and sees again after it."""
    repo = Repository.init(tmp_path / "store", config=CacheConfig(auto_flush=False), id_seed=5)
    for schema in SCHEMAS:
        repo.define_schema(schema)
    collection = repo.create_document(DocumentKind.COLLECTION)
    doc = repo.create_document(DocumentKind.CONTENT)
    doc.enforce("tag")
    doc.put_content(b"hello world")
    collection.add_member(doc)
    repo.flush()
    if write == "rows":
        doc.set_property("n", [Value.integer(2)])
        doc.enforce("count")
    write = {"rows": repo.flush, "content": lambda: doc.put_content(b"other words"), "delete": doc.delete}[write]

    def read():
        return (repo.content_tokens(doc.doc_id), repo.enforced_of(doc.doc_id),
                repo.members_of(collection.doc_id), repo.document_kind(doc.doc_id))

    before = read()
    assert before[0] == {"hello", "world"} and before[2] == {doc.doc_id}
    seen = []
    real_persist = repo.backend._persist

    def persist_with_a_reader():
        reader = threading.Thread(target=lambda: seen.append(read()))
        reader.start()
        reader.join(5)
        real_persist()

    monkeypatch.setattr(repo.backend, "_persist", persist_with_a_reader)
    repo.backend.fail_next_persist = True
    with pytest.raises(StorageFailure):
        write()
    monkeypatch.undo()
    assert seen == [before]
    assert read() == before
    repo.close()
