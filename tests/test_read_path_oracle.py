"""The engine's read path against a dict model of every live document.

Seeded random steps (create, set, add, remove, enforce, unenforce,
membership, delete, flush and read) run on a disk store whose cache holds
four documents, so reads hit documents with every slice loaded, documents
with some slice loaded, and evicted ones. The test keeps each live
document's kind, property bags, enforced schemas (in the order they were
enforced) and members in plain dicts and lists. Every `snapshot()` and
`values()` must equal that model, and every snapshot is built again with
the validated `DocumentSnapshot` constructor, so a snapshot that breaks an
invariant raises. A snapshot must not change once taken. After each flush
a second repository opens the store's file and must read the same snapshot
of every document.

After every step each metadata reader (`document_kind`, `enforced_of`,
`members_of`, `Handle.enforced()` and `Handle.kind`) must agree with the
model for every live document, whether it has a pending record, is cached
clean or has been evicted, and for a deleted and a never-created id, which
read as None, the empty set or `UnknownDocument`.
"""

from __future__ import annotations

import random

import pytest

from harland.engine import CacheConfig, Handle, Repository
from harland.errors import NotConforming, SchemaViolation, UnknownDocument
from harland.model import Constraint, DocumentId, DocumentKind, DocumentSnapshot, Schema, Value, bag
from harland.store import MemoryBackend

SCHEMAS = (
    Schema("note", {"Subject": Constraint.from_text("text", "1..1")}),
    Schema("sized", {"size": Constraint.from_text("integer", "0..1"), "Tags": Constraint.from_text("text", "0..*")}),
)
PROPS = ("Subject", "size", "Tags", "tab\there")
NEVER_CREATED = DocumentId.parse("00000000-0000-0000-0000-00000000beef")


class Model:
    """One live document as the test expects to read it."""

    def __init__(self, kind: DocumentKind):
        self.kind = kind
        self.props: dict[str, tuple[Value, ...]] = {}
        self.enforced: list[str] = []  # earliest enforced first
        self.members: set = set()

    def snapshot(self, doc_id) -> DocumentSnapshot:
        return DocumentSnapshot(doc_id, self.kind, dict(self.props), frozenset(self.enforced), frozenset(self.members))


def _values(rng: random.Random) -> list[Value]:
    return [
        Value.text(rng.choice(("a", "b", "c"))) if rng.random() < 0.7 else Value.integer(rng.randrange(3))
        for _ in range(rng.randrange(4))
    ]


def _read(repo: Repository, doc_id, model: Model) -> DocumentSnapshot:
    snap = repo.get_document(doc_id).snapshot()
    rebuilt = DocumentSnapshot(snap.doc_id, snap.kind, snap.properties, snap.enforced, snap.members)
    assert rebuilt == snap == model.snapshot(doc_id)
    return snap


def _check_reopened(root, docs: dict) -> None:
    with Repository(MemoryBackend.open(root), CacheConfig(max_docs=4, auto_flush=False)) as reopened:
        assert sorted(reopened.document_ids()) == sorted(docs)
        for doc_id, model in docs.items():
            assert _read(reopened, doc_id, model) == model.snapshot(doc_id)


class Run:
    def __init__(self, rng: random.Random, repo: Repository, root):
        self.rng, self.repo, self.root = rng, repo, root
        self.docs: dict = {}
        self.deleted: list = []
        self.taken: list[tuple[DocumentSnapshot, DocumentSnapshot]] = []  # (snapshot, what it read then)
        self.reads = {"hit": 0, "hit+fetch": 0, "miss": 0}  # snapshot reads, by what they cost
        self.states = {"pending": 0, "clean": 0, "evicted": 0}  # metadata checks, by the document's state

    def pick(self, kind=None):
        ids = sorted(d for d, m in self.docs.items() if kind is None or m.kind is kind)
        return self.rng.choice(ids) if ids else None

    def read(self, doc_id) -> None:
        """Reads the document's snapshot, checks it, and files the read by
        what it cost."""
        model, before = self.docs[doc_id], self.repo.stats()
        self.taken.append((_read(self.repo, doc_id, model), model.snapshot(doc_id)))
        after = self.repo.stats()
        if after["cache_misses"] > before["cache_misses"]:
            self.reads["miss"] += 1
        elif after["backend_fetches"] > before["backend_fetches"]:
            self.reads["hit+fetch"] += 1
        else:
            self.reads["hit"] += 1

    def check_metadata(self) -> None:
        """Every metadata reader against the model, for every live document,
        filed by the document's state, and for a deleted and a never-created
        id."""
        repo = self.repo
        for doc_id, model in self.docs.items():
            idoc = repo._cache.get(doc_id)
            state = "evicted" if idoc is None else "clean" if idoc.pending is None else "pending"
            self.states[state] += 1
            handle = Handle(repo, doc_id)
            assert repo.document_kind(doc_id) is model.kind is handle.kind
            assert repo.enforced_of(doc_id) == frozenset(model.enforced)
            assert handle.enforced() == tuple(model.enforced)
            assert repo.members_of(doc_id) == frozenset(model.members)
        for gone in (*self.deleted[-1:], NEVER_CREATED):
            handle = Handle(repo, gone)
            assert repo.document_kind(gone) is None
            assert repo.enforced_of(gone) == frozenset() == repo.members_of(gone)
            with pytest.raises(UnknownDocument):
                handle.enforced()
            with pytest.raises(UnknownDocument):
                handle.kind

    def step(self) -> None:
        rng, repo, docs = self.rng, self.repo, self.docs
        action = rng.choice((
            "create", "set", "set", "add", "remove", "enforce", "unenforce",
            "member", "delete", "flush", "read", "read", "read", "values",
        ))
        doc_id = self.pick()
        if action == "create" or doc_id is None:
            kind = DocumentKind.COLLECTION if rng.random() < 0.25 else DocumentKind.PLAIN
            docs[repo.create_document(kind).doc_id] = Model(kind)
            return
        model, handle = docs[doc_id], repo.get_document(doc_id)
        prop = rng.choice(PROPS)
        old = model.props.get(prop, ())
        try:
            if action == "set":
                values = _values(rng)
                handle.set_property(prop, values)
                new = bag(values)
            elif action == "add":
                values = _values(rng)
                handle.add_values(prop, values)
                new = bag([*old, *values])
            elif action == "remove":
                values = [*rng.sample(old, min(len(old), rng.randrange(3))), *_values(rng)[:1]]
                handle.remove_values(prop, values)
                remaining = list(old)
                for value in values:
                    if value in remaining:
                        remaining.remove(value)
                new = bag(remaining)
            elif action in ("enforce", "unenforce"):
                name = rng.choice(SCHEMAS).name
                if action == "enforce":
                    handle.enforce(name)
                    if name not in model.enforced:
                        model.enforced.append(name)
                else:
                    handle.unenforce(name)
                    if name in model.enforced:
                        model.enforced.remove(name)
                return
            elif action == "member":
                collection = self.pick(DocumentKind.COLLECTION)
                if collection is None:
                    return
                target = repo.get_document(collection)
                if doc_id in docs[collection].members and rng.random() < 0.5:
                    target.remove_member(doc_id)
                    docs[collection].members.discard(doc_id)
                else:
                    target.add_member(doc_id)
                    docs[collection].members.add(doc_id)
                return
            elif action == "delete":
                handle.delete()
                del docs[doc_id]
                for other in docs.values():
                    other.members.discard(doc_id)
                self.deleted.append(doc_id)
                return
            elif action == "flush":
                repo.flush()
                _check_reopened(self.root, docs)
                return
            elif action == "values":  # one slice, and often then the others
                assert handle.values(prop) == old
                if rng.random() < 0.5:
                    self.read(doc_id)
                return
            else:
                self.read(doc_id)
                if self.deleted:
                    with pytest.raises(UnknownDocument):
                        repo.get_document(rng.choice(self.deleted))
                return
        except (SchemaViolation, NotConforming):
            return  # a rejected change changes nothing
        if new:
            model.props[prop] = new
        else:
            model.props.pop(prop, None)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_read_equals_the_model(tmp_path, seed):
    rng = random.Random(seed)
    root = tmp_path / "store"
    with Repository.init(root, CacheConfig(max_docs=4, auto_flush=False), id_seed=seed) as repo:
        for schema in SCHEMAS:
            repo.define_schema(schema)
        run = Run(rng, repo, root)
        for _ in range(1500):
            run.step()
            run.check_metadata()
        stats = repo.stats()
        assert stats["cache_misses"] > 20 and stats["evictions"] > 20  # reads went past the cache
        for snapshot, read in run.taken:  # a snapshot does not change once taken
            assert snapshot == read
        repo.flush()
        _check_reopened(root, run.docs)
    assert min(run.reads.values()) >= 10, run.reads
    assert min(run.states.values()) >= 100, run.states
