"""Document repository: cache, slice prefetching, writeback, and commits.

The backend's committed tables are the only record of document metadata:
kind, slice assignments, enforcement, membership and content tokens. A
document whose metadata differs from its committed entry (new, or changed
since its last flush) carries one pending record with its whole live
entry, copied from the committed entry on its first metadata change; reads
take the pending record when there is one, else the committed entry. An
operation, a read or a write, looks its document up in the cache once and
reads its whole metadata entry once (_load, _entry); only the lock-free
query-view readers (_kind_of, _enforcement_of, _members_of) read one field.
A cached document holds one value bag per property, filled a slice at a
time on demand: reading any property of a document fetches the whole slice
that property is assigned to, in one backend round trip, so the other
properties of the same schema arrive for free.

Writes go to the in-memory document: a value write marks its property
dirty, a metadata write changes the pending record. A background flusher
(and explicit flush()) visits only the documents changed since their last
successful flush, collects for each what its live state has that the
backend has not committed (the rows that turn each dirty property's stored
bag into its live one, its pending record against the committed entry),
and ships the records of all of them as one atomic batch (group commit),
so a flush writes the checkpoint once. Every live document without a
store record is dirty, so a membership whose member is new travels in the
same batch as the member's document record. Schema definitions (through
the schema registry) go through to the backend immediately, and a content
write commits at once, in one batch with its document's own records.

Only flushed documents leave the cache, and a new document enters the
cache before its id becomes live, so a live document outside the cache
always has a store record.

One repository lock guards the cache, the pending records, the dirty set
and the counters; every commit and every read that loads a document runs
under it, so commits are serialized and see one consistent state across
documents. Reading one document's kind, enforcement, members or content
tokens takes no lock. The backend stages a batch beside its committed
tables, writes the checkpoint, and only then installs the batch, so a
failed write changes no committed table. The pending record is checked
before the committed table, a flush drops it only after its batch has
installed, and a delete gives the document one before the backend
installs the delete across its tables. The backend, the schema registry
and the commit hub have their own locks and never call back into the
repository under them. flush() collects records under the repository lock
once per document, so other work runs between documents of a long flush,
and commits under it every document dirty at that moment; one changed
since its collection (its stamp in the dirty map moved), or dirtied after
it, is collected then. close() and hub.drain() never run under it,
because the dispatcher thread calls back into the repository.

Every snapshot comes from one trusted builder (_snapshot_locked). A commit
builds the before and after snapshots of its event only while the hub is
watched (an active transition subscription exists); otherwise it publishes
its document id alone, which is numbered and not queued, and its schema
check snapshots only the properties it checks. The hub registers a
subscription under the repository lock, so it cannot become watched
between a commit's look at it and its publish.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from harland.coordination import CommitHub, Subscription, SubscriptionMode
from harland.errors import (
    NotConforming,
    SchemaViolation,
    StorageFailure,
    UnknownDocument,
    WrongKind,
)
from harland.model import (
    ORDERED_TYPES,
    DocumentId,
    DocumentKind,
    DocumentSnapshot,
    Schema,
    Value,
    bag,
    sort_key,
)
from harland.parsing import parse_query
from harland.query import (
    PASSING_SIGNS,
    Cmp,
    ContentContains,
    HasSchema,
    MemberOf,
    QueryExpr,
    QueryPlan,
    Range,
    bag_matches,
    candidates,
    execute,
    naive_eval,
    plan,
    validate_references,
)
from harland.schemas import SchemaRegistry
from harland.store import (
    ContentWrite,
    DiskBackend,
    DocumentRecord,
    Enforcement,
    Membership,
    MemoryBackend,
    SliceAssignment,
)

logger = logging.getLogger(__name__)


# ---- change descriptions ----

@dataclass(frozen=True)
class SetProperty:
    prop: str
    values: tuple[Value, ...]

    def __init__(self, prop: str, values: Iterable[Value]):
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "values", bag(values))


@dataclass(frozen=True)
class AddValues:
    prop: str
    values: tuple[Value, ...]

    def __init__(self, prop: str, values: Iterable[Value]):
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "values", bag(values))


@dataclass(frozen=True)
class RemoveValues:
    """Removes one bag occurrence per listed value; absent values are ignored."""

    prop: str
    values: tuple[Value, ...]

    def __init__(self, prop: str, values: Iterable[Value]):
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "values", bag(values))


@dataclass(frozen=True)
class RemoveProperty:
    prop: str


Change = Union[SetProperty, AddValues, RemoveValues, RemoveProperty]


# compiled plans a repository keeps, by query text (Repository._compiled)
PLAN_CACHE_SIZE = 64


@dataclass
class CacheConfig:
    max_docs: int = 1024
    flush_interval: float = 0.5
    auto_flush: bool = True


# ---- id generation ----

class _IdGen:
    """Mints fresh document ids; called under the repository lock."""

    def __init__(self, seed: Optional[int]):
        self._seed = seed
        self._counter = 0

    def prime(self, existing: Iterable[DocumentId]) -> None:
        """Seeded generation continues past ids minted by earlier runs."""
        if self._seed is None:
            return
        base = (self._seed & 0xFFFFFFFFFFFFFFFF) << 64
        tail = [d.value & 0xFFFFFFFFFFFFFFFF for d in existing if (d.value >> 64) == (base >> 64)]
        self._counter = max(tail, default=0)

    def next_id(self, kind_of) -> DocumentId:
        while True:
            if self._seed is not None:
                self._counter += 1
                candidate = DocumentId(((self._seed & 0xFFFFFFFFFFFFFFFF) << 64) | self._counter)
            else:
                candidate = DocumentId(uuid.uuid4().int)
            if kind_of(candidate) is None:
                return candidate


# ---- cached document state ----

class _IDoc:
    """In-memory image of one document's values: the bag of each property
    of the slices loaded so far (a property without values has none), plus
    what its next flush must write: the dirty properties, and the pending
    record while its metadata differs from the committed entry. Guarded by
    the repository lock."""

    __slots__ = ("doc_id", "bags", "loaded", "dirty_props", "pending")

    def __init__(self, doc_id: DocumentId, pending: Optional["_Pending"] = None):
        self.doc_id = doc_id
        self.bags: dict[str, tuple[Value, ...]] = {}  # prop -> value bag
        self.loaded: set[int] = set()  # slice ids
        self.dirty_props: set[str] = set()
        self.pending = pending

    def is_dirty(self) -> bool:
        return self.pending is not None or bool(self.dirty_props)


class _Pending:
    """A document's whole live metadata entry while it differs from the
    committed one. Changed under the repository lock, and never again once
    its flush has dropped it."""

    __slots__ = ("kind", "assignments", "enforcement", "members")

    def __init__(self, kind: DocumentKind, assignments=(), enforcement=(), members=()):
        self.kind = kind
        self.assignments: dict[str, int] = dict(assignments)  # prop -> slice id, write-once
        self.enforcement: dict[str, int] = dict(enforcement)  # schema -> enforcement seq
        self.members: set[DocumentId] = set(members)


class _Writeback(NamedTuple):
    """What one document's flush writes."""

    bags: dict
    meta: list
    meta_deletes: list


class Handle:
    """Caller's reference to one document. Stale once the document is
    deleted; every operation re-checks."""

    __slots__ = ("_repo", "doc_id")

    def __init__(self, repo: "Repository", doc_id: DocumentId):
        self._repo = repo
        self.doc_id = doc_id

    def __repr__(self) -> str:
        return f"Handle({self.doc_id})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Handle) and other.doc_id == self.doc_id and other._repo is self._repo

    def __hash__(self) -> int:
        return hash(self.doc_id)

    @property
    def kind(self) -> DocumentKind:
        return self._repo._kind(self.doc_id)

    def values(self, prop: str) -> tuple[Value, ...]:
        return self._repo.values(self, prop)

    def snapshot(self) -> DocumentSnapshot:
        return self._repo.snapshot_of(self)

    def set_property(self, prop: str, values: Iterable[Value]) -> None:
        self._repo.mutate(self, SetProperty(prop, values))

    def add_values(self, prop: str, values: Iterable[Value]) -> None:
        self._repo.mutate(self, AddValues(prop, values))

    def remove_values(self, prop: str, values: Iterable[Value]) -> None:
        self._repo.mutate(self, RemoveValues(prop, values))

    def remove_property(self, prop: str) -> None:
        self._repo.mutate(self, RemoveProperty(prop))

    def enforce(self, schema_name: str) -> None:
        self._repo.enforce(self, schema_name)

    def unenforce(self, schema_name: str) -> None:
        self._repo.unenforce(self, schema_name)

    def enforced(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._repo.enforcement_seqs(self.doc_id))

    def add_member(self, member: Union["Handle", DocumentId]) -> None:
        self._repo.add_member(self, _as_id(member))

    def remove_member(self, member: Union["Handle", DocumentId]) -> None:
        self._repo.remove_member(self, _as_id(member))

    def members(self) -> frozenset[DocumentId]:
        return self._repo.members_of_handle(self)

    def put_content(self, data: bytes) -> None:
        self._repo.put_content(self, data)

    def content(self) -> bytes:
        return self._repo.get_content(self)

    def delete(self) -> None:
        self._repo.delete_document(self)


_KIND_NOUNS = {DocumentKind.COLLECTION: "collection", DocumentKind.CONTENT: "content document"}


def _as_id(ref: Union[Handle, DocumentId, str]) -> DocumentId:
    if isinstance(ref, Handle):
        return ref.doc_id
    if isinstance(ref, DocumentId):
        return ref
    return DocumentId.parse(ref)


class Cursor:
    """Query results. The match set is pinned when the query runs; iteration
    prefetches each document's relevant slices just before yielding it: the
    slices of the schemas the plan touches, resolved when the plan was
    compiled, and those the referenced properties are assigned to. Cursors
    of one query text share its cached plan, which is immutable."""

    def __init__(self, repo: "Repository", compiled: QueryPlan, matches: list[DocumentId]):
        self._repo = repo
        self._plan = compiled
        self._matches = matches

    def ids(self) -> list[DocumentId]:
        return list(self._matches)

    def __len__(self) -> int:
        return len(self._matches)

    def __iter__(self):
        for doc_id in self._matches:
            try:
                self._repo._prefetch(doc_id, self._plan)
            except UnknownDocument:
                pass  # deleted since the query ran; the handle is stale
            yield Handle(self._repo, doc_id)


class Repository:
    """The embedded store: documents in an LRU cache over a slice-addressed
    backend, with mixin-style schema enforcement and commit events."""

    def __init__(self, backend: MemoryBackend, config: Optional[CacheConfig] = None, id_seed: Optional[int] = None):
        self.backend = backend
        self.config = config or CacheConfig()
        self.registry = SchemaRegistry(backend)
        self._ids = _IdGen(id_seed)
        self._lock = threading.RLock()

        self._cache: "OrderedDict[DocumentId, _IDoc]" = OrderedDict()
        # the clean documents of the cache, in its order; eviction takes
        # from the front and never walks past a dirty document
        self._clean: "OrderedDict[DocumentId, None]" = OrderedDict()
        # every dirty document, in the order it first changed, with the
        # stamp of its last change; flush() walks this, not the cache
        self._dirty: dict[DocumentId, int] = {}
        self._stamps = itertools.count(1)

        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._flushes = 0
        self._flush_failures = 0  # background flushes that raised; the flusher thread alone writes it
        # compiled plans by (query text, schemas defined when compiled), least recently used first
        self._plans: "OrderedDict[tuple[str, int], QueryPlan]" = OrderedDict()
        self._plans_compiled = 0

        self._ids.prime(backend.stored_docs())
        self.hub = CommitHub(self)

        self._closed = False
        self._flusher_stop = threading.Event()
        self._flusher: Optional[threading.Thread] = None
        if self.config.auto_flush:
            self._flusher = threading.Thread(target=self._flush_loop, name="harland-flush", daemon=True)
            self._flusher.start()

    # ---- construction ----

    @classmethod
    def in_memory(cls, config: Optional[CacheConfig] = None, id_seed: Optional[int] = None) -> "Repository":
        return cls(MemoryBackend(), config=config, id_seed=id_seed)

    @classmethod
    def init(cls, path, config: Optional[CacheConfig] = None, id_seed: Optional[int] = None) -> "Repository":
        return cls(DiskBackend.init(path), config=config, id_seed=id_seed)

    @classmethod
    def open(cls, path, config: Optional[CacheConfig] = None, id_seed: Optional[int] = None) -> "Repository":
        return cls(DiskBackend.open(path), config=config, id_seed=id_seed)

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._flusher_stop.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5)
        try:
            self.flush()
        finally:
            self.hub.stop()
            self.hub.repo = None  # break the cycle: a dropped repository is freed at once
            self.backend.close()

    # ---- live metadata: the pending record, else the committed entry ----

    def _kind(self, doc_id: DocumentId) -> DocumentKind:
        """The live document's kind; raises UnknownDocument once it is deleted."""
        kind = self._kind_of(doc_id)
        if kind is None:
            raise UnknownDocument(f"document {doc_id} does not exist")
        return kind

    def _pending(self, doc_id: DocumentId) -> Optional[_Pending]:
        """The document's pending record, or None. A document that has one is
        dirty, so it is cached."""
        idoc = self._cache.get(doc_id)
        return None if idoc is None else idoc.pending

    def _pending_records(self) -> Iterator[tuple[DocumentId, _Pending]]:
        """Each document that has a pending record, with the record; callers
        hold the repository lock."""
        for doc_id in self._dirty:
            pending = self._pending(doc_id)
            if pending is not None:
                yield doc_id, pending

    def _kind_of(self, doc_id: DocumentId) -> Optional[DocumentKind]:
        pending = self._pending(doc_id)
        return pending.kind if pending is not None else self.backend.stored_docs().get(doc_id)

    def _enforcement_of(self, doc_id: DocumentId) -> Mapping[str, int]:
        pending = self._pending(doc_id)
        return pending.enforcement if pending is not None else self.backend.stored_enforcement_of(doc_id)

    def _members_of(self, doc_id: DocumentId) -> AbstractSet[DocumentId]:
        pending = self._pending(doc_id)
        return pending.members if pending is not None else self.backend.stored_members().get(doc_id, frozenset())

    def _pending_of(self, idoc: _IDoc) -> _Pending:
        """The pending record of a document whose metadata is changing, copied
        from its committed entry on the first change since its last flush.
        The document is dirty from then on."""
        self._mark_dirty(idoc.doc_id)
        if idoc.pending is None:
            idoc.pending = _Pending(*self._entry(idoc.doc_id, None))
        return idoc.pending

    def _stored(self, doc_id: DocumentId) -> bool:
        """Whether a live document has a store record."""
        return doc_id in self.backend.stored_docs()

    # ---- cache (callers hold the repository lock) ----

    def _load(self, doc_id: DocumentId, kind: Optional[DocumentKind] = None) -> tuple[_IDoc, tuple]:
        """The live document's cached image and its metadata entry (see
        _entry), from one cache lookup, counted as a hit or a miss. With kind
        given, a document of another kind raises WrongKind after the load,
        which the cache counts."""
        idoc = self._cache.get(doc_id)
        entry = self._entry(doc_id, idoc)
        idoc = self._counted(doc_id, idoc)
        if kind is not None and entry[0] is not kind:
            raise WrongKind(f"document {doc_id} is not a {_KIND_NOUNS[kind]}")
        return idoc, entry

    def _entry(self, doc_id: DocumentId, idoc: Optional[_IDoc]) -> tuple:
        """The live document's metadata, (kind, assignments, enforcement,
        members), read once: from its pending record when its cached image
        idoc (None: not cached) has one, else from its committed entries.
        Raises UnknownDocument for a document that is not live."""
        pending = None if idoc is None else idoc.pending
        if pending is not None:
            return pending.kind, pending.assignments, pending.enforcement, pending.members
        backend = self.backend
        kind = backend.stored_docs().get(doc_id)
        if kind is None:
            raise UnknownDocument(f"document {doc_id} does not exist")
        return (
            kind,
            backend.stored_assignments_of(doc_id),
            backend.stored_enforcement_of(doc_id),
            backend.stored_members().get(doc_id, frozenset()),
        )

    def _counted(self, doc_id: DocumentId, idoc: Optional[_IDoc]) -> _IDoc:
        """Counts a cache lookup of a live document that found idoc: a hit,
        which moves it to the recent end, or a miss (None), which caches an
        empty image. Returns the cached image."""
        if idoc is not None:
            self._cache.move_to_end(doc_id)
            if doc_id in self._clean:
                self._clean.move_to_end(doc_id)
            self._hits += 1
        else:
            self._misses += 1
            idoc = self._cache[doc_id] = _IDoc(doc_id)
            self._clean[doc_id] = None
        self._evict_if_needed(exclude=doc_id)
        return idoc

    def _evict_if_needed(self, exclude: Optional[DocumentId] = None) -> None:
        """Drops the least recently used clean documents until the cache fits."""
        excess = len(self._cache) - self.config.max_docs
        if excess <= 0:
            return
        victims = []
        for doc_id in self._clean:
            if doc_id != exclude and not self._cache[doc_id].is_dirty():
                victims.append(doc_id)
                if len(victims) == excess:
                    break
        for doc_id in victims:
            del self._cache[doc_id]
            del self._clean[doc_id]
        self._evictions += len(victims)

    def _mark_dirty(self, doc_id: DocumentId) -> None:
        self._dirty[doc_id] = next(self._stamps)
        self._clean.pop(doc_id, None)

    def _file_clean(self, cleaned: Iterable[DocumentId]) -> None:
        """Files cached documents that a flush left clean into the clean LRU,
        at their place in the cache's order. Walks the cache back from its
        most recent end to the oldest of them, and no further: the clean
        documents met on the way are the clean LRU's tail, so they are taken
        off it and put back in order together with the new ones."""
        pending = {d for d in cleaned if d in self._cache and not self._cache[d].is_dirty()}
        tail = []
        for doc_id in reversed(self._cache):
            if not pending:
                break
            if doc_id in pending:
                pending.discard(doc_id)
                tail.append(doc_id)
            elif doc_id in self._clean:
                tail.append(doc_id)
        for doc_id in reversed(tail):
            self._clean.pop(doc_id, None)
            self._clean[doc_id] = None

    def _materialize(self, idoc: _IDoc, slices: Collection[int]) -> None:
        """Fetch absent slices in one backend round trip, keeping the bags the
        backend hands over. They count as loaded only once it returns, so a
        failed fetch is tried again."""
        if idoc.loaded.issuperset(slices):
            return
        missing = set(slices).difference(idoc.loaded)
        if self._stored(idoc.doc_id):
            idoc.bags.update(self.backend.fetch_slices(idoc.doc_id, missing))
        idoc.loaded |= missing

    def _snapshot_locked(self, idoc: _IDoc, entry: tuple, props: Optional[Iterable[str]] = None) -> DocumentSnapshot:
        """The engine's one snapshot builder: the live document from its
        cached image and its metadata entry (see _entry), built trusted. It
        holds the whole document, every slice loaded; or, with props given,
        what a schema check reads: the bags of props alone, only their
        slices loaded, and no members."""
        kind, assignments, enforcement, members = entry
        if props is None:
            self._materialize(idoc, assignments.values())
            return DocumentSnapshot.trusted(idoc.doc_id, kind, dict(idoc.bags), frozenset(enforcement), frozenset(members))
        self._materialize(idoc, {assignments[p] for p in props if p in assignments})
        bags = idoc.bags
        return DocumentSnapshot.trusted(idoc.doc_id, kind, {p: bags[p] for p in props if p in bags}, frozenset(enforcement), frozenset())

    def _published(self, idoc: _IDoc, before: Optional[DocumentSnapshot], **fields) -> None:
        """Publishes a commit that changed a live document's enforcement,
        members or content: with the snapshots around the change when before
        was taken, because the hub was watched, else its number alone."""
        doc_id = idoc.doc_id
        if before is None:
            self.hub.publish(doc_id=doc_id)
            return
        _, _, enforcement, members = self._entry(doc_id, idoc)
        after = DocumentSnapshot.trusted(doc_id, before.kind, before.properties, frozenset(enforcement), frozenset(members))
        self.hub.publish(doc_id=doc_id, before=before, after=after, **fields)

    # ---- document lifecycle ----

    def create_document(self, kind: DocumentKind = DocumentKind.PLAIN) -> Handle:
        self._check_open()
        with self._lock:
            doc_id = self._ids.next_id(self._kind_of)
            # live once its image, which carries its pending record, is cached
            self._cache[doc_id] = _IDoc(doc_id, _Pending(kind))
            self._mark_dirty(doc_id)
            self._evict_if_needed(exclude=doc_id)
            if self.hub.watched:
                after = DocumentSnapshot.trusted(doc_id, kind, {}, frozenset(), frozenset())
                self.hub.publish(doc_id=doc_id, before=None, after=after)
            else:
                self.hub.publish(doc_id=doc_id)
        return Handle(self, doc_id)

    def get_document(self, ref: Union[DocumentId, str, Handle]) -> Handle:
        self._check_open()
        doc_id = _as_id(ref)
        self._kind(doc_id)
        return Handle(self, doc_id)

    def _unstored(self) -> list[DocumentId]:
        """Live documents with no store record yet; callers hold the lock."""
        stored = self.backend.stored_docs()
        return [doc_id for doc_id, _ in self._pending_records() if doc_id not in stored]

    def document_ids(self) -> list[DocumentId]:
        with self._lock:
            return sorted([*self.backend.stored_docs(), *self._unstored()])

    def document_count(self) -> int:
        with self._lock:  # a flush commits a new document before it drops its pending record
            return len(self.backend.stored_docs()) + len(self._unstored())

    def delete_document(self, handle: Handle) -> None:
        self._check_open()
        doc_id = handle.doc_id
        with self._lock:
            idoc, entry = self._load(doc_id)
            before = self._snapshot_locked(idoc, entry) if self.hub.watched else None
            if self._stored(doc_id):
                # lock-free readers take it while the backend installs the
                # delete one table at a time
                self._pending_of(idoc)
                self.backend.delete_document(doc_id)  # its committed memberships go too
            self._cache.pop(doc_id, None)  # and its pending record with it
            self._clean.pop(doc_id, None)
            self._dirty.pop(doc_id, None)
            for holder, pending in list(self._pending_records()):
                pending.members.discard(doc_id)
                # the delete may have changed its committed members: a flush
                # that collected its records collects them again
                self._mark_dirty(holder)
            if before is None:
                self.hub.publish(doc_id=doc_id)
                return
            # re-evaluate the deleted collection's members: their membership
            # test flips when the collection disappears
            self.hub.publish(
                doc_id=doc_id,
                before=before,
                after=None,
                changed_props=frozenset(before.properties),
                schemas_removed=frozenset(before.enforced),
                members_removed=frozenset(before.members),
            )

    # ---- mutation ----

    def mutate(self, handle: Handle, change: Change) -> None:
        self._check_open()
        doc_id = handle.doc_id
        with self._lock:
            idoc, entry = self._load(doc_id)
            prop = change.prop
            # the whole document only for the commit event; the check reads prop alone
            watched = self.hub.watched
            before = self._snapshot_locked(idoc, entry, None if watched else (prop,))
            old = before.values_of(prop)
            new = self._apply_change(old, change)
            if new == old:
                return
            properties = dict(before.properties)
            if new:
                properties[prop] = new
            else:
                properties.pop(prop, None)
            proposed = DocumentSnapshot.trusted(doc_id, before.kind, properties, before.enforced, before.members)
            violations = self.registry.validate_mutation(before, proposed)
            if violations:
                raise SchemaViolation(violations)

            slice_id = entry[1].get(prop)
            if slice_id is None:
                # the first write of a property picks its slice, permanently
                slice_id = self.registry.slice_for(prop, entry[2])
                self._pending_of(idoc).assignments[prop] = slice_id
            self._materialize(idoc, {slice_id})
            if new:
                idoc.bags[prop] = new
            else:
                idoc.bags.pop(prop, None)
            idoc.dirty_props.add(prop)
            self._mark_dirty(doc_id)
            if watched:
                self.hub.publish(doc_id=doc_id, before=before, after=proposed, changed_props=frozenset({prop}))
            else:
                self.hub.publish(doc_id=doc_id)

    @staticmethod
    def _apply_change(old: tuple[Value, ...], change: Change) -> tuple[Value, ...]:
        if isinstance(change, SetProperty):
            return change.values
        # old is canonical, so a change bisects it: equal values share a sort key, unequal ones never
        if isinstance(change, AddValues):
            if len(change.values) * (len(old) + len(change.values)).bit_length() > len(old):  # a sort takes fewer keys
                return bag(old + change.values)
            merged = list(old)
            for v in change.values:
                bisect.insort(merged, v, key=sort_key)
            return tuple(merged)
        if isinstance(change, RemoveValues):
            remaining = list(old)
            for v in change.values:
                i = bisect.bisect_left(remaining, sort_key(v), key=sort_key)
                if i < len(remaining) and remaining[i] == v:
                    del remaining[i]
            return tuple(remaining)
        if isinstance(change, RemoveProperty):
            return ()
        raise TypeError(f"unsupported change: {change!r}")

    # ---- enforcement ----

    def enforce(self, handle: Handle, schema_name: str) -> None:
        self._check_open()
        doc_id = handle.doc_id
        with self._lock:
            idoc = self._cache.get(doc_id)
            entry = self._entry(doc_id, idoc)
            schema = self.registry.get(schema_name)  # raises UnknownSchema
            if schema_name in entry[2]:  # a no-op counts no cache lookup
                return
            idoc = self._counted(doc_id, idoc)
            watched = self.hub.watched
            before = self._snapshot_locked(idoc, entry, None if watched else schema.constraints)
            violations = self.registry.violations(before, schema.name)
            if violations:
                raise NotConforming(violations)
            enforcement = self._pending_of(idoc).enforcement
            enforcement[schema_name] = max(enforcement.values(), default=0) + 1
            self._published(idoc, before if watched else None, schemas_added=frozenset({schema_name}))

    def unenforce(self, handle: Handle, schema_name: str) -> None:
        """Stops enforcement; property values are retained untouched."""
        self._check_open()
        doc_id = handle.doc_id
        with self._lock:
            idoc = self._cache.get(doc_id)
            entry = self._entry(doc_id, idoc)
            self.registry.get(schema_name)
            if schema_name not in entry[2]:  # a no-op counts no cache lookup
                return
            idoc = self._counted(doc_id, idoc)
            before = self._snapshot_locked(idoc, entry) if self.hub.watched else None
            del self._pending_of(idoc).enforcement[schema_name]
            self._published(idoc, before, schemas_removed=frozenset({schema_name}))

    def enforcement_seqs(self, doc_id: DocumentId) -> list[tuple[str, int]]:
        """(schema, enforcement seq) of each schema enforced on the live
        document, earliest enforced first."""
        return sorted(self._entry(doc_id, self._cache.get(doc_id))[2].items(), key=itemgetter(1))

    # ---- membership ----

    def add_member(self, handle: Handle, member_id: DocumentId) -> None:
        self._check_open()
        doc_id = handle.doc_id
        with self._lock:
            idoc, entry = self._load(doc_id, DocumentKind.COLLECTION)
            if self._kind_of(member_id) is None:
                raise UnknownDocument(f"member {member_id} does not exist")
            if member_id in entry[3]:
                return
            before = self._snapshot_locked(idoc, entry) if self.hub.watched else None
            self._pending_of(idoc).members.add(member_id)
            self._published(idoc, before, members_added=frozenset({member_id}))

    def remove_member(self, handle: Handle, member_id: DocumentId) -> None:
        self._check_open()
        doc_id = handle.doc_id
        with self._lock:
            idoc, entry = self._load(doc_id, DocumentKind.COLLECTION)
            if member_id not in entry[3]:
                return
            before = self._snapshot_locked(idoc, entry) if self.hub.watched else None
            self._pending_of(idoc).members.discard(member_id)
            self._published(idoc, before, members_removed=frozenset({member_id}))

    def members_of_handle(self, handle: Handle) -> frozenset[DocumentId]:
        if self._kind(handle.doc_id) is not DocumentKind.COLLECTION:
            raise WrongKind(f"document {handle.doc_id} is not a collection")
        return self.members_of(handle.doc_id)

    # ---- content ----

    def put_content(self, handle: Handle, data: bytes) -> None:
        self._check_open()
        if not isinstance(data, bytes):
            raise TypeError("content must be bytes")
        doc_id = handle.doc_id
        with self._lock:
            idoc, entry = self._load(doc_id, DocumentKind.CONTENT)
            tokens_before = self.content_tokens(doc_id)
            before = self._snapshot_locked(idoc, entry) if self.hub.watched else None
            writeback = self._flush_doc_locked(doc_id, idoc)
            writeback.meta.append(ContentWrite(doc_id, data))  # one batch with the document's own records
            self._commit_locked({doc_id: (idoc, writeback)})
            self._published(idoc, before, tokens_before=tokens_before, tokens_after=self.content_tokens(doc_id))

    def get_content(self, handle: Handle) -> bytes:
        with self._lock:
            self._load(handle.doc_id, DocumentKind.CONTENT)
            if not self._stored(handle.doc_id):
                return b""
            return self.backend.content_read(handle.doc_id)

    # ---- schemas ----

    def define_schema(self, schema: Schema) -> int:
        """Schema definitions are write-through: durable before returning."""
        self._check_open()
        return self.registry.define(schema)

    # ---- reads ----

    def values(self, handle: Handle, prop: str) -> tuple[Value, ...]:
        return self.bags_of(handle.doc_id, (prop,)).get(prop, ())

    def snapshot_of(self, handle: Handle) -> DocumentSnapshot:
        return self.snapshot(handle.doc_id)

    # ---- query view protocol ----

    def schema_exists(self, name: str) -> bool:
        return self.registry.has(name)

    def document_kind(self, doc_id: DocumentId) -> Optional[DocumentKind]:
        """The live document's kind, or None."""
        return self._kind_of(doc_id)

    def enforced_of(self, doc_id: DocumentId) -> frozenset[str]:
        return frozenset(self._enforcement_of(doc_id))

    def members_of(self, collection_id: DocumentId) -> frozenset[DocumentId]:
        return frozenset(self._members_of(collection_id))

    def content_tokens(self, doc_id: DocumentId) -> frozenset[str]:
        ref = self.backend.stored_content().get(doc_id)
        return ref.tokens if ref is not None else frozenset()

    def bags_of(self, doc_id: DocumentId, props: Sequence[str]) -> dict[str, tuple[Value, ...]]:
        with self._lock:
            idoc = self._cache.get(doc_id)
            assigned = self._entry(doc_id, idoc)[1]
            wanted = {p: assigned[p] for p in props if p in assigned}
            if not wanted:  # no property to read: the cache is not touched
                return {}
            idoc = self._counted(doc_id, idoc)
            self._materialize(idoc, set(wanted.values()))
            return {p: idoc.bags[p] for p in wanted if p in idoc.bags}

    def snapshot(self, doc_id: DocumentId) -> DocumentSnapshot:
        with self._lock:
            return self._snapshot_locked(*self._load(doc_id))

    def leaf_candidates(self, preds) -> dict:
        """Each positive leaf's candidate source: leaf -> (source, ids, unsure),
        where ids is a superset of the live documents that match the leaf
        and every id outside unsure matches it.

        No source fetches a slice or touches the cache, and each costs its
        matches plus a bisect. Schema, membership and content leaves are
        exact (unsure is empty) and list their ids as the keys of a dict in
        id order: the backend's id-ordered copy of the schema's enforcement
        postings, handed over as it is (or with the pending records laid
        over it and sorted again), the collection's live members, sorted,
        and the backend's id-ordered copy of the token's content postings.
        A value leaf reads the documents whose stored bag passes it from the
        backend's column for its property: `=`, `<`, `<=`, `>` and `>=`
        against a literal of an ordered type by a bisect slice of the
        sorted postings, any other leaf by a scan of the column. A Range
        (several such comparisons of one And on one property) reads the one
        slice where theirs overlap, plus the column's multi-valued documents
        whose stored bags pass every bound, each tested in place.
        The dirty documents are added and are unsure, since their values in
        memory may differ from the store; a clean document's stored bag is
        its live bag. All of it is read under the repository lock, so no
        flush moves a document from the dirty set to the store in between.
        """
        served = {}
        with self._lock:
            dirty = list(self._dirty)
            for pred in preds:
                if isinstance(pred, HasSchema):
                    hits = self.backend.stored_enforcing(pred.name)
                    pending = dict(self._pending_records())
                    if pending:  # their pending records replace their committed entries
                        laid = [d for d in hits if d not in pending]
                        laid += [d for d, record in pending.items() if pred.name in record.enforcement]
                        hits = dict.fromkeys(sorted(laid, key=itemgetter(0)))
                    served[pred] = ("schema", hits, ())
                elif isinstance(pred, MemberOf):
                    members = dict.fromkeys(sorted(self._members_of(pred.collection), key=itemgetter(0)))
                    served[pred] = ("members", members, ())
                elif isinstance(pred, ContentContains):
                    served[pred] = ("content", self.backend.stored_containing(pred.token.casefold()), ())
                elif isinstance(pred, Range):
                    bounds = [(leaf.literal, PASSING_SIGNS[leaf.op]) for leaf in pred.leaves]
                    served[pred] = ("column", self.backend.stored_compared(pred.prop, bounds) + dirty, dirty)
                else:
                    signs = PASSING_SIGNS.get(pred.op) if isinstance(pred, Cmp) else None
                    if signs is not None and pred.literal.vtype in ORDERED_TYPES:
                        stored = self.backend.stored_compared(pred.prop, [(pred.literal, signs)])
                    else:
                        stored = self.backend.stored_matches(pred.prop, functools.partial(bag_matches, pred))
                    served[pred] = ("column", stored + dirty, dirty)
        return served

    # ---- queries ----

    def _as_expr(self, query: Union[str, QueryExpr]) -> QueryExpr:
        return parse_query(query) if isinstance(query, str) else query

    def _compiled(self, query: Union[str, QueryExpr]) -> QueryPlan:
        """query's plan. The plan of a text comes from a least recently used
        cache of PLAN_CACHE_SIZE plans, keyed by the text and the number of
        schemas defined: the schema table only grows and a schema never
        changes its slice, so a plan compiled since the last definition is
        the plan the text compiles to now, and a definition makes every
        text compile again. An expression is compiled on every call.
        What a plan reads of the store is read when it executes."""
        key = None
        if isinstance(query, str):
            key = (query, len(self.backend.schema_defs()))  # counted before the plan reads the registry
            with self._lock:
                compiled = self._plans.get(key)
                if compiled is not None:
                    self._plans.move_to_end(key)
                    return compiled
        compiled = plan(self._as_expr(query), self.registry)
        with self._lock:
            self._plans_compiled += 1
            if key is not None:
                self._plans[key] = compiled
                if len(self._plans) > PLAN_CACHE_SIZE:
                    self._plans.popitem(last=False)
        return compiled

    def query(self, query: Union[str, QueryExpr]) -> Cursor:
        self._check_open()
        compiled = self._compiled(query)
        return Cursor(self, compiled, execute(compiled, self))

    def explain(self, query: Union[str, QueryExpr]) -> dict:
        """How query() would find its matches, without evaluating any document:
        the source of each leaf or Range used (schema, members, content,
        column, or scan for a full scan), the candidate count, whether the
        candidates are the answer (no candidate is evaluated), and whether
        the plan fell back to a full scan."""
        self._check_open()
        compiled = self._compiled(query)
        validate_references(compiled.expr, self)
        found = candidates(compiled, self)
        return {
            "sources": [
                {"source": source, "leaf": None if leaf is None else repr(leaf), "candidates": n}
                for source, leaf, n in found.sources
            ],
            "candidates": len(found.ids),
            "exact": found.exact,
            "full_scan": found.full_scan,
        }

    def match_now(self, query: Union[str, QueryExpr]) -> set[DocumentId]:
        """Reference evaluation: full scan, no planner."""
        return naive_eval(self._as_expr(query), self)

    def _prefetch(self, doc_id: DocumentId, compiled: QueryPlan) -> None:
        """Loads the slices of doc_id that a cursor of compiled reads: the
        plan's prefetch slices and those of its properties."""
        with self._lock:
            idoc = self._cache.get(doc_id)
            assigned = self._entry(doc_id, idoc)[1]
            slices = compiled.prefetch_slices.union([assigned[p] for p in compiled.props if p in assigned])
            if slices:
                self._materialize(self._counted(doc_id, idoc), slices)

    def subscribe(self, query: Union[str, QueryExpr], mode: SubscriptionMode = SubscriptionMode.TRANSITION) -> Subscription:
        self._check_open()
        compiled = self._compiled(self._as_expr(query))  # a subscription's own plan, never a cached one
        validate_references(compiled.expr, self)
        return self.hub.subscribe(compiled.expr, mode, compiled)

    # ---- writeback ----

    def flush(self) -> int:
        """Writes every dirty document out; returns how many wrote records.

        Visits only the documents changed since their last successful
        flush and commits them as one backend batch (group commit), so a
        flush writes the checkpoint at most once. It collects each
        document's records under the repository lock, one document at a
        time, so other work runs in between; then, under the lock, it
        commits every document dirty at that moment, collecting again any
        changed since (its stamp in the dirty map moved) and collecting any
        dirtied after the walk began.
        """
        with self._lock:
            dirty = list(self._dirty)
        collected: dict[DocumentId, tuple[int, _Writeback]] = {}
        for doc_id in dirty:
            with self._lock:  # once per document: other work runs in between
                stamp, idoc = self._dirty.get(doc_id), self._cache.get(doc_id)
                if idoc is None:
                    self._dirty.pop(doc_id, None)
                elif stamp is not None:
                    collected[doc_id] = (stamp, self._flush_doc_locked(doc_id, idoc))
        with self._lock:
            batch: dict[DocumentId, tuple[_IDoc, _Writeback]] = {}
            for doc_id, stamp in self._dirty.items():
                idoc = self._cache[doc_id]
                held = collected.get(doc_id)
                if held is None or held[0] != stamp:  # changed since, or dirtied after the walk began
                    held = (stamp, self._flush_doc_locked(doc_id, idoc))
                batch[doc_id] = (idoc, held[1])
            flushed = self._commit_locked(batch)
            self._evict_if_needed()
        return flushed

    def _commit_locked(self, batch: dict[DocumentId, tuple[_IDoc, _Writeback]]) -> int:
        """Commits the records of every document in batch as one backend
        batch; returns how many documents wrote records. Then each document
        is clean. A failed batch leaves every document dirty, with its
        pending record."""
        writing = [w for _, w in batch.values() if w.bags or w.meta or w.meta_deletes]
        if writing:
            self.backend.put_rows(
                meta=[record for w in writing for record in w.meta],
                meta_deletes=[record for w in writing for record in w.meta_deletes],
                bags={key: home for w in writing for key, home in w.bags.items()},
            )
            self._flushes += len(writing)
        for doc_id, (idoc, _) in batch.items():
            idoc.dirty_props.clear()
            idoc.pending = None
            self._dirty.pop(doc_id, None)
        if len(batch) > len(self._dirty):
            # a dict keeps its table as entries leave, and iterating it
            # walks every slot: every source reads the dirty set
            self._dirty = dict(self._dirty)
        self._file_clean(batch)
        return len(writing)

    def _flush_doc_locked(self, doc_id: DocumentId, idoc: _IDoc) -> _Writeback:
        """The records that write how the live document differs from what
        the backend has committed: each dirty property whose bag differs
        from its stored one, as (doc, prop) -> (slice, bag), the live bag
        itself in its canonical model.bag form (empty: the property is
        removed), and the metadata records. Changes nothing."""
        pending = idoc.pending
        backend = self.backend
        bags: dict[tuple[DocumentId, str], tuple[int, tuple[Value, ...]]] = {}
        if idoc.dirty_props:
            assigned = self._entry(doc_id, idoc)[1]
            stored = backend.stored_bags_of(doc_id)
            for prop in sorted(idoc.dirty_props):
                live = idoc.bags.get(prop, ())
                held = stored.get(prop, (None, ()))[1]
                if live is not held and live != held:
                    bags[doc_id, prop] = (assigned[prop], live) if live else (0, ())

        meta: list = []
        meta_deletes: list = []
        if pending is not None:
            if not self._stored(doc_id):
                meta.append(DocumentRecord(doc_id, pending.kind))
            assigned = backend.stored_assignments_of(doc_id)
            meta.extend(SliceAssignment(doc_id, p, s) for p, s in pending.assignments.items() if p not in assigned)
            enforced = backend.stored_enforcement_of(doc_id)
            meta.extend(Enforcement(doc_id, n, seq) for n, seq in pending.enforcement.items() if enforced.get(n) != seq)
            meta_deletes.extend(Enforcement(doc_id, n, 0) for n in enforced if n not in pending.enforcement)
            members = backend.stored_members().get(doc_id, frozenset())
            meta.extend(Membership(doc_id, m) for m in pending.members - members)
            meta_deletes.extend(Membership(doc_id, m) for m in members - pending.members)

        return _Writeback(bags, meta, meta_deletes)

    def _flush_loop(self) -> None:
        interval = max(self.config.flush_interval / 2, 0.01)
        while not self._flusher_stop.wait(interval):
            try:
                self.flush()
            except Exception:
                # state stays dirty in memory and the next pass retries;
                # close() flushes in the caller's thread and raises
                self._flush_failures += 1
                logger.exception("background flush failed; retrying")

    # ---- stats ----

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "documents": self.document_count(),
                "cached_documents": len(self._cache),
                "backend_fetches": self.backend.fetch_count,
                "cache_hits": self._hits,
                "cache_misses": self._misses,
                "evictions": self._evictions,
                "flushes": self._flushes,
                "flush_failures": self._flush_failures,
                "backend_batches": self.backend.batch_count,
                "backend_scans": self.backend.scan_count,
                "encoded_blocks": self.backend.encoded_blocks,
                "checksummed_bytes": self.backend.checksummed_bytes,
                "crc_combines": self.backend.crc_combines,
                "decoded_chunks": self.backend.decoded_chunks,
                "decoded_meta_chunks": self.backend.decoded_meta_chunks,
                "checkpoint_writes": self.backend.checkpoint_writes,
                "column_scans": self.backend.column_scans,
                "column_probes": self.backend.column_probes,
                "plans_compiled": self._plans_compiled,
                **self.hub.counts(),
            }

    def _check_open(self) -> None:
        if self._closed:
            raise StorageFailure("repository is closed")

