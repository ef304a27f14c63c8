"""The cached checkpoint encoder and the CRC32C kernel against plain references.

The reference encoder below follows the format in the `harland.store`
docstring: it sorts every record of a shadow model of the store and
checksums the body one byte at a time. A DiskBackend is driven through
random batches, failed ones included, and after every step its checkpoint
file must equal the reference bytes; a MemoryBackend, which encodes only
when asked for a checkpoint, is checked after every few steps.
"""

from __future__ import annotations

import random

import pytest

from harland import store
from harland.engine import Repository
from harland.errors import CorruptStore, StorageFailure
from harland.model import Constraint, DocumentId, DocumentKind, Schema, Value
from harland.store import (
    CHECKPOINT_NAME,
    DiskBackend,
    DocumentRecord,
    Enforcement,
    Membership,
    MemoryBackend,
    PropertyRow,
    SchemaDef,
    SliceAssignment,
    crc32c,
    crc32c_combine,
    encode_value,
)


# ---- references ----

def _bytewise_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _bytewise_table()


def reference_crc32c(data: bytes, value: int = 0) -> int:
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _line(*fields: str) -> str:
    escaped = (f.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r") for f in fields)
    return "\t".join(escaped)


class Shadow:
    """The store state as plain tables, changed only by batches that commit."""

    def __init__(self):
        self.docs: dict[DocumentId, DocumentKind] = {}
        self.rows: dict[DocumentId, dict[tuple, PropertyRow]] = {}
        self.schemas: dict[str, tuple[Schema, int]] = {}
        self.enforcement: dict[DocumentId, dict[str, int]] = {}
        self.assignments: dict[DocumentId, dict[str, int]] = {}
        self.members: dict[DocumentId, set[DocumentId]] = {}
        self.content: dict[DocumentId, tuple[int, frozenset[str]]] = {}

    def apply(self, rows=(), deletes=(), meta=(), meta_deletes=()) -> None:
        for record in meta:
            if isinstance(record, DocumentRecord):
                self.docs[record.doc_id] = record.kind
            elif isinstance(record, SchemaDef):
                self.schemas[record.schema.name] = (record.schema, record.slice_id)
            elif isinstance(record, Enforcement):
                self.enforcement.setdefault(record.doc_id, {})[record.schema] = record.seq
            elif isinstance(record, SliceAssignment):
                self.assignments.setdefault(record.doc_id, {})[record.prop] = record.slice_id
            else:
                self.members.setdefault(record.collection, set()).add(record.member)
        for record in meta_deletes:
            if isinstance(record, Enforcement):
                del self.enforcement[record.doc_id][record.schema]
            else:
                self.members[record.collection].discard(record.member)
        for key in deletes:
            del self.rows[key[0]][key[1:]]
        for row in rows:
            self.rows.setdefault(row.doc_id, {})[row.key()[1:]] = row

    def delete(self, doc_id: DocumentId) -> None:
        for table in (self.docs, self.rows, self.enforcement, self.assignments, self.members, self.content):
            table.pop(doc_id, None)
        for members in self.members.values():
            members.discard(doc_id)

    def encode(self) -> bytes:
        lines = [store.MAGIC, "PROPS"]
        for doc_id in sorted(self.rows):
            rows = self.rows[doc_id].values()
            for r in sorted(rows, key=lambda r: (r.slice_id, r.prop, encode_value(r.value), r.ordinal)):
                lines.append(_line(str(doc_id), str(r.slice_id), r.prop, encode_value(r.value), str(r.ordinal)))
        lines.append("META")
        for doc_id in sorted(self.docs):
            lines.append(_line("DOC", str(doc_id), self.docs[doc_id].value))
        for schema, slice_id in sorted(self.schemas.values(), key=lambda pair: pair[1]):
            parts = ["SCHEMA", schema.name, str(slice_id)]
            for prop in sorted(schema.constraints):
                c = schema.constraints[prop]
                parts.append(f"{prop}:{c.value_type.value}:{c.arity_text()}")
            lines.append(_line(*parts))
        for doc_id in sorted(self.enforcement):
            for name, seq in sorted(self.enforcement[doc_id].items(), key=lambda kv: kv[1]):
                lines.append(_line("ENFORCE", str(doc_id), str(seq), name))
        for doc_id in sorted(self.assignments):
            for prop in sorted(self.assignments[doc_id]):
                lines.append(_line("ASSIGN", str(doc_id), prop, str(self.assignments[doc_id][prop])))
        for collection in sorted(self.members):
            for member in sorted(self.members[collection]):
                lines.append(_line("MEMBER", str(collection), str(member)))
        lines.append("CONTENT")
        for doc_id in sorted(self.content):
            length, tokens = self.content[doc_id]
            lines.append(_line(str(doc_id), str(length), " ".join(sorted(tokens))))
        body = ("\n".join(lines) + "\n").encode("utf-8")
        return body + f"END {reference_crc32c(body)}\n".encode("ascii")


# ---- the CRC32C kernel and combine ----

def test_crc32c_matches_bytewise_reference():
    assert crc32c(b"123456789") == 0xE3069283
    rng = random.Random(7)
    for length in list(range(20)) + [rng.randrange(20, 5000) for _ in range(60)]:
        data = rng.randbytes(length)
        value = rng.randrange(2**32)
        assert crc32c(data) == reference_crc32c(data)
        assert crc32c(data, value) == reference_crc32c(data, value)


def test_crc32c_combine_matches_crc_of_joined_bytes():
    rng = random.Random(8)
    for _ in range(300):
        data = rng.randbytes(rng.randrange(0, 3000))
        k = rng.randrange(len(data) + 1)
        assert crc32c_combine(crc32c(data[:k]), crc32c(data[k:]), len(data) - k) == crc32c(data)
    assert crc32c_combine(0, 0, 0) == 0
    assert crc32c_combine(crc32c(b"abc"), 0, 0) == crc32c(b"abc")


# ---- random batches against the reference encoder ----

SCHEMA_TYPES = (("text", "0..*"), ("integer", "0..1"), ("timestamp", "1..1"), ("boolean", "0..*"))
PROPS = ("Subject", "size", "tab\there", "back\\slash", "Ünï", "new\nline")


def _random_value(rng: random.Random) -> Value:
    pick = rng.randrange(6)
    if pick == 0:
        return Value.text(rng.choice(("x", "a\tb", "line\nbreak", "back\\", "ünïcode", "")))
    if pick == 1:
        return Value.binary(rng.randbytes(rng.randrange(4)))
    if pick == 2:
        return Value.integer(rng.randrange(-5, 5))
    if pick == 3:
        return Value.floating(rng.choice((0.5, -0.0, 1e300, 2.0)))
    if pick == 4:
        return Value.boolean(rng.random() < 0.5)
    return Value.timestamp(rng.randrange(0, 10**12))


class RandomWriter:
    """Random batches on one backend, mirrored into a Shadow on success.

    A DiskBackend writes its checkpoint on every batch; a MemoryBackend
    (`memory=True`) only when check() asks it for one."""

    def __init__(self, rng: random.Random, root, monkeypatch, memory: bool = False):
        self.rng = rng
        self.root = root
        self.monkeypatch = monkeypatch
        self.backend_class = MemoryBackend if memory else DiskBackend
        self.backend = MemoryBackend() if memory else DiskBackend.init(root)
        self.shadow = Shadow()
        self.seq = 0

    # ---- batches ----

    def _new_id(self) -> DocumentId:
        while True:
            pick = self.rng.random()
            if pick < 0.25:  # the first id of a group of 32
                doc_id = DocumentId((5 << 64) | 32 * self.rng.randrange(25))
            elif pick < 0.8:  # dense ids: several groups per section
                doc_id = DocumentId((5 << 64) | self.rng.randrange(800))
            else:
                doc_id = DocumentId(self.rng.randrange(2**128))
            if doc_id not in self.shadow.docs:
                return doc_id

    def _value_rows(self, doc_id: DocumentId) -> tuple[list, list, list]:
        """Rows to add and row keys to delete for one document, plus new assignments."""
        rng = self.rng
        existing = list(self.shadow.rows.get(doc_id, {}).values())
        deletes = [r.key() for r in existing if rng.random() < 0.4]
        assigned = self.shadow.assignments.get(doc_id, {})
        rows, meta, taken = [], [], set(self.shadow.rows.get(doc_id, {}))
        taken -= {key[1:] for key in deletes}
        for _ in range(rng.randrange(4)):
            prop = rng.choice(PROPS)
            slice_id = assigned.get(prop)
            if slice_id is None:
                slice_id = rng.randrange(3)
                assigned = {**assigned, prop: slice_id}
                meta.append(SliceAssignment(doc_id, prop, slice_id))
            value = _random_value(rng)
            ordinal = 0
            while (prop, value, ordinal) in taken:
                ordinal += 1
            taken.add((prop, value, ordinal))
            rows.append(PropertyRow(doc_id, slice_id, prop, value, ordinal))
        return rows, deletes, meta

    def step(self) -> None:
        rng, shadow = self.rng, self.shadow
        docs = sorted(shadow.docs)
        collections = [d for d in docs if shadow.docs[d] is DocumentKind.COLLECTION]
        content_docs = [d for d in docs if shadow.docs[d] is DocumentKind.CONTENT]
        op = rng.choice(("create",) * (4 if len(docs) < 80 else 1)
                        + ("rows", "rows", "multi", "enforce", "retract", "member", "unmember",
                           "delete", "content", "schema"))
        if op != "create" and not docs:
            op = "create"
        if op == "create":
            doc_id = self._new_id()
            kind = rng.choice(list(DocumentKind))
            meta = [DocumentRecord(doc_id, kind)]
            rows, _, assign = self._value_rows(doc_id)
            meta += assign
            for name in rng.sample(sorted(shadow.schemas), min(len(shadow.schemas), rng.randrange(3))):
                self.seq += 1
                meta.append(Enforcement(doc_id, name, self.seq))
            self.batch(rows=rows, meta=meta)
        elif op in ("rows", "multi"):
            rows, deletes, meta = [], [], []
            for doc_id in rng.sample(docs, min(len(docs), 1 if op == "rows" else 3)):
                r, d, m = self._value_rows(doc_id)
                rows += r
                deletes += d
                meta += m
            self.batch(rows=rows, deletes=deletes, meta=meta)
        elif op == "enforce":
            doc_id = rng.choice(docs)
            free = sorted(set(shadow.schemas) - set(shadow.enforcement.get(doc_id, {})))
            if free:
                self.seq += 1
                self.batch(meta=[Enforcement(doc_id, rng.choice(free), self.seq)])
        elif op == "retract":
            enforced = [(d, name) for d in docs for name in sorted(shadow.enforcement.get(d, {}))]
            if enforced:
                doc_id, name = rng.choice(enforced)
                self.batch(meta_deletes=[Enforcement(doc_id, name, 0)])
        elif op == "member":
            if collections:
                collection = rng.choice(collections)
                candidates = [d for d in docs if d not in shadow.members.get(collection, set())]
                if candidates:
                    self.batch(meta=[Membership(collection, rng.choice(candidates))])
        elif op == "unmember":
            pairs = [(c, m) for c in sorted(shadow.members) for m in sorted(shadow.members[c])]
            if pairs:
                self.batch(meta_deletes=[Membership(*rng.choice(pairs))])
        elif op == "delete":
            members = sorted({m for ms in shadow.members.values() for m in ms})
            doc_id = rng.choice(members if members and rng.random() < 0.5 else docs)
            self.call(lambda: self.backend.delete_document(doc_id), lambda: shadow.delete(doc_id))
        elif op == "content":
            if content_docs:
                doc_id = rng.choice(content_docs)
                data = rng.choice(("alpha beta", "Gamma\tdelta gamma", "", "naïve café 42")).encode("utf-8")
                ref = store.ContentRef(doc_id, len(data), store.tokenize(data))
                self.call(
                    lambda: self.backend.content_write(doc_id, data),
                    lambda: shadow.content.__setitem__(doc_id, (ref.length, ref.tokens)),
                )
        else:
            name = f"schema-{len(shadow.schemas)}\t{rng.randrange(10)}"
            constraints = {
                rng.choice(PROPS): Constraint.from_text(*rng.choice(SCHEMA_TYPES)) for _ in range(rng.randrange(1, 4))
            }
            slice_id = len(shadow.schemas) + 1
            self.batch(meta=[SchemaDef(Schema(name, constraints), slice_id)])

    def batch(self, rows=(), deletes=(), meta=(), meta_deletes=()) -> None:
        self.call(
            lambda: self.backend.put_rows(rows=rows, deletes=deletes, meta=meta, meta_deletes=meta_deletes),
            lambda: self.shadow.apply(rows, deletes, meta, meta_deletes),
        )

    def call(self, write, mirror) -> None:
        """Runs one write, failing it now and then before or after encoding."""
        failure = self.rng.random()
        if failure < 0.08:
            self.backend.fail_next_persist = True
        elif failure < 0.16 and self.backend_class is MemoryBackend:
            failure = 1.0  # it writes no file during a batch
        elif failure < 0.16:
            real_write = store._atomic_write

            def fail_checkpoint(target, data):
                if target.name == CHECKPOINT_NAME:
                    raise StorageFailure("injected checkpoint write failure")
                real_write(target, data)

            self.monkeypatch.setattr(store, "_atomic_write", fail_checkpoint)
        try:
            if failure < 0.16:
                with pytest.raises(StorageFailure):
                    write()
            else:
                write()
                mirror()
        finally:
            self.monkeypatch.undo()
            self.backend.fail_next_persist = False

    # ---- checks ----

    def check(self) -> None:
        if self.backend_class is MemoryBackend:
            self.backend.checkpoint(self.root)
        on_disk = (self.root / CHECKPOINT_NAME).read_bytes()
        assert on_disk == self.shadow.encode()
        assert self.backend._encode_checkpoint() == on_disk
        assert self.backend_class.open(self.root)._encode_checkpoint() == on_disk
        body = on_disk[: on_disk.rindex(b"END ")]
        for _ in range(3):
            k = self.rng.randrange(len(body) + 1)
            assert crc32c_combine(crc32c(body[:k]), crc32c(body[k:]), len(body) - k) == reference_crc32c(body)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_batches_match_reference_encoder(tmp_path, monkeypatch, seed):
    writer = RandomWriter(random.Random(seed), tmp_path / "store", monkeypatch)
    writer.check()
    for _ in range(220):
        writer.step()
        writer.check()
    assert len(writer.shadow.docs) > 40  # enough documents for several groups


@pytest.mark.parametrize("seed,every", [(3, 2), (6, 5)])
def test_memory_backend_checkpoints_match_reference_encoder(tmp_path, monkeypatch, seed, every):
    """Several batches between encodes: a group can lose and gain documents
    between two checkpoints and keep its size."""
    writer = RandomWriter(random.Random(seed), tmp_path / "store", monkeypatch, memory=True)
    writer.check()
    for step in range(1, 301):
        writer.step()
        if step % every == 0:
            writer.check()
    assert len(writer.shadow.docs) > 40


def test_group_that_keeps_its_size_across_two_deletes(tmp_path):
    """Ids 32, 33, 34 and 64, 65 are encoded, then 33 and 64 are deleted:
    32, 34 and 65 are three cached blocks, as many as 32, 33 and 34 were."""
    backend = MemoryBackend()
    ids = [DocumentId(n) for n in (32, 33, 34, 64, 65)]
    backend.put_rows(meta=[DocumentRecord(doc_id, DocumentKind.PLAIN) for doc_id in ids])
    backend.checkpoint(tmp_path / "first")
    backend.delete_document(ids[1])
    backend.delete_document(ids[3])
    backend.checkpoint(tmp_path / "second")
    reopened = MemoryBackend.open(tmp_path / "second")
    assert sorted(reopened.meta_view().docs) == [ids[0], ids[2], ids[4]]


def test_open_and_memory_backends_build_no_caches(tmp_path):
    root = tmp_path / "store"
    with Repository.init(root) as repo:
        repo.create_document().set_property("Subject", [Value.text("x")])
    backend = DiskBackend.open(root)
    assert all(not s.blocks and s.joined is None for s in backend._sections.values())
    backend._encode_checkpoint()
    assert any(s.blocks for s in backend._sections.values())

    repo = Repository.in_memory()
    for _ in range(20):
        handle = repo.create_document()
        handle.set_property("Subject", [Value.text("y")])
    repo.flush()
    assert all(not s.blocks and s.joined is None for s in repo.backend._sections.values())
    repo.close()


def test_body_that_is_not_utf8_is_a_corrupt_store(tmp_path):
    body = f"{store.MAGIC}\nPROPS\n\xff\nMETA\nCONTENT\n".encode("latin-1")
    root = tmp_path / "store"
    root.mkdir()
    (root / CHECKPOINT_NAME).write_bytes(body + f"END {crc32c(body)}\n".encode("ascii"))
    with pytest.raises(CorruptStore):
        DiskBackend.open(root)
