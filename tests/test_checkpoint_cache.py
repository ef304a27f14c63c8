"""The cached checkpoint encoder and the CRC32C kernel against plain references.

The reference encoder below follows the format in the `harland.store`
docstring: it sorts every record of a shadow model of the store and
checksums the body one byte at a time. A DiskBackend is driven through
random batches, failed ones included, and after every step its checkpoint
file must equal the reference bytes; a MemoryBackend, which encodes only
when asked for a checkpoint, is checked after every few steps. Opening a
store seeds the cache from the bytes it read, so each check also encodes
the reopened store cold, from its decoded tables alone, and a DiskBackend
writer now and then carries on with the seeded backend of a reopen.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

from harland import cli, store
from harland.engine import CacheConfig, Repository
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

from reference_loader import blocks_of


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


def cold_encode(backend) -> bytes:
    """The checkpoint encoded from the backend's tables alone, with no cached
    block, chunk or CRC, as a backend that never opened a file encodes it.
    Its rows are built first: a seeded PROPS chunk holds them until read."""
    backend._build_all()
    backend._sections = {name: store._Section() for name, _ in store._LAYOUT}
    return backend._encode_checkpoint()


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


def _square_and_multiply_x8n(n: int) -> int:
    """x^(8n) modulo the polynomial, one _multmodp per set bit of n."""
    p, k = 1 << 31, 3
    while n:
        if n & 1:
            p = store._multmodp(store._X2N[k], p)
        n >>= 1
        k += 1
    return p


def test_x8n_tables_match_square_and_multiply():
    rng = random.Random(11)
    lengths = [0, 1, 255, 256, 257, 65535, 65536, 2**24 - 1, 2**24, 2**32 - 1]
    lengths += [rng.randrange(2 ** rng.randrange(1, 33)) for _ in range(400)]
    for n in lengths:
        assert store._x8n(n) == _square_and_multiply_x8n(n), n


def test_crc32c_combine_over_random_splits_including_empty_parts():
    rng = random.Random(12)
    for _ in range(200):
        data = rng.randbytes(rng.choice((0, 1, rng.randrange(300), rng.randrange(70_000))))
        k = rng.choice((0, len(data), rng.randrange(len(data) + 1)))
        a, b = data[:k], data[k:]
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(data)


def test_combine_tree_matches_a_linear_fold():
    """Random edits of a part list (changes, inserts and deletes anywhere,
    truncations), some parts empty (node 0): the tree's root always equals
    folding the parts in order."""
    rng = random.Random(13)
    tree, parts = store._Tree(), []
    for _ in range(1500):
        for _ in range(rng.randrange(1, 4)):
            part = (0, 0) if rng.random() < 0.3 else (rng.randrange(2**32), rng.randrange(200))
            op = rng.random()
            if op < 0.4 or not parts:
                parts.insert(rng.randrange(len(parts) + 1), part)
            elif op < 0.7:
                parts[rng.randrange(len(parts))] = part
            else:
                del parts[rng.randrange(len(parts))]
        if rng.random() < 0.05:
            del parts[rng.randrange(len(parts) + 1) :]
        tree.refold([store._node(*part) for part in parts])
        crc = length = 0
        for part_crc, part_length in parts:
            crc = crc32c_combine(crc, part_crc, part_length)
            length += part_length
        assert tree.root() == (crc, length)



def test_crc32c_kernel_edges_match_bytewise_reference():
    """Lengths 0 to 8, and one byte either side of every size-class boundary
    of the fold chain: class c holds up to store._SLACK + 2^(c + 7) bits,
    and the first boundary, store._TAIL bytes, is the crossover from the
    table loop to the folds. Each with a random continuation value, and as
    bytes, bytearray and the offset views the loader passes."""
    assert crc32c(b"123456789") == 0xE3069283
    rng = random.Random(9)
    edges = [(store._SLACK + (1 << (c + 7))) // 8 for c in range(15)]
    assert edges[0] == store._TAIL
    lengths = list(range(9)) + [edge + k for edge in edges for k in (-1, 0, 1)]
    for n in lengths:
        data = rng.randbytes(n)
        padded = rng.randbytes(5) + data + rng.randbytes(3)
        value = rng.randrange(2**32)
        expected = reference_crc32c(data)
        continued = reference_crc32c(data, value)
        for form in (data, bytearray(data), memoryview(padded)[5 : 5 + n]):
            assert crc32c(form) == expected, n
            assert crc32c(form, value) == continued, n


def _text_digits(data: bytes, start: int, end: int) -> list[int]:
    """Offsets of the ASCII digits in the hex of the PROPS text values whose
    lines lie in data[start:end]. Flipping bit 0 of one leaves a hex digit,
    and of a text that was ASCII, an ASCII text: the record still decodes."""
    offsets = []
    pos = start
    for line in data[start:end].split(b"\n"):
        fields = line.split(b"\t")
        if len(fields) == 5 and fields[3].startswith(b"text:"):
            at = pos + len(b"\t".join(fields[:3])) + len(b"\ttext:")
            offsets += [at + i for i, byte in enumerate(fields[3][len(b"text:") :]) if byte in b"0123456789"]
        pos += len(line) + 1
    return offsets


def test_a_flipped_bit_in_a_long_chunk_a_short_chunk_or_a_gap_fails_the_checksum_at_open(tmp_path):
    """Open checksums each seeded chunk (here up to 35 KB, so the long fold
    chains run) and each gap between chunks. A bit flipped in a text value
    of the largest or the smallest PROPS chunk, or in a SCHEMA line's arity
    (1..1 to 0..1) between chunks, leaves every record decodable, so only
    the checksum can catch it."""
    root = tmp_path / "store"
    rng = random.Random(5)
    repo = Repository.in_memory(CacheConfig(max_docs=200, auto_flush=False), id_seed=5)
    repo.define_schema(Schema("note", {"Body": Constraint.from_text("text", "1..1")}))
    for i in range(100):
        handle = repo.create_document()
        handle.set_property("Body", [Value.text("".join(rng.choice("abc xyz 0123456789") for _ in range(500)))])
        handle.set_property("n", [Value.integer(i)])
        handle.enforce("note")
    repo.flush()
    repo.backend.checkpoint(root)
    repo.close()
    data = (root / CHECKPOINT_NAME).read_bytes()
    backend = DiskBackend.open(root)
    spans = sorted(  # the document sections' chunks; open checksums the SCHEMA block as a gap
        (data.index(chunk.data), len(chunk.data))
        for name in store._DOC_SECTIONS for chunk in backend._sections[name].chunks or ()
    )
    props = sorted(backend._sections["props"].chunks, key=lambda chunk: len(chunk.data))
    assert len(props[-1].data) >= 15 * 1024 and len(props[0].data) < len(props[-1].data) // 4
    offsets = []
    for chunk in (props[-1], props[0]):
        start = data.index(chunk.data)
        offsets += rng.sample(_text_digits(data, start, start + len(chunk.data)), 4)
    arity = data.index(b"Body:text:1..1") + len(b"Body:text:")
    assert not any(start <= arity < start + length for start, length in spans)  # in a gap
    offsets.append(arity)
    for offset in offsets:
        flipped = bytearray(data)
        flipped[offset] ^= 1
        (root / CHECKPOINT_NAME).write_bytes(flipped)
        with pytest.raises(CorruptStore, match="checksum mismatch"):
            DiskBackend.open(root)
    (root / CHECKPOINT_NAME).write_bytes(data)
    DiskBackend.open(root)


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

    def __init__(self, rng: random.Random, root, monkeypatch, memory: bool = False, random_ids: bool = False):
        self.rng = rng
        self.random_ids = random_ids
        self.checks = 0
        self.root = root
        self.monkeypatch = monkeypatch
        self.backend_class = MemoryBackend if memory else DiskBackend
        self.backend = MemoryBackend() if memory else DiskBackend.init(root)
        self.shadow = Shadow()
        self.seq = 0

    # ---- batches ----

    def _new_id(self) -> DocumentId:
        while True:
            pick = 1.0 if self.random_ids else self.rng.random()
            if pick < 0.25:  # ids divisible by 32
                doc_id = DocumentId((5 << 64) | 32 * self.rng.randrange(25))
            elif pick < 0.8:  # dense ids: several chunks per section
                doc_id = DocumentId((5 << 64) | self.rng.randrange(800))
            else:
                doc_id = DocumentId(self.rng.randrange(2**128))
            if doc_id not in self.shadow.docs:
                return doc_id

    def _value_rows(self, doc_id: DocumentId) -> tuple[list, list, list]:
        """Rows to add and row keys to delete for one document, plus new assignments."""
        rng = self.rng
        stored = self.shadow.rows.get(doc_id, {})
        # only a value's top ordinal, so that ordinals stay serial
        deletes = [
            r.key() for r in stored.values()
            if rng.random() < 0.4 and (r.prop, r.value, r.ordinal + 1) not in stored
        ]
        assigned = self.shadow.assignments.get(doc_id, {})
        rows, meta, taken = [], [], set(stored)
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
        reopened = self.backend_class.open(self.root)
        assert all(reopened._sections[name].chunks is not None for name in store._DOC_SECTIONS)
        _assert_chunk_nodes_checksum_their_bytes(self.backend)
        assert reopened._encode_checkpoint() == on_disk
        _assert_chunk_nodes_checksum_their_bytes(reopened)
        assert cold_encode(self.backend_class.open(self.root)) == on_disk
        self.checks += 1
        if self.backend_class is DiskBackend and self.checks % 4 == 0:
            self.backend = reopened  # later batches edit seeded chunks
        body = on_disk[: on_disk.rindex(b"END ")]
        for _ in range(3):
            k = self.rng.randrange(len(body) + 1)
            assert crc32c_combine(crc32c(body[:k]), crc32c(body[k:]), len(body) - k) == reference_crc32c(body)


def _assert_chunk_nodes_checksum_their_bytes(backend) -> None:
    """Each chunk whose node is set holds the CRC32C and length of its bytes."""
    for section in backend._sections.values():
        for chunk in section.chunks or ():
            if chunk.node is not None:
                assert chunk.node == store._node(crc32c(chunk.data), len(chunk.data))


@pytest.mark.parametrize("seed", [1, 2])
def test_random_batches_match_reference_encoder(tmp_path, monkeypatch, seed):
    writer = RandomWriter(random.Random(seed), tmp_path / "store", monkeypatch)
    writer.check()
    for _ in range(220):
        writer.step()
        writer.check()
    assert len(writer.shadow.docs) > 40  # enough documents for several chunks


def test_random_id_batches_match_reference_encoder(tmp_path, monkeypatch):
    """Every id random: each chunk spans ids far apart, none shares a quotient by 32."""
    writer = RandomWriter(random.Random(7), tmp_path / "store", monkeypatch, random_ids=True)
    writer.check()
    for _ in range(300):
        writer.step()
        writer.check()
    assert len(writer.shadow.docs) > 40


def test_live_tables_equal_a_reopened_backends(tmp_path, monkeypatch):
    """A batch, failed or not, leaves the tables as a reopen builds them from
    the file: an emptied map or set leaves its table."""
    writer = RandomWriter(random.Random(4), tmp_path / "store", monkeypatch)
    for _ in range(200):
        writer.step()
        reopened = DiskBackend.open(writer.root)
        reopened._build_all()
        for name in ("_docs", "_rows", "_enforcement", "_assignments", "_members", "_content"):
            assert getattr(writer.backend, name) == getattr(reopened, name), name
    assert len(writer.shadow.docs) > 30


@pytest.mark.parametrize("seed,every", [(3, 2), (6, 5)])
def test_memory_backend_checkpoints_match_reference_encoder(tmp_path, monkeypatch, seed, every):
    """Several batches between encodes: a chunk can lose and gain documents
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
    """Open seeds every document section from the bytes it read, so its first
    write encodes only the changed document's block; an in-memory repository,
    which never encodes, builds no cache."""
    root = tmp_path / "store"
    with Repository.init(root) as repo:
        repo.define_schema(Schema("note", {"Subject": Constraint.from_text("text", "0..1")}))
        collection = repo.create_document(DocumentKind.COLLECTION)
        for i in range(70):
            handle = repo.create_document(DocumentKind.CONTENT if i % 7 == 0 else DocumentKind.PLAIN)
            handle.set_property("Subject", [Value.text(f"s{i}")])
            handle.enforce("note")
            collection.add_member(handle)
            if i % 7 == 0:
                handle.put_content(b"alpha beta")
            if i == 36:
                target = handle.doc_id  # a plain document: its write changes its PROPS block only
    with Repository.open(root, CacheConfig(auto_flush=False)) as repo:
        sections = repo.backend._sections
        assert all(sections[name].chunks for name in store._DOC_SECTIONS)
        assert {name: len(blocks_of(s)) for name, s in sections.items()} == {
            "props": 70, "doc": 71, "schema": 0, "enforce": 70, "assign": 70, "member": 1, "content": 10,
        }
        handle = repo.get_document(target)
        handle.set_property("Subject", [Value.text("changed")])
        repo.flush()
        assert repo.stats()["encoded_blocks"] == 1
        assert repo.stats()["backend_batches"] == 1
        handle.unenforce("note")
        repo.flush()
        assert repo.stats()["encoded_blocks"] == 1  # the emptied ENFORCE entry leaves the section
        on_disk = (root / CHECKPOINT_NAME).read_bytes()
        assert cold_encode(DiskBackend.open(root)) == on_disk

    repo = Repository.in_memory()
    for _ in range(20):
        handle = repo.create_document()
        handle.set_property("Subject", [Value.text("y")])
    repo.flush()
    assert all(not blocks_of(s) and s.chunks is None for s in repo.backend._sections.values())
    assert repo.backend._image.levels == [[]]  # an empty image tree
    repo.close()



def test_open_checksums_the_body_once(tmp_path):
    root = tmp_path / "store"
    with Repository.init(root, id_seed=3) as repo:
        repo.define_schema(Schema("note", {"Subject": Constraint.from_text("text", "0..1")}))
        for i in range(100):
            handle = repo.create_document()
            handle.set_property("Subject", [Value.text(f"subject {i}")])
            handle.enforce("note")
    data = (root / CHECKPOINT_NAME).read_bytes()
    with Repository.open(root) as repo:
        assert repo.stats()["checksummed_bytes"] == data.rindex(b"\nEND ") + 1


def test_every_write_checksums_exactly_the_chunk_it_changed(tmp_path):
    """A chunk's CRC is the CRC of its joined bytes, so every write after
    open, the first into a seeded chunk or a later one, checksums the bytes
    of the chunk it changed: fewer than the section holds."""
    root = tmp_path / "store"
    with Repository.init(root, id_seed=3) as repo:
        for i in range(100):
            repo.create_document().set_property("Subject", [Value.text(f"subject {i}")])
        ids = repo.document_ids()
    with Repository.open(root, CacheConfig(auto_flush=False)) as repo:
        props = repo.backend._sections["props"]

        def write(doc_id, text):
            before = repo.stats()["checksummed_bytes"]
            repo.get_document(doc_id).set_property("Subject", [Value.text(text)])
            repo.flush()
            return repo.stats()["checksummed_bytes"] - before

        first, second = ids[40], ids[41]
        chunk = next(c for c in props.chunks if first.value in c.keys)
        assert second.value in chunk.keys and len(props.chunks) > 1
        for doc_id, text in ((first, "changed"), (second, "changed too"), (first, "changed again")):
            assert write(doc_id, text) == len(chunk.data) < sum(map(len, blocks_of(props).values()))


def test_first_write_after_reopen_of_a_store_without_props_folds_like_the_next(tmp_path):
    """With no PROPS record, open still folds the magic and PROPS lines and
    the META line as two leaves, as a write does, so the first write after
    a reopen re-folds no more of the image tree than the next one."""
    root = tmp_path / "store"
    with Repository.init(root, id_seed=7) as repo:
        collection = repo.create_document(DocumentKind.COLLECTION)
        for _ in range(200):
            collection.add_member(repo.create_document())
    with Repository.open(root, CacheConfig(auto_flush=False)) as repo:
        assert not repo.backend._sections["props"].chunks
        collection = repo.get_document(collection.doc_id)
        combines = []
        for _ in range(2):
            before = repo.stats()["crc_combines"]
            collection.add_member(repo.create_document())
            repo.flush()
            combines.append(repo.stats()["crc_combines"] - before)
        assert combines[0] <= 2 * combines[1]


def test_open_seeds_the_schema_block(tmp_path):
    """Open keeps the SCHEMA lines, when they are the canonical block, as the
    section's chunk, so the first write after open neither encodes nor
    checksums them again: two identical updates checksum the same bytes."""
    root = tmp_path / "store"
    with Repository.init(root, id_seed=7) as repo:
        repo.define_schema(Schema("note", {"Subject": Constraint.from_text("text", "0..1")}))
        handle = repo.create_document()
        handle.set_property("Subject", [Value.text("a")])
        handle.enforce("note")
    data = (root / CHECKPOINT_NAME).read_bytes()
    with Repository.open(root, CacheConfig(auto_flush=False)) as repo:
        (chunk,) = repo.backend._sections["schema"].chunks
        assert chunk.data == repo.backend._schema_block() and chunk.data in data
        handle = repo.get_document(handle.doc_id)
        checksummed = []
        for text in ("b", "c"):
            before = repo.stats()["checksummed_bytes"]
            handle.set_property("Subject", [Value.text(text)])
            repo.flush()
            checksummed.append(repo.stats()["checksummed_bytes"] - before)
        assert checksummed[0] == checksummed[1]

def test_body_that_is_not_utf8_is_a_corrupt_store(tmp_path):
    body = f"{store.MAGIC}\nPROPS\n\xff\nMETA\nCONTENT\n".encode("latin-1")
    root = tmp_path / "store"
    root.mkdir()
    (root / CHECKPOINT_NAME).write_bytes(body + f"END {crc32c(body)}\n".encode("ascii"))
    with pytest.raises(CorruptStore):
        DiskBackend.open(root)


def test_chunks_split_past_twice_their_size_and_go_when_empty():
    backend, shadow = MemoryBackend(), Shadow()

    def batch(meta=(), deleted=()):
        backend.put_rows(meta=meta)
        shadow.apply(meta=meta)
        for doc_id in deleted:
            backend.delete_document(doc_id)
            shadow.delete(doc_id)
        assert backend._encode_checkpoint() == shadow.encode()
        return [len(chunk.keys) for chunk in backend._sections["doc"].chunks]

    def docs(values):
        return [DocumentRecord(DocumentId(value), DocumentKind.PLAIN) for value in values]

    assert batch(docs(10_000 + 1_000 * i for i in range(40))) == [32, 8]
    sizes = batch(docs(range(10_001, 10_071)))  # 70 more ids inside the first chunk
    assert len(sizes) > 3 and max(sizes) <= 64 and sum(sizes) == 110
    assert batch(deleted=[DocumentId(10_000 + 1_000 * i) for i in range(32, 40)]) == sizes[:-1]
    assert batch(docs([5]))[0] == sizes[0] + 1  # below every id: the first chunk takes it
    assert batch(deleted=list(shadow.docs)) == []
    assert batch(docs([7])) == [1]


def _laid_out(backend) -> tuple[list[bytes], list[int]]:
    """The parts before END and the image tree's leaves, built afresh from
    every chunk of every section."""
    parts, leaves = [], []
    for name, header in store._LAYOUT:
        if header:
            parts.append(header)
            leaves.append(store._HEADER_NODES[name])
        chunks = backend._sections[name].chunks
        parts += [chunk.data for chunk in chunks]
        leaves += [chunk.node for chunk in chunks]
        leaves += [0] * (store._run(name, len(chunks)) - len(chunks))
    return parts, leaves


def test_each_encode_keeps_the_layout_a_full_one_builds():
    """The part list and the image tree that encodes keep from batch to
    batch equal those built afresh from the chunks, and each encode makes
    the combines that comparing its leaves with the last ones makes:
    through new chunks at the end, inserts that split a chunk, documents
    deleted until a chunk empties, several batches between two encodes,
    and sections whose padded runs of leaves grow past _RUN chunks and
    shrink back."""
    rng = random.Random(26)
    backend, shadow = MemoryBackend(), Shadow()
    live: list[int] = []
    top = 1 << 40

    def add(values):
        meta = [DocumentRecord(DocumentId(value), DocumentKind.PLAIN) for value in values]
        rows = [PropertyRow(DocumentId(value), 0, "n", Value.integer(value % 97), 0) for value in values]
        backend.put_rows(rows=rows, meta=meta)
        shadow.apply(rows, [], meta)
        live.extend(values)

    def delete(values):
        for value in values:
            backend.delete_document(DocumentId(value))
            shadow.delete(DocumentId(value))
            live.remove(value)

    for step in range(160):
        for _ in range(rng.randrange(1, 4)):
            pick = rng.random()
            if step < 80 and pick < 0.6:  # in id order, past every id
                values = [top + 1000 * k for k in range(1, rng.randrange(20, 160))]
                top = values[-1]
                add(values)
            elif pick < 0.75:  # ids among the others
                add(list({rng.randrange(1 << 40, top + 1) for _ in range(rng.randrange(1, 60))} - set(live)))
            elif live:  # a run of neighbours, in the middle or at the end
                ordered = sorted(live)
                start = rng.randrange(len(ordered)) if pick < 0.9 else max(len(ordered) - 200, 0)
                delete(ordered[start : start + rng.randrange(1, 200 if step >= 80 else 60)])
        tree = store._Tree()
        tree.levels = [list(level) for level in backend._image.levels]
        combines = backend.crc_combines
        parts = backend._checkpoint_parts()
        expected, leaves = _laid_out(backend)
        assert parts[:-1] == expected
        assert backend._image.levels[0] == leaves
        assert backend.crc_combines - combines == tree.refold(leaves)
        assert backend._image.levels == tree.levels
        _assert_chunk_nodes_checksum_their_bytes(backend)
    assert backend._encode_checkpoint() == shadow.encode()


def test_acceptance_store_encodes_cold_to_its_own_bytes(tmp_path):
    """The store of acceptance 8, reopened with no cached encoding: its
    tables alone encode to the file, so decode then encode is the identity."""
    store_dir = str(tmp_path / "store")
    blob = tmp_path / "receipt.bin"
    blob.write_bytes("total 12,50 €\n".encode("utf-8") + b"\xff\x00tail")

    def run(*argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["--store", store_dir, "--seed", "11", *argv]) == 0, argv
        return out.getvalue().strip()

    run("init")
    run("schema", "define", "note", "Title:text:1..1", "Tag:text:0..*", "Rank:float:0..1")
    doc_a, doc_b, doc_c = run("create"), run("create", "--kind", "collection"), run("create", "--kind", "content")
    run("set", doc_a, "Title", "fold the laundry")
    run("add", doc_a, "Tag", "home", "home", "weekend")
    run("set", doc_a, "Rank", "2.5")
    run("enforce", doc_a, "note")
    run("set", doc_c, "Title", "receipts march")
    run("enforce", doc_c, "note")
    run("members", "add", doc_b, doc_a)
    run("members", "add", doc_b, doc_c)
    run("content", "put", doc_c, str(blob))
    run("flush")
    on_disk = (tmp_path / "store" / CHECKPOINT_NAME).read_bytes()
    assert cold_encode(DiskBackend.open(store_dir)) == on_disk
    assert cold_encode(MemoryBackend.open(store_dir)) == on_disk


def _build_store(root, count: int) -> bytes:
    """A store of count documents whose records use every section and escape."""
    rng = random.Random(count)
    repo = Repository.in_memory(CacheConfig(max_docs=count + 1, auto_flush=False), id_seed=count)
    repo.define_schema(Schema("note", {"Title": Constraint.from_text("text", "1..1")}))
    collection = repo.create_document(DocumentKind.COLLECTION)
    for i in range(count - 1):
        handle = repo.create_document(DocumentKind.CONTENT if i % 9 == 0 else DocumentKind.PLAIN)
        handle.set_property("Title", [Value.text(rng.choice(("a\tb", "line\nbreak", "back\\", "plain")))])
        handle.set_property("n", [Value.integer(i), Value.timestamp(rng.randrange(10**12))])
        if i % 2:
            handle.enforce("note")
        if i % 3:
            collection.add_member(handle)
        if i % 9 == 0:
            handle.put_content(b"alpha beta")
    repo.flush()
    repo.backend.checkpoint(root)
    repo.close()
    return (root / CHECKPOINT_NAME).read_bytes()


def test_flipped_or_truncated_checkpoint_is_a_corrupt_store(tmp_path):
    root = tmp_path / "store"
    data = _build_store(root, 200)
    rng = random.Random(9)
    damaged = []
    for offset in rng.sample(range(len(data)), 200):
        flipped = bytearray(data)
        flipped[offset] ^= rng.randrange(1, 256)
        damaged.append(bytes(flipped))
    damaged += [data[:length] for length in rng.sample(range(len(data)), 50)]
    for bad in damaged:
        (root / CHECKPOINT_NAME).write_bytes(bad)
        with pytest.raises(CorruptStore):
            DiskBackend.open(root)


def _with_crc(body_lines: list[bytes]) -> bytes:
    body = b"".join(body_lines)
    return body + f"END {crc32c(body)}\n".encode("ascii")


def _move_first_run_to_end(lines: list[bytes], prefix: bytes) -> list[bytes]:
    """Moves the first id's run of records starting with prefix past the
    others: valid records, out of id order."""
    at = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    doc = lines[at[0]][len(prefix) :].split(b"\t")[0]
    run = [i for i in at if lines[i][len(prefix) :].split(b"\t")[0] == doc]
    moved = [lines[i] for i in run]
    kept = [line for i, line in enumerate(lines) if i not in run]
    end = at[-1] - len(run) + 1
    return kept[:end] + moved + kept[end:]


def _duplicate_first(lines: list[bytes], prefix: bytes) -> list[bytes]:
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    return lines[: i + 1] + lines[i:]


def _enforce_before_docs(lines: list[bytes]) -> list[bytes]:
    """Moves the first ENFORCE record before the DOC records: ids still
    increase, but the section's lines are split in two."""
    i = min(i for i, line in enumerate(lines) if line.startswith(b"ENFORCE\t"))
    first_doc = lines.index(b"META\n") + 1
    return lines[:first_doc] + [lines[i]] + lines[first_doc:i] + lines[i + 1 :]


def _within(lines: list[bytes], first: bytes, last, edit) -> list[bytes]:
    """Applies edit to the records after the marker line first, up to last."""
    lo = lines.index(first) + 1
    hi = lines.index(last) if last else len(lines)
    return lines[:lo] + edit(lines[lo:hi]) + lines[hi:]


@pytest.mark.parametrize("section,edit", [
    ("props", lambda lines: _within(lines, b"PROPS\n", b"META\n", lambda part: _move_first_run_to_end(part, b""))),
    ("props", lambda lines: _within(lines, b"PROPS\n", b"META\n", lambda part: _duplicate_first(part, b""))),
    ("doc", lambda lines: _duplicate_first(lines, b"DOC\t")),
    ("doc", lambda lines: _move_first_run_to_end(lines, b"DOC\t")),
    ("enforce", _enforce_before_docs),
    ("assign", lambda lines: _move_first_run_to_end(lines, b"ASSIGN\t")),
    ("member", lambda lines: _duplicate_first(lines, b"MEMBER\t")),
    ("content", lambda lines: _within(lines, b"CONTENT\n", None, lambda part: _duplicate_first(part, b""))),
])
def test_out_of_order_or_duplicated_records_load_unseeded(tmp_path, section, edit):
    root = tmp_path / "store"
    canonical = _build_store(root, 40)
    lines = canonical[: canonical.rindex(b"END ")].splitlines(keepends=True)
    (root / CHECKPOINT_NAME).write_bytes(_with_crc(edit(lines)))
    backend = DiskBackend.open(root)
    assert backend._sections[section].chunks is None
    assert all(backend._sections[name].chunks is not None for name in store._DOC_SECTIONS if name != section)
    assert cold_encode(DiskBackend.open(root)) == canonical  # the same state, whatever the record order
    backend.put_rows(meta=[DocumentRecord(DocumentId(12345), DocumentKind.PLAIN)])
    assert (root / CHECKPOINT_NAME).read_bytes() == cold_encode(DiskBackend.open(root))


def test_timestamp_beyond_the_calendar_is_a_corrupt_store(tmp_path):
    """A CRC-valid record whose timestamp offset moves it before year 1."""
    root = tmp_path / "store"
    canonical = _build_store(root, 3)
    lines = canonical[: canonical.rindex(b"END ")].splitlines(keepends=True)
    doc = lines[2].split(b"\t")[0]
    lines.insert(2, doc + b"\t0\tWhen\ttimestamp:0001-01-01T00:00:00+01:00\t0\n")
    (root / CHECKPOINT_NAME).write_bytes(_with_crc(lines))
    with pytest.raises(CorruptStore):
        DiskBackend.open(root)
