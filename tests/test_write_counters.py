"""What each write operation counts on a document the cache has evicted.

Every mutator runs on a flushed document of a disk store that is not in
the cache, as a change and in each no-op form it has. The test asserts the
deltas of `cache_hits`, `cache_misses`, `backend_fetches` and `commits`
in `Repository.stats()` around the one call, so a change to how a write
reads its document shows here: a second cache probe, a fetch of a slice
the check does not read, or a commit numbered for a no-op.
"""

from __future__ import annotations

import pytest

from harland.engine import CacheConfig, Repository
from harland.model import Constraint, DocumentKind, Schema, Value

KEYS = ("cache_hits", "cache_misses", "backend_fetches", "commits")


def _store(root):
    """A flushed store and its documents: doc (Subject and size set, note
    enforced), a collection holding member, other (in no collection), a
    content document and two fillers."""
    repo = Repository.init(root, CacheConfig(max_docs=2, auto_flush=False), id_seed=7)
    repo.define_schema(Schema("note", {"Subject": Constraint.from_text("text", "1..1")}))
    repo.define_schema(Schema("sized", {"size": Constraint.from_text("integer", "0..1")}))
    doc = repo.create_document()
    doc.set_property("Subject", [Value.text("a")])
    doc.set_property("size", [Value.integer(3)])
    doc.enforce("note")
    member, other = repo.create_document(), repo.create_document()
    collection = repo.create_document(DocumentKind.COLLECTION)
    collection.add_member(member)
    content = repo.create_document(DocumentKind.CONTENT)
    content.put_content(b"hello world")
    fillers = [repo.create_document() for _ in range(2)]
    for filler in fillers:
        filler.set_property("Subject", [Value.text("f")])
    repo.flush()
    docs = {"doc": doc, "member": member, "other": other, "collection": collection, "content": content}
    return repo, docs, fillers


# operation -> (what it does to the store's documents, its deltas in KEYS order)
OPERATIONS = {
    "set_property": (lambda d: d["doc"].set_property("Subject", [Value.text("b")]), (0, 1, 1, 1)),
    "set_property, same bag": (lambda d: d["doc"].set_property("Subject", [Value.text("a")]), (0, 1, 1, 0)),
    "set_property, new property": (lambda d: d["doc"].set_property("free", [Value.integer(1)]), (0, 1, 1, 1)),
    "add_values": (lambda d: d["doc"].add_values("free", [Value.integer(1)]), (0, 1, 1, 1)),
    "remove_values, absent value": (lambda d: d["doc"].remove_values("Subject", [Value.text("z")]), (0, 1, 1, 0)),
    "remove_property": (lambda d: d["doc"].remove_property("size"), (0, 1, 1, 1)),
    "enforce": (lambda d: d["doc"].enforce("sized"), (0, 1, 1, 1)),
    "enforce, already enforced": (lambda d: d["doc"].enforce("note"), (0, 0, 0, 0)),
    "unenforce": (lambda d: d["doc"].unenforce("note"), (0, 1, 0, 1)),
    "unenforce, not enforced": (lambda d: d["doc"].unenforce("sized"), (0, 0, 0, 0)),
    "add_member": (lambda d: d["collection"].add_member(d["other"]), (0, 1, 0, 1)),
    "add_member, existing member": (lambda d: d["collection"].add_member(d["member"]), (0, 1, 0, 0)),
    "remove_member": (lambda d: d["collection"].remove_member(d["member"]), (0, 1, 0, 1)),
    "remove_member, absent member": (lambda d: d["collection"].remove_member(d["other"]), (0, 1, 0, 0)),
    "put_content": (lambda d: d["content"].put_content(b"new words"), (0, 1, 0, 1)),
    "delete": (lambda d: d["doc"].delete(), (0, 1, 0, 1)),
}


@pytest.mark.parametrize("name", OPERATIONS)
def test_write_on_an_evicted_document_moves_these_counters(tmp_path, name):
    operation, expected = OPERATIONS[name]
    repo, docs, fillers = _store(tmp_path / "store")
    with repo:
        for filler in fillers:  # two reads fill the two-document cache
            filler.snapshot()
        assert not any(handle.doc_id in repo._cache for handle in docs.values())
        before = repo.stats()
        operation(docs)
        after = repo.stats()
        assert tuple(after[key] - before[key] for key in KEYS) == expected
