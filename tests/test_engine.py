"""Repository behavior: cache, slices, writeback, lifecycle, queries."""

import threading
import time

import pytest

from harland.engine import CacheConfig, Repository
from harland.errors import (
    NotConforming,
    SchemaViolation,
    StorageFailure,
    UnknownDocument,
    WrongKind,
)
from harland.model import Constraint, DocumentKind, Schema, Value
from harland.schemas import Reason


def todo_schema():
    return Schema(
        "todo",
        {
            "Subject": Constraint.from_text("text", "1..1"),
            "Received": Constraint.from_text("timestamp", "1..1"),
            "Deadline": Constraint.from_text("timestamp", "1..1"),
            "Categories": Constraint.from_text("text", "0..*"),
        },
    )


def fresh(tmp_path=None, **kw):
    kw.setdefault("config", CacheConfig(auto_flush=False))
    kw.setdefault("id_seed", 42)
    if tmp_path is None:
        return Repository.in_memory(**kw)
    return Repository.init(tmp_path / "store", **kw)


def seed_todo(repo):
    repo.define_schema(todo_schema())
    h = repo.create_document()
    h.set_property("Subject", [Value.text("write the report")])
    h.set_property("Received", [Value.timestamp_text("2001-05-01T09:00:00Z")])
    h.set_property("Deadline", [Value.timestamp_text("2001-06-01T00:00:00Z")])
    h.enforce("todo")
    return h


def test_create_get_and_kinds():
    with fresh() as repo:
        plain = repo.create_document()
        coll = repo.create_document(DocumentKind.COLLECTION)
        blob = repo.create_document(DocumentKind.CONTENT)
        assert plain.kind is DocumentKind.PLAIN
        assert repo.get_document(str(coll.doc_id)).kind is DocumentKind.COLLECTION
        assert repo.get_document(blob.doc_id).doc_id == blob.doc_id
        assert repo.document_count() == 3
        with pytest.raises(UnknownDocument):
            repo.get_document("00000000-0000-0000-0000-00000000beef")


def test_seeded_ids_are_deterministic():
    a = fresh()
    b = fresh()
    ids_a = [a.create_document().doc_id for _ in range(5)]
    ids_b = [b.create_document().doc_id for _ in range(5)]
    assert ids_a == ids_b
    a.close()
    b.close()


def test_bag_mutation_semantics():
    with fresh() as repo:
        h = repo.create_document()
        h.set_property("tags", [Value.text("a"), Value.text("b")])
        h.add_values("tags", [Value.text("a")])
        got = [v.payload for v in h.values("tags")]
        assert got == ["a", "a", "b"]
        h.remove_values("tags", [Value.text("a")])
        assert [v.payload for v in h.values("tags")] == ["a", "b"]
        h.remove_values("tags", [Value.text("zzz")])  # absent: ignored
        assert len(h.values("tags")) == 2
        h.remove_property("tags")
        assert h.values("tags") == ()
        assert "tags" not in h.snapshot().properties


def test_unknown_property_reads_empty_without_fetch():
    with fresh() as repo:
        h = repo.create_document()
        before = repo.backend.fetch_count
        assert h.values("never-written") == ()
        assert repo.backend.fetch_count == before


def test_enforce_rejects_nonconforming():
    with fresh() as repo:
        repo.define_schema(todo_schema())
        h = repo.create_document()
        h.set_property("Subject", [Value.text("x")])
        with pytest.raises(NotConforming) as err:
            h.enforce("todo")
        reasons = {(v.prop, v.reason) for v in err.value.violations}
        assert ("Received", Reason.MISSING_REQUIRED) in reasons
        assert ("Deadline", Reason.MISSING_REQUIRED) in reasons
        assert h.enforced() == ()


def test_enforced_schema_blocks_bad_mutations():
    with fresh() as repo:
        h = seed_todo(repo)
        with pytest.raises(SchemaViolation) as err:
            h.remove_property("Subject")
        assert err.value.violations[0].reason is Reason.TOO_FEW_VALUES
        with pytest.raises(SchemaViolation) as err:
            h.add_values("Subject", [Value.text("second")])
        assert err.value.violations[0].reason is Reason.TOO_MANY_VALUES
        with pytest.raises(SchemaViolation) as err:
            h.set_property("Deadline", [Value.integer(5)])
        assert err.value.violations[0].reason is Reason.WRONG_TYPE
        # failed mutations leave no trace
        assert [v.payload for v in h.values("Subject")] == ["write the report"]


def test_unenforce_retains_values():
    with fresh() as repo:
        h = seed_todo(repo)
        h.unenforce("todo")
        assert h.enforced() == ()
        assert h.values("Subject") != ()
        h.remove_property("Subject")  # no longer blocked
        assert h.values("Subject") == ()


def test_enforce_is_idempotent_and_ordered():
    with fresh() as repo:
        repo.define_schema(Schema("audited", {}))
        h = seed_todo(repo)
        h.enforce("audited")
        h.enforce("todo")  # repeat keeps original position
        assert h.enforced() == ("todo", "audited")


def test_enforcement_order_is_tracked():
    with fresh() as repo:
        repo.define_schema(Schema("email", {}))
        repo.define_schema(Schema("to-do", {}))
        h = repo.create_document()
        h.enforce("to-do")
        h.enforce("email")
        assert h.enforced() == ("to-do", "email")
        h.unenforce("to-do")
        assert h.enforced() == ("email",)
        h.enforce("to-do")  # re-enforce lands at the end
        assert h.enforced() == ("email", "to-do")


def test_slice_assignment_follows_enforcement():
    with fresh() as repo:
        repo.define_schema(todo_schema())  # slice 1
        repo.define_schema(Schema("notes", {"Body": Constraint.from_text("text", "0..*")}))  # slice 2
        h = repo.create_document()
        h.set_property("Subject", [Value.text("s")])  # todo registered first, not enforced
        h.set_property("Body", [Value.text("b")])
        h.set_property("Freeform", [Value.text("f")])  # in no schema
        repo.flush()
        rows = {r.prop: r.slice_id for r in repo.backend.scan_rows(h.doc_id)}
        assert rows == {"Subject": 1, "Body": 2, "Freeform": 0}


def test_slice_assignment_prefers_earliest_enforced_schema():
    with fresh() as repo:
        repo.define_schema(Schema("a", {"shared": Constraint.from_text("text", "0..*")}))  # slice 1
        repo.define_schema(Schema("b", {"shared": Constraint.from_text("text", "0..*")}))  # slice 2
        h = repo.create_document()
        h.enforce("b")
        h.enforce("a")
        h.set_property("shared", [Value.text("x")])
        repo.flush()
        rows = {r.prop: r.slice_id for r in repo.backend.scan_rows(h.doc_id)}
        assert rows["shared"] == 2  # b was enforced first


def test_slice_assignment_is_sticky():
    with fresh() as repo:
        h = seed_todo(repo)
        h.unenforce("todo")
        h.set_property("Subject", [Value.text("rewritten")])
        repo.flush()
        rows = {r.prop: r.slice_id for r in repo.backend.scan_rows(h.doc_id)}
        assert rows["Subject"] == 1  # original assignment survives unenforce


def test_cold_read_fetches_whole_slice_once(tmp_path):
    with fresh(tmp_path) as repo:
        h = seed_todo(repo)
        h.set_property("Categories", [Value.text("work"), Value.text("urgent")])
        doc_id = h.doc_id
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as repo:
        h = repo.get_document(doc_id)
        base = repo.backend.fetch_count
        assert h.values("Subject")[0].payload == "write the report"
        assert repo.backend.fetch_count - base == 1
        # the rest of the schema came along in that one fetch
        assert h.values("Received") != ()
        assert h.values("Deadline") != ()
        assert len(h.values("Categories")) == 2
        assert repo.backend.fetch_count - base == 1


def test_failed_slice_fetch_leaves_the_slice_unloaded(tmp_path, monkeypatch):
    with fresh(tmp_path) as repo:
        doc_id = seed_todo(repo).doc_id
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as repo:
        h = repo.get_document(doc_id)
        fetch = repo.backend.fetch_slices

        def failing(*args):
            monkeypatch.setattr(repo.backend, "fetch_slices", fetch)
            raise StorageFailure("injected fetch failure")

        monkeypatch.setattr(repo.backend, "fetch_slices", failing)
        with pytest.raises(StorageFailure):
            h.values("Subject")
        assert h.values("Subject")[0].payload == "write the report"  # fetched again


def test_lru_evicts_only_clean_documents():
    with fresh(config=CacheConfig(max_docs=4, auto_flush=False)) as repo:
        handles = [repo.create_document() for _ in range(10)]
        for i, h in enumerate(handles):
            h.set_property("n", [Value.integer(i)])
        # everything is dirty: nothing can be evicted
        assert repo.stats()["cached_documents"] == 10
        assert repo.stats()["evictions"] == 0
        repo.flush()
        for h in handles:
            h.values("n")  # touch; clean docs now yield to the cap
        stats = repo.stats()
        assert stats["cached_documents"] <= 5
        assert stats["evictions"] >= 5
        # evicted documents are still fully readable
        assert all(h.values("n") != () for h in handles)


def test_eviction_takes_the_least_recently_used_clean_document():
    with fresh(config=CacheConfig(max_docs=3, auto_flush=False)) as repo:
        a, b, c, d = handles = [repo.create_document() for _ in range(4)]
        for h in handles:
            h.set_property("n", [Value.integer(1)])
        repo.flush()
        assert list(repo._cache) == [b.doc_id, c.doc_id, d.doc_id]
        b.values("n")
        a.values("n")  # a miss: c is now the least recently used
        assert list(repo._cache) == [d.doc_id, b.doc_id, a.doc_id]
        d.set_property("n", [Value.integer(2)])
        b.values("n")
        a.values("n")
        c.values("n")  # d is older but dirty, so b goes
        assert list(repo._cache) == [d.doc_id, a.doc_id, c.doc_id]
        assert repo.stats()["evictions"] == 3


def test_flush_diffs_rows(tmp_path):
    with fresh(tmp_path) as repo:
        h = repo.create_document()
        h.set_property("tags", [Value.text("a"), Value.text("a"), Value.text("b")])
        repo.flush()
        assert len(repo.backend.scan_rows(h.doc_id)) == 3
        h.remove_values("tags", [Value.text("a")])
        h.add_values("tags", [Value.text("c")])
        repo.flush()
        got = sorted((r.prop, r.value.payload, r.ordinal) for r in repo.backend.scan_rows(h.doc_id))
        assert got == [("tags", "a", 0), ("tags", "b", 0), ("tags", "c", 0)]


def test_background_flusher_writes_without_flush_call():
    repo = Repository.in_memory(config=CacheConfig(flush_interval=0.05), id_seed=1)
    try:
        h = repo.create_document()
        h.set_property("x", [Value.integer(1)])
        deadline = time.monotonic() + 5
        while repo.stats()["flushes"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert repo.stats()["flushes"] >= 1
        assert repo.backend.scan_rows(h.doc_id)
    finally:
        repo.close()


def test_schema_definition_is_write_through(tmp_path):
    repo = fresh(tmp_path)
    repo.define_schema(todo_schema())
    # no flush, no close: the definition must already be durable
    reopened = Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False))
    assert reopened.registry.has("todo")
    assert reopened.registry.slice_of_schema("todo") == 1
    reopened.close()
    repo.close()


def test_schema_definition_is_invisible_until_durable(tmp_path):
    repo = fresh(tmp_path)
    seen = []
    persist = repo.backend._persist

    def watched():
        seen.append(repo.registry.has("todo"))
        persist()

    repo.backend._persist = watched
    repo.define_schema(todo_schema())
    assert seen == [False]
    assert repo.registry.has("todo")
    repo.close()


def test_failed_schema_definition_takes_no_slice(tmp_path):
    repo = fresh(tmp_path)
    assert repo.define_schema(Schema("a", {})) == 1
    repo.backend.fail_next_persist = True
    with pytest.raises(StorageFailure):
        repo.define_schema(Schema("b", {}))
    assert not repo.registry.has("b")
    assert repo.define_schema(Schema("c", {})) == 2
    repo.close()
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as reopened:
        assert reopened.registry.names() == ["a", "c"]
        assert reopened.registry.slice_of_schema("c") == 2


def test_content_round_trip_and_kind_checks():
    with fresh() as repo:
        doc = repo.create_document(DocumentKind.CONTENT)
        doc.put_content(b"Invoice #42 for ACME, net-30.")
        assert doc.content() == b"Invoice #42 for ACME, net-30."
        assert repo.query('content:"acme"').ids() == [doc.doc_id]
        assert repo.query('content:"net"').ids() == [doc.doc_id]
        plain = repo.create_document()
        with pytest.raises(WrongKind):
            plain.put_content(b"nope")
        with pytest.raises(WrongKind):
            plain.content()
        fresh_doc = repo.create_document(DocumentKind.CONTENT)
        assert fresh_doc.content() == b""


def test_membership_and_kind_checks():
    with fresh() as repo:
        coll = repo.create_document(DocumentKind.COLLECTION)
        a = repo.create_document()
        b = repo.create_document()
        coll.add_member(a)
        coll.add_member(b.doc_id)
        coll.add_member(a)  # repeat: set semantics
        assert coll.members() == {a.doc_id, b.doc_id}
        coll.remove_member(b)
        assert coll.members() == {a.doc_id}
        with pytest.raises(WrongKind):
            a.add_member(b)
        with pytest.raises(UnknownDocument):
            coll.add_member("00000000-0000-0000-0000-00000000dead")
        assert repo.query(f'member-of:{coll.doc_id}').ids() == [a.doc_id]


def test_delete_cascades_membership(tmp_path):
    with fresh(tmp_path) as repo:
        coll = repo.create_document(DocumentKind.COLLECTION)
        a = repo.create_document()
        coll.add_member(a)
        repo.flush()
        a.delete()
        assert coll.members() == set()
        with pytest.raises(UnknownDocument):
            a.values("x")
        repo.flush()
        coll_id = coll.doc_id
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as repo:
        assert repo.document_count() == 1
        assert repo.get_document(coll_id).members() == set()


def test_delete_before_first_flush_leaves_no_trace(tmp_path):
    with fresh(tmp_path) as repo:
        keeper = repo.create_document()
        keeper.set_property("x", [Value.integer(1)])
        doomed = repo.create_document()
        doomed.set_property("y", [Value.integer(2)])
        doomed.delete()
        keeper_id = keeper.doc_id
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as repo:
        assert repo.document_ids() == [keeper_id]


def test_stale_handle_after_delete():
    with fresh() as repo:
        h = repo.create_document()
        other = repo.get_document(h.doc_id)
        h.delete()
        for op in (
            lambda: other.values("x"),
            lambda: other.set_property("x", [Value.integer(1)]),
            lambda: other.snapshot(),
            lambda: other.enforce("todo"),
            lambda: other.delete(),
        ):
            with pytest.raises(UnknownDocument):
                op()


def test_query_results_are_pinned_and_sorted():
    with fresh() as repo:
        repo.define_schema(Schema("tagged", {}))
        handles = [repo.create_document() for _ in range(6)]
        for h in handles[:4]:
            h.enforce("tagged")
        cursor = repo.query('schema:"tagged"')
        assert cursor.ids() == sorted(h.doc_id for h in handles[:4])
        handles[0].delete()
        yielded = list(cursor)
        assert [h.doc_id for h in yielded] == cursor.ids()
        with pytest.raises(UnknownDocument):
            yielded[0].values("x")  # deleted after the query ran
        assert yielded[1].snapshot().enforced == frozenset({"tagged"})


def test_cursor_prefetch_is_lazy(tmp_path):
    with fresh(tmp_path) as repo:
        for _ in range(3):
            doc = repo.create_document()
            doc.set_property("n", [Value.integer(1)])
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as repo:
        base = repo.backend.fetch_count
        cursor = repo.query("n = 1")
        assert repo.backend.fetch_count == base  # matching reads none
        mid = repo.backend.fetch_count
        assert len(cursor.ids()) == 3
        assert repo.backend.fetch_count == mid  # ids alone fetch nothing more


def test_reopen_preserves_everything(tmp_path):
    with fresh(tmp_path) as repo:
        repo.define_schema(Schema("audited", {}))
        h = seed_todo(repo)
        h.enforce("audited")
        h.unenforce("todo")
        h.set_property("Subject", [Value.text("still here")])
        h.enforce("todo")  # re-enforced: now ordered after audited
        coll = repo.create_document(DocumentKind.COLLECTION)
        coll.add_member(h)
        blob = repo.create_document(DocumentKind.CONTENT)
        blob.put_content(b"nine red balloons")
        ids = (h.doc_id, coll.doc_id, blob.doc_id)
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as repo:
        h, coll, blob = (repo.get_document(i) for i in ids)
        assert h.enforced() == ("audited", "todo")
        assert h.values("Subject")[0].payload == "still here"
        assert coll.members() == {h.doc_id}
        assert blob.content() == b"nine red balloons"
        assert repo.query('content:"balloons"').ids() == [blob.doc_id]


def test_concurrent_mutations_do_not_lose_updates():
    with fresh(config=CacheConfig(max_docs=8, auto_flush=False)) as repo:
        docs = [repo.create_document() for _ in range(16)]
        errors = []

        def hammer(worker: int):
            try:
                for i in range(50):
                    doc = docs[(worker * 7 + i) % len(docs)]
                    doc.add_values("hits", [Value.integer(worker * 1000 + i)])
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        total = sum(len(d.values("hits")) for d in docs)
        assert total == 8 * 50
        repo.flush()
        stored = sum(len(repo.backend.scan_rows(d.doc_id)) for d in docs)
        assert stored == 8 * 50


def test_flush_after_unenforce_updates_store(tmp_path):
    with fresh(tmp_path) as repo:
        h = seed_todo(repo)
        repo.flush()
        h.unenforce("todo")
        repo.flush()
        doc_id = h.doc_id
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as repo:
        assert repo.get_document(doc_id).enforced() == ()


def test_background_flusher_survives_os_errors(tmp_path, monkeypatch):
    from harland import store

    repo = Repository.init(tmp_path / "store", config=CacheConfig(flush_interval=0.02), id_seed=1)
    real_write = store._atomic_write
    faults = [OSError(28, "No space left on device") for _ in range(3)]

    def failing_write(target, data):
        if faults:
            raise faults.pop()
        real_write(target, data)

    monkeypatch.setattr(store, "_atomic_write", failing_write)
    try:
        h = repo.create_document()
        h.set_property("x", [Value.integer(1)])
        deadline = time.monotonic() + 5
        while not repo.backend.scan_rows(h.doc_id) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert faults == []
        assert repo._flusher.is_alive()
        assert repo.backend.scan_rows(h.doc_id)
        assert repo.stats()["flush_failures"] == 3
    finally:
        repo.close()
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as reopened:
        assert reopened.get_document(h.doc_id).values("x") == (Value.integer(1),)


def test_dispatcher_counts_a_failed_dispatch_and_delivers_the_next_commit(monkeypatch):
    from harland import coordination

    real_evaluate = coordination.evaluate_doc
    raised = []

    def evaluate_once_failing(*args):
        if not raised:
            raised.append(True)
            raise RuntimeError("injected evaluation failure")
        return real_evaluate(*args)

    monkeypatch.setattr(coordination, "evaluate_doc", evaluate_once_failing)
    with fresh() as repo:
        repo.define_schema(Schema("ready", {}))
        first, second = repo.create_document(), repo.create_document()
        sub = repo.subscribe('schema:"ready"')
        first.enforce("ready")  # its dispatch raises
        second.enforce("ready")
        assert repo.hub.drain()
        assert repo.stats()["dispatch_failures"] == 1
        assert repo.hub._thread.is_alive()
        assert sub.take(timeout=5).doc_id == second.doc_id
        assert sub.take(timeout=0.1) is None


# ---- the repository lock and the dirty set ----

def test_create_delete_cycles_leave_no_locks():
    repo = fresh()
    for i in range(1000):
        h = repo.create_document()
        h.set_property("x", [Value.integer(1)])
        if i % 2:
            repo.flush()  # half the deletes go through the store
        h.delete()
    assert repo.document_count() == 0
    backend = repo.backend
    # pending records live on the cached images, so an empty cache holds none
    for table in (repo._cache, repo._clean, repo._dirty, backend._docs, backend._assignments,
                  backend._enforcement, backend._members, backend._content):
        assert len(table) == 0
    repo.close()


def test_waiter_on_a_deleted_document_fails_and_leaves_no_lock():
    repo = fresh()
    h = repo.create_document()
    errors = []

    def write():
        try:
            h.set_property("x", [Value.integer(1)])
        except UnknownDocument as exc:
            errors.append(exc)

    with repo._lock:
        waiter = threading.Thread(target=write)
        waiter.start()
        time.sleep(0.05)  # the waiter blocks on the lock we hold
        h.delete()
    waiter.join(timeout=5)
    assert not waiter.is_alive()
    assert len(errors) == 1
    repo.close()


def _count_flush_calls(repo, monkeypatch) -> list:
    calls = []
    real = repo._flush_doc_locked

    def counting(doc_id, idoc):
        calls.append(doc_id)
        return real(doc_id, idoc)

    monkeypatch.setattr(repo, "_flush_doc_locked", counting)
    return calls


def test_flush_visits_only_dirty_documents(monkeypatch):
    repo = fresh()
    handles = [repo.create_document() for _ in range(500)]
    for h in handles:
        h.set_property("n", [Value.integer(1)])
    assert repo.flush() == 500
    calls = _count_flush_calls(repo, monkeypatch)
    handles[7].set_property("n", [Value.integer(2)])
    assert repo.flush() == 1
    assert calls == [handles[7].doc_id]
    assert repo.flush() == 0
    assert calls == [handles[7].doc_id]
    repo.close()


def test_failed_flush_keeps_document_dirty_and_cached(tmp_path):
    from harland.errors import StorageFailure

    repo = fresh(tmp_path, config=CacheConfig(max_docs=2, auto_flush=False))
    h = repo.create_document()
    fillers = [repo.create_document() for _ in range(3)]
    for doc in [h, *fillers]:
        doc.set_property("n", [Value.integer(1)])
    repo.flush()
    h.set_property("n", [Value.integer(2)])
    repo.backend.fail_next_persist = True
    with pytest.raises(StorageFailure):
        repo.flush()
    assert h.doc_id in repo._dirty
    for filler in fillers:
        filler.snapshot()
    assert h.doc_id in repo._cache  # dirty documents are never evicted
    assert repo.flush() == 1
    assert h.doc_id not in repo._dirty
    repo.close()
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as reopened:
        assert reopened.get_document(h.doc_id).values("n") == (Value.integer(2),)


def test_membership_of_a_new_member_lands_in_the_same_pass(tmp_path, monkeypatch):
    repo = fresh(tmp_path)
    collection = repo.create_document(DocumentKind.COLLECTION)
    member = repo.create_document()
    collection.add_member(member)
    calls = _count_flush_calls(repo, monkeypatch)
    assert repo.flush() == 2
    assert calls == [collection.doc_id, member.doc_id]
    assert repo._dirty == {}
    repo.close()
    with Repository.open(tmp_path / "store", config=CacheConfig(auto_flush=False)) as reopened:
        assert reopened.members_of(collection.doc_id) == {member.doc_id}


def test_close_whose_flush_fails_still_stops_the_dispatcher():
    from harland.errors import StorageFailure

    repo = fresh()
    repo.subscribe("x = 1")  # the dispatcher starts with the first transition subscription
    h = repo.create_document()
    h.set_property("x", [Value.integer(1)])
    repo.backend.fail_next_persist = True
    with pytest.raises(StorageFailure):
        repo.close()
    assert not repo.hub._thread.is_alive()
    assert repo.hub.repo is None
    assert repo.flush() == 1
    assert [r.value for r in repo.backend.scan_rows(h.doc_id)] == [Value.integer(1)]


def test_concurrent_adds_under_the_flusher_lose_no_update():
    import sys

    repo = Repository.in_memory(config=CacheConfig(max_docs=2, flush_interval=0.01), id_seed=7)
    shared = repo.create_document()
    others = [repo.create_document() for _ in range(4)]
    for h in others:
        h.set_property("n", [Value.integer(0)])

    def add(worker):
        for i in range(50):
            shared.add_values("n", [Value.integer(worker * 100 + i)])
            others[i % len(others)].values("n")  # churn the 2-document cache

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=add, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    repo.close()
    assert len(shared.values("n")) == 400
    assert len(repo.backend.scan_rows(shared.doc_id)) == 400


def test_closed_repository_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    gc.disable()
    try:
        repo = fresh()
        repo.create_document().set_property("x", [Value.integer(1)])
        repo.close()
        ref = weakref.ref(repo)
        del repo
        assert ref() is None  # close() breaks the repository-hub cycle
    finally:
        gc.enable()
