"""Commit fan-out, transition semantics, workers, and the pipeline."""

import threading
import time

import pytest

from harland.coordination import SubscriptionMode, Worker, run_pipeline_demo
from harland.engine import CacheConfig, Repository
from harland.errors import StorageFailure
from harland.model import Constraint, DocumentKind, Schema, Value


def fresh(**kw):
    kw.setdefault("config", CacheConfig(auto_flush=False))
    kw.setdefault("id_seed", 99)
    return Repository.in_memory(**kw)


def drain(repo):
    assert repo.hub.drain(timeout=5.0)


def take_all(sub, repo):
    drain(repo)
    out = []
    while True:
        d = sub.take(timeout=0.01)
        if d is None:
            return out
        out.append(d)


def test_transition_fires_on_false_to_true():
    with fresh() as repo:
        repo.define_schema(Schema("ready", {}))
        sub = repo.subscribe('schema:"ready"')
        doc = repo.create_document()
        assert take_all(sub, repo) == []
        doc.enforce("ready")
        got = take_all(sub, repo)
        assert [d.doc_id for d in got] == [doc.doc_id]
        # still matching afterwards: no repeat deliveries
        doc.set_property("x", [Value.integer(1)])
        assert take_all(sub, repo) == []


def test_transition_requires_a_flip_not_a_commit():
    with fresh() as repo:
        repo.define_schema(Schema("ready", {}))
        doc = repo.create_document()
        doc.enforce("ready")
        sub = repo.subscribe('schema:"ready"')
        # already true at subscribe time; nothing flips
        doc.set_property("x", [Value.integer(1)])
        assert take_all(sub, repo) == []
        doc.unenforce("ready")
        assert take_all(sub, repo) == []  # true -> false: silent
        doc.enforce("ready")
        assert len(take_all(sub, repo)) == 1


def test_transition_on_value_predicate():
    with fresh() as repo:
        sub = repo.subscribe("priority >= 7")
        doc = repo.create_document()
        doc.set_property("priority", [Value.integer(3)])
        assert take_all(sub, repo) == []
        doc.set_property("priority", [Value.integer(9)])
        assert [d.doc_id for d in take_all(sub, repo)] == [doc.doc_id]
        doc.set_property("priority", [Value.integer(8)])  # stays matching
        assert take_all(sub, repo) == []
        doc.set_property("priority", [Value.integer(1)])
        doc.set_property("priority", [Value.integer(7)])  # flips again
        assert len(take_all(sub, repo)) == 1


def test_negated_schema_transition():
    with fresh() as repo:
        repo.define_schema(Schema("intake", {}))
        repo.define_schema(Schema("done", {}))
        doc = repo.create_document()
        doc.enforce("intake")
        doc.enforce("done")
        sub = repo.subscribe('schema:"intake" AND NOT schema:"done"')
        doc.unenforce("done")
        assert [d.doc_id for d in take_all(sub, repo)] == [doc.doc_id]


def test_membership_change_re_evaluates_member():
    with fresh() as repo:
        coll = repo.create_document(DocumentKind.COLLECTION)
        doc = repo.create_document()
        doc.set_property("n", [Value.integer(1)])
        sub = repo.subscribe(f"member-of:{coll.doc_id} AND n = 1")
        coll.add_member(doc)
        got = take_all(sub, repo)
        assert [d.doc_id for d in got] == [doc.doc_id]
        coll.remove_member(doc)
        assert take_all(sub, repo) == []
        coll.add_member(doc)
        assert len(take_all(sub, repo)) == 1


def test_a_failed_evaluation_dead_letters_its_pair_and_every_other_pair_is_delivered(monkeypatch):
    """A membership change affects the collection and the member; the first
    subscription's evaluation of the collection raises. In each of two
    such commits that pair becomes one hub dead letter, counted once, and
    both subscriptions still get the member."""
    from harland import coordination

    real_evaluate = coordination.evaluate_doc
    with fresh() as repo:
        coll = repo.create_document(DocumentKind.COLLECTION)
        members = [repo.create_document() for _ in range(2)]
        first, second = (repo.subscribe(f"member-of:{coll.doc_id}") for _ in range(2))

        def evaluate(compiled, view, doc_id):
            if compiled is first.plan and doc_id == coll.doc_id:
                raise RuntimeError("injected evaluation failure")
            return real_evaluate(compiled, view, doc_id)

        monkeypatch.setattr(coordination, "evaluate_doc", evaluate)
        for member in members:
            coll.add_member(member)
        drain(repo)
        for sub in (first, second):
            assert [d.doc_id for d in take_all(sub, repo)] == [m.doc_id for m in members]
        dead = repo.hub.dead_letters()
        assert [(d.subscription, d.doc_id) for d in dead] == [(first, coll.doc_id)] * 2
        assert "injected evaluation failure" in dead[0].error and dead[0].seq < dead[1].seq
        assert repo.stats()["dispatch_failures"] == 2


def test_content_write_can_trigger_transition():
    with fresh() as repo:
        sub = repo.subscribe('content:"receipt"')
        doc = repo.create_document(DocumentKind.CONTENT)
        doc.put_content(b"hello world")
        assert take_all(sub, repo) == []
        doc.put_content(b"your receipt, attached")
        assert [d.doc_id for d in take_all(sub, repo)] == [doc.doc_id]


def test_document_creation_can_match_immediately():
    with fresh() as repo:
        sub = repo.subscribe("NOT exists(seen)")
        doc = repo.create_document()
        got = take_all(sub, repo)
        assert [d.doc_id for d in got] == [doc.doc_id]


def test_deletion_never_delivers_for_the_deleted_doc():
    with fresh() as repo:
        repo.define_schema(Schema("ready", {}))
        doc = repo.create_document()
        sub = repo.subscribe('NOT schema:"ready"')  # doc already matches
        doc.delete()
        assert [d.doc_id for d in take_all(sub, repo)] == []


def test_deliveries_arrive_in_commit_order():
    with fresh() as repo:
        sub = repo.subscribe("exists(stamp)")
        docs = [repo.create_document() for _ in range(10)]
        for doc in docs:
            doc.set_property("stamp", [Value.boolean(True)])
        got = take_all(sub, repo)
        assert [d.doc_id for d in got] == [d.doc_id for d in docs]
        assert [d.seq for d in got] == sorted(d.seq for d in got)


def test_match_mode_polls_current_state():
    with fresh() as repo:
        repo.define_schema(Schema("ready", {}))
        sub = repo.subscribe('schema:"ready"', SubscriptionMode.MATCH)
        assert sub.poll() == set()
        docs = [repo.create_document() for _ in range(3)]
        for doc in docs[:2]:
            doc.enforce("ready")
        assert sub.poll() == {docs[0].doc_id, docs[1].doc_id}
        docs[0].unenforce("ready")
        assert sub.poll() == {docs[1].doc_id}


def test_cancel_stops_deliveries():
    with fresh() as repo:
        sub = repo.subscribe("exists(x)")
        doc = repo.create_document()
        doc.set_property("x", [Value.integer(1)])
        assert len(take_all(sub, repo)) == 1
        sub.cancel()
        doc2 = repo.create_document()
        doc2.set_property("x", [Value.integer(1)])
        assert take_all(sub, repo) == []


def test_worker_retries_then_succeeds():
    with fresh() as repo:
        sub = repo.subscribe("exists(job)")
        attempts = []

        def flaky(handle):
            attempts.append(handle.doc_id)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            handle.set_property("done", [Value.boolean(True)])

        worker = Worker(repo, sub, flaky, name="flaky", max_retries=3).start()
        try:
            doc = repo.create_document()
            doc.set_property("job", [Value.integer(1)])
            deadline = time.monotonic() + 5
            while not doc.values("done") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert doc.values("done")
            assert len(attempts) == 3
            assert worker.dead_letters() == []
        finally:
            worker.stop()


def test_worker_parks_poison_document_and_continues():
    with fresh() as repo:
        sub = repo.subscribe("exists(job)")
        processed = []

        def poison(handle):
            if handle.values("job")[0].payload == 13:
                raise RuntimeError("cursed")
            processed.append(handle.doc_id)

        worker = Worker(repo, sub, poison, name="poison", max_retries=2).start()
        try:
            bad = repo.create_document()
            bad.set_property("job", [Value.integer(13)])
            good = repo.create_document()
            good.set_property("job", [Value.integer(1)])
            deadline = time.monotonic() + 5
            while (not worker.dead_letters() or not processed) and time.monotonic() < deadline:
                time.sleep(0.01)
            dead = worker.dead_letters()
            assert [d.doc_id for d in dead] == [bad.doc_id]
            assert "cursed" in dead[0].error
            assert processed == [good.doc_id]  # queue kept moving
            # bad doc still exists; nothing got dropped
            assert repo.document_count() == 2
        finally:
            worker.stop()


def test_pipeline_demo_runs_to_completion():
    with fresh() as repo:
        report = run_pipeline_demo(repo, doc_count=30, timeout=30)
        assert report.completed
        assert report.dead_letters == 0
        assert report.final_doc_count == 30
        assert report.count_monotonic
        for stage in ("stage-1", "stage-2", "stage-3"):
            assert report.stage_processed[stage] >= 30
        # every document carries the full enforcement trail
        done = repo.match_now(
            'schema:"intake" AND schema:"stage-1" AND schema:"stage-2" AND schema:"stage-3"'
        )
        assert len(done) == 30


def test_subscriptions_survive_concurrent_commits():
    with fresh() as repo:
        sub = repo.subscribe("hits >= 5")
        docs = [repo.create_document() for _ in range(8)]

        def bump(doc):
            for k in range(1, 6):
                doc.add_values("hits", [Value.integer(k)])
                time.sleep(0.001)

        threads = [threading.Thread(target=bump, args=(d,)) for d in docs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = take_all(sub, repo)
        assert {d.doc_id for d in got} == {d.doc_id for d in docs}


def test_poll_after_close_is_a_storage_failure():
    repo = fresh()
    sub = repo.subscribe("exists(x)")
    repo.close()
    with pytest.raises(StorageFailure, match="repository is closed"):
        sub.poll()
