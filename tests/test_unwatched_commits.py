"""Commits nobody watches: numbered, never queued, no dispatcher thread.

The hub is watched while an active transition subscription exists. Only
then does a commit queue an event, and the `harland-dispatch` thread starts
with the first such subscription. A subscription registers under the
repository lock, so each commit lands at or before its start_seq, or after
it with the snapshots its dispatch reads.
"""

import random
import sys
import threading
import time

from harland.coordination import SubscriptionMode
from harland.engine import CacheConfig, Repository
from harland.model import DocumentKind, Schema, Value
from harland.parsing import parse_query
from harland.query import plan


def fresh(**kw):
    kw.setdefault("config", CacheConfig(auto_flush=False))
    kw.setdefault("id_seed", 7)
    return Repository.in_memory(**kw)


def dispatchers():
    return [t for t in threading.enumerate() if t.name == "harland-dispatch"]


def commit_each_kind(repo):
    """One commit through each publishing entry point; returns how many."""
    repo.define_schema(Schema("ready", {}))
    doc = repo.create_document(DocumentKind.CONTENT)
    doc.set_property("n", [Value.integer(1)])
    doc.enforce("ready")
    doc.unenforce("ready")
    doc.put_content(b"some words")
    box = repo.create_document(DocumentKind.COLLECTION)
    box.add_member(doc)
    box.remove_member(doc)
    doc.delete()
    return 9


def take_all(sub, repo):
    assert repo.hub.drain(timeout=10.0)
    out = []
    while (d := sub.take(timeout=0)) is not None:
        out.append(d)
    return out


def test_no_dispatcher_until_the_first_transition_subscription():
    before = len(dispatchers())
    with fresh() as repo:
        commit_each_kind(repo)
        assert repo.hub._thread is None
        repo.subscribe("n = 1", SubscriptionMode.MATCH)
        assert repo.hub._thread is None and not repo.hub.watched
        assert len(dispatchers()) == before
        repo.subscribe("n = 1")
        assert repo.hub._thread is not None and repo.hub._thread.is_alive()
        assert len(dispatchers()) == before + 1
        repo.subscribe("n = 2")  # one dispatcher per hub
        assert len(dispatchers()) == before + 1
        thread = repo.hub._thread
    assert not thread.is_alive()


def test_an_unwatched_store_queues_nothing():
    with fresh() as repo:
        count = commit_each_kind(repo)
        assert repo.stats()["commits"] == count
        assert repo.stats()["commits_dispatched"] == 0
        assert not repo.hub._pending


def test_a_watched_store_queues_one_event_per_commit():
    with fresh() as repo:
        repo.subscribe("n = 1")
        count = commit_each_kind(repo)
        assert repo.hub.drain(timeout=5.0)
        assert repo.stats()["commits"] == repo.stats()["commits_dispatched"] == count


def test_commits_after_the_last_transition_subscription_is_cancelled_queue_nothing():
    with fresh() as repo:
        repo.define_schema(Schema("ready", {}))
        first, second = repo.subscribe('schema:"ready"'), repo.subscribe("n = 1")
        match = repo.subscribe("n = 1", SubscriptionMode.MATCH)
        repo.create_document().enforce("ready")
        queued = repo.stats()["commits_dispatched"]
        assert queued == 2
        first.cancel()
        repo.create_document()
        assert repo.stats()["commits_dispatched"] == queued + 1
        second.cancel()
        assert not repo.hub.watched  # the match subscription does not watch
        repo.create_document().enforce("ready")
        assert repo.stats()["commits_dispatched"] == queued + 1
        assert repo.stats()["commits"] == 5
        assert match.poll() == set()


def test_drain_returns_at_once_when_nothing_is_queued():
    with fresh() as repo:
        commit_each_kind(repo)
        assert repo.hub.drain(timeout=0.0)  # a zero timeout passes only with nothing queued
        repo.subscribe("n = 1")
        assert repo.hub.drain(timeout=0.0)  # watched, but nothing committed since


def test_seq_numbers_stay_consecutive_across_watched_and_unwatched_commits():
    with fresh() as repo:
        repo.define_schema(Schema("ready", {}))
        seqs = []
        original = repo.hub.publish

        def publish(**fields):
            seqs.append(original(**fields))
            return seqs[-1]

        repo.hub.publish = publish
        early = repo.create_document()  # 1, unwatched
        early.enforce("ready")  # 2
        sub = repo.subscribe('schema:"ready"')
        assert sub.start_seq == 2
        late = repo.create_document()  # 3, watched
        late.enforce("ready")  # 4
        sub.cancel()
        repo.create_document()  # 5, unwatched again
        again = repo.subscribe('schema:"ready"')
        assert again.start_seq == 5
        last = repo.create_document()  # 6
        last.enforce("ready")  # 7
        assert seqs == [1, 2, 3, 4, 5, 6, 7]
        assert [(d.seq, d.doc_id) for d in take_all(again, repo)] == [(7, last.doc_id)]
        assert repo.stats()["commits"] == 7
        assert repo.stats()["commits_dispatched"] == 4  # 3, 4, 6, 7


def test_every_commit_after_a_subscriptions_start_seq_reaches_it():
    """One thread creates documents and enforces a schema on each; another
    subscribes to that schema again and again meanwhile, keeping every
    subscription. Each gets exactly the documents whose enforce was
    numbered after its start_seq: one that read its start_seq before a
    commit but registered after that commit was dispatched would miss it."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to hit the window
    try:
        for round_ in range(6):
            rng = random.Random(round_)
            with fresh() as repo:
                repo.define_schema(Schema("ready", {}))
                enforced: dict = {}  # doc id -> seq of its enforce
                done = threading.Event()

                def enforce_fresh_documents():
                    try:
                        for _ in range(150):
                            doc = repo.create_document()
                            doc.enforce("ready")
                            # only this thread commits, so the hub's count
                            # is the seq of the enforce just made
                            enforced[doc.doc_id] = repo.hub.counts()["commits"]
                    finally:
                        done.set()

                writer = threading.Thread(target=enforce_fresh_documents)
                subs = []
                while not done.is_set() and len(subs) < 40:
                    subs.append(repo.subscribe('schema:"ready"'))
                    if len(subs) == 1:  # a writer started sooner could finish before any subscribe
                        writer.start()
                    for _ in range(rng.randrange(200)):
                        pass
                writer.join(10.0)
                assert not writer.is_alive() and len(enforced) == 150
                assert subs
                for sub in subs:
                    got = {d.doc_id for d in take_all(sub, repo)}
                    assert got == {d for d, seq in enforced.items() if seq > sub.start_seq}, sub.start_seq
    finally:
        sys.setswitchinterval(interval)


def test_a_subscription_that_makes_the_hub_watched_misses_no_commit():
    """One thread creates documents and enforces a schema on each; another
    subscribes to that schema while it runs, again and again, each time on
    an unwatched hub. The writer pauses only while a subscription is
    checked and cancelled: it then holds exactly the documents whose
    enforce was numbered after its start_seq. A commit the engine had found
    unwatched, and published without snapshots, must be numbered at or
    before the start_seq of a subscription taken meanwhile."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to hit the window
    rng = random.Random(5)
    try:
        with fresh() as repo:
            repo.define_schema(Schema("ready", {}))
            enforced: dict = {}  # doc id -> seq of its enforce
            pause, paused, resume, stop = (threading.Event() for _ in range(4))
            errors = []
            delivered = 0

            def enforce_fresh_documents():
                try:
                    while not stop.is_set():
                        if pause.is_set():
                            paused.set()
                            resume.wait(10.0)
                            continue
                        doc = repo.create_document()
                        doc.enforce("ready")
                        # only this thread commits, so the hub's count is
                        # the seq of the enforce just made
                        enforced[doc.doc_id] = repo.hub.counts()["commits"]
                except Exception as exc:  # reported by the checking thread
                    errors.append(exc)
                    paused.set()

            writer = threading.Thread(target=enforce_fresh_documents)
            writer.start()
            try:
                for _ in range(150):
                    assert not repo.hub.watched
                    sub = repo.subscribe('schema:"ready"')
                    # let the writer commit an enforce or two past it
                    target, deadline = sub.start_seq + rng.randrange(2, 6), time.monotonic() + 10.0
                    while repo.hub.counts()["commits"] < target and not errors and time.monotonic() < deadline:
                        time.sleep(1e-4)
                    resume.clear()
                    pause.set()
                    assert paused.wait(10.0)
                    assert not errors
                    end_seq = repo.hub.counts()["commits"]
                    got = {d.doc_id for d in take_all(sub, repo)}
                    sub.cancel()
                    assert got == {d for d, seq in enforced.items() if sub.start_seq < seq <= end_seq}
                    delivered += bool(got)
                    pause.clear()
                    paused.clear()
                    resume.set()
            finally:
                stop.set()
                resume.set()
                writer.join(10.0)
            assert not writer.is_alive()
            assert delivered == 150  # every subscription saw enforces land
    finally:
        sys.setswitchinterval(interval)


def test_hub_subscribe_racing_commits_raises_nothing_and_misses_nothing():
    """CommitHub.subscribe called directly, without the repository lock,
    while another thread commits: it takes that lock itself, so no commit
    that the engine found unwatched is published after the hub became
    watched (its event would lack the snapshots, a TypeError in the
    committing thread), and the subscription receives every commit
    numbered after its start_seq."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to hit the window
    rng = random.Random(8)
    try:
        for _ in range(30):
            with fresh() as repo:
                repo.define_schema(Schema("ready", {}))
                expr = parse_query('schema:"ready"')
                compiled = plan(expr, repo.registry)
                enforced: dict = {}  # doc id -> seq of its enforce
                errors = []

                def enforce_fresh_documents():
                    try:
                        for _ in range(60):
                            doc = repo.create_document()
                            doc.enforce("ready")
                            enforced[doc.doc_id] = repo.hub.counts()["commits"]
                    except Exception as exc:  # reported below
                        errors.append(exc)

                writer = threading.Thread(target=enforce_fresh_documents)
                writer.start()
                target = rng.randrange(1, 100)
                while repo.hub.counts()["commits"] < target and writer.is_alive():
                    pass
                sub = repo.hub.subscribe(expr, SubscriptionMode.TRANSITION, compiled)
                writer.join(10.0)
                assert not writer.is_alive()
                assert not errors, errors
                got = {d.doc_id for d in take_all(sub, repo)}
                assert got == {d for d, seq in enforced.items() if seq > sub.start_seq}, sub.start_seq
    finally:
        sys.setswitchinterval(interval)
