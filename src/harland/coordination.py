"""Commit events, subscriptions, and queue-style worker coordination.

Every committed change gets the next commit sequence number. While an
active transition subscription exists, the hub is watched: each commit
also queues one event, and a single dispatcher thread, started with the
first transition subscription, fans events out to subscriptions in commit
order, so per-subscription delivery order matches the commit sequence.
A commit nobody watches is numbered and nothing more: no event is built,
queued or dispatched, since no subscription could see it. Match
subscriptions poll and read no events. Transition subscriptions
deliver a document exactly when its match status flips false -> true for
that commit; membership changes re-evaluate the affected member documents,
which is sound because no predicate joins across documents.

Delivery is at-least-once: consumers must tolerate duplicates. The
dispatcher evaluates each (subscription, document) pair of a commit on
its own: a pair whose evaluation raises is counted in dispatch_failures
and kept as a hub dead letter (CommitHub.dead_letters), and every other
pair still gets its delivery. A dead-lettered pair is reported, not
redelivered: its subscriber learns of the document from the dead letter,
from poll(), or from a later commit that flips it. Workers bound retries
per document and park repeat offenders on a dead-letter list instead of
blocking the queue. Documents are never removed from the repository by
any of this machinery; "done" is only ever expressed by enforcing another
schema.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from queue import Empty, Queue
from typing import Callable, Optional

from harland.errors import StorageFailure, UnknownDocument
from harland.model import Constraint, DocumentId, DocumentSnapshot, Schema, Value
from harland.query import And, HasSchema, Not, QueryExpr, QueryPlan, evaluate_doc

logger = logging.getLogger(__name__)


class SubscriptionMode(Enum):
    TRANSITION = "transition"
    MATCH = "match"


@dataclass(frozen=True)
class CommitEvent:
    """Summary of one committed change, emitted after the in-memory commit."""

    seq: int
    doc_id: DocumentId
    before: Optional[DocumentSnapshot]
    after: Optional[DocumentSnapshot]
    changed_props: frozenset[str] = frozenset()
    schemas_added: frozenset[str] = frozenset()
    schemas_removed: frozenset[str] = frozenset()
    members_added: frozenset[DocumentId] = frozenset()
    members_removed: frozenset[DocumentId] = frozenset()
    tokens_before: Optional[frozenset[str]] = None
    tokens_after: Optional[frozenset[str]] = None


@dataclass(frozen=True)
class Delivery:
    seq: int
    doc_id: DocumentId


class Subscription:
    """A registered query; transition deliveries land on an internal queue."""

    def __init__(self, hub: "CommitHub", expr: QueryExpr, mode: SubscriptionMode, compiled: QueryPlan, start_seq: int):
        self._hub = hub
        self.expr = expr
        self.mode = mode
        self.plan = compiled
        self.start_seq = start_seq  # commits at or before this are not ours
        self.queue: Queue[Delivery] = Queue()
        self.active = True

    def take(self, timeout: Optional[float] = None) -> Optional[Delivery]:
        """Next delivery, or None when the timeout elapses."""
        try:
            return self.queue.get(timeout=timeout)
        except Empty:
            return None

    def requeue(self, delivery: Delivery) -> None:
        self.queue.put(delivery)

    def poll(self) -> set[DocumentId]:
        """Current match set, through the query path."""
        repo = self._hub.repo
        if repo is None:
            raise StorageFailure("repository is closed")
        return set(repo.query(self.expr).ids())

    def cancel(self) -> None:
        self.active = False
        self._hub._remove(self)


class _PhaseView:
    """Query view over the repository with one document's state pinned to a
    commit-event phase (its before or after snapshot)."""

    def __init__(self, repo, doc_id: DocumentId, snap: Optional[DocumentSnapshot], tokens: Optional[frozenset[str]]):
        self._repo = repo
        self._doc_id = doc_id
        self._snap = snap
        self._tokens = tokens

    def enforced_of(self, doc_id):
        if doc_id == self._doc_id:
            return self._snap.enforced if self._snap else frozenset()
        return self._repo.enforced_of(doc_id)

    def members_of(self, doc_id):
        if doc_id == self._doc_id:
            return self._snap.members if self._snap else frozenset()
        return self._repo.members_of(doc_id)

    def content_tokens(self, doc_id):
        if doc_id == self._doc_id:
            if self._tokens is not None:
                return self._tokens
            if self._snap is None:
                return frozenset()
        return self._repo.content_tokens(doc_id)

    def bags_of(self, doc_id, props):
        if doc_id == self._doc_id:
            if self._snap is None:
                return {}
            return {p: self._snap.values_of(p) for p in props if self._snap.values_of(p)}
        return self._repo.bags_of(doc_id, props)


class CommitHub:
    """Assigns commit sequence numbers and fans events out to subscriptions."""

    def __init__(self, repo):
        self.repo = repo
        self._cond = threading.Condition()  # guards everything below
        self._pending: deque[CommitEvent] = deque()
        self._seq = 0
        self._queued = 0  # events ever queued for dispatch
        self._failed = 0  # evaluations and events whose dispatch raised; the dispatcher thread alone writes it
        self._dead: list[DeadLetter] = []  # the (subscription, document) pairs whose evaluation raised
        self._in_flight = 0
        self._stopped = False
        self._subs: list[Subscription] = []  # the active transition subscriptions
        # whether any exists; the repository reads it under its lock to
        # decide what a commit publishes
        self.watched = False
        self._thread: Optional[threading.Thread] = None  # the dispatcher, once watched

    def subscribe(self, expr: QueryExpr, mode: SubscriptionMode, compiled: QueryPlan) -> Subscription:
        """Registers a subscription; commits numbered after its start_seq
        are its own. It registers under the repository lock, under which
        every commit looks at watched and is published, so the hub cannot
        become watched between the two: each commit lands at or before
        start_seq, or after it with the events this subscription reads."""
        repo = self.repo
        if repo is None:
            raise StorageFailure("repository is closed")
        with repo._lock, self._cond:  # the repository lock first, as every commit takes them
            sub = Subscription(self, expr, mode, compiled, self._seq)
            if mode is SubscriptionMode.TRANSITION:
                self._subs.append(sub)
                self.watched = True
                if self._thread is None and not self._stopped:
                    self._thread = threading.Thread(target=self._dispatch_loop, name="harland-dispatch", daemon=True)
                    self._thread.start()
        return sub

    def _remove(self, sub: Subscription) -> None:
        with self._cond:
            if sub in self._subs:
                self._subs.remove(sub)
            self.watched = bool(self._subs)

    def publish(self, **fields) -> int:
        """Record a commit; returns its sequence number. Called with the
        repository lock held, so sequence order is commit order. The event
        is queued only while the hub is watched; an unwatched commit's
        caller passes its doc_id alone."""
        with self._cond:
            if self._stopped:
                return self._seq
            self._seq += 1
            if self.watched:
                self._pending.append(CommitEvent(seq=self._seq, **fields))
                self._queued += 1
                self._cond.notify_all()
            return self._seq

    def counts(self) -> dict[str, int]:
        """Commits numbered, of those the ones queued for dispatch, the
        evaluations and commits whose dispatch raised, the hub dead letters,
        the hub lag (events queued and not yet dispatched, the one being
        dispatched among them) and the most deliveries waiting on one
        subscription's queue."""
        with self._cond:
            return {
                "commits": self._seq,
                "commits_dispatched": self._queued,
                "dispatch_failures": self._failed,
                "hub_dead_letters": len(self._dead),
                "hub_lag": len(self._pending) + self._in_flight,
                "deepest_queue": max((sub.queue.qsize() for sub in self._subs), default=0),
            }

    def dead_letters(self) -> list["DeadLetter"]:
        """The (subscription, document) pairs whose evaluation raised, one
        per failed pair, in dispatch order."""
        with self._cond:
            return list(self._dead)

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until every queued event has been dispatched."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._pending or self._in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.1))
        return True

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5)

    # ---- dispatch ----

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopped:
                    self._cond.wait(0.5)
                if self._stopped and not self._pending:
                    return
                event = self._pending.popleft()
                self._in_flight += 1
            try:
                self._dispatch(event)
            except Exception:
                self._failed += 1
                logger.exception("dispatch failed for commit %d", event.seq)
            finally:
                with self._cond:
                    self._in_flight -= 1
                    self._cond.notify_all()

    def _dispatch(self, event: CommitEvent) -> None:
        with self._cond:
            subs = [s for s in self._subs if event.seq > s.start_seq]
        if not subs:
            return
        affected = {event.doc_id} | set(event.members_added) | set(event.members_removed)
        before_view = _PhaseView(self.repo, event.doc_id, event.before, event.tokens_before)
        after_view = _PhaseView(self.repo, event.doc_id, event.after, event.tokens_after)
        for sub in subs:
            for doc_id in sorted(affected):
                try:
                    was = self._phase_match(sub.plan, before_view, doc_id, event, phase_before=True)
                    now = self._phase_match(sub.plan, after_view, doc_id, event, phase_before=False)
                except UnknownDocument:
                    continue  # raced with a delete; the next commit re-evaluates
                except Exception as exc:  # this pair only: every other pair still gets its delivery
                    logger.exception("evaluation failed for commit %d, document %s", event.seq, doc_id)
                    with self._cond:
                        self._failed += 1
                        self._dead.append(DeadLetter(doc_id, event.seq, repr(exc), sub))
                    continue
                if now and not was:
                    sub.queue.put(Delivery(event.seq, doc_id))

    def _phase_match(self, compiled: QueryPlan, view: _PhaseView, doc_id: DocumentId, event: CommitEvent, phase_before: bool) -> bool:
        if doc_id == event.doc_id:
            snap = event.before if phase_before else event.after
            if snap is None:
                return False
        elif self.repo.document_kind(doc_id) is None:
            return False
        return evaluate_doc(compiled, view, doc_id)


@dataclass(frozen=True)
class DeadLetter:
    """A delivery given up: a worker's action, or the hub's evaluation of
    one subscription for one document, failed."""

    doc_id: DocumentId
    seq: int
    error: str
    subscription: Optional[Subscription] = None


class Worker:
    """Consumes one subscription's deliveries and applies an action.

    A failing document is redelivered up to max_retries times, then parked
    on the dead-letter list; the loop keeps going either way.
    """

    def __init__(
        self,
        repo,
        subscription: Subscription,
        action: Callable,
        name: str = "worker",
        max_retries: int = 3,
    ):
        self.repo = repo
        self.subscription = subscription
        self.action = action
        self.name = name
        self.max_retries = max_retries
        self._attempts: dict[DocumentId, int] = {}
        self._dead: list[DeadLetter] = []
        self._dead_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name=f"harland-{name}", daemon=True)
        self.processed = 0

    def start(self) -> "Worker":
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    def dead_letters(self) -> list[DeadLetter]:
        with self._dead_lock:
            return list(self._dead)

    def _run(self) -> None:
        while not self._stop.is_set():
            delivery = self.subscription.take(timeout=0.05)
            if delivery is None:
                continue
            try:
                handle = self.repo.get_document(delivery.doc_id)
            except UnknownDocument:
                continue
            try:
                self.action(handle)
            except Exception as exc:
                count = self._attempts.get(delivery.doc_id, 0) + 1
                self._attempts[delivery.doc_id] = count
                if count > self.max_retries:
                    logger.warning("%s: parking %s after %d attempts", self.name, delivery.doc_id, count)
                    with self._dead_lock:
                        self._dead.append(DeadLetter(delivery.doc_id, delivery.seq, repr(exc), self.subscription))
                    self._attempts.pop(delivery.doc_id, None)
                else:
                    self.subscription.requeue(delivery)
            else:
                self._attempts.pop(delivery.doc_id, None)
                self.processed += 1


# ---- pipeline demonstration ----

@dataclass
class PipelineReport:
    doc_count: int
    stage_schemas: list[str]
    completed: bool
    elapsed: float
    count_monotonic: bool
    final_doc_count: int
    dead_letters: int
    stage_processed: dict[str, int] = field(default_factory=dict)


def run_pipeline_demo(repo, doc_count: int, stage_count: int = 3, timeout: float = 60.0) -> PipelineReport:
    """Multi-stage worker pipeline coordinated purely by schema enforcement.

    Documents enter by having an empty synchronization schema enforced on
    them; each stage watches for the previous stage's schema, stamps its
    own property, and enforces its own schema. Nothing is ever dequeued or
    deleted: progress is only visible as accreted schemas.
    """
    intake = "intake"
    if not repo.registry.has(intake):
        repo.define_schema(Schema(intake, {}))  # empty: a pure synchronization marker
    stage_names = [f"stage-{k}" for k in range(1, stage_count + 1)]
    for name in stage_names:
        if not repo.registry.has(name):
            repo.define_schema(Schema(name, {f"{name}.done": Constraint.from_text("boolean", "1..1")}))

    workers: list[Worker] = []
    previous = intake
    for name in stage_names:
        expr = And((HasSchema(previous), Not(HasSchema(name))))
        sub = repo.subscribe(expr, SubscriptionMode.TRANSITION)

        def action(handle, stage=name):
            handle.set_property(f"{stage}.done", [Value.boolean(True)])
            handle.enforce(stage)

        workers.append(Worker(repo, sub, action, name=name).start())
        previous = name

    started = time.monotonic()
    last_count = repo.document_count()
    monotonic = True

    def sample_count():
        nonlocal last_count, monotonic
        current = repo.document_count()
        if current < last_count:
            monotonic = False
        last_count = current

    for i in range(doc_count):
        h = repo.create_document()
        h.set_property("task.index", [Value.integer(i)])
        h.enforce(intake)
        sample_count()

    all_stages = And(tuple(HasSchema(n) for n in [intake, *stage_names]))
    completed = False
    deadline = started + timeout
    while time.monotonic() < deadline:
        sample_count()
        if len(repo.query(all_stages)) >= doc_count:
            completed = True
            break
        time.sleep(0.02)
    repo.hub.drain(timeout=5.0)
    sample_count()
    for w in workers:
        w.stop()
    return PipelineReport(
        doc_count=doc_count,
        stage_schemas=[intake, *stage_names],
        completed=completed,
        elapsed=time.monotonic() - started,
        count_monotonic=monotonic,
        final_doc_count=repo.document_count(),
        dead_letters=sum(len(w.dead_letters()) for w in workers),
        stage_processed={w.name: w.processed for w in workers},
    )
