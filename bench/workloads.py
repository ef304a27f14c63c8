"""The four workloads, each a closed loop with one load-generating client.

Every workload makes its inputs from the seed in `generate`, builds a fresh
store in `setup` (timed, repeated), issues operations through the public
API in `run` until the window closes, and checks the program's outputs in
`check`, outside the timed region. The program's own flusher, dispatcher
and worker threads run during the window and are part of what is measured.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import shutil
import time
from pathlib import Path

from bench import corpus
from bench.corpus import DocSpec
from bench.speed import Speed
from harland import cli
from harland.coordination import Worker
from harland.engine import CacheConfig, Repository
from harland.model import Constraint, DocumentId, Schema, Value, bag

BLOCK_NS = 1_000_000_000  # traced runs switch tracing on and off every second
# A run goes on past its seconds, up to twice them, until it has MIN_OPS
# operations, so that op_ms.p90 has ten samples beyond it on a slow host too.
MIN_OPS = 100


def pct(values, q: float) -> float:
    """q-th percentile (0..100), linear interpolation between closest ranks."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def wchar() -> int:
    """Bytes this process has passed to write() so far (Linux /proc/self/io)."""
    try:
        with open("/proc/self/io") as f:
            for line in f:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Window:
    """The measured interval. Records each operation's latency, and between
    operations takes the reference slices that put it at reference speed
    (`bench.speed`); in a traced run it switches the tracer on and off in
    alternate blocks so the two halves can be compared, and tags each
    operation with its half."""

    def __init__(self, seconds: float, tracer=None, concurrent: bool = False, speed: Speed | None = None):
        self.seconds = seconds
        self.tracer = tracer
        self.concurrent = concurrent
        self.speed = speed if speed is not None else Speed()  # takes no slices until started
        self.ops: list[tuple[str, int, bool, int]] = []  # (kind, latency ns, traced, end ns)
        self.failed = 0
        self.errors: list[str] = []
        self.block_ns = {False: 0, True: 0}
        self.wchar = {False: 0, True: 0}  # bytes the process wrote, per half
        self.traced = False
        self._count = 0

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.phase = "run"
            self.tracer.active = False
            self._wchar = wchar()
        self.t0 = self._block_start = time.perf_counter_ns()
        self.deadline = self.t0 + int(self.seconds * 1e9)

    def _end_block(self, now: int) -> None:
        self.block_ns[self.traced] += now - self._block_start
        self._block_start = now
        written = wchar()
        self.wchar[self.traced] += written - self._wchar
        self._wchar = written

    def running(self) -> bool:
        now = time.perf_counter_ns()
        if self.tracer is not None and now - self._block_start >= BLOCK_NS:
            self._end_block(now)
            self.traced = not self.traced
            self.tracer.active = self.traced
        if now < self.deadline:
            return True
        return len(self.ops) < MIN_OPS and now < 2 * self.deadline - self.t0

    def stop(self) -> None:
        now = time.perf_counter_ns()
        self.elapsed_ns = now - self.t0
        if self.tracer is not None:
            self.tracer.active = False
            self._end_block(now)

    def begin_op(self, kind: str) -> None:
        self._count += 1
        if self.tracer is not None:
            self.tracer.set_trace(f"op-{self._count}", kind)

    def timed(self, kind: str, fn, *args):
        """Run fn as one operation; returns (ok, result)."""
        self.begin_op(kind)
        traced = self.traced
        t = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{kind}: {exc!r}")
            return False, None
        end = time.perf_counter_ns()
        self.ops.append((kind, end - t, traced, end))
        self.speed.tick()
        return True, result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def tick(self) -> None:
        """Between operations that are not run through `timed`."""
        self.speed.tick()

    def _ns(self, ns: int, end: int, raw: bool) -> float:
        return ns if raw else self.speed.scale(ns, end - ns, end)

    def latencies_ms(self, traced: bool | None = None, kinds=None, raw: bool = False) -> list[float]:
        """Operation latencies at reference speed, or as measured."""
        return [
            self._ns(ns, end, raw) / 1e6 for kind, ns, t, end in self.ops
            if (traced is None or t == traced) and (kinds is None or kind in kinds)
        ]

    def throughput(self, traced: bool | None = None, raw: bool = False) -> float:
        """Operations per second of the whole run. With one client the time is
        the sum of the latencies, which leaves out the benchmark's checks and
        reference slices between operations; with operations in flight it is
        the time between consecutive completions of the same half."""
        if self.concurrent:
            n, total = 0, 0.0
            prev, prev_traced = self.t0, False  # the window starts untraced
            for end, t in sorted((op[3], op[2]) for op in self.ops):
                if traced is None or t == prev_traced == traced:
                    n += 1
                    total += self._ns(end - prev, end, raw)
                prev, prev_traced = end, t
        else:
            ops = [op for op in self.ops if traced is None or op[2] == traced]
            n, total = len(ops), sum(self._ns(op[1], op[3], raw) for op in ops)
        return n / (total / 1e9) if total else 0.0

    def end_to_end(self, traced: bool | None = None, raw: bool = False) -> dict[str, float]:
        """op_ms percentiles and throughput over all ops or one traced half."""
        lat = self.latencies_ms(traced, raw=raw)
        return {
            "op_ms.p50": pct(lat, 50),
            "op_ms.p90": pct(lat, 90),
            "ops_per_s": self.throughput(traced, raw),
        }


class Workload:
    name = ""
    why = ""
    CONCURRENT = False  # operations overlap, so throughput is taken between completions
    WRITE_KINDS: frozenset[str] = frozenset()  # operation kinds that write
    QUERY_KINDS: frozenset[str] = frozenset()  # operation kinds that run a query

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.scale = scale
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.repo: Repository | None = None
        self.digests: dict[str, str] = {}

    def scaled(self, n: int, least: int = 8) -> int:
        return max(least, int(n * self.scale))

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed bookkeeping on the instance that will be measured."""

    def teardown(self) -> None:
        if self.repo is not None:
            self.repo.close()
            self.repo = None

    def run(self, window: Window) -> None:
        raise NotImplementedError

    def check(self, window: Window) -> None:
        raise NotImplementedError

    def conditions(self) -> dict:
        raise NotImplementedError

    def details(self, window: Window) -> dict:
        raise NotImplementedError

    def repo_stats(self) -> dict:
        return self.repo.stats() if self.repo is not None else {}


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _expected(spec: DocSpec) -> tuple[dict[str, tuple[Value, ...]], set[str]]:
    """A generated document's property bags and enforced schemas."""
    bags = {prop: bag(values) for prop, values in corpus.properties(spec).items()}
    return bags, {"email"} | ({"to-do"} if spec.deadline is not None else set())


# ---- ingest ----

class Ingest(Workload):
    """Disk store preloaded to fit the cache; three updates per new document,
    each write ending in an explicit flush()."""

    name = "ingest"
    why = ("write path: mutate, schema validation and a flush per write on a disk store that "
           "fits the cache, so store and engine flush dominate and query/coordination idle")
    WRITE_KINDS = frozenset({"update", "new"})
    PRELOAD = 500
    PLANNED_OPS = 20_000

    def generate(self) -> None:
        n = self.scaled(self.PRELOAD)
        self.docs = corpus.make_docs(self.rng, n)
        new_docs = corpus.make_docs(self.rng, self.PLANNED_OPS // 4, start=n)
        for spec in new_docs:
            spec.content = None
        self.plan: list[tuple] = []
        existing = n
        for i in range(self.PLANNED_OPS):
            if i % 4 == 3:
                self.plan.append(("new", new_docs[i // 4]))
                existing += 1
                continue
            kind = self.rng.choice(("set-subject", "set-size", "add-label", "remove-label"))
            if kind == "set-subject":
                value = corpus.subject(self.rng)
            elif kind == "set-size":
                value = self.rng.randrange(1, 1_000_000_000)
            else:  # a label to add; remove-label adds it when the document has none
                value = corpus.label(self.rng)
            self.plan.append(("update", self.rng.randrange(existing), kind, value))
        self.digests["inputs"] = corpus.inputs_digest([self.docs, [list(map(str, p)) for p in self.plan]])

    def setup(self) -> None:
        self.path = _fresh(self.workdir / "ingest-store")
        corpus.build_store(self.docs, self.path)
        self.repo = Repository.open(self.path, CacheConfig(auto_flush=False), id_seed=corpus.ID_SEED)
        for doc_id in self.repo.document_ids():
            self.repo.get_document(doc_id).snapshot()

    def after_setup(self) -> None:
        self.digests["store"] = corpus.store_digest(self.path)
        self.ids = self.repo.document_ids()
        self.expected = {doc_id: _expected(spec) for doc_id, spec in zip(self.ids, self.docs)}
        self.new_payload = 0

    def _update(self, doc_id: DocumentId, kind: str, value) -> None:
        handle = self.repo.get_document(doc_id)
        if kind == "set-subject":
            handle.set_property("Subject", [Value.text(value)])
        elif kind == "set-size":
            handle.set_property("size", [Value.integer(value)])
        elif kind == "add-label":
            handle.add_values("Labels", [Value.text(value)])
        else:
            handle.remove_values("Labels", [value])
        self.repo.flush()

    def _new(self, spec: DocSpec) -> DocumentId:
        handle = corpus.add_document(self.repo, spec)
        self.repo.flush()
        return handle.doc_id

    def run(self, window: Window) -> None:
        for op in self.plan:
            if not window.running():
                break
            if op[0] == "new":
                ok, doc_id = window.timed("new", self._new, op[1])
                if ok:
                    self.ids.append(doc_id)
                    self.expected[doc_id] = _expected(op[1])
                    self.new_payload += corpus.payload_bytes([op[1]])
                continue
            _, index, kind, value = op
            doc_id = self.ids[index % len(self.ids)]
            props = self.expected[doc_id][0]
            if kind == "remove-label":
                labels = props.get("Labels", ())
                if labels:
                    value = labels[0]
                else:
                    kind = "add-label"
            ok, _ = window.timed("update", self._update, doc_id, kind, value)
            if ok:
                self._record(props, kind, value)

    @staticmethod
    def _record(props: dict, kind: str, value) -> None:
        if kind == "set-subject":
            props["Subject"] = (Value.text(value),)
        elif kind == "set-size":
            props["size"] = (Value.integer(value),)
        elif kind == "add-label":
            props["Labels"] = bag(list(props.get("Labels", ())) + [Value.text(value)])
        else:
            remaining = list(props["Labels"])
            remaining.remove(value)
            if remaining:
                props["Labels"] = bag(remaining)
            else:
                props.pop("Labels")

    def check(self, window: Window) -> None:
        """Reopen the store and compare every document with our own record."""
        self.teardown()
        with Repository.open(self.path, CacheConfig(auto_flush=False)) as reopened:
            if reopened.document_count() != len(self.expected):
                window.fail(f"document count {reopened.document_count()} != {len(self.expected)}")
            for doc_id, (props, enforced) in self.expected.items():
                snap = reopened.snapshot(doc_id)
                if dict(snap.properties) != props or set(snap.enforced) != enforced:
                    window.fail(f"document {doc_id} differs after reopen")
        self.space = corpus.dir_bytes(self.path)

    def conditions(self) -> dict:
        return {
            "preloaded_docs": len(self.docs),
            "cache_max_docs": CacheConfig().max_docs,
            "flush_policy": "auto_flush=False; explicit flush() after every write",
            "mix": "3 updates (set_property/add_values/remove_values) : 1 new document",
        }

    def details(self, window: Window) -> dict:
        payload = corpus.payload_bytes(self.docs) + self.new_payload
        return {
            "write_ms.p50": pct(window.latencies_ms(False), 50),
            "write_ms.p90": pct(window.latencies_ms(False), 90),
            "update_ms.p50": pct(window.latencies_ms(False, {"update"}), 50),
            "new_doc_ms.p50": pct(window.latencies_ms(False, {"new"}), 50),
            "writes": len(window.latencies_ms(False)),
            "space_amp": self.space / payload,
            "docs_at_end": len(self.expected),
        }


# ---- query ----

class Query(Workload):
    """Read-only disk store about twice the default cache, in rounds of one
    selective query, one broad query and point reads skewed to recent mail.

    A point read opens a message: it snapshots every property of one
    document. Each selective query scans the whole store through the cache,
    which leaves the newest documents cached with only the slice the scan
    read, so the first read of a cached document after a scan fetches its
    other slices; reads are mostly such hits, and misses are about a fifth.
    (Reading one property instead would make the hit latency bimodal, fast
    or slow by whether the last scan read that property's slice, with the
    median between the two.)"""

    name = "query"
    why = ("read path on a read-only disk store twice the cache: planner, executor, eviction and "
           "fetch_slices, with whole-document point reads skewed to the newest 500 documents")
    QUERY_KINDS = frozenset({"selective", "broad"})
    CORPUS = 2000
    RECENT = 500
    READS_PER_ROUND = 48
    PLANNED_ROUNDS = 2000
    PAGE = 10

    def generate(self) -> None:
        n = self.scaled(self.CORPUS, least=40)
        self.docs = corpus.make_docs(self.rng, n)
        recent = min(self.RECENT, n // 4)
        j = self.rng.randrange(n - n // 150 - 1)
        width = max(1, n // 150)
        lo = Value.timestamp(self.docs[j].received).to_timestamp_text()
        hi = Value.timestamp(self.docs[j + width].received).to_timestamp_text()
        deadlines = sorted(s.deadline for s in self.docs if s.deadline is not None)
        cut = Value.timestamp(deadlines[max(1, n // 200)]).to_timestamp_text()
        self.selective = [
            f"Received >= {lo} AND Received < {hi}",
            f'From = "{self.rng.choice(self.docs).sender}"',
            f"size = {self.rng.choice(self.docs).size}",
            f'schema:"to-do" AND Deadline < {cut}',
        ]
        self.broad = ['schema:"to-do"', f'content:"{corpus.COMMON_TOKEN}"', 'schema:"email"']
        self.reads = [
            self.rng.randrange(n - recent, n) if self.rng.random() < 2 / 3 else self.rng.randrange(n - recent)
            for _ in range(self.READS_PER_ROUND * self.PLANNED_ROUNDS)
        ]
        self.digests["inputs"] = corpus.inputs_digest([self.docs, self.selective, self.broad, self.reads])

    def setup(self) -> None:
        self.path = _fresh(self.workdir / "query-store")
        corpus.build_store(self.docs, self.path)
        self.repo = Repository.open(self.path, id_seed=corpus.ID_SEED)
        for doc_id in self.repo.document_ids():
            self.repo.get_document(doc_id).values("Subject")

    def after_setup(self) -> None:
        self.digests["store"] = corpus.store_digest(self.path)
        self.ids = self.repo.document_ids()
        self.results: dict[str, set] = {}
        self.read_hits = self.read_misses = 0

    def _query(self, expr: str) -> list[DocumentId]:
        cursor = self.repo.query(expr)
        for k, handle in enumerate(cursor):
            if k == self.PAGE:
                break
            handle.values("Subject")
        return cursor.ids()

    def _read(self, doc_id: DocumentId):
        return self.repo.get_document(doc_id).snapshot()

    def _run_query(self, window: Window, kind: str, expr: str) -> None:
        ok, ids = window.timed(kind, self._query, expr)
        if ok:
            self.results.setdefault(expr, set()).add(tuple(ids))

    def _run_read(self, window: Window, index: int) -> None:
        before = self.repo.stats()["cache_misses"]
        ok, snap = window.timed("read", self._read, self.ids[index])
        if not ok:
            return
        if self.repo.stats()["cache_misses"] > before:
            self.read_misses += 1
        else:
            self.read_hits += 1
        if dict(snap.properties) != _expected(self.docs[index])[0]:
            window.fail(f"read of document {index} returned {dict(snap.properties)!r}")

    def run(self, window: Window) -> None:
        half = self.READS_PER_ROUND // 2
        for r in range(self.PLANNED_ROUNDS):
            if not window.running():
                break
            reads = self.reads[r * self.READS_PER_ROUND:(r + 1) * self.READS_PER_ROUND]
            self._run_query(window, "selective", self.selective[r % len(self.selective)])
            for index in reads[:half]:
                self._run_read(window, index)
            self._run_query(window, "broad", self.broad[r % len(self.broad)])
            for index in reads[half:]:
                self._run_read(window, index)

    def check(self, window: Window) -> None:
        """Each distinct expression's ids against the naive oracle, once, run
        on the store reopened with a cache that holds every document."""
        self.teardown()
        with Repository.open(self.path, CacheConfig(max_docs=len(self.docs) + 1)) as oracle:
            for expr, answers in sorted(self.results.items()):
                expected = tuple(sorted(oracle.match_now(expr)))
                for ids in answers:
                    if ids != expected:
                        window.fail(f"query {expr!r} returned {len(ids)} ids, oracle {len(expected)}")
        self.space = corpus.dir_bytes(self.path)

    def conditions(self) -> dict:
        reads = self.read_hits + self.read_misses
        return {
            "corpus_docs": len(self.docs),
            "cache_max_docs": CacheConfig().max_docs,
            "flush_policy": "default CacheConfig (auto_flush=True, 0.5 s); read-only",
            "round": f"1 selective + 1 broad query + {self.READS_PER_ROUND} point reads",
            "read_skew": f"2/3 of reads on the newest {self.RECENT} documents",
            "read_miss_share": self.read_misses / reads if reads else 0.0,
            "selective": self.selective,
            "broad": self.broad,
            "match_counts": {e: len(next(iter(a))) for e, a in sorted(self.results.items())},
        }

    def details(self, window: Window) -> dict:
        lat = lambda *kinds: window.latencies_ms(False, set(kinds))
        return {
            "read_ms.p50": pct(lat("read"), 50),
            "read_ms.p90": pct(lat("read"), 90),
            "selective_query_ms.p50": pct(lat("selective"), 50),
            "broad_query_ms.p50": pct(lat("broad"), 50),
            "reads": len(lat("read")),
            "selective_queries": len(lat("selective")),
            "broad_queries": len(lat("broad")),
            "space_amp": self.space / corpus.payload_bytes(self.docs),
        }


# ---- pipeline ----

class Pipeline(Workload):
    """Three-stage Worker pipeline on an in-memory store, beside 100 quiet
    subscriptions; the client keeps four documents in flight."""

    name = "pipeline"
    why = ("commit-hub dispatch and mutate/enforce under worker threads, no disk; 100 quiet "
           "subscriptions make routing cost visible here and nowhere else")
    WRITE_KINDS = frozenset({"document"})
    CONCURRENT = True
    STAGES = ("stage-1", "stage-2", "stage-3")
    QUIET = 100
    IN_FLIGHT = 4
    PLANNED_DOCS = 20_000
    WARMUP_DOCS = 8
    DRAIN_S = 30.0

    def generate(self) -> None:
        self.tasks = [corpus.subject(self.rng) for _ in range(self.PLANNED_DOCS)]
        self.quiet = self.scaled(self.QUIET, least=4)
        self.digests["inputs"] = corpus.inputs_digest(self.tasks)
        self.tracer = None

    def setup(self) -> None:
        repo = self.repo = Repository.in_memory(id_seed=corpus.ID_SEED)
        repo.define_schema(Schema("intake", {}))
        for stage in self.STAGES:
            repo.define_schema(Schema(stage, {f"{stage}.done": Constraint.from_text("boolean", "1..1")}))
        for k in range(self.quiet):
            repo.define_schema(Schema(f"quiet-{k}", {}))
        self.quiet_subs = [repo.subscribe(f'schema:"quiet-{k}"') for k in range(self.quiet)]
        self.ended: dict[tuple[DocumentId, int], int] = {}
        self.handoffs: list[int] = []
        self.retries = 0
        self.workers = []
        previous = "intake"
        for k, stage in enumerate(self.STAGES, start=1):
            sub = repo.subscribe(f'schema:"{previous}" AND NOT schema:"{stage}"')
            self.workers.append(Worker(repo, sub, self._action(k, stage), name=stage).start())
            previous = stage
        self.done = repo.subscribe(f'schema:"{self.STAGES[-1]}"')
        self.next_task = 0
        self.created: list[DocumentId] = []
        warm = Window(3600)
        warm.start()
        self._drive(warm, self.WARMUP_DOCS)

    def _action(self, k: int, stage: str):
        def action(handle):
            start = time.perf_counter_ns()
            if self.tracer is not None:
                self.tracer.set_trace(str(handle.doc_id))
            previous_end = self.ended.get((handle.doc_id, k - 1))
            if previous_end is not None:
                self.handoffs.append(start - previous_end)
            try:
                handle.set_property(f"{stage}.done", [Value.boolean(True)])
                handle.enforce(stage)
            except Exception:
                self.retries += 1
                raise
            self.ended[(handle.doc_id, k)] = time.perf_counter_ns()
        return action

    def _intake(self) -> tuple[DocumentId, int]:
        handle = self.repo.create_document()
        if self.tracer is not None:
            self.tracer.set_trace(str(handle.doc_id), "document")
        handle.set_property("task", [Value.text(self.tasks[self.next_task % len(self.tasks)])])
        self.next_task += 1
        start = time.perf_counter_ns()
        handle.enforce("intake")
        self.ended[(handle.doc_id, 0)] = time.perf_counter_ns()
        return handle.doc_id, start

    def _drive(self, window: Window, limit: int | None = None) -> None:
        """Closed loop: keep IN_FLIGHT documents between intake and stage 3."""
        in_flight: dict[DocumentId, tuple[int, bool]] = {}
        started = 0
        while True:
            open_window = window.running() and (limit is None or started < limit)
            while open_window and len(in_flight) < self.IN_FLIGHT:
                window.begin_op("document")
                doc_id, t0 = self._intake()
                self.created.append(doc_id)
                in_flight[doc_id] = (t0, window.traced)
                started += 1
            if not in_flight:
                return
            delivery = self.done.take(timeout=self.DRAIN_S)
            if delivery is None:
                for doc_id in in_flight:
                    window.fail(f"document {doc_id} did not complete within {self.DRAIN_S} s")
                return
            entry = in_flight.pop(delivery.doc_id, None)
            if entry is not None:
                done = time.perf_counter_ns()
                window.ops.append(("document", done - entry[0], entry[1], done))
                window.tick()

    def run(self, window: Window) -> None:
        self.created = []
        self.handoffs.clear()
        self.retries = 0
        self.tracer = window.tracer
        self._drive(window)

    def teardown(self) -> None:
        for worker in getattr(self, "workers", ()):
            worker.stop()
        self.workers = []
        super().teardown()

    def check(self, window: Window) -> None:
        """Every document carries every stage schema; no dead letters."""
        self.repo.hub.drain(timeout=10.0)
        names = {"intake", *self.STAGES}
        for doc_id in self.created:
            if not names <= set(self.repo.enforced_of(doc_id)):
                window.fail(f"document {doc_id} lacks a stage schema")
        self.dead = sum(len(w.dead_letters()) for w in self.workers)
        for _ in range(self.dead):
            window.fail("dead letter")

    def conditions(self) -> dict:
        return {
            "store": "in-memory",
            "cache_max_docs": CacheConfig().max_docs,
            "flush_policy": "default CacheConfig (auto_flush=True, 0.5 s)",
            "stages": list(self.STAGES),
            "quiet_subscriptions": self.quiet,
            "in_flight_window": self.IN_FLIGHT,
            "documents_started": len(self.created),
        }

    def details(self, window: Window) -> dict:
        lat = window.latencies_ms(False)
        return {
            "pipeline_docs_per_s": window.throughput(False),
            "pipeline_lag_ms.p50": pct(lat, 50),
            "pipeline_lag_ms.p90": pct(lat, 90),
            "completed": len(lat),
            "dead_letters": self.dead,
        }


# ---- cli ----

class Cli(Workload):
    """A fixed script of in-process cli.main calls on a 500-document disk
    store; every call opens and closes the store with default flags."""

    name = "cli"
    why = ("one cli.main call per operation, each opening (decode and CRC) and closing (final "
           "flush) a 500-document disk store, so work moved into open or close shows here")
    WRITE_KINDS = frozenset({"set", "enforce"})
    QUERY_KINDS = frozenset({"query"})
    CORPUS = 500
    PLANNED_CYCLES = 2000

    def generate(self) -> None:
        n = self.scaled(self.CORPUS)
        self.docs = corpus.make_docs(self.rng, n)
        plain = [i for i, s in enumerate(self.docs) if s.deadline is None]
        self.rng.shuffle(plain)
        self.cycles = []
        for c in range(self.PLANNED_CYCLES):
            a, other = self.rng.randrange(n), self.rng.randrange(n)
            b = plain[c % len(plain)]
            deadline = self.docs[b].received + self.rng.randrange(1, 60) * corpus.DAY_MS
            self.cycles.append((a, corpus.subject(self.rng), self.rng.choice(self.docs).sender, b,
                                Value.timestamp(deadline).to_timestamp_text(), other))
        self.digests["inputs"] = corpus.inputs_digest([self.docs, self.cycles])

    def setup(self) -> None:
        self.path = _fresh(self.workdir / "cli-store")
        corpus.build_store(self.docs, self.path)
        code, _ = self._call("stats")
        if code != 0:
            raise RuntimeError(f"cli stats exited {code}")

    def after_setup(self) -> None:
        self.digests["store"] = corpus.store_digest(self.path)
        with Repository.open(self.path) as repo:
            self.ids = repo.document_ids()
        self.by_sender: dict[str, list[str]] = {}
        for doc_id, spec in zip(self.ids, self.docs):
            self.by_sender.setdefault(spec.sender, []).append(str(doc_id))

    def _call(self, *argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--store", str(self.path), *argv])
        return code, out.getvalue() + err.getvalue()

    def _script(self, cycle) -> list[tuple[str, tuple, object]]:
        """(kind, argv, check) triples; check(output) is True when right."""
        a, subject, sender, b, deadline, other = cycle
        ida, idb, ido = str(self.ids[a]), str(self.ids[b]), str(self.ids[other])
        rendered = subject.replace("\\", "\\\\").replace('"', '\\"')
        expected_ids = "".join(f"{d}\n" for d in sorted(self.by_sender[sender]))
        return [
            ("get", ("get", ida), lambda out: out.startswith(f"id {ida}\n")),
            ("set", ("set", ida, "Subject", f"text:{subject}"), lambda out: out == ""),
            ("get", ("get", ida), lambda out: f'Subject = "{rendered}"\n' in out),
            ("query", ("query", f'From = "{sender}"'), lambda out: out == expected_ids),
            ("schema", ("schema", "list"), lambda out: out == "email\nto-do\n"),
            ("get", ("get", ido), lambda out: out.startswith(f"id {ido}\n")),
            ("set", ("set", idb, "Deadline", deadline), lambda out: out == ""),
            ("enforce", ("enforce", idb, "to-do"), lambda out: out == ""),
            ("get", ("get", idb), lambda out: "enforced to-do\n" in out and f"Deadline = {deadline}\n" in out),
            ("get", ("get", ida), lambda out: f'Subject = "{rendered}"\n' in out),
        ]

    def run(self, window: Window) -> None:
        for cycle in self.cycles:
            if not window.running():
                break
            for kind, argv, check in self._script(cycle):
                gc.collect()  # start each call from a clean heap, as a new process would
                ok, result = window.timed(kind, self._call, *argv)
                if ok and (result[0] != 0 or not check(result[1])):
                    window.fail(f"cli {' '.join(argv)} exited {result[0]}: {result[1][:200]!r}")

    def check(self, window: Window) -> None:
        self.space = corpus.dir_bytes(self.path)

    def conditions(self) -> dict:
        return {
            "corpus_docs": len(self.docs),
            "cache_max_docs": CacheConfig().max_docs,
            "flush_policy": "CLI defaults (--cache-docs 1024, --flush-ms 500); close() flushes",
            "script": ("get, set Subject, get, query From, schema list, get, set Deadline, "
                       "enforce to-do, get, get"),
        }

    def details(self, window: Window) -> dict:
        lat = window.latencies_ms(False)
        return {
            "cli_cmd_ms.p50": pct(lat, 50),
            "cli_cmd_ms.p90": pct(lat, 90),
            "commands": len(lat),
            "space_amp": self.space / corpus.payload_bytes(self.docs),
        }


WORKLOADS = {w.name: w for w in (Ingest, Query, Pipeline, Cli)}
