"""Spans around each layer's public entry points, recorded from outside.

Shims replace methods on the program's classes and functions as bound in
the modules that call them; nothing under `src/` changes. A span has a
name (`<layer>.<entry>`), start, end, span id, parent span id and trace id.
The trace id is the benchmark operation on the client thread; on the
dispatcher thread it is the document of the commit being dispatched, and on
a pipeline worker the document being worked on. Self time is a span's
duration minus the time of its direct children on the same thread.

Aggregates are kept for every span; the first KEEP spans are also kept
whole and written out when the run ends. Shims cost one attribute read
while the tracer is inactive, so a run can switch tracing on and off in
blocks and compare the two.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("engine", "store", "schemas", "query", "parsing", "coordination", "cli")


class _Agg:
    __slots__ = ("count", "total_ns", "self_ns", "durations", "selfs", "nbytes", "by_kind")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations: list[int] = []
        self.selfs: list[int] = []
        self.nbytes = 0
        self.by_kind: dict[str, int] = defaultdict(int)


class Tracer:
    """Thread-aware span recorder; `active` switches recording on and off."""

    SAMPLE_CAP = 200_000  # per-name durations kept for percentiles
    KEEP = 20_000  # whole spans kept for export

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.phase = "setup"
        self.aggs: dict[str, dict[str, _Agg]] = {"setup": defaultdict(_Agg), "run": defaultdict(_Agg)}
        self.op_kinds: dict[str, str] = {}  # trace id -> operation kind
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._lock = threading.Lock()

    # ---- trace ids ----

    def set_trace(self, trace_id: str, kind: str | None = None) -> None:
        self._local.trace = trace_id
        if kind is not None:
            self.op_kinds[trace_id] = kind

    def current_trace(self) -> str:
        return getattr(self._local, "trace", threading.current_thread().name)

    # ---- spans ----

    def _enter(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][2] if stack else 0
        frame = [name, time.perf_counter_ns(), next(self._ids), parent, self.current_trace(), 0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, nbytes: int = 0) -> None:
        end = time.perf_counter_ns()
        stack = self._local.stack
        stack.pop()
        name, start, span_id, parent, trace_id, child_ns = frame
        dur = end - start
        if stack:
            stack[-1][5] += dur
        with self._lock:
            agg = self.aggs[self.phase][name]
            agg.count += 1
            agg.total_ns += dur
            agg.self_ns += dur - child_ns
            agg.nbytes += nbytes
            agg.by_kind[self.op_kinds.get(trace_id, "background")] += 1
            if len(agg.durations) < self.SAMPLE_CAP:
                agg.durations.append(dur)
                agg.selfs.append(dur - child_ns)
            if len(self.spans) < self.KEEP:
                self.spans.append((name, start, end, span_id, parent, trace_id))
            else:
                self.dropped += 1

    # ---- shims ----

    def _shim(self, fn, name: str, size_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            nbytes = size_of(args) if size_of else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, nbytes)
            if after is not None:
                after(args, result)
            return result

        return shim

    def wrap(self, owner, attr: str, name: str, size_of=None, after=None) -> None:
        """Replace owner.attr (function, method or classmethod) with a shim."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._shim(original.__func__, name, size_of, after))
        else:
            replacement = self._shim(original, name, size_of, after)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- summaries ----

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer over the measured phase."""
        out = {layer: 0 for layer in LAYERS}
        with self._lock:
            for name, agg in self.aggs["run"].items():
                layer = name.split(".", 1)[0]
                if layer in out:
                    out[layer] += agg.self_ns
        return out

    def summary(self) -> dict:
        with self._lock:
            return {
                phase: {
                    name: {
                        "count": agg.count,
                        "total_ms": agg.total_ns / 1e6,
                        "self_ms": agg.self_ns / 1e6,
                        "by_kind": dict(agg.by_kind),
                    }
                    for name, agg in sorted(aggs.items())
                }
                for phase, aggs in self.aggs.items()
            }

    def export(self, path: Path) -> None:
        """Spans as JSON lines, then one line with the aggregate summary."""
        with open(path, "w") as f:
            for name, start, end, span_id, parent, trace_id in self.spans:
                f.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "span": span_id, "parent": parent, "trace": trace_id,
                }) + "\n")
            f.write(json.dumps({"dropped_spans": self.dropped, "summary": self.summary()}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points."""
    from harland import cli, coordination, engine, schemas, store

    repo = engine.Repository
    for attr in ("mutate", "enforce", "unenforce", "flush", "create_document", "get_document",
                 "values", "snapshot_of", "bags_of", "query", "match_now", "subscribe",
                 "put_content", "get_content", "define_schema"):
        tracer.wrap(repo, attr, f"engine.{attr}")
    tracer.wrap(repo, "open", "engine.open")

    def count_cache(args, result):
        # a repository's counters as it closes: how cli.main calls used their cache
        stats = args[0].stats()
        for key in ("cache_hits", "cache_misses", "evictions"):
            tracer.counters[f"closed.{key}"] += stats[key]

    tracer.wrap(repo, "close", "engine.close", after=count_cache)

    def count_examined(args, result):
        tracer.counters["query.examined"] += args[1].document_count()
        tracer.counters["query.matched"] += len(result)

    tracer.wrap(engine, "parse_query", "parsing.parse_query")
    tracer.wrap(engine, "plan", "query.plan")
    tracer.wrap(engine, "execute", "query.execute", after=count_examined)
    tracer.wrap(coordination, "evaluate_doc", "query.evaluate_doc")
    tracer.wrap(cli, "parse_cli_literal", "parsing.parse_cli_literal")

    backend = store.MemoryBackend
    for attr in ("put_rows", "fetch_slices", "content_write", "content_read", "delete_document",
                 "meta_view", "checkpoint"):
        tracer.wrap(backend, attr, f"store.{attr}")
    tracer.wrap(store.DiskBackend, "checkpoint", "store.checkpoint")
    tracer.wrap(store.DiskBackend, "open", "store.open")
    tracer.wrap(store.DiskBackend, "init", "store.init")
    tracer.wrap(store, "crc32c", "store.crc32c", size_of=lambda args: len(args[0]))

    tracer.wrap(schemas.SchemaRegistry, "validate_mutation", "schemas.validate")
    tracer.wrap(schemas.SchemaRegistry, "violations", "schemas.violations")
    tracer.wrap(schemas.SchemaRegistry, "define", "schemas.define")

    hub = coordination.CommitHub
    tracer.wrap(hub, "publish", "coordination.publish")
    tracer.wrap(hub, "subscribe", "coordination.subscribe")
    tracer.wrap(hub, "_dispatch", "coordination.dispatch")
    traced_dispatch = vars(hub)["_dispatch"]

    def dispatch(self, event):
        tracer.set_trace(str(event.doc_id))
        return traced_dispatch(self, event)

    hub._dispatch = dispatch
    tracer._undo.append((hub, "_dispatch", traced_dispatch))

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "_run", "cli.body")
