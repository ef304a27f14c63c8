"""Bulk-load probe: what loading N documents costs, phase by phase, with
no transition subscription and with one.

    PYTHONPATH=src python tests/probe_bulk_load.py [--sizes 2000] [--repeat 5]

For each size N, the benchmark's corpus generator (`bench/corpus.py`, seed
1) makes N documents, and each is added the way the benchmark builds its
stores (`corpus.add_document`: create, one set_property per property,
enforce, content) into an in-memory repository without a background
flusher. The probe times, best and median of --repeat loads:

- adding the N documents;
- `flush()`, the one group commit of all of them;
- `backend.checkpoint` into a new store directory;
- `Repository.open` of that store plus `close()`.

Each load runs twice: unwatched (no subscription) and watched (one
transition subscription on `schema:"to-do"`, taken before the first
document, so every commit is queued for the dispatcher and `close()`
waits for it). For each it prints the repository's `commits` and
`commits_dispatched` counters and whether a `harland-dispatch` thread
started. It exits 1 when an unwatched load queued an event or started the
thread, or a watched one did not queue one event per commit.

Then, for each size, a report-only content case opens the N-document store
that the last load checkpointed and calls `put_content` on 20 content
documents --repeat times over, once on new documents (dirty, never
committed) and once on documents flushed just before. It prints the
backend batches and checkpoint writes per `put_content` and the best and
median time of one call.

Every timing runs in this process on this host, so compare two commits by
running both here. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # bench.corpus

from bench import corpus  # noqa: E402
from harland.engine import CacheConfig, Repository  # noqa: E402
from harland.model import DocumentKind  # noqa: E402

CONTENT_WRITES = 20  # put_content calls per round of the content case


def dispatcher_started(repo: Repository) -> bool:
    return repo.hub._thread is not None or any(t.name == "harland-dispatch" for t in threading.enumerate())


def load(docs: list, watched: bool, scratch: Path) -> dict:
    """One load; returns each phase's seconds and the hub's counters."""
    times = {}
    repo = Repository.in_memory(CacheConfig(max_docs=len(docs) + 1, auto_flush=False), id_seed=corpus.ID_SEED)
    try:
        corpus.define_schemas(repo)
        if watched:
            repo.subscribe('schema:"to-do"')
        t0 = time.perf_counter()
        for spec in docs:
            corpus.add_document(repo, spec)
        t1 = time.perf_counter()
        repo.flush()
        t2 = time.perf_counter()
        path = scratch / "store"
        shutil.rmtree(path, ignore_errors=True)
        repo.backend.checkpoint(path)
        t3 = time.perf_counter()
        times.update(add=t1 - t0, flush=t2 - t1, checkpoint=t3 - t2)
        stats = repo.stats()
        started = dispatcher_started(repo)
    finally:
        repo.close()
    t4 = time.perf_counter()
    Repository.open(path, config=CacheConfig(auto_flush=False)).close()
    times["reopen"] = time.perf_counter() - t4
    return {"times": times, "commits": stats["commits"], "dispatched": stats["commits_dispatched"], "started": started}


def content_writes(path: Path, clean: bool, repeat: int) -> dict:
    """put_content on CONTENT_WRITES new content documents, repeat rounds,
    into the store at path: per call, the backend batches and checkpoint
    writes, and each call's seconds. clean: flush the documents first."""
    repo = Repository.open(path, CacheConfig(auto_flush=False))
    times, batches, writes = [], 0, 0
    try:
        for _ in range(repeat):
            handles = [repo.create_document(DocumentKind.CONTENT) for _ in range(CONTENT_WRITES)]
            if clean:
                repo.flush()
            before = repo.stats()
            for i, handle in enumerate(handles):
                t0 = time.perf_counter()
                handle.put_content(f"status report {i} due friday".encode())
                times.append(time.perf_counter() - t0)
            after = repo.stats()
            batches += after["backend_batches"] - before["backend_batches"]
            writes += after["checkpoint_writes"] - before["checkpoint_writes"]
    finally:
        repo.close()
    return {"times": times, "batches": batches / len(times), "writes": writes / len(times)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", default="2000", help="comma-separated document counts")
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="harland-bulk-") as tmp:
        for n in (int(s) for s in args.sizes.split(",")):
            docs = corpus.make_docs(random.Random(1), n)
            for watched in (False, True):
                label = "watched" if watched else "unwatched"
                runs = [load(docs, watched, Path(tmp)) for _ in range(args.repeat)]
                for phase in ("add", "flush", "checkpoint", "reopen"):
                    ms = [r["times"][phase] * 1e3 for r in runs]
                    print(f"N={n} {label} {phase}: best {min(ms):.1f} ms, median {statistics.median(ms):.1f} ms")
                last = runs[-1]
                print(f"N={n} {label} commits {last['commits']}, commits_dispatched {last['dispatched']}, "
                      f"dispatcher thread {'started' if last['started'] else 'not started'}")
                for r in runs:
                    if watched:
                        ok = r["dispatched"] == r["commits"] and r["started"]
                    else:
                        ok = r["dispatched"] == 0 and not r["started"]
                    if not ok:
                        failures += 1
                        print(f"FAIL N={n} {label}: commits {r['commits']}, commits_dispatched {r['dispatched']}, "
                              f"dispatcher {'started' if r['started'] else 'not started'}")
            for clean in (False, True):
                label = "clean" if clean else "new"
                r = content_writes(Path(tmp) / "store", clean, args.repeat)
                ms = [t * 1e3 for t in r["times"]]
                print(f"N={n} content {label}: {r['batches']:.2f} batches and {r['writes']:.2f} checkpoint writes "
                      f"per put_content, best {min(ms):.2f} ms, median {statistics.median(ms):.2f} ms")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
