"""Read-path probe: what a point read and a query cost on the query workload.

    PYTHONPATH=src python tests/probe_read_path.py [--rounds 2000] [--repeat 5]

The benchmark's query workload (`bench/workloads.py`, seed 1, scale 1)
generates its inputs with the `bench/corpus.py` generator, builds its
2,000-document disk store and opens it with the default cache (1,024
documents). The probe then replays the workload's round mix --repeat
times on that one repository: per round one selective query, half the
round's point reads, one broad query and the other half, each query
reading `Subject` of its first page of results, and each read
`get_document(id).snapshot()` of one document, 2/3 of them among the
newest 500.

Each read is timed alone and filed by the `cache_misses` and
`backend_fetches` deltas of `Repository.stats()` around it:

    hit         cached, every slice loaded: no miss, no fetch
    hit+fetch   cached with some slice not loaded (a query read one slice
                of it): no miss, one fetch
    miss        not cached: one miss, one fetch

For each pass it prints the count, p50 and p90 of each class and the p50
of each query kind, in microseconds, and last the best p50 of each over
the passes.

Before the passes, it splits the cost of each of the workload's seven
query texts, median of --samples calls in microseconds: for a first call
(the plan cache emptied before each) parse, plan, execute and the first
page (reading `Subject` of the first 10 results, as the workload does),
and for a repeated call the cache lookup, execute and the first page.

Every timing runs in this process on this host, so compare two commits by
running both here. It exits non-zero when a read returns other properties
than the corpus gave the document, or when a query text it has run before
compiles again (`plans_compiled` in `Repository.stats()` moves during the
passes or during the repeated calls). The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # bench

from bench.workloads import Query, _expected, pct  # noqa: E402
from harland.engine import Cursor  # noqa: E402
from harland.parsing import parse_query  # noqa: E402
from harland.query import execute, plan  # noqa: E402

CLASSES = ("hit", "hit+fetch", "miss")


def replay(workload: Query, rounds: int) -> dict[str, list[float]]:
    """One pass of the round mix; latencies in microseconds by class and
    query kind."""
    repo = workload.repo
    times: dict[str, list[float]] = {name: [] for name in (*CLASSES, "selective", "broad")}
    clock = time.perf_counter

    def query(kind: str, expr: str) -> None:
        start = clock()
        workload._query(expr)
        times[kind].append((clock() - start) * 1e6)

    def read(index: int) -> None:
        doc_id = workload.ids[index]
        before = repo.stats()
        start = clock()
        snapshot = repo.get_document(doc_id).snapshot()
        elapsed = (clock() - start) * 1e6
        after = repo.stats()
        if after["cache_misses"] > before["cache_misses"]:
            kind = "miss"
        elif after["backend_fetches"] > before["backend_fetches"]:
            kind = "hit+fetch"
        else:
            kind = "hit"
        times[kind].append(elapsed)
        if dict(snapshot.properties) != _expected(workload.docs[index])[0]:
            sys.exit(f"read of document {index} returned {dict(snapshot.properties)!r}")

    per_round = workload.READS_PER_ROUND
    half = per_round // 2
    for r in range(rounds):
        reads = workload.reads[r * per_round:(r + 1) * per_round]
        query("selective", workload.selective[r % len(workload.selective)])
        for index in reads[:half]:
            read(index)
        query("broad", workload.broad[r % len(workload.broad)])
        for index in reads[half:]:
            read(index)
    return times


def _page(repo, compiled, matches) -> None:
    for k, handle in enumerate(Cursor(repo, compiled, matches)):
        if k == Query.PAGE:
            break
        handle.values("Subject")


def split(workload: Query, samples: int) -> None:
    """Prints, per query text, the median cost of each step of a first call
    and of a repeated call, in microseconds; exits non-zero when a
    repeated call compiles."""
    repo = workload.repo
    clock = time.perf_counter
    for text in (*workload.selective, *workload.broad):
        steps: dict[str, list[float]] = {}

        def timed(name: str, fn, *args):
            start = clock()
            result = fn(*args)
            steps.setdefault(name, []).append((clock() - start) * 1e6)
            return result

        for _ in range(samples):
            repo._plans.clear()  # a first call: the text is not cached
            expr = timed("parse", parse_query, text)
            timed("plan", plan, expr, repo.registry)
            compiled = repo._compiled(text)
            timed("first page", _page, repo, compiled, timed("execute", execute, compiled, repo))
        before = repo.stats()["plans_compiled"]
        for _ in range(samples):
            compiled = timed("lookup", repo._compiled, text)
            timed("page", _page, repo, compiled, timed("execute again", execute, compiled, repo))
        if repo.stats()["plans_compiled"] != before:
            sys.exit(f"the repeated text {text!r} compiled again")
        cost = {name: statistics.median(times) for name, times in steps.items()}
        print(f"first: parse {cost['parse']:.1f} plan {cost['plan']:.1f} execute {cost['execute']:.1f} "
              f"page {cost['first page']:.1f}; repeated: lookup {cost['lookup']:.1f} "
              f"execute {cost['execute again']:.1f} page {cost['page']:.1f}  {text}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=Query.PLANNED_ROUNDS, help="rounds per pass")
    parser.add_argument("--repeat", type=int, default=5, help="passes over the rounds; best p50 of each")
    parser.add_argument("--samples", type=int, default=200, help="calls per query text and step in the split")
    args = parser.parse_args(argv)
    rounds = min(args.rounds, Query.PLANNED_ROUNDS)  # the workload plans this many rounds of reads

    with tempfile.TemporaryDirectory() as scratch:
        workload = Query(seed=1, scale=1.0, workdir=Path(scratch))
        workload.generate()
        start = time.perf_counter()
        workload.setup()
        print(f"store of {len(workload.docs)} documents built and opened in {time.perf_counter() - start:.2f} s")
        workload.after_setup()
        best: dict[str, float] = {}
        try:
            split(workload, args.samples)
            for text in (*workload.selective, *workload.broad):  # the split leaves only the last text cached
                workload._query(text)
            compiled = workload.repo.stats()["plans_compiled"]
            for n in range(1, args.repeat + 1):
                times = replay(workload, rounds)
                cells = []
                for name in CLASSES:
                    lat = times[name]
                    cells.append(f"{name} {len(lat)}" + (f": p50 {pct(lat, 50):.1f} p90 {pct(lat, 90):.1f}" if lat else ""))
                for name in ("selective", "broad"):
                    cells.append(f"{name} p50 {pct(times[name], 50):.0f}")
                for name, lat in times.items():
                    if lat:
                        best[name] = min(best.get(name, float("inf")), pct(lat, 50))
                print(f"pass {n} (us): " + "; ".join(cells))
            if workload.repo.stats()["plans_compiled"] != compiled:
                sys.exit("a query text compiled again during the passes")
        finally:
            workload.teardown()
        print("best p50 (us): " + "; ".join(f"{name} {value:.1f}" for name, value in best.items()))


if __name__ == "__main__":
    main()
