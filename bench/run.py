#!/usr/bin/env python3
"""Harland benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload query --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from `src/` of the
same checkout and nowhere else. The workload's inputs are made from
`--seed` before timing starts. The store is set up at least SETUPS times,
and again while the set-ups have taken less than SETUP_BUDGET_S, and the
median is `setup_s`; the last set-up is measured for `--seconds`, then the
outputs are checked.

Every timing of the result is at reference speed (`bench/speed.py`): the
load thread times a fixed slice of interpreter work between operations and
around each set-up, and each measured time is scaled by how long the slices
near it took, so the speed of a shared host, which drifts by 20% and more
from minute to minute, cancels out. The report line also gives the timings
as measured (`raw`).

With `--trace 0` the result carries the end-to-end metrics, measured with
tracing off. With `--trace 1` the run switches tracing on and off in
one-second blocks; the result carries the per-layer metrics from the traced
blocks, and the report line gives the end-to-end numbers of both halves and
their ratio, the tracing overhead. Spans go to `bench/out/`.

Standard output ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`; the line before it is the
full report (run conditions, input digests, per-workload metrics). The exit
code is 0 only when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUPS = 3
SETUP_BUDGET_S = 3.0
MAX_SETUPS = 15

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ingest", "query", "pipeline", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply corpus sizes (the smoke test uses a small value)")
    return p.parse_args(argv)


def import_program():
    """Import harland from this checkout's src/, or fail."""
    if not (SRC / "harland" / "__init__.py").is_file():
        raise SystemExit(f"error: no harland sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import harland

    if Path(harland.__file__).resolve().parent != (SRC / "harland").resolve():
        raise SystemExit(f"error: imported harland from {harland.__file__}, not {SRC}")


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "disk": "disk timings are the operating system's page cache, not a device's: the store issues no fsync",
    }


def pin_to_one_cpu() -> str:
    """Run every thread of the process on one CPU. The program's threads take
    turns under one interpreter lock, so a second CPU adds no parallelism,
    only cross-CPU wake-ups, whose cost on a virtual machine swamps the work
    and varies from run to run."""
    try:
        cpu = max(os.sched_getaffinity(0))  # the first CPU usually takes more interrupts
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned: {exc!r}"
    return f"pinned to cpu {cpu}"


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    affinity = pin_to_one_cpu()
    from bench import layers, tracing
    from bench.speed import Speed
    from bench.workloads import WORKLOADS, Window

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
    try:
        workload.generate()
        if tracer is not None:
            tracing.install(tracer)
            tracer.active = True
        speed = Speed()
        setup_s, setup_raw_s = [], []
        while len(setup_s) < SETUPS or (sum(setup_raw_s) < SETUP_BUDGET_S and len(setup_s) < MAX_SETUPS):
            if setup_s:
                workload.teardown()
                gc.collect()
            speed.calibrate()
            t = time.perf_counter_ns()
            workload.setup()
            end = time.perf_counter_ns()
            speed.calibrate()
            setup_raw_s.append((end - t) / 1e9)
            setup_s.append(speed.scale(end - t, t, end) / 1e9)
        workload.after_setup()

        window = Window(args.seconds, tracer, workload.CONCURRENT, speed)
        before = workload.repo_stats()
        speed.calibrate()
        window.start()
        speed.start()
        workload.run(window)
        window.stop()
        speed.calibrate()
        after = workload.repo_stats()
        workload.check(window)

        if tracer is None:
            metrics = dict(window.end_to_end(), setup_s=statistics.median(setup_s), rss_mb=rss_mb())
            result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
            overhead = None
        else:
            tracer.unwrap_all()
            if before:
                cache = {k: after[f"cache_{k}"] - before[f"cache_{k}"] for k in ("hits", "misses")}
                cache.update(evictions=after["evictions"] - before["evictions"], ops=len(window.ops))
            else:
                cache = {k: tracer.counters[f"closed.cache_{k}"] for k in ("hits", "misses")}
                cache.update(evictions=tracer.counters["closed.evictions"],
                             ops=sum(op[2] for op in window.ops))
            metrics = layers.measure(tracer, workload, window, cache)
            result_metrics = {
                name: {"value": metrics[name], "unit": spec[0]} for name, spec in layers.PER_LAYER.items()
            }
            untraced, traced = window.end_to_end(False), window.end_to_end(True)
            overhead = {
                "untraced": untraced,
                "traced": traced,
                "traced_over_untraced": {k: traced[k] / untraced[k] if untraced[k] else 0.0 for k in traced},
                "layer_self_ms": {k: v / 1e6 for k, v in tracer.layer_self_ns().items()},
                "per_layer_targets": {
                    name: {"should_move": spec[2], "on": spec[3]} for name, spec in layers.PER_LAYER.items()
                },
                "spans_file": None,
            }

        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if tracer is not None:
            spans = OUT / f"{tag}-spans.jsonl"
            tracer.export(spans)
            overhead["spans_file"] = str(spans.relative_to(ROOT))
        attempted = len(window.ops) + window.failed
        report = {
            "workload": args.workload,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "machine": dict(machine(), affinity=affinity),
            "conditions": workload.conditions(),
            "digests": workload.digests,
            "setup_s_each": setup_s,
            "details": workload.details(window),
            "metrics": metrics,
            "raw": dict(window.end_to_end(None if tracer is None else False, raw=True),
                        setup_s=statistics.median(setup_raw_s), setup_s_each=setup_raw_s),
            "speed": speed.summary(),
            "tracing": overhead,
            "fail_ratio": window.failed / attempted if attempted else 0.0,
            "errors": window.errors,
        }
        (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps({
            "correct": window.failed == 0,
            "attempted": max(attempted, 1),
            "failed": window.failed,
            "metrics": result_metrics,
        }))
        return 0 if window.failed == 0 and window.ops else 1
    finally:
        if tracer is not None:
            tracer.unwrap_all()
            tracer.active = False
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
