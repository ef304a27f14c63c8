"""Per-layer metrics of a traced run, and what each one should move.

Each entry names the end-to-end metric the layer metric should move and the
workload where it should move it, so a later change can cite both by name.
The traced run reports every metric on every workload; where a workload
never calls the entry point a metric reads, the metric is 0. Percentiles
are over every span of the measured half that ran traced; `store.open_ms`,
`store.crc32c_ms_per_mb` and `engine.open_ms` also include the opens made
while setting up, which is where the disk workloads open their store.
"""

from __future__ import annotations

from bench.tracing import LAYERS, Tracer
from bench.workloads import Window, Workload, pct

# name -> (unit, better, end-to-end metric it should move, workloads)
PER_LAYER = {
    "store.put_rows.per_write": ("count", "lower", "write_ms.*", "ingest"),
    "store.put_rows_ms.p50": ("ms", "lower", "write_ms.*", "ingest"),
    "store.bytes_written_per_write": ("bytes", "lower", "write_ms.*, space_amp", "ingest"),
    "store.open_ms.p50": ("ms", "lower", "cli_cmd_ms.*, setup_s", "cli, ingest, query"),
    "store.crc32c_ms_per_mb": ("ms/MB", "lower", "cli_cmd_ms.*, setup_s", "cli, ingest, query"),
    "store.fetch_slices.per_query": ("count", "lower", "selective_query_ms.p50, read_ms.p90", "query"),
    "store.fetch_slices_us.p50": ("us", "lower", "selective_query_ms.p50, read_ms.p90", "query"),
    "engine.mutate_us.p50": ("us", "lower", "write_ms.p50, pipeline_docs_per_s", "ingest, pipeline"),
    "engine.enforce_us.p50": ("us", "lower", "write_ms.p50, pipeline_docs_per_s", "ingest, pipeline"),
    "engine.flush_ms.p50": ("ms", "lower", "write_ms.*, cli_cmd_ms.*", "ingest, cli"),
    "engine.open_ms.p50": ("ms", "lower", "cli_cmd_ms.*, setup_s", "cli"),
    "engine.cache_hit_ratio": ("ratio", "higher", "read_ms.*, selective_query_ms.p50", "query"),
    "engine.cache_hits": ("count", "higher", "read_ms.*, selective_query_ms.p50", "query"),
    "engine.cache_misses": ("count", "lower", "read_ms.*, selective_query_ms.p50", "query"),
    "engine.evictions_per_op": ("count", "lower", "read_ms.*, selective_query_ms.p50", "query"),
    "parsing.parse_us.p50": ("us", "lower", "broad_query_ms.p50", "query"),
    "query.plan_us.p50": ("us", "lower", "broad_query_ms.p50", "query"),
    "query.execute_ms.p50": ("ms", "lower", "selective_query_ms.p50", "query"),
    "query.docs_examined_per_match": ("ratio", "lower", "selective_query_ms.p50", "query"),
    "schemas.validate_us.p50": ("us", "lower", "write_ms.*, pipeline_docs_per_s", "ingest, pipeline"),
    "schemas.violations_us.p50": ("us", "lower", "write_ms.*, pipeline_docs_per_s", "ingest, pipeline"),
    "coordination.publish_us.p50": ("us", "lower", "write_ms.p50, pipeline_lag_ms.*", "ingest, pipeline"),
    "coordination.evals_per_commit": ("count", "lower", "pipeline_docs_per_s, pipeline_lag_ms.*", "pipeline"),
    "coordination.match_us_per_commit": ("us", "lower", "pipeline_docs_per_s, pipeline_lag_ms.*", "pipeline"),
    "coordination.handoff_ms.p50": ("ms", "lower", "pipeline_lag_ms.*", "pipeline"),
    "coordination.retries": ("count", "lower", "fail_ratio", "pipeline"),
    "coordination.dead_letters": ("count", "lower", "fail_ratio", "pipeline"),
    "cli.open_ms.p50": ("ms", "lower", "cli_cmd_ms.*", "cli"),
    "cli.close_ms.p50": ("ms", "lower", "cli_cmd_ms.*", "cli"),
    "cli.body_ms.p50": ("ms", "lower", "cli_cmd_ms.*", "cli"),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_ms_per_op"] = ("ms", "lower", "op_ms.p50, ops_per_s", "all")


def measure(tracer: Tracer, workload: Workload, window: Window, cache: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the traced half of one run."""
    run, setup = tracer.aggs["run"], tracer.aggs["setup"]
    traced_ops = [op[0] for op in window.ops if op[2]]
    ops = len(traced_ops)
    writes = sum(kind in workload.WRITE_KINDS for kind in traced_ops)
    queries = sum(kind in workload.QUERY_KINDS for kind in traced_ops)

    def count(name):
        return run[name].count if name in run else 0

    def p50(name, scale, both=False, self_time=False):
        samples = []
        for aggs in (run, setup) if both else (run,):
            if name in aggs:
                samples += aggs[name].selfs if self_time else aggs[name].durations
        return pct(samples, 50) / scale

    def ratio(a, b):
        return a / b if b else 0.0

    crc_ns = sum(a["store.crc32c"].total_ns for a in (run, setup) if "store.crc32c" in a)
    crc_bytes = sum(a["store.crc32c"].nbytes for a in (run, setup) if "store.crc32c" in a)
    fetches_in_queries = (
        sum(n for kind, n in run["store.fetch_slices"].by_kind.items() if kind in workload.QUERY_KINDS)
        if "store.fetch_slices" in run else 0
    )
    dispatches = count("coordination.dispatch")
    eval_ns = run["query.evaluate_doc"].total_ns if "query.evaluate_doc" in run else 0
    lookups = cache["hits"] + cache["misses"]
    out = {
        "store.put_rows.per_write": ratio(count("store.put_rows"), writes),
        "store.put_rows_ms.p50": p50("store.put_rows", 1e6),
        "store.bytes_written_per_write": ratio(window.wchar[True], writes),
        "store.open_ms.p50": p50("store.open", 1e6, both=True),
        "store.crc32c_ms_per_mb": ratio(crc_ns / 1e6, crc_bytes / 1e6),
        "store.fetch_slices.per_query": ratio(fetches_in_queries, queries),
        "store.fetch_slices_us.p50": p50("store.fetch_slices", 1e3),
        "engine.mutate_us.p50": p50("engine.mutate", 1e3),
        "engine.enforce_us.p50": p50("engine.enforce", 1e3),
        "engine.flush_ms.p50": p50("engine.flush", 1e6),
        "engine.open_ms.p50": p50("engine.open", 1e6, both=True, self_time=True),
        "engine.cache_hit_ratio": ratio(cache["hits"], lookups),
        "engine.cache_hits": cache["hits"],
        "engine.cache_misses": cache["misses"],
        "engine.evictions_per_op": ratio(cache["evictions"], cache["ops"]),
        "parsing.parse_us.p50": p50("parsing.parse_query", 1e3),
        "query.plan_us.p50": p50("query.plan", 1e3),
        "query.execute_ms.p50": p50("query.execute", 1e6),
        "query.docs_examined_per_match": ratio(tracer.counters["query.examined"], tracer.counters["query.matched"]),
        "schemas.validate_us.p50": p50("schemas.validate", 1e3),
        "schemas.violations_us.p50": p50("schemas.violations", 1e3),
        "coordination.publish_us.p50": p50("coordination.publish", 1e3),
        "coordination.evals_per_commit": ratio(count("query.evaluate_doc"), dispatches),
        "coordination.match_us_per_commit": ratio(eval_ns / 1e3, dispatches),
        "coordination.handoff_ms.p50": pct(getattr(workload, "handoffs", ()), 50) / 1e6,
        "coordination.retries": getattr(workload, "retries", 0),
        "coordination.dead_letters": getattr(workload, "dead", 0),
        "cli.open_ms.p50": p50("engine.open", 1e6),
        "cli.close_ms.p50": p50("engine.close", 1e6),
        "cli.body_ms.p50": p50("cli.body", 1e6),
    }
    for layer, ns in tracer.layer_self_ns().items():
        out[f"{layer}.self_ms_per_op"] = ratio(ns / 1e6, ops)
    return out
