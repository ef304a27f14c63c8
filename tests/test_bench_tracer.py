"""The benchmark's tracer wraps names the program has.

`bench/tracing.py` replaces entry points of the engine, store, schema,
query, coordination and cli modules with timing shims, looked up by name.
Installing it here, driving a small repository with tracing on, and
removing it again makes a rename or deletion of any wrapped name fail
these tests, not only a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from harland.engine import CacheConfig, Repository
from harland.model import Constraint, Schema, Value

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_records_spans_and_unwraps():
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # a missing name raises here, after unwrapping is set up
        originals = {}  # a name wrapped twice gets its first original back
        for owner, attr, original in tracer._undo:
            originals.setdefault((owner, attr), original)
        assert len(originals) > 30
        tracer.active = True
        with Repository.in_memory(config=CacheConfig(auto_flush=False)) as repo:
            repo.define_schema(Schema("note", {"n": Constraint.from_text("integer", "0..1")}))
            handle = repo.create_document()
            handle.set_property("n", [Value.integer(1)])
            handle.enforce("note")
            repo.flush()
            assert len(repo.query('schema:"note" AND n = 1')) == 1
        tracer.active = False
    finally:
        tracer.unwrap_all()
    for (owner, attr), original in originals.items():
        assert _current(owner, attr) is original, attr
    names = set(tracer.aggs["setup"])
    assert {"engine.mutate", "engine.enforce", "engine.flush", "engine.query", "store.put_rows",
            "schemas.validate", "schemas.violations", "schemas.define", "query.plan",
            "query.execute", "parsing.parse_query", "coordination.publish"} <= names
