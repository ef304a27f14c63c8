"""Query-source scaling probe: what each candidate source costs as the store grows.

    PYTHONPATH=src python tests/probe_query_sources.py [--sizes 2000,20000] [--matches 50] [--repeat 20]

For each size N, an in-memory repository gets N content documents, each
with one integer `n` (its index), one enforced schema and one content
token, flushed once. Exactly --matches documents enforce `hit`, hold the
token `hit`, and fall in each range; the others enforce `other` and hold
the token `other`, and every tenth document is a member of one collection.
For each source the probe times query.candidates (the sources under the
repository lock, their combination and the final sort, but no document
evaluation), best of --repeat after one untimed call that builds the
source's column or inverted file:

    schema        schema:"hit"
    content       content:"hit"
    merged range  n >= a AND n < a + matches
    single range  n < matches

and prints the candidate count and whether the candidates are exact (the
answer without evaluating a document). At a fixed match count a source
that costs O(log n + matches) reads the same time at every size. It also
prints the tracemalloc size of the backend's inverted files (schema,
content token and member maps), each built once while tracing; a program
without them prints "-".

It prints one line per measurement and exits non-zero only when a
candidate count is wrong. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc

from harland.engine import CacheConfig, Repository
from harland.model import DocumentKind, Schema, Value
from harland.query import candidates, plan

INDEXES = (("schema", "_enforcement"), ("content token", "_content"), ("member", "_members"))


def build(count: int, matches: int) -> Repository:
    repo = Repository.in_memory(CacheConfig(max_docs=count + 16, auto_flush=False), id_seed=count)
    for name in ("hit", "other"):
        repo.define_schema(Schema(name, {}))
    collection = repo.create_document(DocumentKind.COLLECTION)
    handles = []
    for i in range(count):
        handle = repo.create_document(DocumentKind.CONTENT)
        handle.set_property("n", [Value.integer(i)])
        handle.enforce("hit" if i < matches else "other")
        if i % 10 == 0:
            collection.add_member(handle)
        handles.append(handle)
    repo.flush()
    for i, handle in enumerate(handles):
        handle.put_content(b"hit" if i < matches else b"other")
    return repo


def index_sizes(repo: Repository) -> str:
    backend = repo.backend
    if not hasattr(backend, "_index"):
        return ", ".join(f"{label} -" for label, _ in INDEXES)
    sizes = []
    tracemalloc.start()
    try:
        for label, name in INDEXES:
            before = tracemalloc.get_traced_memory()[0]
            backend._index(name)
            sizes.append(f"{label} {(tracemalloc.get_traced_memory()[0] - before) / 1024:.0f} KiB")
    finally:
        tracemalloc.stop()
    return ", ".join(sizes)


def probe(count: int, matches: int, repeat: int) -> None:
    repo = build(count, matches)
    start = count // 2
    queries = (
        ("schema", 'schema:"hit"'),
        ("content", 'content:"hit"'),
        ("merged range", f"n >= {start} AND n < {start + matches}"),
        ("single range", f"n < {matches}"),
    )
    print(f"{count} documents, inverted files: {index_sizes(repo)}")
    for label, text in queries:
        compiled = plan(repo._as_expr(text), repo.registry)
        found = candidates(compiled, repo)  # builds the column or inverted file
        times = []
        for _ in range(repeat):
            started = time.perf_counter()
            candidates(compiled, repo)
            times.append(time.perf_counter() - started)
        print(f"  {label:<13} {text:<28} best {min(times) * 1e6:8.1f} us of {repeat}, "
              f"{len(found.ids)} candidates, exact {found.exact}")
        if len(found.ids) != matches:
            sys.exit(f"{text!r} has {len(found.ids)} candidates, not {matches}")
    repo.close()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="2000,20000", help="comma-separated document counts")
    parser.add_argument("--matches", type=int, default=50, help="matches of every source at every size")
    parser.add_argument("--repeat", type=int, default=20, help="timed calls per source; the best is printed")
    args = parser.parse_args(argv)
    for count in (int(size) for size in args.sizes.split(",")):
        probe(count, args.matches, args.repeat)


if __name__ == "__main__":
    main()
