"""Write-path probe: what the engine's write operations cost on a cached document.

    PYTHONPATH=src python tests/probe_write_path.py [--rounds 2000] [--repeat 5]

An in-memory repository (no background flusher) holds a `note` schema
(four constrained properties), an enforced document that carries them,
--rounds plain documents and a collection, all flushed, so every document
is cached and clean when a pass starts. Each pass times, one call at a
time, --rounds calls of each operation:

    set                 set_property of the enforced document's Subject,
                        unwatched (no transition subscription)
    enforce             enforce of `note` on a document that does not
                        enforce it yet (each call a new document)
    enforce no-op       enforce of `note` on the enforced document
    add_member          add_member of a document new to the collection
    set, watched        the set above, with one transition subscription
                        on an unrelated schema active

and then flushes, unenforces and removes what it added, and flushes
again, so every pass starts from the same state. For each pass it prints
the p50 and the best (fastest) call of each operation, in microseconds,
and last the best p50 and best call of each over the passes. Every timing
runs in this process on this host, so compare two commits by running both
here. It exits non-zero when an operation leaves a state other than the
one it asked for, or when an unwatched pass queues a commit for dispatch.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from harland.engine import CacheConfig, Repository
from harland.model import Constraint, DocumentKind, Schema, Value

OPERATIONS = ("set", "enforce", "enforce no-op", "add_member", "set, watched")
NOTE = Schema("note", {
    "Subject": Constraint.from_text("text", "1..1"),
    "Received": Constraint.from_text("timestamp", "1..1"),
    "Size": Constraint.from_text("integer", "0..1"),
    "Labels": Constraint.from_text("text", "0..*"),
})


def _fill(handle, subject: str) -> None:
    handle.set_property("Subject", [Value.text(subject)])
    handle.set_property("Received", [Value.timestamp_text("2001-05-01T09:00:00Z")])
    handle.set_property("Size", [Value.integer(3)])
    handle.set_property("Labels", [Value.text("a"), Value.text("b")])


def one_pass(repo: Repository, doc, plain: list, collection) -> dict[str, list[float]]:
    """Times every operation once per plain document; latencies in
    microseconds."""
    times: dict[str, list[float]] = {name: [] for name in OPERATIONS}
    clock = time.perf_counter
    subjects = [[Value.text("a")], [Value.text("b")]]

    def timed(name: str, call, *args) -> None:
        start = clock()
        call(*args)
        times[name].append((clock() - start) * 1e6)

    queued = repo.stats()["commits_dispatched"]
    for i in range(len(plain)):
        timed("set", doc.set_property, "Subject", subjects[i % 2])
    for handle in plain:
        timed("enforce", handle.enforce, "note")
    for _ in plain:
        timed("enforce no-op", doc.enforce, "note")
    for handle in plain:
        timed("add_member", collection.add_member, handle)
    if repo.stats()["commits_dispatched"] != queued:
        sys.exit("an unwatched pass queued a commit for dispatch")

    sub = repo.subscribe('schema:"unrelated"')
    for i in range(len(plain)):
        timed("set, watched", doc.set_property, "Subject", subjects[i % 2])
    repo.hub.drain()
    sub.cancel()

    if doc.values("Subject") != (Value.text("b" if len(plain) % 2 == 0 else "a"),):
        sys.exit(f"the enforced document reads Subject {doc.values('Subject')!r}")
    if any(handle.enforced() != ("note",) for handle in plain) or collection.members() != {h.doc_id for h in plain}:
        sys.exit("an enforce or add_member did not land")
    repo.flush()
    for handle in plain:
        handle.unenforce("note")
        collection.remove_member(handle)
    repo.flush()
    return times


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=2000, help="calls of each operation per pass")
    parser.add_argument("--repeat", type=int, default=5, help="passes; best p50 and call of each operation")
    args = parser.parse_args(argv)

    repo = Repository.in_memory(CacheConfig(max_docs=args.rounds + 16, auto_flush=False), id_seed=1)
    try:
        repo.define_schema(NOTE)
        repo.define_schema(Schema("unrelated", {}))
        doc = repo.create_document()
        _fill(doc, "a")
        doc.enforce("note")
        plain = [repo.create_document() for _ in range(args.rounds)]
        for handle in plain:
            _fill(handle, "p")
        collection = repo.create_document(DocumentKind.COLLECTION)
        repo.flush()

        best = {name: (float("inf"), float("inf")) for name in OPERATIONS}  # (p50, call)
        for n in range(1, args.repeat + 1):
            times = one_pass(repo, doc, plain, collection)
            cells = []
            for name in OPERATIONS:
                p50, fastest = statistics.median(times[name]), min(times[name])
                best[name] = (min(best[name][0], p50), min(best[name][1], fastest))
                cells.append(f"{name} p50 {p50:.2f} best {fastest:.2f}")
            print(f"pass {n} (us): " + "; ".join(cells))
        print("over the passes (us): " + "; ".join(
            f"{name} best p50 {p50:.2f} best {fastest:.2f}" for name, (p50, fastest) in best.items()))
    finally:
        repo.close()


if __name__ == "__main__":
    main()
