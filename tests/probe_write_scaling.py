"""Write-path scaling probe: what a flush costs as the store grows.

    PYTHONPATH=src python tests/probe_write_scaling.py [--sizes 1000,3000,10000] [--repeat 15]

For each size N, a fresh disk store (auto_flush off) gets N new documents
of two properties each, and the one flush() that writes them is timed.
The store is then reopened and must hold N documents. A second fresh
store gets a new collection with N - 1 new members, and the counters of
the one flush() that writes them are printed; reopened, the collection
must hold those members. At the largest size a one-document write
(set_property + flush()) is timed --repeat times against two raw writes
of the same checkpoint bytes, in alternating blocks of five of each: a
fresh file plus os.replace onto an existing file, and the store's own
file write (store._atomic_write), which overwrites the inode of the image
replaced two writes before. The best and the median of each are
compared. The fresh write's time varies with the file system's writeback
state, and its best is often a replace that happened to be cheap, so the
median ratio is the steadier of the two. It also prints the bytes that
the backend's cached encoding holds per document (sys.getsizeof over
each chunk's bytes, its key, span and node lists, and its combine tree,
each object counted once). Counters come from Repository.stats(); one
the program does not have prints as "-".

It prints one line per measurement and exits non-zero only when a reopen
disagrees. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from harland import store
from harland.engine import CacheConfig, Repository
from harland.model import DocumentKind, Value
from harland.store import CHECKPOINT_NAME

COUNTERS = ("backend_batches", "checkpoint_writes", "crc_combines", "checksummed_bytes")


def _counters(repo: Repository) -> dict:
    stats = repo.stats()
    return {key: stats.get(key) for key in COUNTERS}


def _delta(after: dict, before: dict, per: int = 1) -> str:
    return ", ".join(
        f"{key} -" if after[key] is None else f"{key} {(after[key] - before[key]) / per:.10g}" for key in COUNTERS
    )


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _median(times: list) -> float:
    return sorted(times)[len(times) // 2]


def cache_bytes(backend) -> int:
    """Bytes held by a backend's cached encoding. A chunk's tree shares its
    bottom level's ints with the chunk's nodes, so each object is counted
    once, by id()."""
    sizes: dict[int, int] = {}
    for section in backend._sections.values():
        for chunk in section.chunks or ():
            objects = [chunk.data, chunk.keys]
            for column in (chunk.spans, chunk.nodes, *(chunk.tree.levels if chunk.tree else ())):
                objects.append(column)
                objects.extend(column)
            for obj in objects:
                sizes.setdefault(id(obj), sys.getsizeof(obj))
    return sum(sizes.values())


def bulk_flush(root: Path, count: int) -> Repository:
    """A store with count new documents written by one timed flush(); the
    repository is returned open."""
    repo = Repository.init(root, CacheConfig(max_docs=count + 16, auto_flush=False), id_seed=count)
    for i in range(count):
        handle = repo.create_document()
        handle.set_property("Subject", [Value.text(f"subject {i}")])
        handle.set_property("size", [Value.integer(i)])
    before = _counters(repo)
    started = time.perf_counter()
    flushed = repo.flush()
    elapsed = time.perf_counter() - started
    size = (root / CHECKPOINT_NAME).stat().st_size
    print(f"bulk flush of {count} new documents: {elapsed:.3f} s, {flushed} documents, "
          f"{size} bytes ({_delta(_counters(repo), before)})")
    with Repository.open(root, CacheConfig(auto_flush=False)) as reopened:
        if reopened.document_count() != count:
            sys.exit(f"reopen holds {reopened.document_count()} documents, not {count}")
    return repo


def collection_flush(root: Path, count: int) -> None:
    """A store with a new collection of count - 1 new members, written by
    one flush(); prints its counters and checks the members after a reopen."""
    with Repository.init(root, CacheConfig(max_docs=count + 16, auto_flush=False), id_seed=count) as repo:
        collection = repo.create_document(DocumentKind.COLLECTION)
        for i in range(count - 1):
            member = repo.create_document()
            member.set_property("size", [Value.integer(i)])
            collection.add_member(member)
        before = _counters(repo)
        flushed = repo.flush()
        print(f"flush of a new collection with {count - 1} new members: {flushed} documents "
              f"({_delta(_counters(repo), before)})")
    with Repository.open(root, CacheConfig(auto_flush=False)) as reopened:
        if len(reopened.members_of(collection.doc_id)) != count - 1:
            sys.exit(f"reopened collection holds {len(reopened.members_of(collection.doc_id))} members, not {count - 1}")


def one_write(repo: Repository, root: Path, repeat: int) -> None:
    """One-document writes against raw writes of the same bytes, in
    alternating blocks so that all meet like file system states."""
    handle = repo.get_document(repo.document_ids()[repo.document_count() // 2])
    values = iter(range(10**9, 2 * 10**9))
    target, tmp = root / "raw-copy", root / "raw-copy.tmp"
    recycled = root / "raw-recycled"

    def write() -> None:
        handle.set_property("size", [Value.integer(next(values))])
        repo.flush()

    def raw() -> None:
        tmp.write_bytes(data)
        os.replace(tmp, target)

    def raw_recycled() -> None:
        store._atomic_write(recycled, [data])

    write()  # the first write after the bulk flush is not the steady state
    data = (root / CHECKPOINT_NAME).read_bytes()
    for _ in range(2):  # so that every timed raw write replaces a file, and recycles a spare
        raw()
        raw_recycled()
    before = _counters(repo)
    writes, raws, recycles = [], [], []
    for block in range(0, repeat, 5):
        runs = min(5, repeat - block)
        writes += [_timed(write) for _ in range(runs)]
        raws += [_timed(raw) for _ in range(runs)]
        recycles += [_timed(raw_recycled) for _ in range(runs)]
    per_write = _delta(_counters(repo), before, repeat)
    for path in (target, recycled, recycled.with_name(recycled.name + ".old")):
        path.unlink()
    best, median = min(writes), _median(writes)
    print(f"one-document write at {repo.document_count()} documents ({per_write} per write): "
          f"best {best * 1e3:.2f} ms, median {median * 1e3:.2f} ms of {repeat}")
    for name, times in (("fresh file + os.replace", raws), ("recycled-inode write", recycles)):
        print(f"  raw {name} of the same {len(data)} bytes: best {min(times) * 1e3:.2f} ms, "
              f"median {_median(times) * 1e3:.2f} ms; ratio {best / min(times):.2f} (best), "
              f"{median / _median(times):.2f} (median)")
    print(f"  cached encoding: {cache_bytes(repo.backend) / repo.document_count():.0f} bytes per document")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="1000,3000,10000", help="comma-separated document counts")
    parser.add_argument("--repeat", type=int, default=15, help="timed one-document writes, and raw writes")
    args = parser.parse_args(argv)
    sizes = [int(size) for size in args.sizes.split(",")]
    workdir = Path(tempfile.mkdtemp(prefix="harland-probe-"))
    try:
        for count in sizes:
            root = workdir / f"store-{count}"
            repo = bulk_flush(root, count)
            if count == max(sizes):
                one_write(repo, root, args.repeat)
            repo.close()
            shutil.rmtree(root)
            collection_flush(workdir / f"collection-{count}", count)
            shutil.rmtree(workdir / f"collection-{count}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
