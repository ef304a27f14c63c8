"""Write-path scaling probe: what a flush costs as the store grows.

    PYTHONPATH=src python tests/probe_write_scaling.py [--sizes 500,10000,40000] [--repeat 15]

For each size N, a fresh disk store (auto_flush off) gets N new documents
of two properties each, and the one flush() that writes them is timed.
The store is then reopened and must hold N documents. A second fresh
store gets a new collection with N - 1 new members, and the counters of
the one flush() that writes them are printed; reopened, the collection
must hold those members. At each size a one-document write
(set_property + flush()) is timed --repeat times against two raw writes
of the same checkpoint bytes, in alternating blocks of five of each: a
fresh file plus os.replace onto an existing file, and the store's own
file write (store._atomic_write), which overwrites the inode of the image
replaced two writes before. The best and the median of each are
compared, and the one-document write's best and median less the recycled
write's are kept for the report at the end. The fresh write's time
varies with the file system's writeback state: on ext4 with its default
auto_da_alloc, a rename that replaces a file with one whose new bytes
still wait for delayed allocation starts writeback of them, and the
replace waits for it, unless the kernel had already written them. Its
best is often a replace that happened to be cheap, so the median ratio
is the steadier of the two. (store._atomic_write allocates the bytes by
which an image outgrows the file it overwrites, so its replace has none
to flush.) A chunk's CRC is the CRC of its
joined bytes, so each of those writes must checksum at most the bytes of
the store's largest chunk; the most that one write checksummed is printed
beside that bound. It also prints the bytes that the backend's cached
encoding holds per document (sys.getsizeof over each chunk's bytes, its
key and span lists and their ints, and its node, each object counted
once). Then 64 new documents, each with the same two properties, are
written one flush() each, ids in increasing order, and the mean and the
most time of one such write are printed with its counters, beside the
mean and the most time of its os.replace call and the count of those
writes whose image outgrew the recycled file they overwrote. Last, the
store is reopened and two one-document writes are made: open folds the
same leaves into the image CRC tree that a write folds, so the first
write after the reopen must make at most twice the crc_combines of the
second. Counters come from Repository.stats(); one the program does not
have prints as "-".

Then, for one document whose 10 properties hold 10, 1,000 and 10,000 rows
in all, three writes that change one small property are timed, each the
best of its runs:

- a one-row put_rows into an 11th property of a MemoryBackend (best of
  200), the row deleted again untimed after each run;
- the same write with the columns of 4 properties built, the written one
  among them (best of 200);
- Repository.in_memory flush() of a set_property on the 11th property
  (best of 100).

A write that changes one property should cost what that property holds,
not what the document holds, so each case at 10,000 rows must cost at
most 4 times its cost at 10 rows.

Then a Repository.in_memory flush() of one value appended (add_values) to
a property that holds 10, 1,000 and 10,000 values is timed, best of 200.
The engine hands the backend the property's new bag whole, so this case
shows what the engine and the backend pay per value a flushed bag holds.
It is reported, not checked.

The default sizes end with 40,000 documents, a size that CI does not
run: the last line reports, per size, the one-document write less the
raw recycled-inode write of the same bytes, which should stay flat from
the smallest size to the largest (a write's own work is what it changed;
only the kernel's copy of the image grows with the store). It is
reported, not checked.

It prints one line per measurement and exits non-zero when a reopen
disagrees, a one-document write checksums more than the largest chunk,
the first write after a reopen folds more than twice what the next one
folds, or a 10,000-row write costs more than 4 times its 10-row case. The
file name keeps pytest from collecting it.
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
from harland.model import DocumentId, DocumentKind, Value
from harland.store import CHECKPOINT_NAME, DocumentRecord, MemoryBackend, PropertyRow

COUNTERS = ("backend_batches", "checkpoint_writes", "crc_combines", "checksummed_bytes")
ROW_COUNTS = (10, 1000, 10000)  # rows of the one document, over 10 properties
VALUE_COUNTS = (10, 1000, 10000)  # values of the one property an append flushes
FLAT = 4  # the most a 10,000-row write may cost against its 10-row case
APPENDS = 64  # new-document writes timed at each size: two chunks' worth
REOPENED = 2  # the most the first write after a reopen may fold against a later one


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
    """Bytes held by a backend's cached encoding: each chunk's bytes, its
    key list, its span list and the spans, and its node. Small ints are
    shared, so each object is counted once, by id()."""
    sizes: dict[int, int] = {}
    for section in backend._sections.values():
        for chunk in section.chunks or ():
            for obj in (chunk.data, chunk.keys, chunk.spans, *chunk.spans, chunk.node):
                sizes.setdefault(id(obj), sys.getsizeof(obj))
    return sum(sizes.values())


def largest_chunk(backend) -> int:
    """The bytes of the backend's largest cached chunk."""
    return max(len(chunk.data) for section in backend._sections.values() for chunk in section.chunks or ())


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


def one_write(repo: Repository, root: Path, repeat: int) -> tuple[bool, float, float]:
    """One-document writes against raw writes of the same bytes, in
    alternating blocks so that all meet like file system states; whether
    no write checksummed more than the largest chunk holds, and the best
    and the median write less those of the raw recycled-inode write."""
    handle = repo.get_document(repo.document_ids()[repo.document_count() // 2])
    values = iter(range(10**9, 2 * 10**9))
    target, tmp = root / "raw-copy", root / "raw-copy.tmp"
    recycled = root / "raw-recycled"
    checksummed = []

    def write() -> None:
        before = repo.stats()["checksummed_bytes"]
        handle.set_property("size", [Value.integer(next(values))])
        repo.flush()
        checksummed.append(repo.stats()["checksummed_bytes"] - before)

    def raw() -> None:
        tmp.write_bytes(data)
        os.replace(tmp, target)

    def raw_recycled() -> None:
        store._atomic_write(recycled, store._Parts([data], len(data)))

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
    bound = largest_chunk(repo.backend)
    print(f"  most checksummed by one write: {max(checksummed)} bytes; largest chunk: {bound} bytes")
    return max(checksummed) <= bound, best - min(recycles), median - _median(recycles)


def appends(repo: Repository, root: Path, count: int) -> None:
    """count new-document writes, each a new document with the two
    properties of the bulk flush and one flush(); prints the mean and the
    most time of one, and the counters per write; the mean and the most
    time of its os.replace; and how many images outgrew the recycled file
    they overwrote (the spare's size before the write)."""
    times, replaces = [], []
    grew = 0
    spare, target = root / (CHECKPOINT_NAME + ".old"), root / CHECKPOINT_NAME
    real_replace = os.replace

    def timed_replace(src, dst):
        replaces.append(_timed(lambda: real_replace(src, dst)))

    before = _counters(repo)
    os.replace = timed_replace
    try:
        for i in range(count):
            handle = repo.create_document()
            handle.set_property("Subject", [Value.text(f"appended {i}")])
            handle.set_property("size", [Value.integer(-1 - i)])
            held = spare.stat().st_size if spare.exists() else 0
            times.append(_timed(repo.flush))
            grew += target.stat().st_size > held
    finally:
        os.replace = real_replace
    print(f"  {count} new-document writes ({_delta(_counters(repo), before, count)} per write): "
          f"mean {sum(times) / count * 1e3:.2f} ms, max {max(times) * 1e3:.2f} ms; "
          f"os.replace mean {sum(replaces) / len(replaces) * 1e3:.3f} ms, max {max(replaces) * 1e3:.3f} ms; "
          f"{grew} of {count} outgrew the recycled file")


def first_write_after_reopen(root: Path) -> bool:
    """The first one-document write after a reopen of the store, and the
    one after it; whether the first makes at most REOPENED times the
    crc_combines of the later one."""
    with Repository.open(root, CacheConfig(auto_flush=False)) as repo:
        handle = repo.get_document(repo.document_ids()[repo.document_count() // 2])
        combines, times = [], []
        for k in range(2):
            before = repo.stats()["crc_combines"]
            handle.set_property("size", [Value.integer(-1 - k)])
            times.append(_timed(repo.flush))
            combines.append(repo.stats()["crc_combines"] - before)
    print(f"  first write after a reopen: crc_combines {combines[0]}, {times[0] * 1e3:.2f} ms; "
          f"the next: crc_combines {combines[1]}, {times[1] * 1e3:.2f} ms")
    return combines[0] <= REOPENED * combines[1]


def _document_backend(rows: int) -> tuple[MemoryBackend, DocumentId]:
    """A MemoryBackend holding one document of rows rows in properties p0 to p9."""
    backend = MemoryBackend()
    doc_id = DocumentId(1)
    backend.put_rows(
        meta=[DocumentRecord(doc_id, DocumentKind.PLAIN)],
        rows=[PropertyRow(doc_id, 0, f"p{i % 10}", Value.integer(i), 0) for i in range(rows)],
    )
    return backend, doc_id


def one_row_put(rows: int, repeat: int, columns: bool) -> float:
    """Best time of a one-row put_rows into property p10, optionally with
    the columns of p0, p1, p2 and p10 built."""
    backend, doc_id = _document_backend(rows)
    if columns:
        for prop in ("p0", "p1", "p2", "p10"):
            backend.stored_matches(prop, bool)
    times = []
    for k in range(repeat):
        row = PropertyRow(doc_id, 0, "p10", Value.integer(-1 - k), 0)
        times.append(_timed(lambda: backend.put_rows(rows=[row])))
        backend.put_rows(deletes=[(doc_id, "p10", row.value, 0)])
    return min(times)


def one_property_flush(rows: int, repeat: int) -> float:
    """Best time of Repository.in_memory flush() after a set_property on p10."""
    with Repository.in_memory(CacheConfig(auto_flush=False), id_seed=1) as repo:
        handle = repo.create_document()
        for p in range(10):
            handle.set_property(f"p{p}", [Value.integer(i) for i in range(p, rows, 10)])
        repo.flush()
        times = []
        for k in range(repeat):
            handle.set_property("p10", [Value.integer(k)])
            times.append(_timed(repo.flush))
    return min(times)


def one_value_append(values: int, repeat: int) -> float:
    """Best time of Repository.in_memory flush() after add_values of one
    new value to a property holding values values."""
    with Repository.in_memory(CacheConfig(auto_flush=False), id_seed=1) as repo:
        handle = repo.create_document()
        handle.set_property("p", [Value.integer(i) for i in range(values)])
        repo.flush()
        times = []
        for k in range(repeat):
            handle.add_values("p", [Value.integer(values + k)])
            times.append(_timed(repo.flush))
    return min(times)


def append_report() -> None:
    """Prints the one-value append flush at each of VALUE_COUNTS."""
    best = [one_value_append(values, 200) for values in VALUE_COUNTS]
    times = " / ".join(f"{t * 1e6:.1f}" for t in best)
    print(f"Repository.in_memory flush() of one value appended to a property of "
          f"{' / '.join(f'{v:,}' for v in VALUE_COUNTS)} values: {times} us (best; report only)")


def row_scaling() -> bool:
    """Times the three one-property writes at each of ROW_COUNTS; whether
    each stays within FLAT times its cost at the fewest rows."""
    cases = (
        ("one-row put_rows into an 11th property", lambda rows: one_row_put(rows, 200, False)),
        ("the same with 4 columns built", lambda rows: one_row_put(rows, 200, True)),
        ("Repository.in_memory flush() of one changed property", lambda rows: one_property_flush(rows, 100)),
    )
    flat = True
    for name, case in cases:
        best = [case(rows) for rows in ROW_COUNTS]
        ratio = best[-1] / best[0]
        flat = flat and ratio <= FLAT
        times = " / ".join(f"{t * 1e6:.1f}" for t in best)
        print(f"{name} at {' / '.join(f'{r:,}' for r in ROW_COUNTS)} rows: {times} us (best); "
              f"{ROW_COUNTS[-1]:,} / {ROW_COUNTS[0]:,} rows: {ratio:.1f}x")
    return flat


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="500,10000,40000", help="comma-separated document counts")
    parser.add_argument("--repeat", type=int, default=15, help="timed one-document writes, and raw writes")
    args = parser.parse_args(argv)
    sizes = [int(size) for size in args.sizes.split(",")]
    workdir = Path(tempfile.mkdtemp(prefix="harland-probe-"))
    within_a_chunk = reopen_folds_its_change = True
    over_raw = []
    try:
        for count in sizes:
            root = workdir / f"store-{count}"
            repo = bulk_flush(root, count)
            checked, best, median = one_write(repo, root, args.repeat)
            within_a_chunk = checked and within_a_chunk
            over_raw.append(f"{count:,}: best {best * 1e3:.2f} ms, median {median * 1e3:.2f} ms")
            appends(repo, root, APPENDS)
            repo.close()
            reopen_folds_its_change = first_write_after_reopen(root) and reopen_folds_its_change
            shutil.rmtree(root)
            collection_flush(workdir / f"collection-{count}", count)
            shutil.rmtree(workdir / f"collection-{count}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"one-document write less the raw recycled-inode write (report only): {'; '.join(over_raw)}")
    if not within_a_chunk:
        sys.exit("a one-document write checksummed more bytes than the largest chunk holds")
    if not reopen_folds_its_change:
        sys.exit(f"the first write after a reopen made more than {REOPENED}x the crc_combines of a later one")
    append_report()
    if not row_scaling():
        sys.exit(f"a {ROW_COUNTS[-1]:,}-row write costs more than {FLAT}x its {ROW_COUNTS[0]:,}-row case")


if __name__ == "__main__":
    main()
