"""Open-path probe: what opening a disk store costs, what its checksum costs,
and what the first reads after open cost.

    PYTHONPATH=src python tests/probe_open.py [--sizes 500] [--repeat 30]

For each size N, the benchmark's corpus generator (`bench/corpus.py`, seed
1) builds an N-document disk store; at N = 500 that is the store of the
benchmark's cli workload. The probe then prints:

- `DiskBackend.open` of that store, best and median of --repeat opens,
  with the split of the DEBUG record open logs: the decode (the PROPS
  check, the META and CONTENT check and decode, the seeding) and the
  checksum;
- open plus one `fetch_slices` of every slice of one document (it builds
  one chunk each of PROPS, ASSIGN and ENFORCE), `Repository.open` plus
  the snapshot of one document and the close (what `harland get`
  does), and open plus the build of the `From` column (what a query on
  it reads; it builds no bag), best and median of --repeat each;
- whether open, with every document's assignments, enforcement and
  slices then read in a random order, holds the tables that
  `reference_loader.load_line_at_a_time` loads from the same bytes;
- `crc32c` of 100 B, 450 B, 2 KB and 15 KB of random bytes and of the
  whole store file, best of --repeat calls of each after one untimed call;
- the first `crc32c` of the store file in a fresh interpreter (best of
  three processes), which pays for whatever the kernel builds once per
  process, the second call in that process, and the traced memory that
  the first call leaves allocated (tracemalloc).

Every timing runs in this process on this host, so compare two commits by
running both here. It prints one line per measurement and exits non-zero
only when the walked tables differ from the reference loader's, or the
fresh interpreter fails or disagrees on the checksum. The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import logging
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # bench.corpus

from bench import corpus  # noqa: E402
from harland import store  # noqa: E402
from harland.engine import Repository  # noqa: E402
from harland.store import CHECKPOINT_NAME, DiskBackend, crc32c  # noqa: E402
from reference_loader import TABLES, load_line_at_a_time  # noqa: E402  (this directory)

SPLIT = re.compile(
    r"decode ([\d.]+) ms \(PROPS check ([\d.]+), META check ([\d.]+), seeding ([\d.]+)\), checksum ([\d.]+) ms"
)
PARTS = ("decode", "  PROPS check", "  META check", "  seeding", "checksum")
KERNEL_SIZES = (("100 B", 100), ("450 B", 450), ("2 KB", 2048), ("15 KB", 15360))

# the first crc32c of a file in a fresh interpreter: timed, then timed again;
# with "memory", untimed under tracemalloc, which slows allocation
FRESH = """
import sys, time, tracemalloc
data = open(sys.argv[1], "rb").read()
from harland.store import crc32c
if sys.argv[2] == "memory":
    tracemalloc.start()
    print(crc32c(data), tracemalloc.get_traced_memory()[0])
else:
    t0 = time.perf_counter()
    first = crc32c(data)
    t1 = time.perf_counter()
    crc32c(data)
    print(first, (t1 - t0) * 1e3, (time.perf_counter() - t1) * 1e3)
"""


class _Split(logging.Handler):
    """Keeps the times of PARTS from each open's DEBUG record."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.splits: list[tuple[float, ...]] = []

    def emit(self, record: logging.LogRecord) -> None:
        found = SPLIT.search(record.getMessage())
        if found:
            self.splits.append(tuple(map(float, found.groups())))


def _best_median(values: list) -> str:
    return f"best {min(values):.2f} median {statistics.median(values):.2f}"


def _best_us(fn, data, repeat: int) -> float:
    fn(data)
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn(data)
        times.append(time.perf_counter() - started)
    return min(times) * 1e6


def probe_open(path: Path, repeat: int) -> None:
    logger = logging.getLogger(store.__name__)
    handler, level = _Split(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    times = []
    try:
        for _ in range(repeat):
            started = time.perf_counter()
            backend = DiskBackend.open(path)
            times.append((time.perf_counter() - started) * 1e3)
            backend.close()
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    print(f"  DiskBackend.open  {_best_median(times)} ms of {repeat}")
    for part, times in zip(PARTS, zip(*handler.splits)):
        print(f"    {part:<13} {_best_median(times)} ms")


def _timed_ms(fn) -> float:
    started = time.perf_counter()
    fn()
    return (time.perf_counter() - started) * 1e3


def probe_reads(path: Path, repeat: int) -> None:
    ids = sorted(DiskBackend.open(path).stored_docs())
    rng = random.Random(4)
    fetches, gets, columns = [], [], []
    for _ in range(repeat):
        doc_id = rng.choice(ids)

        def fetch():
            backend = DiskBackend.open(path)
            backend.fetch_slices(doc_id, set(backend.stored_assignments_of(doc_id).values()))

        def get():
            repo = Repository.open(path)
            repo.get_document(doc_id).snapshot()
            repo.close()

        fetches.append(_timed_ms(fetch))
        gets.append(_timed_ms(get))
        columns.append(_timed_ms(lambda: DiskBackend.open(path).stored_matches("From", bool)))
    print(f"  open + fetch_slices of one document  {_best_median(fetches)} ms of {repeat}")
    print(f"  open + get of one document + close   {_best_median(gets)} ms of {repeat}")
    print(f"  open + the From column build         {_best_median(columns)} ms of {repeat}")


def check_walk(path: Path, data: bytes) -> None:
    """Exits 1 unless open, with every document's assignments, enforcement
    and slices then read, each kind in its own random order, holds the
    reference loader's tables and has built every chunk."""
    backend = DiskBackend.open(path)
    ids = list(backend.stored_docs())
    rng = random.Random(5)
    for read in (backend.stored_enforcement_of, backend.stored_assignments_of):
        rng.shuffle(ids)
        for doc_id in ids:
            read(doc_id)
    rng.shuffle(ids)
    for doc_id in ids:
        backend.fetch_slices(doc_id, set(backend.stored_assignments_of(doc_id).values()))
    reference = load_line_at_a_time(data)
    differ = [name for name in TABLES if getattr(backend, name) != getattr(reference, name)]
    built = (backend.decoded_chunks, backend.decoded_meta_chunks)
    chunks = [len(backend._sections[name].chunks or ()) for name in ("props", "enforce", "assign")]
    print(f"  walked open: {built[0]} of {chunks[0]} PROPS chunks and {built[1]} of {sum(chunks[1:])} "
          f"ENFORCE and ASSIGN chunks built, "
          f"tables {'differ: ' + ', '.join(differ) if differ else 'equal the line-at-a-time loader'}")
    if differ or backend._unbuilt:
        sys.exit(1)


def probe_kernel(data: bytes, repeat: int) -> None:
    rng = random.Random(2)
    for label, size in KERNEL_SIZES:
        print(f"  crc32c {label:<12} best {_best_us(crc32c, rng.randbytes(size), repeat):9.1f} us of {repeat}")
    label = f"{len(data)} B"
    print(f"  crc32c {label:<12} best {_best_us(crc32c, data, repeat):9.1f} us of {repeat} (the store file)")


def _fresh(file: Path, data: bytes, mode: str) -> list[float]:
    """FRESH's numbers after the checksum, from a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(store.__file__).resolve().parent.parent))  # this src/
    done = subprocess.run([sys.executable, "-c", FRESH, str(file), mode], env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"fresh interpreter failed: {done.stderr.strip()}")
    first, *numbers = done.stdout.split()
    if int(first) != crc32c(data):
        sys.exit(f"fresh interpreter computed crc32c {first}, this one {crc32c(data)}")
    return [float(n) for n in numbers]


def probe_fresh(file: Path, data: bytes) -> None:
    first_ms, second_ms = min(_fresh(file, data, "time") for _ in range(3))
    (held,) = _fresh(file, data, "memory")
    print(f"  fresh process: first crc32c of the file {first_ms:.2f} ms, second {second_ms:.2f} ms, "
          f"once-per-process set-up {first_ms - second_ms:.2f} ms (best of 3 processes); "
          f"the first call leaves {held / 1024:.1f} KiB allocated (tracemalloc)")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="500", help="comma-separated document counts")
    parser.add_argument("--repeat", type=int, default=30, help="timed opens and crc32c calls; best and median")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="probe-open-"))
    try:
        for count in (int(size) for size in args.sizes.split(",")):
            path = work / f"store-{count}"
            corpus.build_store(corpus.make_docs(random.Random(1), count), path)
            file = path / CHECKPOINT_NAME
            data = file.read_bytes()
            print(f"{count} documents, {CHECKPOINT_NAME} {len(data)} bytes")
            probe_open(path, args.repeat)
            probe_reads(path, args.repeat)
            check_walk(path, data)
            probe_kernel(data, args.repeat)
            probe_fresh(file, data)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
