"""The checkpoint write protocol against the shadow oracle.

A DiskBackend keeps the image that store.hl1 named before its last write
as a spare (store.hl1.old), and the next write renames the spare to
store.hl1.tmp, allocates the bytes by which the new image outgrows it
(os.posix_fallocate), overwrites it in place with os.pwritev, truncates
it, links the current image as the next spare and replaces store.hl1.
Here an OSError is injected at each of those steps, the allocation is
missing or refused by the file system, pwritev writes short, the
spare is planted as a second link to store.hl1 (what a crash between the
link and the replace leaves), and a child process that loops over writes
is killed; after each, store.hl1 and a reopen must equal the shadow of the
committed batches. Also: which files a store directory holds after close
and after a one-shot checkpoint, open with a leftover spare and temp file,
and open reading again when a writer in another process replaced the
image it read.
"""

from __future__ import annotations

import errno
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from harland import store
from harland.engine import CacheConfig, Repository
from harland.errors import StorageFailure
from harland.model import DocumentId, DocumentKind, Value
from harland.store import (
    CHECKPOINT_NAME,
    DiskBackend,
    DocumentRecord,
    MemoryBackend,
    PropertyRow,
    SliceAssignment,
)

from test_checkpoint_cache import Shadow

SPARE = CHECKPOINT_NAME + ".old"
TMP = CHECKPOINT_NAME + ".tmp"


# ---- a fixed sequence of batches ----

def _doc(k: int) -> DocumentId:
    return DocumentId((7 << 64) | k)


def _row(k: int) -> PropertyRow:
    return PropertyRow(_doc(k), 0, "n", Value.text("x" * (k * 37 % 300)), 0)


def _step(k: int) -> tuple[list, list, list]:
    """Batch k: a new document with one row whose length varies with k;
    every third batch also deletes the row of batch k - 2, so the image
    grows and shrinks."""
    deletes = [_row(k - 2).key()] if k % 3 == 2 else []
    return [_row(k)], deletes, [DocumentRecord(_doc(k), DocumentKind.PLAIN), SliceAssignment(_doc(k), "n", 0)]


def _write(backend: DiskBackend, shadow: Shadow, k: int) -> None:
    rows, deletes, meta = _step(k)
    backend.put_rows(rows, deletes, meta)
    shadow.apply(rows, deletes, meta)


def _check(root: Path, shadow: Shadow) -> None:
    expected = shadow.encode()
    assert (root / CHECKPOINT_NAME).read_bytes() == expected
    assert DiskBackend.open(root)._encode_checkpoint() == expected


def _store(root: Path, batches: int = 3) -> tuple[DiskBackend, Shadow]:
    backend, shadow = DiskBackend.init(root), Shadow()
    for k in range(batches):
        _write(backend, shadow, k)
    return backend, shadow


# ---- the spare is recycled ----

def test_a_write_overwrites_the_spare_image_in_place(tmp_path):
    root = tmp_path / "store"
    backend, shadow = _store(root)
    spare = root / SPARE
    assert spare.stat().st_nlink == 1 and not spare.samefile(root / CHECKPOINT_NAME)
    for k in range(3, 8):
        recycled, current = spare.stat().st_ino, (root / CHECKPOINT_NAME).stat().st_ino
        _write(backend, shadow, k)
        assert (root / CHECKPOINT_NAME).stat().st_ino == recycled
        assert spare.stat().st_ino == current
        _check(root, shadow)
    assert not (root / TMP).exists()


# ---- a failure at each step ----

@pytest.mark.parametrize("step", ["rename", "pwritev", "ftruncate", "link", "replace"])
def test_failure_at_each_step_keeps_the_last_committed_image(tmp_path, monkeypatch, step):
    root = tmp_path / "store"
    backend, shadow = _store(root)
    assert (root / SPARE).exists()  # so the rename has something to move

    def fail(*args):
        raise OSError(errno.EIO, f"injected {step} failure")

    with monkeypatch.context() as patch:
        patch.setattr(os, step, fail)
        with pytest.raises(StorageFailure):
            backend.put_rows(*_step(3))
    _check(root, shadow)
    for k in range(3, 6):  # the same backend writes on over what the failure left
        _write(backend, shadow, k)
        _check(root, shadow)
    _write(DiskBackend.open(root), shadow, 6)  # and so does a new one
    _check(root, shadow)


# ---- the growth is allocated ----

def test_a_write_allocates_just_the_bytes_by_which_the_image_outgrows_the_spare(tmp_path, monkeypatch):
    root = tmp_path / "store"
    backend, shadow = _store(root)
    real = os.posix_fallocate
    calls = []

    def spy(fd, offset, length):
        calls.append((offset, length))
        real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", spy)
    held = (root / SPARE).stat().st_size
    _write(backend, shadow, 3)  # a new document: the image outgrows the spare
    assert calls == [(held, len(shadow.encode()) - held)]
    _check(root, shadow)
    long = PropertyRow(_doc(3), 0, "m", Value.text("w" * 3000), 0)
    for rows, deletes in (([long], []), ([], [long.key()])):  # the spare is then the long image
        backend.put_rows(rows, deletes)
        shadow.apply(rows, deletes)
    calls.clear()
    _write(backend, shadow, 4)  # shorter than the file it overwrites
    assert calls == []
    _check(root, shadow)


@pytest.mark.parametrize("refusal", [None, errno.EOPNOTSUPP, errno.EINVAL, errno.ENOSYS])
def test_a_platform_or_file_system_without_fallocate_still_writes_the_image(tmp_path, monkeypatch, refusal):
    root = tmp_path / "store"
    backend, shadow = _store(root)

    def refuse(*args):
        raise OSError(refusal, "fallocate not supported")

    if refusal is None:
        monkeypatch.delattr(os, "posix_fallocate")
    else:
        monkeypatch.setattr(os, "posix_fallocate", refuse)
    for k in range(3, 7):
        _write(backend, shadow, k)
        _check(root, shadow)


@pytest.mark.parametrize("code", [errno.EIO, errno.ENOSPC])
def test_a_failed_fallocate_keeps_the_last_committed_image(tmp_path, monkeypatch, code):
    root = tmp_path / "store"
    backend, shadow = _store(root)
    calls = []

    def fail(*args):
        calls.append(args)
        raise OSError(code, "injected fallocate failure")

    with monkeypatch.context() as patch:
        patch.setattr(os, "posix_fallocate", fail)
        with pytest.raises(StorageFailure):
            backend.put_rows(*_step(3))  # a new document: the image grows
    assert calls
    _check(root, shadow)
    for k in range(3, 6):
        _write(backend, shadow, k)
        _check(root, shadow)


def test_file_system_without_hard_links_keeps_no_spare(tmp_path, monkeypatch):
    root = tmp_path / "store"
    backend, shadow = _store(root)

    def refuse(*args):
        raise OSError(errno.EPERM, "hard links not supported")

    with monkeypatch.context() as patch:
        patch.setattr(os, "link", refuse)
        for k in range(3, 6):
            _write(backend, shadow, k)
            _check(root, shadow)
            assert not (root / SPARE).exists()


def test_short_writes_resume_and_batches_stay_under_iov_max(tmp_path, monkeypatch):
    root = tmp_path / "store"
    backend, shadow = _store(root, batches=40)
    real = os.pwritev
    calls = []

    def short(fd, buffers, offset):
        buffers = list(buffers)
        assert len(buffers) <= 3
        calls.append(len(buffers))
        first = memoryview(buffers[0])
        return real(fd, [first[: max(1, len(first) // 2)]], offset)  # half the first buffer at most

    with monkeypatch.context() as patch:
        patch.setattr(store, "_IOV_MAX", 3)
        patch.setattr(os, "pwritev", short)
        for k in range(40, 44):
            _write(backend, shadow, k)
            _check(root, shadow)
    assert len(calls) > 4 * len(backend._checkpoint_parts())


def test_spare_that_links_the_checkpoint_is_never_written(tmp_path, monkeypatch):
    """A crash between the link and the replace leaves the spare as a second
    link to store.hl1 and a complete temp file; the next write must not
    overwrite store.hl1's inode."""
    root = tmp_path / "store"
    backend, shadow = _store(root)
    target, spare = root / CHECKPOINT_NAME, root / SPARE
    spare.unlink()
    os.link(target, spare)
    (root / TMP).write_bytes(b"partial image\n" * 5000)
    before, inode = target.read_bytes(), target.stat().st_ino
    real_replace = os.replace
    replaced = []

    def checked_replace(src, dst):
        if Path(dst) == target:
            assert target.read_bytes() == before
            assert os.stat(src).st_ino != inode
            replaced.append(dst)
        real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", checked_replace)
        _write(backend, shadow, 3)
    assert replaced
    _check(root, shadow)
    assert spare.stat().st_ino == inode and spare.read_bytes() == before


# ---- a killed writer ----

_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
from harland.store import DiskBackend
from test_write_protocol import _step
backend = DiskBackend.open(sys.argv[3])
k = int(sys.argv[4])
while True:
    backend.put_rows(*_step(k))
    print(k, flush=True)
    k += 1
"""


def test_killed_writer_leaves_a_committed_image(tmp_path):
    """A child process loops over writes until it is killed at a random
    moment; the store must reopen to the shadow after the last batch the
    child reported, or after the one it was writing. The next child opens
    what the last one left."""
    root = tmp_path / "store"
    backend, shadow = _store(root)
    committed = 3
    rng = random.Random(13)
    paths = [str(Path(store.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    for _ in range(4):
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, *paths, str(root), str(committed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # the child runs ahead of the reads: lines wait in the pipe and
            # in the text wrapper's buffer, so the rest is read through the
            # wrapper (communicate() would read past it, and lose them)
            reported = [child.stdout.readline()]
            time.sleep(0.1)
            reported += [child.stdout.readline() for _ in range(rng.randrange(5, 40))]
            child.send_signal(signal.SIGKILL)
            out, err = child.stdout.read(), child.stderr.read()
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGKILL, err
        reported += out.splitlines()
        last = int(reported[-1])
        for k in range(committed, last + 1):
            shadow.apply(*_step(k))
        on_disk = DiskBackend.open(root)._encode_checkpoint()
        if on_disk != shadow.encode():  # the batch in flight was committed too
            shadow.apply(*_step(last + 1))
            last += 1
        assert on_disk == shadow.encode()
        assert (root / CHECKPOINT_NAME).read_bytes() == on_disk
        committed = last + 1


# ---- directory hygiene ----

def _listing(root: Path) -> list[str]:
    return sorted(os.listdir(root))


def test_closed_stores_and_one_shot_checkpoints_keep_no_spare(tmp_path):
    root = tmp_path / "store"
    with Repository.init(root, CacheConfig(auto_flush=False)) as repo:
        for i in range(3):
            repo.create_document().set_property("n", [Value.integer(i)])
            repo.flush()
        assert SPARE in _listing(root)
    assert _listing(root) == ["content", CHECKPOINT_NAME]
    with Repository.open(root, CacheConfig(auto_flush=False)) as repo:
        repo.get_document(repo.document_ids()[0]).set_property("n", [Value.integer(9)])
    assert _listing(root) == ["content", CHECKPOINT_NAME]

    memory = MemoryBackend()
    memory.put_rows(*_step(0))
    for copy in ("copy", "copy"):  # a new directory, then over an existing store
        memory.checkpoint(tmp_path / copy)
        assert _listing(tmp_path / copy) == ["content", CHECKPOINT_NAME]


def test_open_recycles_a_leftover_spare_and_temp_file(tmp_path):
    root = tmp_path / "store"
    _, shadow = _store(root)
    (root / SPARE).write_bytes(b"stale spare\n" * 10_000)
    (root / TMP).write_bytes(b"partial write\n" * 20_000)  # longer than the image: truncated away
    with Repository.open(root, CacheConfig(auto_flush=False)):
        pass
    assert _listing(root) == ["content", CHECKPOINT_NAME, TMP]  # close removed the spare only
    backend = DiskBackend.open(root)
    _write(backend, shadow, 3)
    _check(root, shadow)
    assert not (root / TMP).exists()


# ---- a reader racing a writer in another process ----

def test_open_reads_again_after_a_torn_first_read(tmp_path, monkeypatch):
    """A reader whose first read caught the image half overwritten (the
    writer recycled the inode it was reading) reads once more."""
    root = tmp_path / "store"
    backend, shadow = _store(root, batches=30)
    target = root / CHECKPOINT_NAME
    real_read = Path.read_bytes
    reads = []

    def torn_first_read(path):
        data = real_read(path)
        if path == target and not reads:
            old = data
            for k in range(30, 32):  # two writes on, the writer overwrites the inode being read
                _write(backend, shadow, k)
            new = real_read(path)
            torn = len(os.path.commonprefix([old, new])) + 1  # new bytes up to just past the first change
            data = new[:torn] + old[torn:]
        reads.append(path)
        return data

    monkeypatch.setattr(Path, "read_bytes", torn_first_read)
    assert DiskBackend.open(root)._encode_checkpoint() == shadow.encode()
    assert reads.count(target) == 2
