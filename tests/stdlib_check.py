"""Stdlib-only checks of the checkpoint decoder, for interpreters without pytest.

    PYTHONPATH=src:tests python tests/stdlib_check.py

Checks, on whatever Python runs it:
- the batched decoder against the line-at-a-time reference loader
  (`reference_loader.py`) on random stores and CRC-valid edits of them,
  with batches of 1, 3 and 512 lines;
- the canonical timestamp fast path against `Value.timestamp_text`;
- `DocumentId` hash, equality, order, str, repr, parse, pickle and range.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import pickle
import random
import sys
import tempfile
import uuid
from pathlib import Path

from harland import store
from harland.engine import CacheConfig, Repository
from harland.model import _TS_MAX, _TS_MIN, Constraint, DocumentId, DocumentKind, Schema, Value
from harland.store import CHECKPOINT_NAME, crc32c, decode_timestamp

from reference_loader import load_batched, load_line_at_a_time, load_outcome

PROPS = ("Subject", "tab\there", "back\\slash", "Ünï", "n")
TEXTS = ("plain", "a\tb", "line\nbreak", "ünïcode", "")


def _random_store(rng: random.Random, root: Path, count: int) -> bytes:
    repo = Repository.init(root, CacheConfig(max_docs=count + 1, auto_flush=False), id_seed=rng.randrange(2**32))
    repo.define_schema(Schema("note\tx", {"Subject": Constraint.from_text("text", "0..1")}))
    collection = repo.create_document(DocumentKind.COLLECTION)
    for i in range(count):
        handle = repo.create_document(DocumentKind.CONTENT if i % 5 == 0 else DocumentKind.PLAIN)
        handle.set_property(rng.choice(PROPS[1:]), [Value.text(rng.choice(TEXTS)), Value.integer(i)])
        handle.set_property("Subject", [Value.text(rng.choice(TEXTS))])
        handle.add_values("When", [Value.timestamp(rng.randint(_TS_MIN, _TS_MAX))])
        if rng.random() < 0.5:
            handle.enforce("note\tx")
        if rng.random() < 0.5:
            collection.add_member(handle)
        if i % 5 == 0:
            handle.put_content("naïve café %d".encode("utf-8") % i)
    repo.close()
    return (root / CHECKPOINT_NAME).read_bytes()


def _edit(rng: random.Random, data: bytes) -> bytes:
    lines = data[: data.rindex(b"END ")].splitlines(keepends=True)
    i, j = rng.randrange(1, len(lines)), rng.randrange(1, len(lines))
    pick = rng.randrange(5)
    if pick == 0:
        lines.insert(j, lines[i])
    elif pick == 1:
        lines.insert(j, lines.pop(i))
    elif pick == 2:
        del lines[i]
    elif pick == 3:
        lines.insert(j, rng.choice((b"PROPS\n", b"META\n", b"CONTENT\n")))
    else:
        lines[i] = lines[i][:-1] + b"\tx\n"
    body = b"".join(lines)
    return body + f"END {crc32c(body)}\n".encode("ascii")


def check_decoder() -> str:
    outcomes = {"ok": 0, "corrupt": 0}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(4):
            rng = random.Random(seed)
            data = _random_store(rng, Path(tmp) / f"store{seed}", 120)
            for candidate in [data] + [_edit(rng, data) for _ in range(15)]:
                expected = load_outcome(load_line_at_a_time, candidate)
                for size in (1, 3, 512):
                    store._BATCH = size
                    assert load_outcome(load_batched, candidate) == expected, (seed, size)
                outcomes[expected[0]] += 1
    store._BATCH = 512
    assert outcomes["ok"] and outcomes["corrupt"], outcomes
    return f"{outcomes['ok']} stores loaded and {outcomes['corrupt']} rejected alike"


def check_timestamps() -> str:
    rng = random.Random(20)
    for ms in [_TS_MIN, _TS_MAX, 0, -1] + [rng.randint(_TS_MIN, _TS_MAX) for _ in range(20_000)]:
        text = Value.timestamp(ms).to_timestamp_text()
        assert decode_timestamp(text) == Value.timestamp_text(text) == Value.timestamp(ms), text
    return "20,004 timestamps"


def check_document_ids() -> str:
    rng = random.Random(3)
    values = [0, 1, 2**128 - 1] + [rng.randrange(2**128) for _ in range(2_000)]
    for v in values:
        doc_id = DocumentId(v)
        assert doc_id.value == v and hash(doc_id) == hash((v,)) and doc_id == DocumentId(v)
        assert str(doc_id) == str(uuid.UUID(int=v)) and repr(doc_id) == f"DocumentId({uuid.UUID(int=v)})"
        assert DocumentId.parse(str(doc_id)) == doc_id == DocumentId.parse(str(doc_id).upper())
        restored = pickle.loads(pickle.dumps(doc_id))
        assert restored == doc_id and type(restored) is DocumentId
    assert sorted(map(DocumentId, values)) == [DocumentId(v) for v in sorted(values)]
    for bad in (2**128, -1):
        try:
            DocumentId(bad)
        except ValueError:
            continue
        raise AssertionError(f"DocumentId({bad}) did not raise")
    return f"{len(values):,} ids"


def main() -> int:
    failed = False
    for check in (check_decoder, check_timestamps, check_document_ids):
        try:
            detail = check()
        except AssertionError as exc:
            failed = True
            print(f"FAIL {check.__name__}: {exc!r}")
        else:
            print(f"PASS {check.__name__}: {detail}")
    print(f"Python {sys.version.split()[0]}: {'FAILED' if failed else 'all passed'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
