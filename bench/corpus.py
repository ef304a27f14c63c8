"""Seeded mail-like corpus: generation, store building and digests.

Every document is an `email` (Subject, From, Received) with an unconstrained
`size` integer and a multi-valued `Labels` text property. Exactly 30% also
carry `to-do` (Deadline, Categories) and exactly 10% are content documents
whose body always holds the token `agenda`, so shares are the same for every
seed and only the values change.

Inputs are plain data made from the workload seed before any timing starts;
the program sees only what `build_store` and the workloads feed it. Document
ids come from a fixed `id_seed`, so two runs with one seed build
byte-identical stores.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from harland.engine import CacheConfig, Repository
from harland.model import Constraint, DocumentKind, Schema, Value

ID_SEED = 2001
BASE_MS = 978_307_200_000  # 2001-01-01T00:00:00Z
MINUTE_MS = 60_000
DAY_MS = 86_400_000
COMMON_TOKEN = "agenda"
SENDERS = 250
WORDS = (
    "budget", "draft", "review", "launch", "invoice", "travel", "offsite",
    "hiring", "roadmap", "release", "incident", "customer", "contract",
    "design", "quarterly", "planning", "report", "demo", "lunch", "slides",
)
CATEGORIES = ("home", "work", "errand", "urgent", "later")

SCHEMAS = (
    Schema("email", {
        "Subject": Constraint.from_text("text", "1..1"),
        "From": Constraint.from_text("text", "1..1"),
        "Received": Constraint.from_text("timestamp", "1..1"),
    }),
    Schema("to-do", {
        "Subject": Constraint.from_text("text", "1..1"),
        "Received": Constraint.from_text("timestamp", "1..1"),
        "Deadline": Constraint.from_text("timestamp", "1..1"),
        "Categories": Constraint.from_text("text", "0..*"),
    }),
)


@dataclass
class DocSpec:
    """One generated document, as plain data."""

    subject: str
    sender: str
    received: int
    size: int
    labels: list[str]
    deadline: Optional[int] = None
    categories: Optional[list[str]] = None
    content: Optional[str] = None


def subject(rng: random.Random) -> str:
    return f"{rng.choice(WORDS)} {rng.choice(WORDS)} #{rng.randrange(10_000)}"


def label(rng: random.Random) -> str:
    return f"label-{rng.randrange(40)}"


def make_docs(rng: random.Random, count: int, start: int = 0) -> list[DocSpec]:
    """Documents start..start+count-1; Received grows with the index, so the
    newest documents are the most recently received."""
    docs = []
    for i in range(start, start + count):
        spec = DocSpec(
            subject=subject(rng),
            sender=f"sender-{rng.randrange(SENDERS)}@example.com",
            received=BASE_MS + i * 10 * MINUTE_MS + rng.randrange(10 * MINUTE_MS),
            size=rng.randrange(1, 1_000_000_000),
            labels=sorted(label(rng) for _ in range(rng.randrange(3))),
        )
        if i % 10 in (1, 4, 7):
            spec.deadline = spec.received + rng.randrange(1, 60) * DAY_MS
            spec.categories = sorted(rng.sample(CATEGORIES, rng.randrange(3)))
        if i % 10 == 3:
            words = [rng.choice(WORDS) for _ in range(rng.randrange(8, 24))]
            words.insert(rng.randrange(len(words) + 1), COMMON_TOKEN)
            spec.content = " ".join(words)
        docs.append(spec)
    return docs


def define_schemas(repo: Repository) -> None:
    for schema in SCHEMAS:
        repo.define_schema(schema)


def properties(spec: DocSpec) -> dict[str, list[Value]]:
    """The property bags a document gets, in the order they are set."""
    props = {
        "Subject": [Value.text(spec.subject)],
        "From": [Value.text(spec.sender)],
        "Received": [Value.timestamp(spec.received)],
        "size": [Value.integer(spec.size)],
    }
    if spec.labels:
        props["Labels"] = [Value.text(t) for t in spec.labels]
    if spec.deadline is not None:
        props["Deadline"] = [Value.timestamp(spec.deadline)]
        if spec.categories:
            props["Categories"] = [Value.text(c) for c in spec.categories]
    return props


def add_document(repo: Repository, spec: DocSpec):
    """create_document, one set_property per property, then enforce."""
    kind = DocumentKind.CONTENT if spec.content is not None else DocumentKind.PLAIN
    handle = repo.create_document(kind)
    for prop, values in properties(spec).items():
        handle.set_property(prop, values)
    handle.enforce("email")
    if spec.deadline is not None:
        handle.enforce("to-do")
    if spec.content is not None:
        handle.put_content(spec.content.encode("utf-8"))
    return handle


def build_store(docs: list[DocSpec], path: Path) -> None:
    """Write a disk store holding docs. Built in memory and checkpointed once,
    because the disk backend rewrites the whole store on every batch. The
    cache holds every document, since dirty documents cannot be evicted."""
    config = CacheConfig(max_docs=len(docs) + 1, auto_flush=False)
    repo = Repository.in_memory(config, id_seed=ID_SEED)
    try:
        define_schemas(repo)
        for spec in docs:
            add_document(repo, spec)
        repo.flush()
        repo.backend.checkpoint(path)
    finally:
        repo.close()


def payload_bytes(docs: list[DocSpec]) -> int:
    """User payload: UTF-8 text, 8 bytes per integer or timestamp, content bytes."""
    total = 0
    for spec in docs:
        total += len(spec.subject.encode()) + len(spec.sender.encode()) + 16
        total += sum(len(t.encode()) for t in spec.labels)
        if spec.deadline is not None:
            total += 8 + sum(len(c.encode()) for c in spec.categories or ())
        if spec.content is not None:
            total += len(spec.content.encode())
    return total


def inputs_digest(obj) -> str:
    """sha256 of the generated inputs in canonical JSON."""
    def plain(o):
        if isinstance(o, DocSpec):
            return asdict(o)
        raise TypeError(type(o))
    text = json.dumps(obj, default=plain, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def store_digest(path: Path) -> str:
    """sha256 over every file of a store directory, in path order."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
