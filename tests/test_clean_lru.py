"""Eviction from the clean LRU.

The repository keeps its clean cached documents in their own LRU, in cache
order, so eviction never walks dirty documents. It must take the same
victims as a walk of the whole cache that skips dirty documents: the clean
LRU must equal the cache's clean documents in cache order after every
operation, and a fixed replay must give the counters the whole-cache walk
gave.
"""

from __future__ import annotations

import random

from harland.engine import CacheConfig, Repository
from harland.model import Constraint, DocumentKind, Schema, Value


def _clean_in_cache_order(repo: Repository) -> list:
    return [doc_id for doc_id, idoc in repo._cache.items() if not idoc.is_dirty()]


def _random_op(rng: random.Random, repo: Repository, handles: list, step: int) -> None:
    op = rng.random()
    handle = rng.choice(handles)
    if op < 0.08:
        handles.append(repo.create_document(rng.choice((DocumentKind.PLAIN, DocumentKind.CONTENT))))
    elif op < 0.4:
        handle.values("n")
    elif op < 0.6:
        handle.set_property("n", [Value.integer(step)])
    elif op < 0.65:
        handle.enforce("note")
    elif op < 0.7:
        handle.unenforce("note")
    elif op < 0.75:
        len(repo.query("n < 100"))
    elif op < 0.8 and handle.kind is DocumentKind.CONTENT:
        handle.put_content(b"alpha %d" % step)
    elif op < 0.85 and len(handles) > 2:
        handles.remove(handle)
        handle.delete()
    elif op < 0.93:
        handle.snapshot()
    else:
        repo.flush()


def test_clean_lru_is_the_caches_clean_documents_in_order(tmp_path):
    rng = random.Random(8)
    with Repository.init(tmp_path / "store", CacheConfig(max_docs=12, auto_flush=False), id_seed=5) as repo:
        repo.define_schema(Schema("note", {"n": Constraint.from_text("integer", "0..1")}))
        handles = [repo.create_document() for _ in range(30)]
        repo.flush()
        evictions = 0
        for step in range(3000):
            _random_op(rng, repo, handles, step)
            assert list(repo._clean) == _clean_in_cache_order(repo), step
            assert len(repo._cache) <= 12 or len(repo._clean) <= 1  # only the document just used
            evictions = repo.stats()["evictions"]
        assert evictions > 500


def test_replay_gives_the_counters_of_a_whole_cache_walk(tmp_path):
    """400 creations, then 3,000 seeded reads, writes, enforcements, queries
    and flushes with max_docs=64; the expected counters are those of the
    eviction that walked the whole cache."""
    rng = random.Random(4)
    repo = Repository.init(tmp_path / "store", CacheConfig(max_docs=64, auto_flush=False), id_seed=9)
    repo.define_schema(Schema("note", {"n": Constraint.from_text("integer", "0..1")}))
    handles = []
    for i in range(400):
        handle = repo.create_document()
        handles.append(handle)
        if rng.random() < 0.5:
            handle.set_property("n", [Value.integer(i)])
        if i % 50 == 49:
            repo.flush()
    for step in range(3000):
        op = rng.random()
        handle = rng.choice(handles)
        if op < 0.45:
            handle.values("n")
        elif op < 0.7:
            handle.set_property("n", [Value.integer(step)])
        elif op < 0.75:
            handle.enforce("note")
        elif op < 0.8:
            len(repo.query("n < 100"))
        elif op < 0.9:
            handle.snapshot()
        else:
            repo.flush()
    stats = repo.stats()
    repo.close()
    assert {key: stats[key] for key in ("backend_fetches", "cache_hits", "cache_misses", "evictions", "flushes")} == {
        "backend_fetches": 1696, "cache_hits": 1031, "cache_misses": 1809, "evictions": 2145, "flushes": 1269,
    }


def test_dirty_documents_past_capacity_are_never_walked():
    """With every cached document dirty the clean LRU is empty, so a cache
    access past capacity costs no walk; a flush files them all back."""
    repo = Repository.in_memory(CacheConfig(max_docs=8, auto_flush=False), id_seed=2)
    handles = [repo.create_document() for _ in range(40)]
    for i, handle in enumerate(handles):
        handle.set_property("n", [Value.integer(i)])
    assert len(repo._cache) == 40 and not repo._clean
    repo.flush()
    assert len(repo._cache) == 8 and list(repo._clean) == [h.doc_id for h in handles[-8:]]
    repo.close()
