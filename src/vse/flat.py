"""Exact k-nearest-neighbor search over the full base set.

This is the accuracy ceiling the approximate indexes are measured against:
every query is scanned against every stored vector with the canonical
squared-L2 kernel and the global (distance, id) tie rule.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DataError, EmbeddingSet, SearchResult, squared_l2_batch, top_k_smallest

__all__ = ["FlatIndex", "flat_build", "flat_search"]


@dataclass(frozen=True)
class FlatIndex:
    base: EmbeddingSet

    @property
    def count(self) -> int:
        return self.base.count

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def labels(self) -> list[str]:
        return self.base.labels

    @property
    def normalized(self) -> bool:
        return self.base.normalized


def flat_build(base: EmbeddingSet) -> FlatIndex:
    """Index the whole set. No training, no copies beyond the set itself."""
    return FlatIndex(base=base)


def query_matrix(queries, dim: int) -> np.ndarray:
    """Validate a query batch (EmbeddingSet or array) against an index dim."""
    if isinstance(queries, EmbeddingSet):
        q = queries.vectors
    else:
        q = np.ascontiguousarray(queries, dtype=np.float32)
        if q.ndim == 1:
            q = q.reshape(1, -1)
        if q.ndim != 2:
            raise DataError(f"queries must be a 2-d batch, got ndim={q.ndim}")
        if not np.isfinite(q).all():
            raise DataError("queries contain NaN or infinity")
    if q.shape[1] != dim:
        raise DataError(f"query dim {q.shape[1]} does not match index dim {dim}")
    return q


def run_per_query(n_queries: int, threads: int, worker) -> list:
    """Run `worker(i)` for each query index, optionally across a thread pool.

    Results land in query order whatever the thread count; workers touch
    only read-only index state and their own output slot.
    """
    results: list = [None] * n_queries
    if threads <= 1 or n_queries <= 1:
        for i in range(n_queries):
            results[i] = worker(i)
        return results
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i, res in zip(range(n_queries), pool.map(worker, range(n_queries))):
            results[i] = res
    return results


def flat_search(index: FlatIndex, queries, k: int, threads: int = 1) -> list[SearchResult]:
    """Exactly the k nearest base vectors per query, ties by ascending id."""
    q = query_matrix(queries, index.dim)
    if not 1 <= k <= index.count:
        raise DataError(f"k must be in [1, {index.count}], got {k}")
    base = index.base.vectors
    all_ids = np.arange(index.count, dtype=np.int64)

    def worker(i: int) -> SearchResult:
        dists = squared_l2_batch(base, q[i])
        ids_k, d_k = top_k_smallest(dists, all_ids, k)
        return SearchResult(ids=ids_k, dists=d_k, approximate=False)

    return run_per_query(q.shape[0], threads, worker)
