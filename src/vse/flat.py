"""Exact k-nearest-neighbor search over the full base set.

This is the accuracy ceiling the approximate indexes are measured against.
Each query ranks every stored vector by ||x||^2 + ||q||^2 - 2 x.q, with the
dot products from one f32 matrix-vector product and the norms cached in
f64. Every row carries a proven bound on how far that estimate can be from
the canonical squared-L2 kernel, so a shortlist of the rows whose bounds
reach the k-th best is sure to hold the true k nearest. Only the shortlist
is scored by the canonical kernel and ordered by the global (distance, id)
tie rule, so every returned distance is the canonical one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import (
    DataError,
    EmbeddingSet,
    SearchResult,
    _row_squared_norms,
    as_rows,
    squared_l2_batch,
    top_k_smallest,
)

__all__ = ["FlatIndex", "flat_build", "flat_search"]


@dataclass(frozen=True)
class FlatIndex:
    kind: ClassVar[str] = "flat"
    base: EmbeddingSet
    # Squared norm of every base row in f64, read-only.
    norms: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "norms", _row_squared_norms(self.base.vectors))

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
    q = as_rows(queries)
    if q.shape[1] != dim:
        raise DataError(f"query dim {q.shape[1]} does not match index dim {dim}")
    return q


def run_per_query(n_queries: int, threads: int, worker) -> list:
    """Run `worker(i)` for each query index, optionally across a thread pool.

    Results land in query order whatever the thread count; workers touch
    only read-only index state and their own output slot. The pool never
    measured faster than one thread over numpy's default BLAS threads
    beyond the host's spread (README, "Thread counts"). It stays only while
    bench/workloads.py passes `threads=1` to the three searches.
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


def exact_candidates(
    vectors: np.ndarray, norms: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of `vectors` that can be among the k nearest to `query`.

    Returns their ascending row numbers and canonical-kernel distances;
    every row of the true top k by (distance, row) is among them.
    `norms` is _row_squared_norms(vectors).
    """
    n, d = vectors.shape
    if k >= n:
        return np.arange(n), squared_l2_batch(vectors, query)
    # Row i is ranked by approx_i = n_i + n_q - 2 dot_i: n_i and n_q are the
    # f64 squared norms of x_i and q, dot_i the f32 product x_i.q. The
    # canonical kernel's value C_i is within B_i of approx_i, term by term:
    # - f32 dot: |dot_i - x_i.q| <= g ||x_i|| ||q||, g = d u / (1 - d u),
    #   u = 2^-24, for any summation order, with or without FMA, so for any
    #   BLAS kernel and thread split. approx_i doubles it: 2 g ||x_i|| ||q||.
    # - f32 underflow: each of the d products and d - 1 sums loses at most
    #   2^-126 more when its result is tiny, even where subnormal results
    #   flush to zero; carried through the later sums (a factor 1 + g < 2)
    #   and doubled, under 8 d 2^-126.
    # - f64 rounding, v = 2^-53: n_i and n_q are off by at most (d - 1) v
    #   times themselves (squares of f32 values are exact in f64); the
    #   assembly by 4 v (n_i + n_q); the canonical kernel by (d + 2) v times
    #   the distance, which is at most 2 (n_i + n_q). That sums to
    #   (3d + 7) v (n_i + n_q); 3d + 16 also covers the rounding of B_i and
    #   of approx_i +- B_i.
    # At least k rows have C_i <= approx_i + B_i <= t, the k-th smallest
    # upper end, so every row of the true top k has approx_i - B_i <= t and
    # is kept. A row whose upper end is not finite (f32 overflow in the
    # dot) has no bound and is always kept.
    g = d * 2.0**-24 / (1.0 - d * 2.0**-24)
    q64 = query.astype(np.float64)
    nq = float(q64 @ q64)
    with np.errstate(over="ignore", invalid="ignore"):
        approx = np.multiply(vectors @ query, -2.0, dtype=np.float64)
    approx += norms
    approx += nq
    f64 = (3 * d + 16) * 2.0**-53
    bound = np.sqrt(norms)
    bound *= 2.0 * g * np.sqrt(nq)
    bound += f64 * norms
    bound += f64 * nq + 8 * d * 2.0**-126
    upper = approx + bound
    unsure = ~np.isfinite(upper)
    upper[unsure] = np.inf
    upper.partition(k - 1)
    approx -= bound
    keep = approx <= upper[k - 1]
    keep |= unsure
    rows = np.flatnonzero(keep)
    return rows, squared_l2_batch(vectors[rows], query)


def flat_search(index: FlatIndex, queries, k: int, threads: int = 1) -> list[SearchResult]:
    """Exactly the k nearest base vectors per query, ties by ascending id.

    `threads` is kept for the benchmark's calls; see run_per_query.
    """
    q = query_matrix(queries, index.dim)
    if not 1 <= k <= index.count:
        raise DataError(f"k must be in [1, {index.count}], got {k}")
    base = index.base.vectors

    def worker(i: int) -> SearchResult:
        ids, dists = exact_candidates(base, index.norms, q[i], k)
        ids_k, d_k = top_k_smallest(dists, ids, k)
        return SearchResult(ids=ids_k, dists=d_k, approximate=False)

    return run_per_query(q.shape[0], threads, worker)
