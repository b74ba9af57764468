"""Exact k-nearest-neighbor search over the full base set.

This is the accuracy ceiling the approximate indexes are measured against.
A block of queries ranks every stored vector by ||x||^2 + ||q||^2 - 2 x.q,
with the dot products from one f32 matrix product for the whole block and
the norms cached in f64. Every (row, query) pair carries a proven bound on
how far that estimate can be from the canonical squared-L2 kernel, so a
shortlist of the rows whose bounds reach the query's k-th best is sure to
hold its true k nearest. Only the shortlist is scored by the canonical
kernel and ordered by the global (distance, id) tie rule, so every returned
distance is the canonical one, whatever the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import (
    DataError,
    EmbeddingSet,
    SearchResult,
    _bound_terms,
    _squared_l2_rows,
    as_rows,
    top_k_smallest,
)

__all__ = ["FlatIndex", "flat_build", "flat_search"]

# Cap on the (row, query) pairs a block of queries scans at once, as
# kmeans._BLOCK_ELEMS caps its blocks: each f64 temporary stays near 16 MiB.
_BLOCK_ELEMS = 1 << 21


@dataclass(frozen=True)
class FlatIndex:
    kind: ClassVar[str] = "flat"
    base: EmbeddingSet
    # _bound_terms of the base rows.
    terms: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _bound_terms(self.base.vectors))

    @property
    def norms(self) -> np.ndarray:
        """Squared norm of every base row in f64, read-only."""
        return self.terms[0]

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


def block_queries(rows: int) -> int:
    """How many queries one block may hold when each meets `rows` rows:
    _BLOCK_ELEMS // rows, and at least one."""
    return max(1, _BLOCK_ELEMS // max(rows, 1))


def check_threads(threads: int) -> None:
    """The three searches keep `threads` only while the benchmark passes
    threads=1; every search runs on the calling thread, so any other
    value is refused."""
    if threads != 1:
        raise DataError(f"threads must be 1, got {threads}")


def exact_candidates(
    vectors: np.ndarray, terms: np.ndarray, queries: np.ndarray, qterms: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each query of a block, the rows of `vectors` that can be among
    its k nearest.

    `terms` and `qterms` are _bound_terms of vectors and queries. Returns
    (counts, rows, dists): the first counts[0] rows are query 0's, the next
    counts[1] query 1's, and so on, each ascending, with their
    canonical-kernel distances in dists; every row of a query's true top k
    by (distance, row) is among its rows.
    """
    n, b = vectors.shape[0], queries.shape[0]
    if k >= n:
        keep = np.ones((b, n), dtype=bool)
    else:
        # Row i is ranked for query j by approx = n_i + n_j - 2 dot: n_i and
        # n_j are the f64 squared norms of x_i and q_j, dot the f32 product
        # x_i.q_j. The canonical kernel's value C is within B of approx, term
        # by term:
        # - f32 dot: |dot - x_i.q_j| <= g ||x_i|| ||q_j||, g = d u / (1 - d u),
        #   u = 2^-24, for any summation order, with or without FMA, so for
        #   any BLAS kernel, block shape and thread split. approx doubles it:
        #   2 g ||x_i|| ||q_j||, formed as sqrt(2 g n_i) sqrt(2 g n_j).
        # - f32 underflow: each of the d products and d - 1 sums loses at
        #   most 2^-126 more when its result is tiny, even where subnormal
        #   results flush to zero; carried through the later sums (a factor
        #   1 + g < 2) and doubled, under 8 d 2^-126, half in each term.
        # - f64 rounding, v = 2^-53: n_i and n_j are off by at most (d - 1) v
        #   times themselves (squares of f32 values are exact in f64); the
        #   assembly by 4 v (n_i + n_j); the canonical kernel by (d + 2) v
        #   times the distance, which is at most 2 (n_i + n_j). That sums to
        #   (3d + 7) v (n_i + n_j); 3d + 16 also covers the roundings of the
        #   terms, of B from them and of approx +- B.
        # At least k rows have C <= approx + B <= t, the k-th smallest upper
        # end for query j, so every row of its true top k has approx - B <= t
        # and is kept. A row whose upper end is not finite (f32 overflow in
        # the dot) has no bound and is always kept.
        with np.errstate(over="ignore", invalid="ignore"):
            approx = np.multiply(queries @ vectors.T, -2.0, dtype=np.float64)
        approx += terms[0]
        approx += qterms[0][:, None]
        bound = np.multiply.outer(qterms[1], terms[1])
        bound += terms[2]
        bound += qterms[2][:, None]
        upper = approx + bound
        finite = np.isfinite(upper)
        overflow = not finite.all()
        if overflow:
            upper[~finite] = np.inf
        upper.partition(k - 1, axis=1)
        approx -= bound
        keep = approx <= upper[:, k - 1 : k]
        if overflow:
            keep |= ~finite
    kept = np.flatnonzero(keep)
    if b == 1:
        # One query meets each kept row as it is.
        rows, pairs, counts = kept, None, [kept.size]
    else:
        pairs, rows = np.divmod(kept, n)
        counts = np.bincount(pairs, minlength=b).tolist()
    return counts, rows, _squared_l2_rows(vectors[rows], queries, pairs=pairs)


def flat_search(index: FlatIndex, queries, k: int, threads: int = 1) -> list[SearchResult]:
    """Exactly the k nearest base vectors per query, ties by ascending id.

    The batch is scanned in query blocks of at most _BLOCK_ELEMS (row,
    query) pairs. `threads` takes only 1; see check_threads.
    """
    check_threads(threads)
    q = query_matrix(queries, index.dim)
    if not 1 <= k <= index.count:
        raise DataError(f"k must be in [1, {index.count}], got {k}")
    base, out, step = index.base.vectors, [], block_queries(index.count)
    for block in range(0, q.shape[0], step):
        qb = q[block : block + step]
        counts, rows, dists = exact_candidates(base, index.terms, qb, _bound_terms(qb), k)
        start = 0
        for count in counts:
            end = start + count
            ids_k, d_k = top_k_smallest(dists[start:end], rows[start:end], k)
            out.append(SearchResult(ids=ids_k, dists=d_k, approximate=False))
            start = end
    return out
