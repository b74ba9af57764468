"""IVF product quantization on residuals with asymmetric distance lookup.

Vectors are filed under a coarse quantizer as byte codes: the residual
(vector minus its coarse centroid) is split into m slices, each quantized
against its own sub-codebook of up to 256 centroids. A query never decodes
candidates; per (query, probed list) pair it builds all m tables of
slice-to-centroid distances in one pass over the stacked sub-codebooks,
and sums m lookups per candidate with one gather. A batch is scanned list
by list; each list's codes are kept as entries of the flattened tables,
formed once at the first search. Distances in results are those
estimates, so every result is flagged approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .core import DataError, EmbeddingSet, SearchResult
from .flat import check_threads, query_matrix
from .ivf_flat import check_posting_lists, coarse_lists, ivf_search
from .kmeans import Codebook, assign, kmeans_train

__all__ = [
    "PqParams",
    "IvfPqIndex",
    "ivf_pq_train",
    "ivf_pq_build",
    "ivf_pq_encode",
    "ivf_pq_decode",
    "ivf_pq_search",
]

KSUB = 256  # byte codes: one u8 per subspace per vector


@dataclass(frozen=True)
class PqParams:
    """Product-quantizer shape: m subspaces, each with a sub-codebook of at
    most KSUB entries."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DataError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class IvfPqIndex:
    kind: ClassVar[str] = "ivf_pq"
    coarse: Codebook
    params: PqParams
    subs: tuple[Codebook, ...]
    list_ids: tuple[np.ndarray, ...]
    list_codes: tuple[np.ndarray, ...]
    labels: list[str]
    normalized: bool
    # The sub-codebooks as one read-only (m, KSUB, subdim) f64 array. Rows
    # at b >= subs[j].k are zero padding, which no valid code reaches.
    stacked_subs: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        m = self.params.m
        if self.coarse.dim % m != 0:
            raise DataError(f"dim {self.coarse.dim} not divisible by m={m}")
        if len(self.subs) != m:
            raise DataError(f"expected {m} sub-codebooks, got {len(self.subs)}")
        sub = self.coarse.dim // m
        for j, cb in enumerate(self.subs):
            if cb.dim != sub:
                raise DataError(f"sub-codebook {j} dim {cb.dim}, expected {sub}")
            if cb.k > KSUB:
                raise DataError(f"sub-codebook {j} has k={cb.k} > {KSUB}")
        check_posting_lists(self, np.asarray([cb.k for cb in self.subs]))
        stacked = np.zeros((m, KSUB, sub), dtype=np.float64)
        for j, cb in enumerate(self.subs):
            stacked[j, : cb.k] = cb.centroids
        stacked.setflags(write=False)
        object.__setattr__(self, "stacked_subs", stacked)

    @cached_property
    def code_entries(self) -> tuple[np.ndarray, ...]:
        """Each list's codes as entries of a query's flattened (m, KSUB)
        tables: code b of subspace j is entry j * KSUB + b. Computed on
        first search."""
        offsets = KSUB * np.arange(self.params.m)
        return tuple(codes + offsets for codes in self.list_codes)

    @property
    def nlist(self) -> int:
        return self.coarse.k

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def subdim(self) -> int:
        return self.coarse.dim // self.params.m

    @property
    def dim(self) -> int:
        return self.coarse.dim

    @property
    def count(self) -> int:
        return len(self.labels)


def _train_parts(base: EmbeddingSet, nlist: int, m: int, seed: int, max_iters: int):
    if base.count < KSUB:
        raise DataError(
            f"need at least {KSUB} vectors to train sub-codebooks, got {base.count}"
        )
    params = PqParams(m=m)
    if base.dim % m != 0:
        raise DataError(f"dim {base.dim} not divisible by m={m}")
    sub = base.dim // m
    coarse, coarse_labels, list_ids = coarse_lists(base.vectors, nlist, seed, max_iters)
    residuals = _residuals(base.vectors, coarse.centroids.astype(np.float64)[coarse_labels])
    subs: list[Codebook] = []
    for j in range(m):
        slices = residuals[:, j * sub : (j + 1) * sub]
        distinct = np.unique(slices, axis=0).shape[0]
        # Sub-codebook seeds are offset so no subspace shares the coarse
        # quantizer's stream; k caps at the distinct slice count.
        subs.append(
            kmeans_train(slices, min(KSUB, distinct), max_iters=max_iters, seed=seed + 1 + j)
        )
    codes = _codes(residuals, subs)
    return params, coarse, tuple(subs), list_ids, codes


def ivf_pq_train(
    base: EmbeddingSet, nlist: int, m: int, seed: int = 0, max_iters: int = 25
) -> tuple[Codebook, tuple[Codebook, ...]]:
    """Train and return (coarse codebook, m residual sub-codebooks)."""
    _, coarse, subs, _, _ = _train_parts(base, nlist, m, seed, max_iters)
    return coarse, subs


def ivf_pq_build(
    base: EmbeddingSet, nlist: int, m: int, seed: int = 0, max_iters: int = 25
) -> IvfPqIndex:
    """Train quantizers and file every vector as (id, m code bytes)."""
    params, coarse, subs, list_ids, codes = _train_parts(base, nlist, m, seed, max_iters)
    list_codes = [np.ascontiguousarray(codes[ids]) for ids in list_ids]
    return IvfPqIndex(
        coarse=coarse,
        params=params,
        subs=subs,
        list_ids=tuple(list_ids),
        list_codes=tuple(list_codes),
        labels=list(base.labels),
        normalized=base.normalized,
    )


def _residuals(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each row of x minus its coarse centroid, in f64, rounded to f32."""
    return (x.astype(np.float64) - centroids.astype(np.float64, copy=False)).astype(np.float32)


def _codes(residuals: np.ndarray, subs) -> np.ndarray:
    """m code bytes per residual: each slice's nearest sub-centroid by `assign`."""
    sub = residuals.shape[1] // len(subs)
    codes = np.empty((residuals.shape[0], len(subs)), dtype=np.uint8)
    for j, cb in enumerate(subs):
        codes[:, j] = assign(residuals[:, j * sub : (j + 1) * sub], cb).labels
    return codes


def ivf_pq_encode(index: IvfPqIndex, x) -> tuple[int, np.ndarray]:
    """Quantize one vector to (list id, m code bytes) by the build's rule."""
    q = query_matrix(x, index.dim)
    if q.shape[0] != 1:
        raise DataError("encode takes a single vector")
    list_id = int(assign(q, index.coarse).labels[0])
    codes = _codes(_residuals(q, index.coarse.centroids[[list_id]]), index.subs)
    return list_id, codes[0]


def ivf_pq_decode(index: IvfPqIndex, list_id: int, codes) -> np.ndarray:
    """Reconstruct coarse centroid + concatenated sub-centroids."""
    if not isinstance(list_id, (int, np.integer)):
        raise DataError(f"list id must be an integer, got {list_id!r}")
    if not 0 <= list_id < index.nlist:
        raise DataError(f"list id {list_id} out of range [0, {index.nlist})")
    c = np.asarray(codes)
    if c.shape != (index.m,):
        raise DataError(f"expected {index.m} codes, got shape {c.shape}")
    if c.dtype.kind not in "iu":
        raise DataError(f"codes must be integers, got dtype {c.dtype}")
    caps = np.array([cb.k for cb in index.subs])
    bad = np.flatnonzero((c < 0) | (c >= caps))
    if bad.size:
        j = int(bad[0])
        raise DataError(f"code {int(c[j])} out of range [0, {caps[j]}) in subspace {j}")
    out = index.coarse.centroids[list_id].astype(np.float64)
    out += index.stacked_subs[np.arange(index.m), c].ravel()
    return out.astype(np.float32)


def adc_table(index: IvfPqIndex, query: np.ndarray, list_id: int) -> np.ndarray:
    """All m distance tables for one (query, probed list) pair, as (m, KSUB).

    Entry [j, b] is the canonical squared L2 between slice j of the query's
    residual against this list's centroid and sub-centroid b: the same bits
    as squared_l2_batch(subs[j].centroids, slice j), as both sum over the
    last axis of a contiguous f64 array. Entries at b >= subs[j].k are
    padding; no valid code reaches them.
    """
    # A finite query can still overflow f32 once its centroid is taken off.
    with np.errstate(over="ignore"):
        r = _residuals(np.asarray(query, dtype=np.float32), index.coarse.centroids[list_id])
    if not np.isfinite(r).all():
        raise DataError(f"the query's residual to list {list_id} overflows f32")
    d = index.stacked_subs - r.astype(np.float64).reshape(index.m, 1, index.subdim)
    np.square(d, out=d)
    return d.sum(axis=2)


def ivf_pq_search(
    index: IvfPqIndex, queries, k: int, nprobe: int | None = None, threads: int = 1
) -> list[SearchResult]:
    """Rank candidates in the nprobe nearest lists by summed table lookups.

    `threads` takes only 1; see flat.check_threads.
    """
    check_threads(threads)

    def score_lists(qb: np.ndarray, groups, found: list[list]) -> None:
        for c, who in groups:
            ids, entries = index.list_ids[c], index.code_entries[c]
            for j in who:
                tables = adc_table(index, qb[j], c)
                found[j].append((ids, tables.ravel()[entries].sum(axis=1)))

    return ivf_search(index, queries, k, nprobe, score_lists, exact=False)
