"""Inverted-file index with exact post-verification.

The base set is partitioned into nlist posting lists by a k-means coarse
quantizer. A query ranks the coarse centroids, scans only the nprobe
nearest lists, and orders those candidates by exact squared L2 on the full
stored vectors. Each list is scanned as flat search scans its base: an f32
estimate with a proven bound picks the rows that can be among the k
nearest, and only those are scored by the canonical kernel. Probing every
list reproduces the flat index bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import (
    DataError,
    EmbeddingSet,
    SearchResult,
    check_labels,
    squared_l2_batch,
    top_k_smallest,
)
from .flat import exact_candidates, frozen_norms, query_matrix, run_per_query
from .kmeans import Codebook, assign, kmeans_train

__all__ = ["IvfFlatIndex", "ivf_flat_build", "ivf_flat_search", "default_nprobe"]


def default_nprobe(nlist: int) -> int:
    return max(1, nlist // 32)


def probe_order(coarse: Codebook, query: np.ndarray, nprobe: int) -> np.ndarray:
    """The nprobe coarse centroids nearest the query, (distance, id) order."""
    d = squared_l2_batch(coarse.centroids, query)
    ids, _ = top_k_smallest(d, np.arange(coarse.k, dtype=np.int64), nprobe)
    return ids


def coarse_lists(vectors: np.ndarray, nlist: int, seed: int, max_iters: int):
    """The coarse step of both IVF kinds: train nlist centroids on the rows,
    assign each row to its nearest, and split the row ids by list.

    Returns the codebook, every row's list, and each list's ascending row
    ids (an empty list is an empty array).
    """
    count = vectors.shape[0]
    if nlist < 1:
        raise DataError(f"nlist must be >= 1, got {nlist}")
    if nlist > count:
        raise DataError(f"nlist {nlist} exceeds base size {count}")
    coarse = kmeans_train(vectors, nlist, max_iters=max_iters, seed=seed)
    labels = assign(vectors, coarse).labels
    # A stable sort keeps the ids ascending within each list.
    order = np.argsort(labels, kind="stable").astype(np.int64, copy=False)
    ends = np.cumsum(np.bincount(labels, minlength=nlist))
    return coarse, labels, np.split(order, ends[:-1])


def check_posting_lists(index, payloads: tuple[np.ndarray, ...]) -> None:
    """One list per coarse centroid, the lists partitioning the row ids
    0..count-1, each row with a label as EmbeddingSet requires; then freeze
    the lists.

    `payloads` is the index's list_vectors or list_codes, one row per id.
    """
    if len(index.list_ids) != index.coarse.k or len(payloads) != index.coarse.k:
        raise DataError("posting list count does not match nlist")
    count = len(index.labels)
    if not np.array_equal(np.sort(np.concatenate(index.list_ids)), np.arange(count)):
        raise DataError(f"posting lists do not partition the id range [0, {count})")
    check_labels(index.labels)
    for ids, payload in zip(index.list_ids, payloads):
        ids.setflags(write=False)
        payload.setflags(write=False)


@dataclass(frozen=True)
class IvfFlatIndex:
    kind: ClassVar[str] = "ivf_flat"
    coarse: Codebook
    list_ids: tuple[np.ndarray, ...]
    list_vectors: tuple[np.ndarray, ...]
    labels: list[str]
    normalized: bool
    # frozen_norms of each list's vectors.
    list_norms: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_posting_lists(self, self.list_vectors)
        norms = tuple(frozen_norms(v) for v in self.list_vectors)
        # An f32 row's f64 squared norm is finite exactly when the row is.
        if not all(np.isfinite(n).all() for n in norms):
            raise DataError("posting list vectors contain NaN or infinity")
        object.__setattr__(self, "list_norms", norms)

    @property
    def nlist(self) -> int:
        return self.coarse.k

    @property
    def dim(self) -> int:
        return self.coarse.dim

    @property
    def count(self) -> int:
        return len(self.labels)


def ivf_flat_build(base: EmbeddingSet, nlist: int, seed: int = 0, max_iters: int = 25) -> IvfFlatIndex:
    """Train the coarse quantizer and file every vector under its nearest list."""
    coarse, _, list_ids = coarse_lists(base.vectors, nlist, seed, max_iters)
    list_vectors = [np.ascontiguousarray(base.vectors[ids]) for ids in list_ids]
    return IvfFlatIndex(
        coarse=coarse,
        list_ids=tuple(list_ids),
        list_vectors=tuple(list_vectors),
        labels=list(base.labels),
        normalized=base.normalized,
    )


def ivf_search(
    index, queries, k: int, nprobe: int | None, threads: int, score_list, exact: bool
) -> list[SearchResult]:
    """The query loop of both IVF kinds: probe, score the probed lists, take top-k.

    `score_list(query, c)` returns ids from posting list c and their
    distances, at least every entry that can be among that list's k
    nearest; it is the only step that differs between ivf_flat and ivf_pq.
    `exact` says the scores are true distances, so probing every list is
    exact.
    """
    q = query_matrix(queries, index.dim)
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if nprobe is None:
        nprobe = default_nprobe(index.nlist)
    if not 1 <= nprobe <= index.nlist:
        raise DataError(f"nprobe must be in [1, {index.nlist}], got {nprobe}")
    approximate = not (exact and nprobe == index.nlist)

    def worker(i: int) -> SearchResult:
        parts = [score_list(q[i], c) for c in probe_order(index.coarse, q[i], nprobe)]
        ids = np.concatenate([part_ids for part_ids, _ in parts])
        dists = np.concatenate([part_dists for _, part_dists in parts])
        kk = min(k, ids.shape[0])
        ids_k, d_k = top_k_smallest(dists, ids, kk) if kk else (ids, dists)
        return SearchResult(ids=ids_k, dists=d_k, approximate=approximate)

    return run_per_query(q.shape[0], threads, worker)


def ivf_flat_search(
    index: IvfFlatIndex, queries, k: int, nprobe: int | None = None, threads: int = 1
) -> list[SearchResult]:
    """Scan the nprobe nearest lists, rank candidates by exact distance.

    Fewer than k candidates in the probed lists returns the short list.
    """

    def score_list(query: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
        rows, dists = exact_candidates(index.list_vectors[c], index.list_norms[c], query, k)
        return index.list_ids[c][rows], dists

    return ivf_search(index, queries, k, nprobe, threads, score_list, exact=True)
