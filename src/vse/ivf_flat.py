"""Inverted-file index with exact post-verification.

The base set is partitioned into nlist posting lists by a k-means coarse
quantizer. A query ranks the coarse centroids, scans only the nprobe
nearest lists, and orders those candidates by exact squared L2 on the full
stored vectors. A batch is scanned list by list: each probed list is
scanned once for every query of a block that probes it, as flat search
scans its base, with one f32 matrix product for those queries and a proven
bound that picks the rows that can be among each query's k nearest; only
those are scored by the canonical kernel. A block of one query ranks the
union of its probed lists as one block of rows instead: one f32
matrix-vector product per list into one score buffer, then one pass of
the same bound. Probing every list reproduces the flat index bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .core import (
    DataError,
    EmbeddingSet,
    SearchResult,
    _bound_terms,
    _squared_l2_rows,
    _to_f32,
    check_int,
    check_labels,
    top_k_smallest,
)
from .flat import block_queries, check_threads, exact_candidates, query_matrix, select_rows
from .kmeans import Codebook, assign, kmeans_train

__all__ = ["IvfFlatIndex", "ivf_flat_build", "ivf_flat_search", "default_nprobe"]


def default_nprobe(nlist: int) -> int:
    return max(1, check_int("nlist", nlist, 1) // 32)


def probe_order(coarse: Codebook, query: np.ndarray, nprobe: int) -> np.ndarray:
    """The nprobe coarse centroids nearest the query, (distance, id) order."""
    q = query.reshape(1, -1)
    _, ids, d = exact_candidates(coarse.centroids, coarse.terms, q, _bound_terms(q), nprobe)
    ids, _ = top_k_smallest(d, ids, nprobe)
    return ids


def coarse_lists(vectors: np.ndarray, nlist: int, seed: int, max_iters: int):
    """The coarse step of both IVF kinds: train nlist centroids on the rows,
    assign each row to its nearest, and split the row ids by list.

    Returns the codebook, every row's list, and each list's ascending row
    ids (an empty list is an empty array).
    """
    nlist = check_int("nlist", nlist, 1, vectors.shape[0] + 1)
    coarse = kmeans_train(vectors, nlist, max_iters=max_iters, seed=seed)
    labels = assign(vectors, coarse).labels
    # A stable sort keeps the ids ascending within each list.
    order = np.argsort(labels, kind="stable").astype(np.int64, copy=False)
    ends = np.cumsum(np.bincount(labels, minlength=nlist))
    return coarse, labels, np.split(order, ends[:-1])


def check_posting_lists(index, code_caps: np.ndarray | None = None) -> None:
    """Check the posting lists of either IVF kind and store them frozen, in
    the dtypes a VIDX file holds; else DataError. There is one list per
    coarse centroid. The ids are integers, stored as int64; the lists
    partition the row ids 0..count-1, and every row has a label as
    EmbeddingSet requires. Each list has one payload row per id: for
    ivf_flat, dim values in `list_vectors`, rounded once to f32 as
    EmbeddingSet rounds them (the caller checks they are finite); for
    ivf_pq (`code_caps` given), m integer codes in `list_codes`, code j in
    [0, code_caps[j]), stored as u1.
    """
    pq = code_caps is not None
    payloads = index.list_codes if pq else index.list_vectors
    if len(index.list_ids) != index.coarse.k or len(payloads) != index.coarse.k:
        raise DataError("posting list count does not match nlist")
    width = len(code_caps) if pq else index.dim
    list_ids, rows_of = [], []
    for c, (ids, rows) in enumerate(zip(index.list_ids, payloads)):
        ids, rows = np.asarray(ids), np.asarray(rows)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise DataError(f"posting list {c} ids are not a 1-d array of integers")
        if rows.shape != (ids.size, width):
            raise DataError(f"posting list {c} holds {rows.shape} rows for {ids.size} ids")
        if pq and rows.size and (
            rows.dtype.kind not in "iu" or np.any((rows < 0) | (rows >= code_caps))
        ):
            raise DataError(f"posting list {c} has a code outside its sub-codebook")
        list_ids.append(np.ascontiguousarray(ids, dtype=np.int64))
        if pq:
            rows_of.append(np.ascontiguousarray(rows, dtype=np.uint8))
        else:
            rows_of.append(_to_f32(np.ascontiguousarray, rows))
        list_ids[-1].setflags(write=False)
        rows_of[-1].setflags(write=False)
    count = len(index.labels)
    if not np.array_equal(np.sort(np.concatenate(list_ids)), np.arange(count)):
        raise DataError(f"posting lists do not partition the id range [0, {count})")
    check_labels(index.labels)
    object.__setattr__(index, "list_ids", tuple(list_ids))
    object.__setattr__(index, "list_codes" if pq else "list_vectors", tuple(rows_of))


@dataclass(frozen=True)
class IvfFlatIndex:
    kind: ClassVar[str] = "ivf_flat"
    coarse: Codebook
    list_ids: tuple[np.ndarray, ...]
    list_vectors: tuple[np.ndarray, ...]
    labels: list[str]
    normalized: bool
    # _bound_terms of each list's vectors.
    list_terms: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_posting_lists(self)
        terms = tuple(_bound_terms(v) for v in self.list_vectors)
        # An f32 row's f64 squared norm is finite exactly when the row is.
        for c, t in enumerate(terms):
            if not np.isfinite(t[0]).all():
                raise DataError(
                    f"posting list {c} holds NaN, infinity or a value outside the f32 range"
                )
        object.__setattr__(self, "list_terms", terms)

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
    index,
    queries,
    k: int,
    nprobe: int | None,
    score_lists,
    exact: bool,
    query_elems: int = 0,
    probe_elems: int = 0,
) -> list[SearchResult]:
    """The query loop of both IVF kinds: probe, score the probed lists, take top-k.

    The batch goes in query blocks of about _BLOCK_ELEMS elements: each
    query scans about ceil(count / nlist) rows per probe, and score_lists
    may keep `probe_elems` more per probe and `query_elems` more per query
    for the whole block.
    Each block's (query, probed list) pairs are grouped by list, so that
    `score_lists(qb, groups, found)` sees each probed list c once, as
    (c, ascending rows of qb that probe it). It appends to found[j] the
    (ids, distances) of at least every entry of query j's probed lists
    that can be among its k nearest, one part per list, or one for them
    all where ivf_flat ranks a one-query block's probed lists as one
    union. It is the only step that differs between ivf_flat and ivf_pq.
    `exact` says the scores are true distances, so probing every list is
    exact. Each query keeps its k nearest entries by (distance, id), or
    every entry, in that order, when its probed lists hold k or fewer.
    """
    q = query_matrix(queries, index.dim)
    k = check_int("k", k, 1)
    nprobe = default_nprobe(index.nlist) if nprobe is None else nprobe
    nprobe = check_int("nprobe", nprobe, 1, index.nlist + 1)
    approximate = not (exact and nprobe == index.nlist)
    per_probe = -(-index.count // index.nlist) + probe_elems
    out, step = [], block_queries(nprobe * per_probe + query_elems)
    for start in range(0, q.shape[0], step):
        qb = q[start : start + step]
        groups: dict[int, list[int]] = {}
        for j, x in enumerate(qb):
            for c in probe_order(index.coarse, x, nprobe).tolist():
                groups.setdefault(c, []).append(j)
        found: list[list] = [[] for _ in range(qb.shape[0])]
        score_lists(qb, groups.items(), found)
        for parts in found:
            ids = np.concatenate([part_ids for part_ids, _ in parts])
            dists = np.concatenate([part_dists for _, part_dists in parts])
            ids_k, d_k = top_k_smallest(dists, ids, k)
            out.append(SearchResult(ids=ids_k, dists=d_k, approximate=approximate))
    return out


def ivf_flat_search(
    index: IvfFlatIndex, queries, k: int, nprobe: int | None = None, threads: int = 1
) -> list[SearchResult]:
    """Scan the nprobe nearest lists, rank candidates by exact distance.

    Fewer than k candidates in the probed lists returns the short list.
    `threads` takes only 1; see flat.check_threads.
    """
    check_threads(threads)

    def scan_union(lists: list[int], q: np.ndarray, qterms: np.ndarray):
        """The (ids, distances) select_rows keeps for the one query q over
        the union of its probed lists, ranked as one block of rows."""
        # List lists[i] holds rows bounds[i]:bounds[i + 1] of the union.
        bounds = [0, *accumulate(index.list_ids[c].shape[0] for c in lists)]
        if not bounds[-1]:
            return np.empty(0, dtype=np.int64), np.empty(0)
        dots = np.empty((1, bounds[-1]), dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            for c, a, b in zip(lists, bounds, bounds[1:]):
                np.matmul(index.list_vectors[c], q[0], out=dots[0, a:b])
        terms = np.concatenate([index.list_terms[c] for c in lists], axis=1)
        _, rows, _ = select_rows(dots, terms, qterms, k)
        # The kept rows ascend, so each list's are one slice of them.
        cuts = np.searchsorted(rows, bounds).tolist()
        picked = [(c, rows[i:j] - a) for c, a, i, j in zip(lists, bounds, cuts, cuts[1:]) if i < j]
        x = np.concatenate([index.list_vectors[c][r] for c, r in picked])
        ids = np.concatenate([index.list_ids[c][r] for c, r in picked])
        return ids, _squared_l2_rows(x, q)

    def score_lists(qb: np.ndarray, groups, found: list[list]) -> None:
        qterms = _bound_terms(qb)
        if qb.shape[0] == 1:
            found[0].append(scan_union([c for c, _ in groups], qb, qterms))
            return
        for c, who in groups:
            vectors, ids = index.list_vectors[c], index.list_ids[c]
            step = block_queries(vectors.shape[0])
            for start in range(0, len(who), step):
                sel = who[start : start + step]
                counts, rows, dists = exact_candidates(
                    vectors, index.list_terms[c], qb[sel], qterms[:, sel], k
                )
                rows, end = ids[rows], 0
                for j, count in zip(sel, counts):
                    found[j].append((rows[end : end + count], dists[end : end + count]))
                    end += count

    return ivf_search(index, queries, k, nprobe, score_lists, exact=True)
