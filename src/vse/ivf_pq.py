"""IVF product quantization on residuals with asymmetric distance lookup.

Vectors are filed under a coarse quantizer as byte codes: the residual
(vector minus its coarse centroid) is split into m slices, each quantized
against its own sub-codebook of up to 256 centroids. A row's distance to a
query q in list c is the ADC value sum_j |s_j - r_j|^2, where s_j is the
row's sub-centroid in subspace j and r = f32(q - c) the query's residual
(`adc_table` gives every entry of it for one (query, list) pair).

A query never builds those per-list tables. A batch is scanned list by
list, and each list's rows are first ranked by the IVFADC decomposition
(Jegou, Douze & Schmid, TPAMI 2011): |q - c - S|^2 = |q - c|^2 +
(|S|^2 + 2<c, S>) - 2<q, S> for a row's decoded residual S. The middle
term is one f64 per row, formed once per index at its first search; the
last is gathered from one (m, 256) table of -2<q_j, s_jb> per query,
which all of its probed lists share; the first is the same for every row
of a list, so the ranking leaves it out. A proven bound on how far that
estimate is from the ADC value keeps every row that can be among the
query's k nearest in the list. Once a query block's lists are ranked,
all the rows they kept are scored by the ADC rule through the canonical
kernel, core._squared_l2_rows, _SCORE_ELEMS values at a time, so
distances carry the same bits as a full scan of every table. They are
estimates, so every result is flagged approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .core import DataError, EmbeddingSet, SearchResult, _squared_l2_rows, check_int
from .flat import block_queries, check_threads, query_matrix
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
# f64 sub-centroid values per scoring pass of ivf_pq_search (512 KiB): the
# kept rows of a query block are scored at most this many values at a time.
_SCORE_ELEMS = 65536


@dataclass(frozen=True)
class PqParams:
    """Product-quantizer shape: m >= 1 subspaces, each with a sub-codebook
    of at most KSUB entries; m must divide the dim (_subdim)."""

    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", check_int("m", self.m, 1))


def _subdim(dim: int, m: int) -> int:
    """The width of each of m subspaces of dim; DataError unless m divides dim."""
    if dim % m != 0:
        raise DataError(f"dim {dim} not divisible by m={m}")
    return dim // m


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
        sub = _subdim(self.coarse.dim, m)
        if len(self.subs) != m:
            raise DataError(f"expected {m} sub-codebooks, got {len(self.subs)}")
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
    def code_terms(self) -> tuple[tuple, tuple, np.ndarray, np.ndarray]:
        """The query-free parts of ivf_pq_search's ranking, computed on first
        search: each list's codes as entries of a query's flattened (m, KSUB)
        tables, one row per subspace and one column per list row (code b of
        subspace j is entry j * KSUB + b); each list's rows' |S|^2 + 2<c, S>
        in f64, S a row's decoded residual and c the list's centroid; the
        (2, nlist) array of each list's |c| and largest row |S|; and the
        (m, subdim, KSUB) sub-centroids transposed and scaled by -2, which
        turn a query's slices into its tables."""
        m, sub = self.params.m, self.subdim
        offsets = KSUB * np.arange(m)[:, None]
        sq = _squared_l2_rows(self.stacked_subs).ravel()  # |s_jb|^2 at entry j * KSUB + b
        cents = self.coarse.centroids.astype(np.float64)
        entries, rows, norms = [], [], np.zeros((2, self.nlist))
        for c, codes in enumerate(self.list_codes):
            entries.append(np.ascontiguousarray(codes.T) + offsets)
            cross = self.stacked_subs @ cents[c].reshape(m, sub, 1)
            rows.append((sq + 2.0 * cross.ravel())[entries[c]].sum(axis=0))
            if codes.size:
                norms[1, c] = sq[entries[c]].sum(axis=0).max()
        norms[0] = _squared_l2_rows(cents)
        np.sqrt(norms, out=norms)
        weights = np.ascontiguousarray(self.stacked_subs.transpose(0, 2, 1)) * -2.0
        return tuple(entries), tuple(rows), norms, weights

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
    m, sub = params.m, _subdim(base.dim, params.m)
    seed = check_int("seed", seed)  # an int, for the sub-codebook seeds below
    coarse, coarse_labels, list_ids = coarse_lists(base.vectors, nlist, seed, max_iters)
    residuals = _residuals(base.vectors, coarse.centroids.astype(np.float64)[coarse_labels])
    subs: list[Codebook] = []
    for j in range(m):
        slices = residuals[:, j * sub : (j + 1) * sub]
        # Distinct slices by their bytes: + 0 turns -0.0 into 0.0, and a
        # residual is never NaN, so slices of equal floats have equal bytes.
        distinct = np.unique((slices + np.float32(0)).view(np.dtype((np.void, 4 * sub)))).size
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
    list_id = check_int("list id", list_id, 0, index.nlist)
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


def _residuals_to(index: IvfPqIndex, queries: np.ndarray, lists: np.ndarray):
    """(e, r) for each f64 query row against its list: e is the query minus
    the list's centroid in f64, r is e rounded to f32 and back, the
    residual of the ADC rule. DataError names the list of the first
    residual that overflows f32, which a finite query's can."""
    e = queries - index.coarse.centroids[lists].astype(np.float64)
    with np.errstate(over="ignore"):
        r = e.astype(np.float32)
    finite = np.isfinite(r).all(axis=1)
    if not finite.all():
        bad = lists[int(np.argmin(finite))]
        raise DataError(f"the query's residual to list {bad} overflows f32")
    return e, r.astype(np.float64)


def adc_table(index: IvfPqIndex, query: np.ndarray, list_id: int) -> np.ndarray:
    """All m distance tables for one (query, probed list) pair, as (m, KSUB).

    Entry [j, b] is the canonical squared L2 between slice j of the query's
    residual against this list's centroid and sub-centroid b, from
    core._squared_l2_rows, so the same bits as
    squared_l2_batch(subs[j].centroids, slice j). Entries at b >= subs[j].k
    are padding; no valid code reaches them. A row's ADC value is the sum of
    its m entries in subspace order, over the last axis too. ivf_pq_search
    builds no such table: it scores only the rows its ranking keeps, through
    the same kernel, so with the same bits.
    """
    q = np.asarray(query, dtype=np.float32).astype(np.float64).reshape(1, -1)
    _, r = _residuals_to(index, q, np.array([list_id]))
    return _squared_l2_rows(index.stacked_subs, r.reshape(index.m, 1, index.subdim))


def _twice_bounds(index: IvfPqIndex, q: np.ndarray, pair_query, pair_list, e, r) -> np.ndarray:
    """2B for each (query, list) pair of a block: q holds the block's f32
    queries, pair i meets query pair_query[i] and list pair_list[i], and
    (e, r) are its residuals from _residuals_to.

    Row S (its decoded residual) of list c is ranked for query q by
    F = (|S|^2 + 2<c, S>) - 2<q, S>, in f64: term 2 from code_terms, term 3
    gathered from the query's tables. Let e = q - c, and r = f32(fl(e)) the
    residual of the ADC rule; u = 2^-53. The ADC value's real A* = |S - r|^2
    and E* = |S - e|^2 = |e|^2 + F*, F* the real F. With s >= |e| + |S| >=
    sqrt(E*) and delta >= |r - e|:
    - |A* - E*| <= delta (2 sqrt(E*) + delta) <= delta (2s + delta), as
      |S - r| and |S - e| differ by at most |r - e|. delta is |r - fl(e)|
      plus 2u |fl(e)| for fl(e), which is within u |e| of e.
    - The ADC rule sums nonnegative terms: subdim squares of differences
      per subspace, then m subspaces. Its f64 value is within
      (subdim + m + 4) u A* of A*, and A* <= (s + delta)^2.
    - F sums f64 dot products of length subdim and squared norms over m
      subspaces, so for any order of summation it is within
      (subdim + m + 2) u M of F*, M = |S|^2 + 2 |S| (|c| + |q|) >= |F*|
      (Cauchy-Schwarz); subdim + m <= d + 1, and (d + 16) u M also covers
      the rounding of t + 2B below. It scales with |c| and |q|, so it
      covers the cancellation of the two dot products when q and c are
      large and close together.
    |S| is at most the list's largest row |S|, so B is one value per
    (query, list), and the ADC value minus |e|^2, the same for every row of
    the list, is within B of F. Each input to B is within (d + 5) u of its
    value and B has degree 2 in them, so scaling it by 1 + 4 (d + 16) u
    covers them and its own rounding. At least k rows have an ADC value
    minus |e|^2 of at most t + B, t the k-th smallest F of the list, so
    each row of the query's k nearest in the list by (ADC value, id) has
    F <= t + 2B. All of it is finite for f32 inputs.
    """
    _, _, (cnorms, smax), _ = index.code_terms
    d, u = index.dim, 2.0**-53
    en = np.sqrt(_squared_l2_rows(e))
    delta = np.sqrt(_squared_l2_rows(r, e)) + 2 * u * en
    big = smax[pair_list]
    s = en + big
    qn = np.sqrt(_squared_l2_rows(q))[pair_query]
    bound = (d + 16) * u * big * (big + 2 * (cnorms[pair_list] + qn))
    bound += (index.subdim + index.m + 4) * u * (s + delta) ** 2 + delta * (2 * s + delta)
    return bound * (2 + 8 * (d + 16) * u)


def ivf_pq_search(
    index: IvfPqIndex, queries, k: int, nprobe: int | None = None, threads: int = 1
) -> list[SearchResult]:
    """Rank candidates in the nprobe nearest lists by their ADC values.

    `threads` takes only 1; see flat.check_threads.
    """
    check_threads(threads)
    m, sub, dim = index.m, index.subdim, index.dim
    flat_subs = index.stacked_subs.reshape(m * KSUB, sub)
    offsets = KSUB * np.arange(m)  # code b of subspace j is row j * KSUB + b of flat_subs
    most = max(1, _SCORE_ELEMS // dim)  # rows per scoring pass

    def score_lists(qb: np.ndarray, groups, found: list[list]) -> None:
        list_entries, row_terms, _, weights = index.code_terms
        groups = list(groups)
        # The block's (query, list) pairs, list by list.
        pair_query = [j for _, who in groups for j in who]
        pair_list = np.repeat([c for c, _ in groups], [len(who) for _, who in groups])
        q64 = qb.astype(np.float64)
        e, r = _residuals_to(index, q64[pair_query], pair_list)
        twice_b = _twice_bounds(index, qb, pair_query, pair_list, e, r)
        r = r.reshape(-1, m, sub)
        # -2<q_j, s_jb> at entry j * KSUB + b of row i for query i: the
        # tables every list the query probes shares.
        tables = np.empty((qb.shape[0], m * KSUB))
        np.matmul(q64.reshape(-1, m, 1, sub), weights, out=tables.reshape(-1, m, 1, KSUB))
        kept, at = [], 0  # (pairs, codes, ids) of the rows each list keeps
        for c, who in groups:
            ids, entries = index.list_ids[c], list_entries[c]
            n = ids.size
            step = block_queries(n * dim)
            for start in range(0, len(who), step):
                sel, first = who[start : start + step], at + start
                if n <= k:
                    keep = np.ones((len(sel), n), dtype=bool)
                else:
                    # A group of every query of the block takes the tables as they are.
                    est = np.take(tables if len(sel) == len(qb) else tables[sel], entries, axis=1)
                    est = est.sum(axis=1)
                    est += row_terms[c]
                    limit = np.partition(est, k - 1, axis=1)[:, k - 1]
                    limit += twice_b[first : first + len(sel)]
                    keep = est <= limit[:, None]
                pairs, rows = np.nonzero(keep)
                kept.append((pairs + first, index.list_codes[c][rows], ids[rows]))
            at += len(who)
        # The kept rows, pair by pair, scored by the ADC rule `most` at a time.
        pairs, codes, ids = (np.concatenate(part) for part in zip(*kept))
        dists = np.empty(ids.size)
        for a in range(0, ids.size, most):
            cents = flat_subs[codes[a : a + most] + offsets]
            dists[a : a + most] = _squared_l2_rows(cents, r, pairs[a : a + most]).sum(axis=1)
        end = 0
        for p, count in enumerate(np.bincount(pairs, minlength=at).tolist()):
            found[pair_query[p]].append((ids[end : end + count], dists[end : end + count]))
            end += count

    return ivf_search(
        index, queries, k, nprobe, score_lists, exact=False,
        query_elems=m * KSUB, probe_elems=dim,
    )
