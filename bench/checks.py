"""Correctness checks for the benchmark, written apart from vse.

Every check recomputes what it compares against with plain numpy from
the inputs, or tests a property the method must have. Nothing here calls
into vse, so a fault in the program cannot also hide in its own oracle.
Each check raises Mismatch on the first discrepancy it finds.

Squared L2 is computed as the README of vse defines it: cast f32 to f64,
subtract, square, sum over the vector axis. Summing a C-contiguous row
block along its last axis gives the same bits whatever the block height,
so distances can be compared for exact equality.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

CRC64_CHECK = 0x995DC9BBDF1939FA  # CRC-64/XZ of b"123456789"


class Mismatch(AssertionError):
    """An output of the program disagrees with the benchmark's own answer."""


def expect(ok, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def sq_l2(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = np.atleast_2d(rows).astype(np.float64) - np.asarray(query).astype(np.float64)
    return (diff * diff).sum(axis=1)


def exact_topk(base: np.ndarray, queries: np.ndarray, k: int, chunk: int = 32):
    """Exact k nearest rows per query, ordered by (distance, id).

    A float32 GEMM ranks all rows cheaply. Its error is far below the
    margin, so every true top-k row lies within the margin of the k-th
    ranked value; that shortlist is re-scored exactly in float64.
    """
    base_sq = np.einsum("ij,ij->i", base, base)
    ids = np.empty((queries.shape[0], k), dtype=np.int64)
    dists = np.empty((queries.shape[0], k), dtype=np.float64)
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk]
        approx = base_sq[None, :] - 2.0 * (block @ base.T)
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        margin = 1e-3 * (base_sq.max() + np.einsum("ij,ij->i", block, block))
        rows, cols = np.nonzero(approx <= (kth + margin)[:, None])
        for j, cand in enumerate(np.split(cols, np.cumsum(np.bincount(rows, minlength=len(block)))[:-1])):
            d = sq_l2(base[cand], block[j])
            order = np.lexsort((cand, d))[:k]
            ids[start + j] = cand[order]
            dists[start + j] = d[order]
    return ids, dists


def probed_lists(coarse: np.ndarray, query: np.ndarray, nprobe: int) -> np.ndarray:
    d = sq_l2(coarse, query)
    return np.lexsort((np.arange(coarse.shape[0]), d))[:nprobe]


def check_order(res) -> None:
    ids, d = res.ids, res.dists
    expect(np.unique(ids).size == ids.size, "duplicate ids in one result")
    ok = (d[1:] > d[:-1]) | ((d[1:] == d[:-1]) & (ids[1:] > ids[:-1]))
    expect(bool(np.all(ok)), "result is not ascending by (distance, id)")


def check_exact(res, ids: np.ndarray, dists: np.ndarray) -> None:
    """An exact search: the oracle's ids and bit-equal distances."""
    expect(not res.approximate, "exact result flagged approximate")
    expect(np.array_equal(res.ids, ids), f"ids {res.ids.tolist()} != exact {ids.tolist()}")
    expect(np.array_equal(res.dists, dists), "distances differ from the exact squared L2")


def check_same(a, b) -> None:
    """Two answers to one query that must agree bit for bit."""
    expect(a.approximate == b.approximate, "approximate flags differ")
    expect(np.array_equal(a.ids, b.ids), "ids differ between two answers to one query")
    expect(np.array_equal(a.dists, b.dists), "distances differ between two answers")


class IvfOracle:
    """What an IVF answer must satisfy, derived from the index's own arrays."""

    def __init__(self, index, base: np.ndarray, nprobe: int, k: int):
        self.index = index
        self.base = base
        self.nprobe = nprobe
        self.k = k
        self.coarse = index.coarse.centroids
        self.owner = np.full(base.shape[0], -1, dtype=np.int64)
        self.pos = np.zeros(base.shape[0], dtype=np.int64)
        for c, ids in enumerate(index.list_ids):
            self.owner[ids] = c
            self.pos[ids] = np.arange(ids.shape[0])
        self.pq = hasattr(index, "list_codes")
        if self.pq:
            # Sub-codebooks stacked as (m, 256, subdim); a codebook trained
            # on fewer distinct slices is padded, and no code points there.
            self.subs = np.zeros((index.m, 256, index.subdim), dtype=np.float32)
            for j, cb in enumerate(index.subs):
                self.subs[j, : cb.k] = cb.centroids

    def check_build(self, sample: np.ndarray) -> None:
        """Lists partition the ids; sampled rows sit in a nearest list.

        For ivf_pq each sampled code byte also names a nearest
        sub-centroid of the row's residual. Nearness is tested within a
        small tolerance, because training ranks with a GEMM expansion.
        """
        expect(bool(np.all(self.owner >= 0)), "a gallery row is in no posting list")
        sizes = sum(ids.shape[0] for ids in self.index.list_ids)
        expect(sizes == self.base.shape[0], "posting lists hold a row twice")
        for row in sample:
            x = self.base[row]
            d = sq_l2(self.coarse, x)
            c = self.owner[row]
            expect(d[c] <= d.min() + 1e-9, f"row {row} is not in a nearest list")
            if not self.pq:
                expect(np.array_equal(self.index.list_vectors[c][self.pos[row]], x),
                       f"row {row} is stored with other values")
                continue
            r = (x.astype(np.float64) - self.coarse[c].astype(np.float64)).astype(np.float32)
            codes = self.index.list_codes[c][self.pos[row]]
            sub = self.index.subdim
            for j, cb in enumerate(self.index.subs):
                dj = sq_l2(cb.centroids, r[j * sub : (j + 1) * sub])
                expect(dj[codes[j]] <= dj.min() + 1e-9,
                       f"row {row} subspace {j} code is not a nearest sub-centroid")

    def check(self, res, query: np.ndarray) -> None:
        check_order(res)
        expect(res.approximate == (self.nprobe < self.index.nlist),
               "approximate flag does not match the probe count")
        expect(0 < res.ids.size <= self.k, f"result has {res.ids.size} entries")
        lists = self.owner[res.ids]
        allowed = probed_lists(self.coarse, query, self.nprobe)
        expect(bool(np.all(np.isin(lists, allowed))), "result holds a row from an unprobed list")
        if not self.pq:
            expect(np.array_equal(res.dists, sq_l2(self.base[res.ids], query)),
                   "ivf_flat distance differs from the exact squared L2")
            return
        expect(np.array_equal(res.dists, self.estimate(res.ids, query)),
               "ivf_pq estimate differs from the reconstruction from codebooks and codes")

    def estimate(self, ids: np.ndarray, query: np.ndarray) -> np.ndarray:
        """ADC distance: per-subspace squared L2 to the coded sub-centroid, summed."""
        lists = self.owner[ids]
        m, sub = self.index.m, self.index.subdim
        r = (query.astype(np.float64) - self.coarse[lists].astype(np.float64)).astype(np.float32)
        codes = np.stack([self.index.list_codes[c][p] for c, p in zip(lists, self.pos[ids])])
        cents = self.subs[np.arange(m), codes.astype(np.int64)]  # (ids, m, subdim)
        diff = cents.astype(np.float64) - r.reshape(ids.size, m, sub).astype(np.float64)
        terms = (diff * diff).sum(axis=2)
        return terms.sum(axis=1)


@lru_cache(maxsize=None)
def _majority_masks(n: int) -> np.ndarray:
    """Every subset of n rows holding at least half of them, one 0/1 row each."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return bits[2 * bits.sum(axis=1) >= n].astype(np.float64)


MAX_ENUMERATED = 16  # larger folders get a range test instead of a subset search


def check_main_cluster(rep, x: np.ndarray, dist: np.ndarray) -> None:
    """The threshold is twice avg_dist, and avg_dist is the mean distance to
    main_center over a majority subset of the folder whose centroid is
    main_center (the whole folder when it has fewer than three rows)."""
    expect(rep.threshold == 2.0 * rep.avg_dist,
           f"{rep.identity}: threshold {rep.threshold} is not twice avg_dist {rep.avg_dist}")
    n = x.shape[0]
    if n > MAX_ENUMERATED:
        d = np.sort(dist)
        half = (n + 1) // 2
        expect(d[:half].mean() - 1e-9 <= rep.avg_dist <= d[-half:].mean() + 1e-9,
               f"{rep.identity}: avg_dist is no mean over a majority of the folder")
        return
    masks = np.ones((1, n)) if n < 3 else _majority_masks(n)
    size = masks.sum(axis=1)
    hit = np.abs(masks @ dist / size - rep.avg_dist) <= 1e-9 * max(rep.avg_dist, 1e-9)
    centers = masks[hit] @ x.astype(np.float64) / size[hit, None]
    near = np.abs(centers - rep.main_center.astype(np.float64)).max(axis=1, initial=0) <= 1e-6
    expect(bool(np.any(near)), f"{rep.identity}: avg_dist and main_center are not the mean "
           "distance and centroid of one majority subset")


def check_clean(gallery, cleaned, reports) -> np.ndarray:
    """Reports partition each folder in first-appearance order, each main
    cluster and threshold follow the 2x-mean-distance rule, removals are the
    rows beyond the threshold, and the cleaned set is the kept rows.

    Returns the gallery rows removed, ascending.
    """
    rows_of: dict[str, list[int]] = {}
    for i, label in enumerate(gallery.labels):
        rows_of.setdefault(label, []).append(i)
    expect([r.identity for r in reports] == list(rows_of),
           "reports do not cover the identities in first-appearance order")
    removed = []
    for rep in reports:
        rows = np.asarray(rows_of[rep.identity])
        expect(np.array_equal(np.sort(np.concatenate([rep.kept, rep.removed])),
                              np.arange(rows.size)), f"{rep.identity}: kept/removed do not partition")
        x = gallery.vectors[rows]
        dist = np.sqrt(sq_l2(x, rep.main_center))
        check_main_cluster(rep, x, dist)
        far = dist > rep.threshold
        if rows.size < 3:
            far[:] = False  # folders this small are kept whole
        expect(np.array_equal(np.flatnonzero(far), rep.removed),
               f"{rep.identity}: removals do not follow the threshold")
        removed.extend(rows[rep.removed].tolist())
    removed = np.sort(np.asarray(removed, dtype=np.int64))
    keep = np.setdiff1d(np.arange(gallery.count), removed)
    expect(np.array_equal(cleaned.vectors, gallery.vectors[keep]), "cleaned vectors differ from kept rows")
    expect(cleaned.labels == [gallery.labels[i] for i in keep], "cleaned labels differ from kept rows")
    return removed


def check_set_equal(a, b) -> None:
    expect(a.normalized == b.normalized, "normalized flag differs")
    expect(a.labels == b.labels, "labels differ")
    expect(a.vectors.dtype == b.vectors.dtype and np.array_equal(a.vectors, b.vectors),
           "vectors differ")


def set_digest(es) -> bytes:
    """A digest of a set's flag, labels and vector bytes, to compare repeats."""
    h = hashlib.sha256(bytes([es.normalized]) + "\n".join(es.labels).encode("utf-8"))
    h.update(np.ascontiguousarray(es.vectors).tobytes())
    return h.digest()


def check_same_digest(digest: bytes, es) -> None:
    expect(set_digest(es) == digest, "a repeated call gave another set")


def _codebook_equal(a, b, what: str) -> None:
    expect(a.k == b.k and a.dim == b.dim, f"{what} shape differs")
    expect(np.array_equal(a.centroids, b.centroids), f"{what} centroids differ")
    expect(a.inertia == b.inertia, f"{what} inertia differs")


def check_index_equal(a, b) -> None:
    """A loaded index holds exactly what was saved."""
    expect(type(a) is type(b), "index kind differs")
    expect(a.labels == b.labels and a.normalized == b.normalized, "labels or flag differ")
    _codebook_equal(a.coarse, b.coarse, "coarse codebook")
    payload = "list_codes" if hasattr(a, "list_codes") else "list_vectors"
    for j, (ia, ib) in enumerate(zip(a.list_ids, b.list_ids)):
        expect(np.array_equal(ia, ib), f"list {j} ids differ")
        expect(np.array_equal(getattr(a, payload)[j], getattr(b, payload)[j]), f"list {j} payload differs")
    expect(len(a.list_ids) == len(b.list_ids), "list count differs")
    if payload == "list_codes":
        expect(a.m == b.m and len(a.subs) == len(b.subs), "m differs")
        for j, (ca, cb) in enumerate(zip(a.subs, b.subs)):
            _codebook_equal(ca, cb, f"sub-codebook {j}")


def vidx_size(index) -> int:
    """File size the VIDX layout prescribes for an IVF index."""
    labels = sum(len(label.encode("utf-8")) + 1 for label in index.labels)
    size = 21 + 1 + 8 + labels  # header, normalized flag, labels block
    size += 16 + 4 * index.coarse.k * index.coarse.dim
    n = index.count
    if hasattr(index, "list_codes"):
        size += 8 + sum(16 + 4 * cb.k * cb.dim for cb in index.subs)
        size += 8 * index.nlist + n * (8 + index.m)
    else:
        size += 8 * index.nlist + n * (8 + 4 * index.dim)
    return size + 8  # trailing CRC


def check_saved(blob: bytes, first_digest: bytes | None, expected_size: int) -> bytes:
    """A saved file has the layout's size and the bytes of the first save.

    Returns the file's digest, to compare the next save against.
    """
    expect(len(blob) == expected_size, f"file has {len(blob)} bytes, layout needs {expected_size}")
    digest = hashlib.sha256(blob).digest()
    expect(first_digest in (None, digest), "saving the same index twice gave different bytes")
    return digest


def check_crc(crc64) -> None:
    expect(crc64(b"123456789") == CRC64_CHECK, "crc64 check value is wrong")


def recall_and_top1(results, oracle_ids: np.ndarray, labels: list[str], truth: list[str],
                    out_of_gallery: str) -> tuple[float, float]:
    """Mean recall@10 against the exact neighbours, and top-1 accuracy (%)
    on probes whose identity is in the gallery."""
    hits = [np.intersect1d(r.ids, o).size / o.size for r, o in zip(results, oracle_ids)]
    scored = [(r, t) for r, t in zip(results, truth) if t != out_of_gallery]
    right = sum(1 for r, t in scored if r.ids.size and labels[int(r.ids[0])] == t)
    return float(np.mean(hits)), 100.0 * right / len(scored)
