"""Independent reference implementations used by the oracle tests.

Everything here is written against the public contracts only, in the
plainest form possible (per-row loops, full sorts), so that agreement
with the library is evidence rather than tautology. Only numpy and the
standard library are used. The k-means loops of vse 0.4.0 and the ADC
loop of vse 0.4.1 are kept here verbatim too, so later versions can be
held to the same bits.
"""

import struct

import numpy as np


def brute_force_search(base, queries, k):
    """Full-sort k nearest rows per query under squared L2.

    base and queries are float32 arrays. Distances are computed row by
    row in float64 and the full distance list is sorted by (distance,
    row id) before truncating to k. Returns (ids, dists) pairs, one per
    query, with int64 ids and float64 distances.
    """
    base = np.asarray(base, dtype=np.float32)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    n = base.shape[0]
    row_ids = np.arange(n, dtype=np.int64)
    out = []
    for q in queries:
        q64 = q.astype(np.float64)
        dists = np.empty(n, dtype=np.float64)
        for i in range(n):
            diff = base[i].astype(np.float64) - q64
            dists[i] = (diff * diff).sum()
        order = np.lexsort((row_ids, dists))[:k]
        out.append((row_ids[order], dists[order]))
    return out


def lloyd_reference(x, k, max_iters=25, seed=0):
    """Plain Lloyd iteration with the same seeding and repair contract.

    Init picks k distinct rows with default_rng(seed).choice. Empty
    clusters are repaired ascending by stealing the farthest member of
    the largest cluster. Means accumulate in float64 and round to
    float32. Stops when labels stop changing or after max_iters mean
    updates. Returns (centroids, labels, inertia).
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    cents = x[rng.choice(n, size=k, replace=False)].astype(np.float32).copy()

    def point_dists(c):
        # one column per centroid, canonical f64 row reduction
        d = np.empty((n, k))
        for j in range(k):
            diff = x.astype(np.float64) - c[j].astype(np.float64)
            d[:, j] = (diff * diff).sum(axis=1)
        return d

    def repair(labels, c):
        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            donor = int(np.argmax(counts))
            members = np.flatnonzero(labels == donor)
            diff = x[members].astype(np.float64) - c[donor].astype(np.float64)
            far = members[int(np.argmax((diff * diff).sum(axis=1)))]
            labels[far] = j
            c[j] = x[far]
            counts[donor] -= 1
            counts[j] = 1
        return labels, c

    def cost(labels, c):
        diff = x.astype(np.float64) - c[labels].astype(np.float64)
        return float(np.sum((diff * diff).sum(axis=1)))

    labels = np.argmin(point_dists(cents), axis=1)
    labels, cents = repair(labels, cents)
    inertia = cost(labels, cents)
    for _ in range(max_iters):
        for j in range(k):
            members = x[labels == j]
            cents[j] = (
                members.astype(np.float64).sum(axis=0) / members.shape[0]
            ).astype(np.float32)
        new = np.argmin(point_dists(cents), axis=1)
        new, cents = repair(new, cents)
        inertia = cost(new, cents)
        same = bool(np.array_equal(new, labels))
        labels = new
        if same:
            break
    return cents, labels, inertia


# The fixed row block of vse 0.4.0's k-means assignment.
_BLOCK_ROWS = 16384


def assign_labels_v040(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The assignment of vse 0.4.0, kept to test later versions against.

    Nearest-centroid labels, ties to the lower index.

    Ranking uses the |x|^2 - 2xc + |c|^2 expansion in f64 (one GEMM per
    block). This is a fast path for the argmin only; any distance that is
    reported or summed into inertia goes back through the canonical kernel.
    """
    c64 = centroids.astype(np.float64)
    csq = np.einsum("ij,ij->i", c64, c64)
    n = x.shape[0]
    labels = np.empty(n, dtype=np.int64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        b = x[start:stop].astype(np.float64)
        g = b @ c64.T
        g *= -2.0
        g += np.einsum("ij,ij->i", b, b)[:, None]
        g += csq[None, :]
        labels[start:stop] = np.argmin(g, axis=1)
    return labels


def mean_update_v040(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The mean update of vse 0.4.0: one boolean mask per cluster.

    For d >= 2 numpy sums each column in ascending row order; for d = 1
    it collapses the slice to 1-d and sums pairwise.
    """
    out = np.empty((k, x.shape[1]), dtype=np.float32)
    for j in range(k):
        members = x[labels == j]
        out[j] = (members.astype(np.float64).sum(axis=0) / members.shape[0]).astype(
            np.float32
        )
    return out


def mean_update_sequential(x, labels, k):
    """Per-cluster means: each column summed one row at a time.

    Python floats (IEEE f64) start at 0.0 and add the members in ascending
    row order; each sum is divided by the member count and rounded to f32.
    Every cluster must have a member.
    """
    x = np.asarray(x, dtype=np.float32)
    sums = [[0.0] * x.shape[1] for _ in range(k)]
    counts = [0] * k
    for row, j in zip(x.tolist(), np.asarray(labels).tolist()):
        counts[j] += 1
        acc = sums[j]
        for c, v in enumerate(row):
            acc[c] += v
    return np.float32([[v / counts[j] for v in sums[j]] for j in range(k)])


def adc_table_v041(index, query, list_id):
    """The ADC tables of vse 0.4.1, kept to test later versions against.

    One f64 table per subspace: entry [j][b] is the canonical squared L2
    between slice j of the query's residual against the list's coarse
    centroid and sub-centroid b. The library's `_residuals` and
    `squared_l2_batch` (one row block, as k <= 256) are written out inline.
    """
    r = (
        np.asarray(query, dtype=np.float32).astype(np.float64)
        - index.coarse.centroids[list_id].astype(np.float64)
    ).astype(np.float32)
    sub = index.subdim
    tables = []
    for j in range(index.m):
        d = index.subs[j].centroids.astype(np.float64) - r[j * sub : (j + 1) * sub].astype(
            np.float64
        )
        np.square(d, out=d)
        tables.append(d.sum(axis=1))
    return tables


def score_list_v041(index, query, c):
    """vse 0.4.1's ivf_pq list scorer: one lookup column per subspace, summed."""
    codes = index.list_codes[c]
    tables = adc_table_v041(index, query, int(c))
    lookups = np.empty((codes.shape[0], index.m), dtype=np.float64)
    for j in range(index.m):
        lookups[:, j] = tables[j][codes[:, j]]
    return index.list_ids[c], lookups.sum(axis=1)


def ivf_pq_search_v041(index, queries, k, nprobe):
    """ivf_pq search with vse 0.4.1's ADC, probes and top k by full sorts.

    Each query probes the nprobe coarse centroids nearest by (canonical
    squared L2, list id), scores every row of those lists with
    score_list_v041, and keeps the k smallest by (estimate, row id).
    Returns (ids, dists) pairs, one per query.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    coarse = index.coarse.centroids.astype(np.float64)
    list_nums = np.arange(coarse.shape[0])
    out = []
    for q in queries:
        diff = coarse - q.astype(np.float64)
        near = (diff * diff).sum(axis=1)
        probes = np.lexsort((list_nums, near))[:nprobe]
        parts = [score_list_v041(index, q, c) for c in probes]
        ids = np.concatenate([p[0] for p in parts]).astype(np.int64)
        dists = np.concatenate([p[1] for p in parts])
        order = np.lexsort((ids, dists))[:k]
        out.append((ids[order], dists[order]))
    return out


_CRC_POLY = 0xC96C5795D7870F42  # CRC-64/XZ: 0x42f0e1eba9ea3693 bit-reflected


def _crc64_tables():
    """The eight slice-by-8 tables: table t feeds a byte followed by t zero bytes."""
    base = []
    for b in range(256):
        crc = b
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC_POLY if crc & 1 else crc >> 1
        base.append(crc)
    tables = [base]
    for t in range(1, 8):
        prev = tables[t - 1]
        tables.append([(prev[b] >> 8) ^ base[prev[b] & 0xFF] for b in range(256)])
    return tables


_CRC_TABLES = _crc64_tables()


def crc64_reference(data: bytes) -> int:
    """CRC-64/XZ of a byte string, one 8-byte word per step in pure Python."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC_TABLES
    crc = 0xFFFFFFFFFFFFFFFF
    n8 = len(data) - (len(data) % 8)
    for (word,) in struct.iter_unpack("<Q", data[:n8]):
        c = crc ^ word
        crc = (
            t7[c & 0xFF]
            ^ t6[(c >> 8) & 0xFF]
            ^ t5[(c >> 16) & 0xFF]
            ^ t4[(c >> 24) & 0xFF]
            ^ t3[(c >> 32) & 0xFF]
            ^ t2[(c >> 40) & 0xFF]
            ^ t1[(c >> 48) & 0xFF]
            ^ t0[(c >> 56) & 0xFF]
        )
    for b in data[n8:]:
        crc = t0[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF
