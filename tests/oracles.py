"""Independent reference implementations used by the oracle tests.

Everything here is written against the public contracts only, in the
plainest form possible (per-row loops, full sorts), so that agreement
with the library is evidence rather than tautology. Only numpy and the
standard library are used. The k-means loops of vse 0.4.0, the ADC
loop, per-folder cleaning and distance kernels of vse 0.4.1, and the
one-query-at-a-time flat and ivf_flat searches of vse 0.5.0 are kept
here too, so later versions can be held to the same bits.
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


def _sq_dists(rows, center):
    """The canonical kernel: f64 differences, squared, summed along each row."""
    diff = rows.astype(np.float64) - center.astype(np.float64)
    np.square(diff, out=diff)
    return diff.sum(axis=1)


def kmeans_v041(x, k, max_iters=25, seed=0):
    """The kmeans_train loop of vse 0.4.1 for rows that fit one assignment
    block (n <= 16,384), kept to test later versions against.

    The library's assignment, mean update and empty-cluster repair are
    written out with assign_labels_v040 (the same labels) and
    mean_update_sequential (the same ascending-row sums). Returns the f32
    centroids and the labels they were trained on.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    n = x.shape[0]

    def repair(labels, centroids):
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return centroids
        centroids = centroids.copy()
        for j in empties:
            donor = int(np.argmax(counts))
            members = np.flatnonzero(labels == donor)
            p = members[int(np.argmax(_sq_dists(x[members], centroids[donor])))]
            labels[p] = j
            centroids[j] = x[p]
            counts[donor] -= 1
            counts[j] = 1
        return centroids

    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    labels = assign_labels_v040(x, centroids)
    centroids = repair(labels, centroids)
    for _ in range(max_iters):
        centroids = mean_update_sequential(x, labels, k)
        new_labels = assign_labels_v040(x, centroids)
        centroids = repair(new_labels, centroids)
        converged = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        if converged:
            break
    return centroids, labels


def clean_identity_v041(x, seed=0):
    """The per-folder cleaning of vse 0.4.1, kept to test later versions
    against: a k=2 split by kmeans_v041, the main center, and removal
    strictly beyond twice the main cluster's mean member distance.

    x is one folder's (n, d) f32 rows. Returns (kept, removed, main_center,
    avg_dist, threshold) as vse 0.4.1's CleanReport held them.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    n = x.shape[0]
    if n < 3:
        center = (x.astype(np.float64).sum(axis=0) / n).astype(np.float32)
        avg = float(np.mean(np.sqrt(_sq_dists(x, center))))
        return np.arange(n), np.empty(0, dtype=np.int64), center, avg, 2.0 * avg
    centroids, _ = kmeans_v041(x, 2, seed=seed)
    labels = assign_labels_v040(x, centroids)
    counts = np.bincount(labels, minlength=2)
    if counts[0] != counts[1]:
        main = int(np.argmax(counts))
    else:
        inertias = [float(np.sum(_sq_dists(x[labels == j], centroids[j]))) for j in (0, 1)]
        main = 0 if inertias[0] <= inertias[1] else 1
    center = centroids[main]
    all_d = np.sqrt(_sq_dists(x, center))
    avg = float(np.mean(all_d[labels == main]))
    threshold = 2.0 * avg
    far = all_d > threshold
    return np.flatnonzero(~far), np.flatnonzero(far), center, avg, threshold


# The squared-L2 expressions of vse 0.4.1, one per function that held its
# own copy, kept to test the one kernel of later versions against.


def squared_l2_v041(a, b):
    """vse 0.4.1's squared_l2 of two f32 vectors."""
    d = a.astype(np.float64) - b.astype(np.float64)
    return float(np.sum(d * d))


def squared_l2_batch_v041(matrix, query):
    """vse 0.4.1's squared_l2_batch loop over 16,384-row blocks."""
    n = matrix.shape[0]
    q64 = query.astype(np.float64)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d = matrix[start:stop].astype(np.float64) - q64
        np.square(d, out=d)
        out[start:stop] = d.sum(axis=1)
    return out


def row_squared_norms_v041(arr):
    """vse 0.4.1's core._row_squared_norms."""
    out = np.empty(arr.shape[0], dtype=np.float64)
    for start in range(0, arr.shape[0], _BLOCK_ROWS):
        block = arr[start : start + _BLOCK_ROWS].astype(np.float64)
        np.square(block, out=block)
        out[start : start + _BLOCK_ROWS] = block.sum(axis=1)
    return out


def l2_norm_v041(v):
    """The norm inside vse 0.4.1's l2_normalize."""
    return float(np.sqrt(np.sum(v.astype(np.float64) ** 2)))


def inertia_v041(x, centroids, labels):
    """vse 0.4.1's kmeans._inertia: per-row distance to its centroid, one sum."""
    c64 = centroids.astype(np.float64)
    n = x.shape[0]
    d = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        diff = x[start:stop].astype(np.float64) - c64[labels[start:stop]]
        np.square(diff, out=diff)
        d[start:stop] = diff.sum(axis=1)
    return float(np.sum(d))


def squared_distances_v041(x, centers):
    """vse 0.4.1's gallery._squared_distances: (F, n, d) rows against
    centers that broadcast against them."""
    diff = x.astype(np.float64) - centers.astype(np.float64)
    np.square(diff, out=diff)
    return diff.sum(axis=-1)


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


# The one-query-at-a-time searches of vse 0.5.0: one f32 matrix-vector
# product per (query, scanned row block), PR 4's bound per row, the
# canonical kernel on the shortlist. Kept to hold the blocked searches of
# later versions to the same bits.


def _canonical_v050(rows, query):
    """vse 0.5.0's squared_l2_batch: f64 difference, squared, last-axis sum."""
    d = rows.astype(np.float64) - query.astype(np.float64)
    np.square(d, out=d)
    return d.sum(axis=-1)


def exact_candidates_v050(vectors, query, k):
    """vse 0.5.0's flat.exact_candidates of one query: the ascending rows
    whose bound reaches the k-th smallest upper end, and their canonical
    distances. Every row of the true top k is among them."""
    n, d = vectors.shape
    if k >= n:
        return np.arange(n), _canonical_v050(vectors, query)
    norms = (vectors.astype(np.float64) ** 2).sum(axis=-1)
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
    return rows, _canonical_v050(vectors[rows], query)


def _top_k_v050(dists, ids, k):
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


def flat_search_v050(index, queries, k):
    """vse 0.5.0's flat_search loop: (ids, dists) per query."""
    base = index.base.vectors
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    return [_top_k_v050(*exact_candidates_v050(base, q, k)[::-1], k) for q in queries]


def probe_order_v050(coarse, query, nprobe):
    """vse 0.5.0's probe_order: every centroid by the canonical kernel, the
    nprobe nearest by (distance, list id)."""
    d = _canonical_v050(coarse.centroids, np.asarray(query, dtype=np.float32))
    return _top_k_v050(d, np.arange(coarse.k, dtype=np.int64), nprobe)[0]


def ivf_flat_search_v050(index, queries, k, nprobe):
    """vse 0.5.0's ivf_flat_search loop: each query's probed lists scanned
    one at a time, (ids, dists) per query."""
    out = []
    for q in np.atleast_2d(np.asarray(queries, dtype=np.float32)):
        ids, dists = [], []
        for c in probe_order_v050(index.coarse, q, nprobe):
            rows, part = exact_candidates_v050(index.list_vectors[c], q, k)
            ids.append(index.list_ids[c][rows])
            dists.append(part)
        ids, dists = np.concatenate(ids), np.concatenate(dists)
        out.append(_top_k_v050(dists, ids, k))
    return out
