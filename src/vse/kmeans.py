"""Seeded Lloyd k-means: the single clustering primitive.

The coarse quantizer, the PQ sub-codebooks, and gallery cleaning all train
through this trainer, so its determinism rules are strict:

* init picks k distinct rows with one seeded generator draw,
* assignment ranks centroids by the f64 expansion ((-2x.c) + |x|^2) + |c|^2,
  in row blocks sized by k, with ties to the lower centroid index; the
  expansion can pick the farther of two centroids whose squared distances
  differ by less than about |x|^2 * 2^-52. For one problem at k > 2 an f32
  screen ranks every row first and decides the rows where a proven bound
  shows the expansion would pick the same centroid; only the blocks that
  hold a row it cannot decide are ranked by the expansion, so every label
  is the expansion's,
* empty clusters are repaired from the largest cluster's farthest point,
* centroid means accumulate in f64 over members in ascending row order,
  for every dimension, then round to f32 (the storage dtype),
* inertia is computed once, from the final centroids and labels, with the
  canonical distance kernel, never carried over from the assignment fast
  path.

Two runs with the same (data, k, max_iters, seed) are bitwise identical.

One Lloyd loop serves both one problem (`kmeans_train`) and a stack of F
problems of one size trained in lockstep (`kmeans_stack`, which gallery
cleaning uses for its k=2 splits): one stacked GEMM per assignment block
and no screen, one `bincount` per mean update over every problem's
clusters, and a repair only where a cluster is empty. The init draw
depends only on (seed, n, k), so one draw serves the stack, and each
problem leaves the loop at its own convergence iteration. Every problem
of a stack gets the bits it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    _BLOCK_ROWS,
    DataError,
    _bound_terms,
    _check_finite,
    _squared_l2_rows,
    _to_f32,
    as_rows,
    check_int,
    squared_l2_batch,
)

__all__ = ["Codebook", "Assignment", "kmeans_train", "assign"]

# f64 distances per assignment block (512 KiB); the f32 screen ranks twice
# as many per chunk in the same bytes.
_BLOCK_ELEMS = 65536


@dataclass(frozen=True)
class Codebook:
    """k centroids of one dimension plus the final training inertia."""

    k: int
    dim: int
    centroids: np.ndarray
    inertia: float

    def __post_init__(self) -> None:
        for name in ("k", "dim"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        c = _to_f32(np.ascontiguousarray, self.centroids)
        if c.shape != (self.k, self.dim):
            raise DataError(
                f"centroid block {c.shape} does not match k={self.k}, dim={self.dim}"
            )
        _check_finite(c, self.centroids, "codebook ")
        if not (np.isfinite(self.inertia) and self.inertia >= 0.0):
            raise DataError(f"inertia must be finite and >= 0, got {self.inertia}")
        c.setflags(write=False)
        object.__setattr__(self, "centroids", c)

    @cached_property
    def terms(self) -> np.ndarray:
        """_bound_terms of the centroids, for ranking them in exact order;
        computed on first use, as only a coarse quantizer needs them."""
        return _bound_terms(self.centroids)


@dataclass(frozen=True)
class Assignment:
    """Per-point nearest-centroid labels and per-cluster member counts."""

    labels: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if int(counts.sum()) != labels.shape[0]:
            raise DataError("cluster counts do not sum to the number of points")
        labels.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "counts", counts)


def _nonempty_rows(data) -> np.ndarray:
    x = as_rows(data)
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise DataError(f"expected a nonempty 2-d matrix, got shape {x.shape}")
    return x


def _row_blocks(n: int, k: int):
    """(start, stop) row blocks for ranking n rows against k centroids.

    A block holds `rows` rows, the power of two that keeps its rows x k f64
    distances near _BLOCK_ELEMS elements, so the block stays in cache. No
    block straddles a multiple of _BLOCK_ROWS, and the last block of each
    run of _BLOCK_ROWS rows takes the leftover rows, so a block is shorter
    than `rows` only when it is a whole run. BLAS picks its kernel from a
    block's shape, and a block of one or a few rows goes through a
    matrix-vector or small-matrix kernel that orders each dot product's
    sum differently. With these two rules every row meets the kernel it
    would meet in whole-run blocks, so no label depends on `rows`.
    """
    rows = 1 << max(3, (_BLOCK_ELEMS // k).bit_length() - 1)
    for run in range(0, n, _BLOCK_ROWS):
        stop = min(run + _BLOCK_ROWS, n)
        last = run + max(0, (stop - run) // rows - 1) * rows
        for start in range(run, last, rows):
            yield start, start + rows
        yield last, stop


def _assign_labels(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels, ties to the lower index.

    x is one (n, d) problem with (k, d) centroids, or a stack of F problems
    of one size, (F, n, d) with (F, k, d) centroids, each ranked against
    its own centroids. The rule is the ((-2x.c) + |x|^2) + |c|^2 expansion
    in f64, one GEMM per problem per block of _row_blocks (`_rule_block`):
    a stacked `matmul` makes the same GEMM call per problem as a single
    one. For a single problem, `_screen` ranks every row by one f32 GEMM
    first and proves, where it can, that the rule picks the same centroid;
    only a block holding a row it cannot decide is ranked by the rule. A
    stack is ranked by the rule in every block. So the labels are the
    rule's, bit for bit.
    This is a fast path for the argmin only; any distance that is reported
    or summed into inertia goes back through the canonical kernel.
    """
    n = x.shape[-2]
    c64 = centroids.astype(np.float64)
    csq = _row_dots(c64)
    blocks = list(_row_blocks(n, c64.shape[-2]))
    screened = _screen(x, centroids, csq)
    if screened is None:
        labels = np.empty(x.shape[:-1], dtype=np.int64)
    else:
        labels, undecided = screened
        opened = np.logical_or.reduceat(undecided, [start for start, _ in blocks])
        blocks = [blocks[i] for i in np.flatnonzero(opened)]
    # Scaling f32-range values by a power of two is exact, so the GEMM
    # gives -2x.c bit for bit, as if its result were scaled.
    c64 *= -2.0
    for start, stop in blocks:
        labels[..., start:stop] = _rule_block(
            x[..., start:stop, :], np.swapaxes(c64, -1, -2), csq
        )
    return labels


def _rule_block(x: np.ndarray, ct: np.ndarray, csq: np.ndarray) -> np.ndarray:
    """The f64 rule on one block of rows: argmin of ((x @ ct) + |x|^2) + csq,
    with ct the transposed centroids scaled by -2 and csq their |c|^2."""
    b = x.astype(np.float64)
    g = b @ ct
    g += _row_dots(b)[..., None]
    g += csq[..., None, :]
    return np.argmin(g, axis=-1)


def _screen(x: np.ndarray, centroids: np.ndarray, csq: np.ndarray):
    """(labels, undecided) of an f32 ranking of every row of one (n, d)
    problem, or None when k <= 2, d >= 2^20 or an f32 value could
    overflow, and for a stack, as the only stacks are cleaning's k = 2
    splits; csq holds the rule's f64 |c|^2.

    A row's label is its f32 argmin. It is undecided unless its runner-up
    trails by more than a bound that proves the f64 rule picks the same
    centroid.
    """
    (n, d), k = x.shape[-2:], centroids.shape[-2]
    if x.ndim != 2 or k <= 2 or d >= 1 << 20:
        return None
    # Row x is scored against centroid c_j by s_j, the f32 dot of [x, 1]
    # and [-2c_j, fl32(C_j)], where C_j is the rule's f64 |c_j|^2. The rule
    # ranks by E_j = ((G_j + X) + C_j) in f64, G_j the f64 GEMM's -2x.c_j,
    # X its |x|^2. Let P_j = -2x.c_j + C_j exactly, N = |x|, M = max |c_j|,
    # u = 2^-24, v = 2^-53, and g = (d + 1) u / (1 - (d + 1) u):
    # - f32 dot: |s_j - P_j| <= (g + u) M (2N + M) + 4 (d + 1) 2^-126 + 2^-148.
    #   The d + 1 products and sums lose at most g sum |a b| <= g (2 N M +
    #   fl32(C_j)) for any summation order, with or without FMA, so for
    #   any BLAS kernel, block shape and thread split; fl32(C_j) is within
    #   u C_j + 2^-150 of C_j; each of the 2 (d + 1) products and sums loses
    #   at most 2^-126 more when its result is tiny, even where subnormal
    #   results flush to zero, and the later sums carry it by a factor < 2.
    # - f64 rule: |E_j - X - P_j| <= (d + 3) v (N + M)^2. Products of f32
    #   values are exact in f64 and cannot underflow, G_j sums d of them in
    #   any order, and the two adds round once each. X is the same for every
    #   j, so its own rounding cancels out of the ranking.
    # If s_r - s_a > tol = 2 (their sum) for the f32 argmin a and the
    # runner-up r, then for every b != a, E_b - E_a >= (s_b - s_a) - tol > 0:
    # the rule picks a, whatever the order of its sums. N and M are bounded
    # above from the f32 |x|^2 (within g of N^2 plus 4 d 2^-126) and C_j
    # (within g of M^2); for d < 2^20 the factor 1 + 2^-20 covers the
    # second-order terms left out above, such as C_j <= (1 + d v) M^2, and
    # the f64 roundings of those bounds, of tol and of the gap. Every f32
    # value stays below 2^127 when (N + M)^2 < 2^125; past that, or at
    # k <= 2 where a screen costs more than it saves, the rule ranks every
    # row.
    g = (d + 1) * 2.0**-24 / (1 - (d + 1) * 2.0**-24)
    with np.errstate(over="ignore"):
        xsq = np.einsum("ij,ij->i", x, x)
    xn = np.sqrt((xsq.astype(np.float64) + 4 * d * 2.0**-126) / (1 - g))
    cn = np.sqrt(csq.max() / (1 - g))
    if not (xn.max() + cn) ** 2 < 2.0**125:
        return None
    tol = (g + 2.0**-24) * cn * (2 * xn + cn)
    tol += (d + 3) * 2.0**-53 * (xn + cn) ** 2
    tol *= 2 * (1 + 2.0**-20)
    tol += (8 * d + 16) * 2.0**-126
    w = np.empty((d + 1, k), dtype=np.float32)
    w[:d] = centroids.T
    w[:d] *= -2
    w[d] = csq
    rows = max(1, 2 * _BLOCK_ELEMS // k)
    aug = np.empty((min(rows, n), d + 1), dtype=np.float32)
    aug[:, d] = 1
    labels = np.empty(n, dtype=np.int64)
    undecided = np.empty(n, dtype=bool)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        b = aug[: stop - start]
        b[:, :d] = x[start:stop]
        s = b @ w
        at = np.arange(0, s.size, k)
        first = s.argmin(axis=1)
        flat = s.reshape(-1)
        best = flat[at + first]
        flat[at + first] = np.inf  # so the second argmin finds the runner-up
        gap = flat[at + s.argmin(axis=1)].astype(np.float64) - best
        labels[start:stop] = first
        undecided[start:stop] = ~(gap > tol[start:stop])
    return labels, undecided


def _row_dots(a: np.ndarray) -> np.ndarray:
    """|row|^2 of every row of a contiguous f64 array, by one 2-d einsum."""
    flat = a.reshape(-1, a.shape[-1])
    return np.einsum("ij,ij->i", flat, flat).reshape(a.shape[:-1])


def _stack_ids(labels: np.ndarray, k: int) -> np.ndarray:
    """Labels as cluster ids unique across a stack, flattened: cluster j of
    problem f is f * k + j. A single problem's labels keep their values."""
    rows = labels.reshape(-1, labels.shape[-1])
    return (rows + k * np.arange(rows.shape[0])[:, None]).ravel()


def _repair_empty(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Give each empty cluster the farthest point of the largest cluster.

    Processes empty ids ascending; counts are updated after each donation so
    later repairs see the shrunken donor. In a stack, only the problems with
    an empty cluster are visited, each on its own. Returns updated centroids
    (labels are edited in place).
    """
    k = centroids.shape[-2]
    counts = np.bincount(_stack_ids(labels, k), minlength=labels.size // labels.shape[-1] * k)
    counts = counts.reshape(centroids.shape[:-1])
    if counts.all():
        return centroids
    centroids = centroids.copy()
    # A single problem is the one index () of its 0-d "any empty" flag.
    for p in map(tuple, np.argwhere((counts == 0).any(axis=-1))):
        xp, lp, cp, cnt = x[p], labels[p], centroids[p], counts[p]
        for j in np.flatnonzero(cnt == 0):
            donor = int(np.argmax(cnt))
            members = np.flatnonzero(lp == donor)
            d = squared_l2_batch(xp[members], cp[donor])
            far = members[int(np.argmax(d))]
            lp[far] = j
            cp[j] = xp[far]
            cnt[donor] -= 1
            cnt[j] = 1
    return centroids


def _mean_update(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster f64 means rounded to f32; every cluster must have a member.

    Takes one (n, d) problem or an (F, n, d) stack, whose F * k clusters
    get one bin id each. One `bincount` per block of columns adds each
    (cluster, column) bin's weights in ascending row order, as the module
    docstring states, for every d. Blocks split columns, never rows:
    per-block partial sums would reorder the f64 adds. The block is wide
    enough that few-row calls take all columns at once.
    """
    d = x.shape[-1]
    x = x.reshape(-1, d)
    ids = _stack_ids(labels, k)
    kk = labels.size // labels.shape[-1] * k
    n = x.shape[0]
    counts = np.bincount(ids, minlength=kk)[:, None]
    out = np.empty((kk, d), dtype=np.float32)
    width = min(d, max(32, _BLOCK_ELEMS // n))
    for c0 in range(0, d, width):
        w = min(width, d - c0)
        if c0 == 0 or w < width:
            # one bin index serves every full-width block
            bins = (ids[:, None] * w + np.arange(w)).ravel()
        sums = np.bincount(
            bins,
            weights=x[:, c0 : c0 + w].astype(np.float64).ravel(),
            minlength=kk * w,
        )
        out[:, c0 : c0 + w] = sums.reshape(kk, w) / counts
    return out.reshape(labels.shape[:-1] + (k, d))


def _lloyd(x: np.ndarray, k: int, max_iters: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's method on one (n, d) problem, or in lockstep on a stack of F
    problems of one size, (F, n, d).

    Every problem of a stack gets the bits it would get alone: the init
    draw depends only on (seed, n, k), so one draw serves the stack, and
    each problem leaves the loop at its own convergence iteration. Returns
    the final centroids, (k, d) or (F, k, d), and the labels they were
    trained on, (n,) or (F, n).
    """
    n = x.shape[-2]
    k = check_int("k", k, 1, n + 1)
    max_iters = check_int("max_iters", max_iters)
    rng = np.random.default_rng(check_int("seed", seed))
    centroids = x[..., rng.choice(n, size=k, replace=False), :]
    labels = _assign_labels(x, centroids)
    centroids = _repair_empty(x, labels, centroids)
    live = np.arange(x.shape[0]) if x.ndim == 3 else None  # stack positions still iterating
    finished = []  # (positions, centroids, labels) of stacked problems that converged
    for _ in range(max_iters):
        centroids = _mean_update(x, labels, k)
        new_labels = _assign_labels(x, centroids)
        centroids = _repair_empty(x, new_labels, centroids)
        moved = (new_labels != labels).any(axis=-1)
        labels = new_labels
        if not moved.any():
            break
        if not moved.all():
            # Only a stack gets here; its converged problems stop now.
            done = ~moved
            finished.append((live[done], centroids[done], labels[done]))
            live, x, centroids, labels = live[moved], x[moved], centroids[moved], labels[moved]
    if finished:
        finished.append((live, centroids, labels))
        order = np.argsort(np.concatenate([f[0] for f in finished]))
        centroids = np.concatenate([f[1] for f in finished])[order]
        labels = np.concatenate([f[2] for f in finished])[order]
    return centroids, labels


def kmeans_train(data, k: int, max_iters: int = 25, seed: int = 0) -> Codebook:
    """Train k centroids with Lloyd's method.

    Init draws k distinct rows without replacement from a generator seeded
    with `seed`. Each iteration recomputes means (f64 accumulate, f32
    round), reassigns, repairs empty clusters, and stops early when no
    label changes. Inertia is non-increasing across iterations.
    """
    x = _nonempty_rows(data)
    centroids, labels = _lloyd(x, k, max_iters, seed)
    # Canonical-kernel cost: each row against its own centroid, one global sum.
    inertia = float(np.sum(_squared_l2_rows(x, centroids, labels)))
    return Codebook(k=k, dim=x.shape[1], centroids=centroids, inertia=inertia)


def kmeans_stack(x: np.ndarray, k: int, max_iters: int = 25, seed: int = 0):
    """kmeans_train, then assign, on every problem of an (F, n, d) f32 stack
    of finite rows, all in one Lloyd loop.

    Returns (F, k, d) centroids and (F, n) labels, bit for bit those of
    kmeans_train(x[f], k, max_iters, seed) and of assign(x[f], its codebook).
    """
    centroids, _ = _lloyd(x, k, max_iters, seed)
    return centroids, _assign_labels(x, centroids)


def assign(data, codebook: Codebook) -> Assignment:
    """Map each row to its nearest centroid (ties to the lower index)."""
    x = _nonempty_rows(data)
    if x.shape[1] != codebook.dim:
        raise DataError(
            f"data dim {x.shape[1]} does not match codebook dim {codebook.dim}"
        )
    labels = _assign_labels(x, codebook.centroids)
    counts = np.bincount(labels, minlength=codebook.k)
    return Assignment(labels=labels, counts=counts.astype(np.int64))
