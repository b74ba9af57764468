"""Seeded Lloyd k-means: the single clustering primitive.

The coarse quantizer, the PQ sub-codebooks, and gallery cleaning all train
through this trainer, so its determinism rules are strict:

* init picks k distinct rows with one seeded generator draw,
* assignment ranks centroids by the f64 expansion ((-2x.c) + |x|^2) + |c|^2,
  in row blocks sized by k, with ties to the lower centroid index; the
  expansion can pick the farther of two centroids whose squared distances
  differ by less than about |x|^2 * 2^-52,
* empty clusters are repaired from the largest cluster's farthest point,
* centroid means accumulate in f64 over members in ascending row order,
  for every dimension, then round to f32 (the storage dtype),
* inertia is computed once, from the final centroids and labels, with the
  canonical distance kernel, never carried over from the assignment fast
  path.

Two runs with the same (data, k, max_iters, seed) are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, EmbeddingSet, squared_l2_batch

__all__ = ["Codebook", "Assignment", "kmeans_train", "assign"]

# Rows per f64 block of the inertia, and per run of assignment blocks.
_BLOCK_ROWS = 16384
# f64 distances per assignment block (512 KiB).
_BLOCK_ELEMS = 65536


@dataclass(frozen=True)
class Codebook:
    """k centroids of one dimension plus the final training inertia."""

    k: int
    dim: int
    centroids: np.ndarray
    inertia: float

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.centroids, dtype=np.float32)
        if self.k < 1 or c.shape != (self.k, self.dim):
            raise DataError(
                f"centroid block {c.shape} does not match k={self.k}, dim={self.dim}"
            )
        if not np.isfinite(c).all():
            raise DataError("codebook contains NaN or infinity")
        if not (np.isfinite(self.inertia) and self.inertia >= 0.0):
            raise DataError(f"inertia must be finite and >= 0, got {self.inertia}")
        c.setflags(write=False)
        object.__setattr__(self, "centroids", c)


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


def _data_matrix(data) -> np.ndarray:
    if isinstance(data, EmbeddingSet):
        return data.vectors
    arr = np.ascontiguousarray(data, dtype=np.float32)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DataError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("training data contains NaN or infinity")
    return arr


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

    Ranking uses the ((-2x.c) + |x|^2) + |c|^2 expansion in f64, one GEMM
    per block of _row_blocks. This is a fast path for the argmin only; any
    distance that is reported or summed into inertia goes back through the
    canonical kernel.
    """
    c64 = centroids.astype(np.float64)
    csq = np.einsum("ij,ij->i", c64, c64)
    # Scaling f32-range values by a power of two is exact, so the GEMM
    # gives -2x.c bit for bit, as if its result were scaled.
    c64 *= -2.0
    labels = np.empty(x.shape[0], dtype=np.int64)
    for start, stop in _row_blocks(x.shape[0], c64.shape[0]):
        b = x[start:stop].astype(np.float64)
        g = b @ c64.T
        g += np.einsum("ij,ij->i", b, b)[:, None]
        g += csq[None, :]
        labels[start:stop] = np.argmin(g, axis=1)
    return labels


def _repair_empty(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Give each empty cluster the farthest point of the largest cluster.

    Processes empty ids ascending; counts are updated after each donation so
    later repairs see the shrunken donor. Returns updated centroids (labels
    are edited in place).
    """
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return centroids
    centroids = centroids.copy()
    for j in empties:
        donor = int(np.argmax(counts))
        members = np.flatnonzero(labels == donor)
        d = squared_l2_batch(x[members], centroids[donor])
        p = members[int(np.argmax(d))]
        labels[p] = j
        centroids[j] = x[p]
        counts[donor] -= 1
        counts[j] = 1
    return centroids


def _inertia(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """Canonical-kernel cost: per-point squared distance, one global sum."""
    c64 = centroids.astype(np.float64)
    n = x.shape[0]
    d = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        diff = x[start:stop].astype(np.float64) - c64[labels[start:stop]]
        np.square(diff, out=diff)
        d[start:stop] = diff.sum(axis=1)
    return float(np.sum(d))


def _mean_update(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster f64 means rounded to f32; every cluster must have a member.

    One `bincount` per block of columns adds each (label, column) bin's
    weights in ascending row order, as the module docstring states, for
    every d. Blocks split columns, never rows: per-block partial sums would
    reorder the f64 adds. The block is wide enough that few-row calls take
    all columns at once.
    """
    n, d = x.shape
    counts = np.bincount(labels, minlength=k)[:, None]
    out = np.empty((k, d), dtype=np.float32)
    width = min(d, max(32, _BLOCK_ELEMS // n))
    for c0 in range(0, d, width):
        w = min(width, d - c0)
        if c0 == 0 or w < width:
            # one bin index serves every full-width block
            bins = (labels[:, None] * w + np.arange(w)).ravel()
        sums = np.bincount(
            bins,
            weights=x[:, c0 : c0 + w].astype(np.float64).ravel(),
            minlength=k * w,
        )
        out[:, c0 : c0 + w] = sums.reshape(k, w) / counts
    return out


def kmeans_train(data, k: int, max_iters: int = 25, seed: int = 0) -> Codebook:
    """Train k centroids with Lloyd's method.

    Init draws k distinct rows without replacement from a generator seeded
    with `seed`. Each iteration recomputes means (f64 accumulate, f32
    round), reassigns, repairs empty clusters, and stops early when no
    label changes. Inertia is non-increasing across iterations.
    """
    x = _data_matrix(data)
    n = x.shape[0]
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if n < k:
        raise DataError(f"cannot place {k} centroids over {n} points")
    if max_iters < 0:
        raise DataError(f"max_iters must be >= 0, got {max_iters}")
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    labels = _assign_labels(x, centroids)
    centroids = _repair_empty(x, labels, centroids)
    for _ in range(max_iters):
        centroids = _mean_update(x, labels, k)
        new_labels = _assign_labels(x, centroids)
        centroids = _repair_empty(x, new_labels, centroids)
        converged = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        if converged:
            break
    inertia = _inertia(x, centroids, labels)
    return Codebook(k=k, dim=x.shape[1], centroids=centroids, inertia=inertia)


def assign(data, codebook: Codebook) -> Assignment:
    """Map each row to its nearest centroid (ties to the lower index)."""
    x = _data_matrix(data)
    if x.shape[1] != codebook.dim:
        raise DataError(
            f"data dim {x.shape[1]} does not match codebook dim {codebook.dim}"
        )
    labels = _assign_labels(x, codebook.centroids)
    counts = np.bincount(labels, minlength=codebook.k)
    return Assignment(labels=labels, counts=counts.astype(np.int64))
