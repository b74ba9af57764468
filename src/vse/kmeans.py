"""Seeded Lloyd k-means: the single clustering primitive.

The coarse quantizer, the PQ sub-codebooks, and gallery cleaning all train
through this trainer, so its determinism rules are strict:

* init picks k distinct rows with one seeded generator draw,
* assignment ties go to the lower centroid index,
* empty clusters are repaired from the largest cluster's farthest point,
* centroid means accumulate in f64 over members in ascending row order,
  then round to f32 (the storage dtype),
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

_BLOCK_ROWS = 16384


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


def _assign_labels(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels, ties to the lower index.

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
    out = np.empty((k, x.shape[1]), dtype=np.float32)
    for j in range(k):
        members = x[labels == j]
        out[j] = (members.astype(np.float64).sum(axis=0) / members.shape[0]).astype(
            np.float32
        )
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
