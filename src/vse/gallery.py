"""Gallery hygiene: per-identity outlier removal and paired feature fusion.

Cleaning splits each identity's folder into two clusters, calls the
centroid of the larger cluster the main center, and removes every vector
strictly farther from it than twice the mean distance of the main
cluster's own members. Folders with fewer than three vectors are kept
whole (two centers over two points would make everything a center).

`clean_gallery` cleans all folders of one size in lockstep: their rows
are stacked as one (F, n, d) block, their k=2 splits train in one Lloyd
loop (kmeans.kmeans_stack), and the main clusters, distances and
thresholds are found for the whole block at once. Each folder gets the
same bits as cleaning it alone with `clean_identity`, which is the
one-folder case of the same code. Blocks hold at most about _CHUNK_ROWS
rows, which bounds the memory of their f64 copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DataError,
    EmbeddingSet,
    _as_vector,
    _check_finite,
    _squared_l2_rows,
    _to_f32,
    normalize_rows,
)
from .kmeans import kmeans_stack

__all__ = [
    "IdentityFolder",
    "CleanReport",
    "FusionStrategy",
    "clean_identity",
    "clean_gallery",
    "fuse",
    "fuse_sets",
]

# Rows per lockstep block of folders: its f64 copies stay near 4 MB at d=128.
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class IdentityFolder:
    """All feature vectors claimed by one identity."""

    identity: str
    features: np.ndarray

    def __post_init__(self) -> None:
        arr = _to_f32(np.ascontiguousarray, self.features)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise DataError(
                f"folder {self.identity!r} needs a nonempty 2-d feature block, "
                f"got shape {arr.shape}"
            )
        _check_finite(arr, self.features, f"folder {self.identity!r} ")
        arr.setflags(write=False)
        object.__setattr__(self, "features", arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class CleanReport:
    """Outcome of cleaning one folder; indices are folder-local."""

    identity: str
    kept: np.ndarray
    removed: np.ndarray
    main_center: np.ndarray
    avg_dist: float
    threshold: float

    def __post_init__(self) -> None:
        kept = np.ascontiguousarray(self.kept, dtype=np.int64)
        removed = np.ascontiguousarray(self.removed, dtype=np.int64)
        center = np.ascontiguousarray(self.main_center, dtype=np.float32)
        # O(n): the n indices must be exactly the set 0..n-1.
        idx = kept.tolist() + removed.tolist() if kept.ndim == removed.ndim == 1 else None
        if idx is None or set(idx) != set(range(len(idx))):
            raise DataError("kept and removed must partition the folder's indices")
        for a in (kept, removed, center):
            a.setflags(write=False)
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "removed", removed)
        object.__setattr__(self, "main_center", center)


def _main_clusters(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Index of each folder's main cluster: the larger one; on a tie, the one
    with smaller within-cluster inertia, then cluster 0."""
    n = labels.shape[1]
    ones = labels.sum(axis=1)
    main = (2 * ones > n).astype(np.int64)
    tied = np.flatnonzero(2 * ones == n)
    if tied.size:
        # Rows of cluster 0, then of cluster 1, each ascending, as
        # x[labels == j] takes them; each half's distances to its own
        # centroid sum to its inertia.
        order = np.argsort(labels[tied], axis=1, kind="stable")
        rows = np.take_along_axis(x[tied], order[:, :, None], axis=1)
        halves = rows.reshape(tied.size, 2, n // 2, -1)
        inertia = _squared_l2_rows(halves, centroids[:, :, None], tied).sum(axis=2)
        main[tied] = inertia[:, 0] > inertia[:, 1]
    return main


def _clean_stack(identities: list[str], x: np.ndarray, seed: int):
    """Clean F folders of one size n in lockstep; x is their (F, n, d) rows.

    Returns one CleanReport per folder and the (F, n) mask of removed rows.
    """
    f, n, _ = x.shape
    if n < 3:
        centers = (x.astype(np.float64).sum(axis=1) / n).astype(np.float32)
        members = np.ones((f, n), dtype=bool)
    else:
        centroids, labels = kmeans_stack(x, 2, seed=seed)
        main = _main_clusters(x, centroids, labels)
        centers = centroids[np.arange(f), main]
        members = labels == main[:, None]
    dist = np.sqrt(_squared_l2_rows(x, centers[:, None], np.arange(f)))
    # Each folder's mean member distance, as np.mean of its members in row
    # order: one sum per group of folders with the same member count.
    count = members.sum(axis=1)
    first = np.take_along_axis(dist, np.argsort(~members, axis=1, kind="stable"), axis=1)
    avg = np.empty(f)
    for c in np.unique(count):
        same = count == c
        avg[same] = first[same, :c].sum(axis=1) / c
    threshold = 2.0 * avg
    removed = dist > threshold[:, None] if n >= 3 else np.zeros((f, n), dtype=bool)
    cols = np.broadcast_to(np.arange(n), (f, n))
    n_removed = removed.sum(axis=1)
    kept_of = np.split(cols[~removed], np.cumsum(n - n_removed)[:-1])
    removed_of = np.split(cols[removed], np.cumsum(n_removed)[:-1])
    reports = [
        CleanReport(
            identity=name,
            kept=kept,
            removed=gone,
            main_center=center,
            avg_dist=a,
            threshold=t,
        )
        for name, kept, gone, center, a, t in zip(
            identities, kept_of, removed_of, centers, avg.tolist(), threshold.tolist()
        )
    ]
    return reports, removed


def clean_identity(folder: IdentityFolder, seed: int = 0) -> CleanReport:
    """Two-means main-center thresholding over one folder.

    Main center: centroid of the larger cluster; ties go to the cluster
    with smaller within-cluster inertia, then the lower index. The removal
    test (strictly beyond 2x the main cluster's mean member distance) is
    applied to every vector in the folder, both clusters.
    """
    return _clean_stack([folder.identity], folder.features[None], seed)[0][0]


def clean_gallery(
    embeddings: EmbeddingSet, seed: int = 0
) -> tuple[EmbeddingSet, list[CleanReport]]:
    """Clean every identity folder; kept rows keep their original order.

    Reports come in first-appearance order of the identities. Folders of
    one size are cleaned in lockstep, in chunks of about _CHUNK_ROWS rows,
    with the bits clean_identity gives each of them alone.
    """
    rows_of: dict[str, list[int]] = {}
    for i, label in enumerate(embeddings.labels):
        rows_of.setdefault(label, []).append(i)
    names = list(rows_of)
    sizes = np.fromiter(map(len, rows_of.values()), dtype=np.int64, count=len(names))
    reports: list[CleanReport] = [None] * len(names)
    keep_mask = np.ones(embeddings.count, dtype=bool)
    for n in np.unique(sizes):
        folders = np.flatnonzero(sizes == n)
        step = max(1, _CHUNK_ROWS // int(n))
        for s0 in range(0, folders.size, step):
            chunk = folders[s0 : s0 + step]
            rows = np.array([rows_of[names[i]] for i in chunk], dtype=np.int64)
            got, removed = _clean_stack(
                [names[i] for i in chunk], embeddings.vectors[rows], seed
            )
            for i, report in zip(chunk, got):
                reports[i] = report
            keep_mask[rows[removed]] = False
    kept_rows = np.flatnonzero(keep_mask)
    if kept_rows.size == 0:
        raise DataError("cleaning removed every vector")
    cleaned = EmbeddingSet(
        vectors=embeddings.vectors[kept_rows],
        labels=[embeddings.labels[i] for i in kept_rows.tolist()],
        normalized=embeddings.normalized,
    )
    return cleaned, reports


class FusionStrategy(str, Enum):
    SINGLE = "single"
    CONCAT = "concat"
    SORT = "sort"
    PROD = "prod"
    SUM = "sum"
    MAX = "max"


def _fuse_f64(a64: np.ndarray, b64: np.ndarray, strategy: FusionStrategy) -> np.ndarray:
    if strategy is FusionStrategy.SINGLE:
        return a64
    if strategy is FusionStrategy.CONCAT:
        return np.concatenate([a64, b64], axis=-1)
    if strategy is FusionStrategy.SORT:
        # Order-invariant concat: elementwise min block then max block.
        return np.concatenate(
            [np.minimum(a64, b64), np.maximum(a64, b64)], axis=-1
        )
    if strategy is FusionStrategy.PROD:
        return a64 * b64
    if strategy is FusionStrategy.SUM:
        return a64 + b64
    if strategy is FusionStrategy.MAX:
        return np.maximum(a64, b64)
    raise DataError(f"unknown fusion strategy {strategy!r}")


def fuse(a, b, strategy: FusionStrategy) -> np.ndarray:
    """Combine two feature vectors of one subject into one vector.

    Returns the raw fused vector; normalization is the pipeline's call.
    `b` is ignored by SINGLE (may be None).
    """
    strategy = FusionStrategy(strategy)
    av = _as_vector(a, "a")
    if strategy is FusionStrategy.SINGLE:
        return av.copy()
    if b is None:
        raise DataError(f"strategy {strategy.value} needs a second vector")
    bv = _as_vector(b, "b")
    if av.shape != bv.shape:
        raise DataError(f"fusion needs two vectors of one dim, got {av.shape} and {bv.shape}")
    return _as_vector(_fuse_f64(av.astype(np.float64), bv.astype(np.float64), strategy), "fused")


def fuse_sets(
    first: EmbeddingSet,
    second: EmbeddingSet | None,
    strategy: FusionStrategy,
    normalize: bool = True,
) -> EmbeddingSet:
    """Row-aligned fusion of two embedding sets (same labels row by row)."""
    strategy = FusionStrategy(strategy)
    if strategy is FusionStrategy.SINGLE:
        if normalize:
            return EmbeddingSet(
                vectors=normalize_rows(first.vectors),
                labels=first.labels,
                normalized=True,
            )
        return first
    if second is None:
        raise DataError(f"strategy {strategy.value} needs two input sets")
    if first.count != second.count or first.dim != second.dim:
        raise DataError(
            f"fusion inputs must align: {first.count}x{first.dim} vs "
            f"{second.count}x{second.dim}"
        )
    for i, (la, lb) in enumerate(zip(first.labels, second.labels)):
        if la != lb:
            raise DataError(f"row {i} labels differ: {la!r} vs {lb!r}")
    fused64 = _fuse_f64(
        first.vectors.astype(np.float64), second.vectors.astype(np.float64), strategy
    )
    fused = _check_finite(_to_f32(np.asarray, fused64), fused64, "fused ")
    if normalize:
        fused = normalize_rows(fused)
    return EmbeddingSet(vectors=fused, labels=first.labels, normalized=normalize)
