"""Gallery hygiene: per-identity outlier removal and paired feature fusion.

Cleaning splits each identity's folder into two clusters, calls the
centroid of the larger cluster the main center, and removes every vector
strictly farther from it than twice the mean distance of the main
cluster's own members. Folders with fewer than three vectors are kept
whole (two centers over two points would make everything a center).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DataError, EmbeddingSet, normalize_rows, squared_l2_batch
from .kmeans import assign, kmeans_train

__all__ = [
    "IdentityFolder",
    "CleanReport",
    "FusionStrategy",
    "clean_identity",
    "clean_gallery",
    "fuse",
    "fuse_sets",
]


@dataclass(frozen=True)
class IdentityFolder:
    """All feature vectors claimed by one identity."""

    identity: str
    features: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.features, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise DataError(
                f"folder {self.identity!r} needs a nonempty 2-d feature block, "
                f"got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise DataError(f"folder {self.identity!r} contains non-finite features")
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
        n = kept.shape[0] + removed.shape[0]
        together = np.sort(np.concatenate([kept, removed]))
        if not np.array_equal(together, np.arange(n, dtype=np.int64)):
            raise DataError("kept and removed must partition the folder's indices")
        for a in (kept, removed, center):
            a.setflags(write=False)
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "removed", removed)
        object.__setattr__(self, "main_center", center)


def _euclidean_to(center: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.sqrt(squared_l2_batch(rows, center))


def clean_identity(folder: IdentityFolder, seed: int = 0) -> CleanReport:
    """Two-means main-center thresholding over one folder.

    Main center: centroid of the larger cluster; ties go to the cluster
    with smaller within-cluster inertia, then the lower index. The removal
    test (strictly beyond 2x the main cluster's mean member distance) is
    applied to every vector in the folder, both clusters.
    """
    x = folder.features
    n = folder.n
    if n < 3:
        center = (x.astype(np.float64).sum(axis=0) / n).astype(np.float32)
        d = _euclidean_to(center, x)
        avg = float(np.mean(d))
        return CleanReport(
            identity=folder.identity,
            kept=np.arange(n, dtype=np.int64),
            removed=np.empty(0, dtype=np.int64),
            main_center=center,
            avg_dist=avg,
            threshold=2.0 * avg,
        )
    codebook = kmeans_train(x, 2, seed=seed)
    split = assign(x, codebook)
    labels, counts = split.labels, split.counts
    if counts[0] != counts[1]:
        main = int(np.argmax(counts))
    else:
        inertias = [
            float(np.sum(squared_l2_batch(x[labels == j], codebook.centroids[j])))
            for j in (0, 1)
        ]
        main = 0 if inertias[0] <= inertias[1] else 1
    center = codebook.centroids[main]
    # Each row's distance is computed on its own, so the members' are a subset.
    all_d = _euclidean_to(center, x)
    avg = float(np.mean(all_d[labels == main]))
    threshold = 2.0 * avg
    removed = np.flatnonzero(all_d > threshold).astype(np.int64)
    kept = np.flatnonzero(~(all_d > threshold)).astype(np.int64)
    return CleanReport(
        identity=folder.identity,
        kept=kept,
        removed=removed,
        main_center=center,
        avg_dist=avg,
        threshold=threshold,
    )


def group_folders(embeddings: EmbeddingSet) -> list[tuple[IdentityFolder, np.ndarray]]:
    """Split a labeled set into folders, first-appearance order.

    Returns each folder with the global row indices it came from.
    """
    order: dict[str, list[int]] = {}
    for i, label in enumerate(embeddings.labels):
        order.setdefault(label, []).append(i)
    out = []
    for label, rows in order.items():
        rows_arr = np.asarray(rows, dtype=np.int64)
        out.append(
            (IdentityFolder(identity=label, features=embeddings.vectors[rows_arr]), rows_arr)
        )
    return out


def clean_gallery(
    embeddings: EmbeddingSet, seed: int = 0
) -> tuple[EmbeddingSet, list[CleanReport]]:
    """Clean every identity folder; kept rows keep their original order."""
    keep_mask = np.zeros(embeddings.count, dtype=bool)
    reports: list[CleanReport] = []
    for folder, rows in group_folders(embeddings):
        report = clean_identity(folder, seed=seed)
        keep_mask[rows[report.kept]] = True
        reports.append(report)
    kept_rows = np.flatnonzero(keep_mask)
    if kept_rows.size == 0:
        raise DataError("cleaning removed every vector")
    cleaned = EmbeddingSet(
        vectors=embeddings.vectors[kept_rows],
        labels=[embeddings.labels[i] for i in kept_rows],
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
    av = np.asarray(a, dtype=np.float32)
    if strategy is FusionStrategy.SINGLE:
        return av.copy()
    if b is None:
        raise DataError(f"strategy {strategy.value} needs a second vector")
    bv = np.asarray(b, dtype=np.float32)
    if av.shape != bv.shape or av.ndim != 1:
        raise DataError(f"fusion needs two 1-d vectors of one dim, got {av.shape} and {bv.shape}")
    return _fuse_f64(av.astype(np.float64), bv.astype(np.float64), strategy).astype(
        np.float32
    )


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
    fused = _fuse_f64(
        first.vectors.astype(np.float64), second.vectors.astype(np.float64), strategy
    ).astype(np.float32)
    if normalize:
        fused = normalize_rows(fused)
    return EmbeddingSet(vectors=fused, labels=first.labels, normalized=normalize)
