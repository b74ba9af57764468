"""Core vector types and the canonical distance kernel.

Every distance this package reports comes from one kernel: cast the f32
operands to f64, subtract, square, sum over the last axis. Keeping a single
kernel makes exact-equality contracts between strategies meaningful (a flat
search and a full-probe IVF search produce bitwise-identical distances).
Exact searches may rank rows by a cheaper f32 estimate first, but only with
a proven error bound, and they score what they return with this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "EmbeddingSet",
    "SearchResult",
    "squared_l2",
    "squared_l2_batch",
    "l2_normalize",
    "normalize_rows",
    "top_k_smallest",
]

# Rows per block when streaming f64 casts over a large matrix. Keeps the
# working set around 16 MiB at dim=128 instead of materializing N x D in f64.
_BLOCK_ROWS = 16384


class DataError(ValueError):
    """Malformed vector data: shape, dtype, finiteness, or label problems.

    `row` or `label` names the vector row or the label at fault when the
    problem lies in one, so a file reader can report where it is stored.
    """

    def __init__(self, message: str, *, row: int | None = None, label: int | None = None):
        super().__init__(message)
        self.row = row
        self.label = label


def _as_matrix_f32(vectors: np.ndarray, *, copy: bool) -> np.ndarray:
    # np.asarray, not np.array(copy=None), which numpy 1.x refuses.
    arr = (np.array if copy else np.asarray)(vectors, dtype=np.float32, order="C")
    if arr.ndim != 2:
        raise DataError(f"expected a 2-d array of row vectors, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DataError(f"empty embedding matrix with shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.argmin(np.isfinite(arr).all(axis=1)))
        raise DataError(f"embedding matrix row {bad} contains NaN or infinity", row=bad)
    return arr


def check_labels(labels: list[str]) -> None:
    """Every label is a non-empty string; else DataError(label=i) for the first that is not."""
    for i, lab in enumerate(labels):
        if not isinstance(lab, str) or lab == "":
            raise DataError(f"label {i} is empty or not a string", label=i)


@dataclass(frozen=True)
class EmbeddingSet:
    """An immutable (count, dim) block of f32 vectors with one label per row.

    The vector buffer is copied and marked read-only at construction, so a
    set can be shared across threads and indexes without defensive copies.
    """

    vectors: np.ndarray
    labels: list[str]
    normalized: bool = False

    def __post_init__(self) -> None:
        arr = _as_matrix_f32(self.vectors, copy=True)
        if len(self.labels) != arr.shape[0]:
            raise DataError(
                f"label count {len(self.labels)} != vector count {arr.shape[0]}"
            )
        labels = list(self.labels)
        check_labels(labels)
        if self.normalized:
            sq = _row_squared_norms(arr)
            off = np.abs(sq - 1.0)
            worst = int(np.argmax(off))
            if off[worst] > 1e-5:
                raise DataError(
                    f"normalized flag set but row {worst} has squared norm {sq[worst]:.8f}",
                    row=worst,
                )
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SearchResult:
    """Nearest neighbors of one query, ascending by (distance, id)."""

    ids: np.ndarray
    dists: np.ndarray
    approximate: bool = False

    def __post_init__(self) -> None:
        ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        dists = np.ascontiguousarray(self.dists, dtype=np.float64)
        if ids.shape != dists.shape or ids.ndim != 1:
            raise DataError("ids and dists must be 1-d arrays of equal length")
        ids.setflags(write=False)
        dists.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "dists", dists)

    def entries(self) -> list[tuple[int, float]]:
        return [(int(i), float(d)) for i, d in zip(self.ids, self.dists)]


def _row_squared_norms(arr: np.ndarray) -> np.ndarray:
    """Squared norm of every row in f64, cast one block of rows at a time."""
    out = np.empty(arr.shape[0], dtype=np.float64)
    for start in range(0, arr.shape[0], _BLOCK_ROWS):
        block = arr[start : start + _BLOCK_ROWS].astype(np.float64)
        np.square(block, out=block)
        out[start : start + _BLOCK_ROWS] = block.sum(axis=1)
    return out


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float32)
    if arr.ndim != 1:
        raise DataError(f"{name} must be a 1-d vector, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains NaN or infinity")
    return arr


def squared_l2(a, b) -> float:
    """Squared Euclidean distance between two vectors.

    Operands are taken as f32 (the storage dtype) and the difference is
    squared and summed in f64. Zero exactly when the f32 views are equal.
    """
    av = _as_vector(a, "a")
    bv = _as_vector(b, "b")
    if av.shape[0] != bv.shape[0]:
        raise DataError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    d = av.astype(np.float64) - bv.astype(np.float64)
    return float(np.sum(d * d))


def squared_l2_batch(matrix: np.ndarray, query, out: np.ndarray | None = None) -> np.ndarray:
    """Canonical-kernel distances from one query to every row of a matrix.

    Bitwise-identical to calling squared_l2 per row; blocks over rows so the
    f64 intermediates stay small.
    """
    q = _as_vector(query, "query")
    if matrix.ndim != 2 or matrix.shape[1] != q.shape[0]:
        raise DataError(
            f"matrix/query dimension mismatch: {matrix.shape} vs {q.shape[0]}"
        )
    n = matrix.shape[0]
    q64 = q.astype(np.float64)
    if out is None:
        out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d = matrix[start:stop].astype(np.float64) - q64
        np.square(d, out=d)
        out[start:stop] = d.sum(axis=1)
    return out


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit L2 norm. Error on (near-)zero vectors."""
    arr = _as_vector(v, "v")
    norm = float(np.sqrt(np.sum(arr.astype(np.float64) ** 2)))
    if norm <= 1e-12:
        raise DataError(f"cannot normalize a vector of norm {norm:g}")
    return (arr.astype(np.float64) / norm).astype(np.float32)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise l2_normalize over a matrix. Error names the offending row."""
    arr = _as_matrix_f32(matrix, copy=False)
    norms = np.sqrt(_row_squared_norms(arr))
    if np.any(norms <= 1e-12):
        bad = int(np.argmin(norms))
        raise DataError(f"cannot normalize row {bad} of norm {norms[bad]:g}")
    return (arr.astype(np.float64) / norms[:, None]).astype(np.float32)


def top_k_smallest(dists: np.ndarray, ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Select the k entries smallest by (distance, id), ascending.

    Ids break distance ties, so results are reproducible across runs and
    across candidate orderings. Uses a partition plus an exact boundary-tie
    fixup rather than a full sort.
    """
    n = dists.shape[0]
    if k >= n:
        order = np.lexsort((ids, dists))
        return ids[order], dists[order]
    part = np.argpartition(dists, k - 1)[:k]
    kth = dists[part].max()
    below = np.flatnonzero(dists < kth)
    need = k - below.size
    at = np.flatnonzero(dists == kth)
    if need < at.size:
        # Fill the boundary with the lowest ids among equal distances.
        at = at[np.argpartition(ids[at], need - 1)[:need]]
    pos = np.concatenate([below, at])
    order = np.lexsort((ids[pos], dists[pos]))
    return ids[pos][order], dists[pos][order]
