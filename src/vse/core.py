"""Core vector types, the row check and the canonical distance kernel.

Every distance and squared norm this package reports comes from one
function, `_squared_l2_rows`: cast the f32 operands to f64, subtract,
square, sum over the last axis. Keeping a single kernel makes
exact-equality contracts between strategies meaningful (a flat
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

# Rows per block of the kernel's f64 copy, which keeps it around 16 MiB at
# dim=128 instead of N x D in f64; also rows per run of k-means assignment.
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


def _to_f32(convert, data, **kwargs) -> np.ndarray:
    """convert(data, dtype=np.float32, **kwargs). A value past the f32 range
    becomes infinity without numpy's overflow warning, for the row check to
    report; f32 input takes no extra numpy call."""
    if getattr(data, "dtype", None) == np.float32:
        return convert(data, dtype=np.float32, **kwargs)
    with np.errstate(over="ignore"):
        return convert(data, dtype=np.float32, **kwargs)


def _not_finite(src) -> str:
    """Why values that are not finite once cast to f32 are refused, given
    the values as passed: finite ones overflowed the cast."""
    src = np.asarray(src)
    if src.dtype.kind in "fiu" and np.isfinite(src).all():
        return "holds a value outside the f32 range"
    return "contains NaN or infinity"


def _check_finite(arr: np.ndarray, data, where: str = "") -> np.ndarray:
    """arr, the 2-d f32 form of `data`; else DataError(row=i) for its first
    row that is not finite, with `where` before the row in the message."""
    finite = np.isfinite(arr)
    if finite.all():
        return arr
    bad = int(np.argmin(finite.all(axis=1)))
    reason = _not_finite(np.asarray(data).reshape(arr.shape)[bad])
    raise DataError(f"{where}row {bad} {reason}", row=bad)


def _as_matrix_f32(vectors: np.ndarray, *, copy: bool) -> np.ndarray:
    # np.asarray, not np.array(copy=None), which numpy 1.x refuses.
    arr = _to_f32(np.array if copy else np.asarray, vectors, order="C")
    if arr.ndim != 2:
        raise DataError(f"expected a 2-d array of row vectors, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DataError(f"empty embedding matrix with shape {arr.shape}")
    return _check_finite(arr, vectors)


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


def as_rows(data) -> np.ndarray:
    """A batch of f32 rows: an EmbeddingSet's vectors, or an array taken as
    f32 with a 1-d array read as one row. DataError unless it is 2-d and
    finite in f32, naming the first row that is not (`row=`). It may be
    empty: callers that need rows or a given width check that themselves.
    """
    if isinstance(data, EmbeddingSet):
        return data.vectors
    arr = _to_f32(np.ascontiguousarray, data)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DataError(f"expected a 2-d batch of rows, got ndim={arr.ndim}")
    return _check_finite(arr, data)


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


def _squared_l2_rows(x: np.ndarray, y=None, pairs=None) -> np.ndarray:
    """The canonical kernel, as a new array: the f64 sum over the last axis
    of (f64(x) - f64(y))^2, or of f64(x)^2 when y is None.

    y broadcasts against x; with `pairs`, slice i of x's first axis meets
    y[pairs[i]] instead. x's first axis goes in blocks of _BLOCK_ROWS, so
    the f64 copy stays small; each row is summed on its own, so its bits do
    not depend on the rows around it.
    """
    out = np.empty(x.shape[:-1], dtype=np.float64)
    for start in range(0, x.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        d = x[start:stop].astype(np.float64)
        if y is not None:
            d -= y if pairs is None else y[pairs[start:stop]]
        np.square(d, out=d)
        out[start:stop] = d.sum(axis=-1)
    return out


def _row_squared_norms(arr: np.ndarray) -> np.ndarray:
    """Read-only f64 squared norm of every row."""
    norms = _squared_l2_rows(arr)
    norms.setflags(write=False)
    return norms


def _bound_terms(arr: np.ndarray) -> np.ndarray:
    """Read-only (3, n) f64 terms of flat.exact_candidates' error bound, one
    column per row of arr (stored rows and queries alike): the row's
    squared norm s from the canonical kernel, sqrt(2 g s) with
    g = d 2^-24 / (1 - d 2^-24), and (3d + 16) 2^-53 s + 4 d 2^-126.
    """
    d = arr.shape[1]
    g = d * 2.0**-24 / (1.0 - d * 2.0**-24)
    terms = _squared_l2_rows(arr) * np.array([[1.0], [2.0 * g], [(3 * d + 16) * 2.0**-53]])
    np.sqrt(terms[1], out=terms[1])
    terms[2] += 4 * d * 2.0**-126
    terms.setflags(write=False)
    return terms


def _as_vector(v, name: str) -> np.ndarray:
    arr = _to_f32(np.asarray, v)
    if arr.ndim != 1:
        raise DataError(f"{name} must be a 1-d vector, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} {_not_finite(v)}")
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
    return float(_squared_l2_rows(av[None], bv)[0])


def squared_l2_batch(matrix: np.ndarray, query) -> np.ndarray:
    """Canonical-kernel distances from one query to every row of a matrix,
    as a new f64 array.

    Bitwise-identical to calling squared_l2 per row, so a row's distance
    does not depend on the rows around it.
    """
    q = _as_vector(query, "query")
    if matrix.ndim != 2 or matrix.shape[1] != q.shape[0]:
        raise DataError(
            f"matrix/query dimension mismatch: {matrix.shape} vs {q.shape[0]}"
        )
    return _squared_l2_rows(matrix, q)


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit L2 norm. Error on (near-)zero vectors."""
    arr = _as_vector(v, "v")
    norm = float(np.sqrt(_squared_l2_rows(arr[None])[0]))
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
