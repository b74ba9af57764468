"""FVB embedding files: a flat little-endian binary block of f32 vectors.

Layout: magic "FVB1", u32 version (1), u32 dim, u64 count, u8 normalized
flag, then count*dim f32 values row-major. Labels live in a UTF-8 sidecar
(default: same path plus ".labels"), one label per line, line i naming row
i. Format errors report the byte offset of the first offending byte, in
the labels file when the message names it.
"""

from __future__ import annotations

import struct

import numpy as np

from ._io import (
    FormatError,
    atomic_write_bytes,
    decode_labels,
    embedding_set_at,
    encode_labels,
    line_start,
)
from .core import EmbeddingSet

__all__ = ["FvbFormatError", "read_embeddings", "write_embeddings", "default_labels_path"]

_MAGIC = b"FVB1"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQB")  # magic, version, dim, count, normalized


class FvbFormatError(FormatError):
    """Malformed FVB file; `offset` is the byte position of the problem."""


def default_labels_path(path: str) -> str:
    return path + ".labels"


def write_embeddings(embeddings: EmbeddingSet, path: str, labels_path: str | None = None) -> None:
    """Write an FVB file and its labels sidecar atomically."""
    labels = encode_labels(embeddings.labels)
    header = _HEADER.pack(
        _MAGIC, _VERSION, embeddings.dim, embeddings.count, int(embeddings.normalized)
    )
    payload = np.ascontiguousarray(embeddings.vectors, dtype="<f4").tobytes()
    atomic_write_bytes(path, header + payload)
    atomic_write_bytes(labels_path or default_labels_path(path), labels)


def read_embeddings(path: str, labels_path: str | None = None) -> EmbeddingSet:
    """Read an FVB file plus its labels sidecar back into an EmbeddingSet."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FvbFormatError("file too short for an FVB header", offset=len(blob))
    magic, version, dim, count, flag = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise FvbFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}", offset=0)
    if version != _VERSION:
        raise FvbFormatError(f"unsupported format version {version}", offset=4)
    if dim == 0:
        raise FvbFormatError("dim must be >= 1", offset=8)
    if count == 0:
        raise FvbFormatError("count must be >= 1", offset=12)
    if flag not in (0, 1):
        raise FvbFormatError(f"normalized flag must be 0 or 1, got {flag}", offset=20)
    expected = _HEADER.size + 4 * dim * count
    if len(blob) < expected:
        raise FvbFormatError(
            f"truncated payload: need {expected} bytes, file has {len(blob)}",
            offset=len(blob),
        )
    if len(blob) > expected:
        raise FvbFormatError(
            f"{len(blob) - expected} trailing bytes after the vector payload",
            offset=expected,
        )
    vectors = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=_HEADER.size)
    finite = np.isfinite(vectors)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FvbFormatError(
            f"non-finite value at row {bad // dim}, column {bad % dim}",
            offset=_HEADER.size + 4 * bad,
        )
    lpath = labels_path or default_labels_path(path)
    with open(lpath, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FvbFormatError(
            f"labels file {lpath} is not UTF-8: {exc.reason}", offset=exc.start
        ) from None
    # A sidecar is a text file: "\r\n" and "\r" end a line as "\n" does.
    labels = decode_labels(text.replace("\r\n", "\n").replace("\r", "\n"))

    def label_at(i: int) -> int:
        return line_start(raw, i, rb"\r\n|\r|\n")

    if len(labels) != count:
        raise FvbFormatError(
            f"labels file {lpath} has {len(labels)} lines, vector count is {count}",
            offset=label_at(count),
        )
    return embedding_set_at(
        FvbFormatError, vectors.reshape(count, dim), labels, bool(flag), _HEADER.size, label_at
    )
