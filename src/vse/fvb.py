"""FVB embedding files: a flat little-endian binary block of f32 vectors.

Layout: magic "FVB1", u32 version (1), u32 dim, u64 count, u8 normalized
flag, then count*dim f32 values row-major. Labels live in a UTF-8 sidecar
(default: same path plus ".labels"), one label per line, line i naming row
i. The sidecar is a text file, so "\\r\\n" and "\\r" end a line as "\\n" does.

The file and the sidecar are parsed by the reader VIDX files share
(`_io.Reader`, `_io.read_labels`). Format errors report the byte offset of
the first offending byte, in the labels file when the message names it. A
line count other than the header's is reported where line `count` starts,
or at the end of the sidecar, as in a VIDX labels block.
"""

from __future__ import annotations

import struct

import numpy as np

from ._io import FormatError, Reader, Writer, atomic_write_bytes, encode_labels, read_label_file
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
    """Write an FVB file and its labels sidecar atomically. The vectors go
    to the file as a view of the set's own memory, not a copy."""
    labels = encode_labels(embeddings.labels)
    w = Writer()
    w.raw(_HEADER.pack(
        _MAGIC, _VERSION, embeddings.dim, embeddings.count, int(embeddings.normalized)
    ))
    w.array(embeddings.vectors, "<f4")
    atomic_write_bytes(path, *w.parts)
    atomic_write_bytes(labels_path or default_labels_path(path), labels)


def read_embeddings(path: str, labels_path: str | None = None) -> EmbeddingSet:
    """Read an FVB file plus its labels sidecar back into an EmbeddingSet."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = Reader(blob, len(blob), FvbFormatError)
    _, dim, count, normalized = r.header(_MAGIC, _VERSION)
    vectors_at = r.pos
    # A view: EmbeddingSet makes the one copy.
    vectors = r.view(count * dim, "<f4", "vectors")
    r.expect_end()
    finite = np.isfinite(vectors)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FvbFormatError(
            f"non-finite value at row {bad // dim}, column {bad % dim}",
            offset=vectors_at + 4 * bad,
        )
    labels, label_at = read_label_file(
        labels_path or default_labels_path(path), count, FvbFormatError
    )
    return r.build(
        vectors_at, EmbeddingSet, label_at, 4 * dim,
        vectors=vectors.reshape(count, dim), labels=labels, normalized=normalized,
    )
