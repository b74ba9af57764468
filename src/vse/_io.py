"""Atomic file writes, the label line format shared by FVB, VIDX and the CLI,
and the byte offsets file readers report for malformed contents."""

from __future__ import annotations

import os
import re
import tempfile

import numpy as np

from .core import DataError, EmbeddingSet

__all__ = [
    "FormatError",
    "atomic_write_bytes",
    "encode_labels",
    "decode_labels",
    "line_start",
    "embedding_set_at",
]


class FormatError(DataError):
    """Malformed file contents; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def atomic_write_bytes(path: str, *chunks: bytes) -> None:
    """Write the chunks one after another via a temp file in the target
    directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def encode_labels(labels: list[str]) -> bytes:
    """UTF-8 text with each label ended by "\\n"; line breaks inside are refused."""
    for i, label in enumerate(labels):
        if "\n" in label or "\r" in label:
            raise DataError(f"label {i} contains a line break and cannot be stored")
    text = "".join(label + "\n" for label in labels)
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        # Labels hold no "\n", so the breaks before the bad character count
        # the labels before it.
        i = text.count("\n", 0, exc.start)
        raise DataError(
            f"label {i} holds {text[exc.start]!r}, which has no UTF-8 encoding", label=i
        ) from None


def decode_labels(text: str) -> list[str]:
    """Inverse of encode_labels: split on "\\n" only, drop the empty last line.

    Splitting on every Unicode line boundary would also break on U+2028,
    U+0085, \\x1c and others, which encode_labels lets through.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def line_start(blob: bytes, i: int, breaks: bytes = rb"\n") -> int:
    """Byte offset where line i of `blob` starts; its length past the last line."""
    starts = [0] + [m.end() for m in re.finditer(breaks, blob)]
    return starts[i] if i < len(starts) else len(blob)


def embedding_set_at(
    error, vectors: np.ndarray, labels: list[str], normalized: bool, vectors_at: int, label_at
) -> EmbeddingSet:
    """An EmbeddingSet of file contents, or `error` at the offending bytes.

    `error(message, offset)` is the reader's format error. The offset is
    that of the bad row, given the file offset `vectors_at` of row 0, or of
    the bad label, `label_at(i)`.
    """
    try:
        return EmbeddingSet(vectors=vectors, labels=labels, normalized=normalized)
    except DataError as exc:
        if exc.label is not None:
            offset = label_at(exc.label)
        else:
            offset = vectors_at + 4 * vectors.shape[1] * (exc.row or 0)
        raise error(str(exc), offset=offset) from None
