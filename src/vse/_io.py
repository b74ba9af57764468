"""Atomic file writes and the label line format shared by FVB, VIDX and the CLI."""

from __future__ import annotations

import os
import tempfile

from .core import DataError

__all__ = ["atomic_write_bytes", "encode_labels", "decode_labels"]


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    return "".join(label + "\n" for label in labels).encode("utf-8")


def decode_labels(text: str) -> list[str]:
    """Inverse of encode_labels: split on "\\n" only, drop the empty last line.

    Splitting on every Unicode line boundary would also break on U+2028,
    U+0085, \\x1c and others, which encode_labels lets through.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
