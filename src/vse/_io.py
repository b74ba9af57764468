"""Atomic file writes, the label line format shared by FVB, VIDX and the CLI,
the writer both file formats are assembled with, and the one reader both are
parsed with, which reports every fault at the byte offset of the bytes at
fault."""

from __future__ import annotations

import os
import re
import struct
import tempfile

import numpy as np

from .core import DataError

__all__ = [
    "FormatError",
    "Reader",
    "Writer",
    "atomic_write_bytes",
    "encode_labels",
    "decode_labels",
    "read_labels",
    "read_label_file",
]


class FormatError(DataError):
    """Malformed file contents; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write the chunks (bytes-like) one after another via a temp file in
    the target directory, then rename over."""
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


def read_labels(blob, count: int, error, at: int = 0, what: str = "labels block",
                text_file: bool = False):
    """The `count` labels of `blob`, which starts at file offset `at`, and a
    map from a label number to the file offset of its line.

    A text file (an FVB sidecar or a `vse ingest --labels` file) also ends a
    line at "\\r\\n" or "\\r". Anywhere else a "\\r" is refused, as
    encode_labels refuses it. Faults are raised as `error` at their offset:
    a byte that is not UTF-8, a "\\r", or a line count other than `count`,
    reported where line `count` starts or at the end of the block.
    """
    try:
        text = str(blob, "utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8: {exc.reason}", offset=at + exc.start) from None
    breaks = rb"\r\n|\r|\n" if text_file else rb"\n"

    def label_at(i: int) -> int:
        # Called only on a fault, so the line starts are found only then.
        starts = [0] + [m.end() for m in re.finditer(breaks, blob)]
        return at + (starts[i] if i < len(starts) else len(blob))

    if text_file:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    elif "\r" in text:
        cr = text.index("\r")
        i = text.count("\n", 0, cr)
        raise error(
            f"label {i} contains a carriage return", offset=at + len(text[:cr].encode("utf-8"))
        )
    labels = decode_labels(text)
    if len(labels) != count:
        raise error(f"{what} has {len(labels)} lines, count is {count}", offset=label_at(count))
    return labels, label_at


def read_label_file(path: str, count: int, error):
    """read_labels of a text file: an FVB sidecar or a `vse ingest --labels` file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return read_labels(raw, count, error, what=f"labels file {path}", text_file=True)


class Writer:
    """A file's fields in order, as `parts` for atomic_write_bytes."""

    def __init__(self) -> None:
        self.parts: list[bytes | memoryview] = []

    def raw(self, data: bytes | memoryview) -> None:
        self.parts.append(data)

    def pack(self, fmt: str, *values) -> None:
        self.raw(struct.pack(fmt, *values))

    def array(self, arr: np.ndarray, dtype: str) -> None:
        # A byte view, not a copy, when arr already has the dtype and is
        # contiguous: writing the parts then copies nothing.
        flat = np.ascontiguousarray(arr, dtype=dtype).reshape(-1)
        self.raw(memoryview(flat.view(np.uint8)))


class Reader:
    """Reads the fields of data[:end] in order through a memoryview, so no
    field is copied on the way. Every fault is raised as `error(message,
    offset)` at the offset of the bytes at fault."""

    def __init__(self, data, end: int, error) -> None:
        self.data = memoryview(data)
        self.end = end
        self.error = error
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > self.end:
            raise self.error(f"truncated while reading {what}", offset=self.end)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        """The fields of struct format `fmt`; one field comes bare."""
        values = struct.unpack(fmt, self.take(struct.calcsize(fmt), what))
        return values[0] if len(values) == 1 else values

    def view(self, count: int, dtype: str, what: str) -> np.ndarray:
        """The next `count` items of `dtype`: a read-only view of the file."""
        return np.frombuffer(self.take(count * np.dtype(dtype).itemsize, what), dtype=dtype)

    def array(self, count: int, dtype: str, what: str) -> np.ndarray:
        """The next `count` items of `dtype`, copied once out of the file."""
        return self.view(count, dtype, what).copy()

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise self.error(
                f"{self.end - self.pos} unexpected bytes after the payload", offset=self.pos
            )

    def header(self, magic: bytes, version: int, kinds: tuple[str, ...] = ()):
        """The header both formats open with: magic, u32 version, a u8 kind
        (only when `kinds` lists them, by kind byte), u32 dim, u64 count and
        a u8 normalized flag. Returns (kind or None, dim, count, normalized)."""
        got = bytes(self.take(len(magic), "magic"))
        if got != magic:
            raise self.error(f"bad magic {got!r}, expected {magic!r}", offset=0)
        got = self.unpack("<I", "version")
        if got != version:
            raise self.error(f"unsupported format version {got}", offset=len(magic))
        kind = None
        if kinds:
            got = self.unpack("<B", "index kind")
            if got >= len(kinds):
                raise self.error(f"unknown index kind {got}", offset=self.pos - 1)
            kind = kinds[got]
        at = self.pos
        dim, count, flag = self.unpack("<IQB", "dim, count and normalized flag")
        if dim == 0:
            raise self.error("dim must be >= 1", offset=at)
        if count == 0:
            raise self.error("count must be >= 1", offset=at + 4)
        if flag not in (0, 1):
            raise self.error(f"normalized flag must be 0 or 1, got {flag}", offset=at + 12)
        return kind, dim, count, bool(flag)

    def build(self, at: int, make, label_at=None, row_bytes: int = 0, **fields):
        """make(**fields), its DataError raised again as the reader's error:
        at label_at(i) when label i is at fault, at `at + i * row_bytes` when
        row i is, else at `at`."""
        try:
            return make(**fields)
        except DataError as exc:
            if exc.label is not None:
                at = label_at(exc.label)
            elif exc.row is not None:
                at += row_bytes * exc.row
            raise self.error(str(exc), offset=at) from None
