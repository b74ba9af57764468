"""VIDX index files: one little-endian container for all three index kinds.

Layout: magic "VIDX", u32 version (1), u8 kind (0 flat, 1 ivf-flat,
2 ivf-pq), u32 dim, u64 count, u8 normalized flag, a labels block (u64
size, then one "\n"-ended UTF-8 line per label), a kind-specific payload,
and a trailing u64 CRC-64 over every preceding byte. Flat stores count*dim
f32. Both IVF kinds store the coarse codebook (ivf-pq then u32 m, u32 ksub,
always 256, and m sub-codebooks of at most ksub entries) and nlist posting
lists, each a u64 length, the length's i64 ids and their f32 vectors or u8
codes. Codebooks serialize as (u32 k, u32 dim, f64 inertia, k*dim f32).
Loading verifies the checksum
before trusting any payload length, then parses the file with the reader
FVB files share (`_io.Reader`, `_io.read_labels`), so every fault is
reported at its byte offset. A labels block whose line count is not the
header's is reported where line `count` starts, or at the block's end, as
in an FVB sidecar; a "\\r" in a label is refused at its offset, as
save_index refuses it.

The CRC is CRC-64/XZ (reflected 0x42f0e1eba9ea3693, init and xorout all
ones). crc64 splits its input into L equal lanes of whole 8-byte words,
L = isqrt(word count), so lanes and steps grow alike. Each numpy step
advances every lane by one word through the eight slice tables (lane 0
from the all-ones init, the others from 0). The register update is linear
over GF(2), so the register after lanes a then b is Z(a) ^ b, where Z
feeds one lane's length of zero bytes; Z comes from repeated squaring of
the one-zero-byte operator, as in zlib's crc32_combine, and the lanes fold
left to right through Z's byte tables. The tail past the lanes, and an
input too short for two lanes, takes the scalar slice-by-8 step.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ._io import FormatError, Reader, Writer, atomic_write_bytes, encode_labels, read_labels
from .core import DataError, EmbeddingSet
from .flat import FlatIndex
from .ivf_flat import IvfFlatIndex
from .ivf_pq import KSUB, IvfPqIndex, PqParams
from .kmeans import Codebook

__all__ = ["VidxFormatError", "save_index", "load_index", "crc64"]

_MAGIC = b"VIDX"
_VERSION = 1
_KINDS = (FlatIndex.kind, IvfFlatIndex.kind, IvfPqIndex.kind)  # kind byte = position
_HEADER = struct.Struct("<4sIBIQ")  # magic, version, kind, dim, count

_CRC_POLY = 0xC96C5795D7870F42  # 0x42f0e1eba9ea3693 bit-reflected
_CRC_ONES = 0xFFFFFFFFFFFFFFFF
_CRC_TABLES: list[list[int]] = []


def _build_crc_tables() -> None:
    base = []
    for b in range(256):
        crc = b
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC_POLY if crc & 1 else crc >> 1
        base.append(crc)
    _CRC_TABLES.append(base)
    for t in range(1, 8):
        prev = _CRC_TABLES[t - 1]
        _CRC_TABLES.append([(prev[b] >> 8) ^ base[prev[b] & 0xFF] for b in range(256)])


_build_crc_tables()

# Lane registers are little-endian words on every host, so their uint8 view
# lists each word's bytes least significant first. Byte j of a word indexes
# table 7 - j; _LANE_TABLES holds those tables end to end, and row j of
# _LANE_TABLE_AT is where table 7 - j starts. Masks and shift counts on
# numpy uint64 values are np.uint64 too: numpy 1.x and 2.x promote uint64
# mixed with a Python int differently. The fold works on Python ints.
_U64 = np.dtype("<u8")
_LANE_TABLES = np.array(_CRC_TABLES[::-1], dtype=_U64).ravel()
_LANE_TABLE_AT = 256 * np.arange(8, dtype=np.intp)[:, None]
_BIT = np.arange(64, dtype=np.uint64)
_ONE = np.uint64(1)


def crc64(data) -> int:
    """CRC-64/XZ of any bytes-like object, such as bytes or a memoryview."""
    view = memoryview(data).cast("B")
    words = len(view) // 8
    lanes = math.isqrt(words)
    crc, done = _CRC_ONES, 0
    if lanes >= 2:
        steps = words // lanes
        done = 8 * lanes * steps
        registers = _lane_registers(np.frombuffer(view, _U64, lanes * steps).reshape(lanes, steps))
        z0, z1, z2, z3, z4, z5, z6, z7 = _zero_bytes_tables(8 * steps)
        crc = registers[0]
        for r in registers[1:]:
            crc = r ^ (
                z0[crc & 0xFF]
                ^ z1[(crc >> 8) & 0xFF]
                ^ z2[(crc >> 16) & 0xFF]
                ^ z3[(crc >> 24) & 0xFF]
                ^ z4[(crc >> 32) & 0xFF]
                ^ z5[(crc >> 40) & 0xFF]
                ^ z6[(crc >> 48) & 0xFF]
                ^ z7[(crc >> 56) & 0xFF]
            )
    return _crc_update(crc, view[done:]) ^ _CRC_ONES


def _lane_registers(words: np.ndarray) -> list[int]:
    """The CRC register after each row of `words` (lanes x steps), one word
    per step for all rows at once; row 0 starts from all ones, the rest from 0.

    Step t reads column t of `words`, a strided view of the input, so the
    scratch is two arrays of 8 x lanes entries whatever the input's size.
    """
    lanes, steps = words.shape
    state = np.zeros(lanes, dtype=_U64)
    state[0] = np.uint64(_CRC_ONES)
    state_bytes = state.view(np.uint8).reshape(lanes, 8).T
    at = np.empty((8, lanes), dtype=np.intp)
    hits = np.empty((8, lanes), dtype=_U64)
    for t in range(steps):
        np.bitwise_xor(state, words[:, t], out=state)
        np.add(state_bytes, _LANE_TABLE_AT, out=at)
        np.take(_LANE_TABLES, at, out=hits, mode="clip")
        np.bitwise_xor.reduce(hits, axis=0, out=state)
    return state.tolist()


def _gf2_apply(columns: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The GF(2) matrix whose column k is columns[k], applied to each vector:
    the XOR of columns[k] over the set bits k of the vector."""
    bits = (vectors[:, None] >> _BIT[: columns.shape[0]]) & _ONE
    return np.bitwise_xor.reduce(np.where(bits == _ONE, columns, np.uint64(0)), axis=1)


def _zero_bytes_tables(n: int) -> list[list[int]]:
    """Eight byte tables of the operator Z that feeds n zero bytes to a
    register: Z(s) is the XOR over j of table j at byte j of s."""
    basis = _ONE << _BIT
    # Column k of an operator is its image of bit k; one zero byte first.
    t0 = np.array(_CRC_TABLES[0], dtype=np.uint64)
    power = (basis >> np.uint64(8)) ^ t0[(basis & np.uint64(0xFF)).astype(np.intp)]
    z = basis
    while n:
        if n & 1:
            z = _gf2_apply(power, z)
        n >>= 1
        if n:
            power = _gf2_apply(power, power)
    byte = np.arange(256, dtype=np.uint64)
    return [_gf2_apply(z[8 * j : 8 * j + 8], byte).tolist() for j in range(8)]


def _crc_update(crc: int, data) -> int:
    """The register after feeding `data` to register `crc`, 8 bytes per step."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC_TABLES
    n8 = len(data) - (len(data) % 8)
    for (word,) in struct.iter_unpack("<Q", data[:n8]):
        c = crc ^ word
        crc = (
            t7[c & 0xFF]
            ^ t6[(c >> 8) & 0xFF]
            ^ t5[(c >> 16) & 0xFF]
            ^ t4[(c >> 24) & 0xFF]
            ^ t3[(c >> 32) & 0xFF]
            ^ t2[(c >> 40) & 0xFF]
            ^ t1[(c >> 48) & 0xFF]
            ^ t0[(c >> 56) & 0xFF]
        )
    for b in data[n8:]:
        crc = t0[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc


class VidxFormatError(FormatError):
    """Malformed VIDX file; `offset` is the byte position of the problem."""


class _Writer(Writer):
    def labels(self, labels: list[str]) -> None:
        blob = encode_labels(labels)
        self.pack("<Q", len(blob))
        self.raw(blob)

    def codebook(self, cb: Codebook) -> None:
        self.pack("<IId", cb.k, cb.dim, cb.inertia)
        self.array(cb.centroids, "<f4")


def _codebook(r: Reader, what: str, dim: int, max_k: int | None = None) -> Codebook:
    """The next codebook, which must have `dim` and at most `max_k` entries;
    a k past max_k is reported at the codebook, a wrong dim at its end."""
    at = r.pos
    k, got, inertia = r.unpack("<IId", f"{what} k, dim and inertia")
    if max_k is not None and k > max_k:
        raise VidxFormatError(f"{what} has k={k} > {max_k}", offset=at)
    cents = r.array(k * got, "<f4", f"{what} centroids").reshape(k, got)
    cb = r.build(at, Codebook, k=k, dim=got, centroids=cents, inertia=inertia)
    if got != dim:
        raise VidxFormatError(f"{what} dim {got} does not match {dim}", offset=r.pos)
    return cb


def save_index(index, path: str) -> None:
    """Serialize any index kind to one checksummed file, atomically."""
    kind = getattr(index, "kind", None)
    if kind not in _KINDS:
        raise DataError(f"unsupported index type {type(index).__name__}")
    w = _Writer()
    w.raw(_HEADER.pack(_MAGIC, _VERSION, _KINDS.index(kind), index.dim, index.count))
    w.pack("<B", int(index.normalized))
    w.labels(index.labels)
    if kind == FlatIndex.kind:
        w.array(index.base.vectors, "<f4")
    else:
        w.codebook(index.coarse)
        if kind == IvfPqIndex.kind:
            w.pack("<II", index.m, KSUB)
            for cb in index.subs:
                w.codebook(cb)
            payloads, dtype = index.list_codes, "u1"
        else:
            payloads, dtype = index.list_vectors, "<f4"
        for ids, payload in zip(index.list_ids, payloads):
            w.pack("<Q", ids.shape[0])
            w.array(ids, "<i8")
            w.array(payload, dtype)
    body = b"".join(w.parts)
    del w  # the parts; the CRC and the write need only the joined body
    atomic_write_bytes(path, body, struct.pack("<Q", crc64(body)))


def load_index(path: str):
    """Read a VIDX file back into the matching in-memory index."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size + 8:
        raise VidxFormatError("file too short for a VIDX header", offset=len(blob))
    end = len(blob) - 8
    (stored,) = struct.unpack_from("<Q", blob, end)
    actual = crc64(memoryview(blob)[:end])
    if actual != stored:
        raise VidxFormatError(
            f"checksum mismatch: stored {stored:#018x}, computed {actual:#018x}",
            offset=end,
        )
    r = Reader(blob, end, VidxFormatError)
    kind, dim, count, normalized = r.header(_MAGIC, _VERSION, _KINDS)
    size = r.unpack("<Q", "labels block size")
    at = r.pos
    labels, label_at = read_labels(r.take(size, "labels block"), count, VidxFormatError, at)

    if kind == FlatIndex.kind:
        vectors_at = r.pos
        # A view: EmbeddingSet makes the one copy.
        vectors = r.view(count * dim, "<f4", "vectors").reshape(count, dim)
        r.expect_end()
        base = r.build(
            vectors_at, EmbeddingSet, label_at, 4 * dim,
            vectors=vectors, labels=labels, normalized=normalized,
        )
        return FlatIndex(base=base)

    coarse = _codebook(r, "coarse codebook", dim)
    if kind == IvfPqIndex.kind:
        params_at = r.pos
        m, ksub = r.unpack("<II", "m and ksub")
        params = r.build(params_at, PqParams, m=m)
        if ksub != KSUB:
            raise VidxFormatError(f"ksub is fixed at {KSUB}, got {ksub}", offset=params_at + 4)
        if dim % m != 0:
            raise VidxFormatError(f"dim {dim} not divisible by m={m}", offset=params_at)
        subs = tuple(_codebook(r, f"sub-codebook {j}", dim // m, KSUB) for j in range(m))
        width, dtype, what = m, "u1", "codes"
    else:
        width, dtype, what = dim, "<f4", "vectors"
    lists_at = r.pos
    list_ids, payloads = [], []
    for j in range(coarse.k):
        n = r.unpack("<Q", f"list {j} length")
        list_ids.append(r.array(n, "<i8", f"list {j} ids"))
        payloads.append(r.array(n * width, dtype, f"list {j} {what}").reshape(n, width))
    r.expect_end()
    fields = dict(coarse=coarse, list_ids=tuple(list_ids), labels=labels, normalized=normalized)
    if kind == IvfFlatIndex.kind:
        return r.build(lists_at, IvfFlatIndex, label_at, list_vectors=tuple(payloads), **fields)
    # The codebooks are checked above, so IvfPqIndex can only fault a label
    # or the lists: ids that do not partition the rows, or codes past their
    # sub-codebook.
    fields.update(params=params, subs=subs, list_codes=tuple(payloads))
    return r.build(lists_at, IvfPqIndex, label_at, **fields)
