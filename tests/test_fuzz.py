"""Damaged VIDX and FVB files load or fail with a typed error and an offset.

Each case takes one small file, cuts it short or flips one bit, and reads
it back. VIDX files are tried with the stored CRC left as it is, which the
checksum catches, and with the CRC recomputed, which lets the damage reach
the parser. Anything that loads must be a usable object.
"""

import functools
import os
import pathlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vse import (
    Codebook,
    EmbeddingSet,
    FvbFormatError,
    IvfPqIndex,
    PqParams,
    VidxFormatError,
    flat_build,
    ivf_flat_build,
    load_index,
    read_embeddings,
    save_index,
    search_any,
    write_embeddings,
)
from vse.vidx import crc64

# "é" gives the labels block a two-byte UTF-8 character to break.
LABELS = ["a", "bé", "c", "dd", "e", "f"]


def _vectors():
    rows = np.random.default_rng(3).standard_normal((6, 4))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def _embeddings():
    return EmbeddingSet(vectors=_vectors(), labels=LABELS, normalized=True)


def _ivf_pq():
    # Built by hand: four-entry sub-codebooks make every code byte above 3
    # out of range, and the file stays small.
    rng = np.random.default_rng(4)
    subs = tuple(
        Codebook(k=4, dim=2, centroids=rng.standard_normal((4, 2)), inertia=1.0)
        for _ in range(2)
    )
    return IvfPqIndex(
        coarse=Codebook(k=2, dim=4, centroids=_vectors()[:2], inertia=2.0),
        params=PqParams(m=2),
        subs=subs,
        list_ids=(np.array([0, 2, 4]), np.array([1, 3, 5])),
        list_codes=(rng.integers(0, 4, (3, 2), dtype=np.uint8),) * 2,
        labels=LABELS,
        normalized=True,
    )


VIDX = ("flat", "ivf_flat", "ivf_pq")
FVB = ("fvb", "fvb_labels")
FILE_NAMES = {"fvb": "set.fvb", "fvb_labels": "set.fvb.labels"}


@functools.cache
def undamaged():
    """The bytes of every case file, by case name."""
    es = _embeddings()
    indexes = {
        "flat": flat_build(es),
        "ivf_flat": ivf_flat_build(es, 2, seed=0),
        "ivf_pq": _ivf_pq(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, index in indexes.items():
            save_index(index, os.path.join(tmp, name))
        write_embeddings(es, os.path.join(tmp, FILE_NAMES["fvb"]))
        out = {}
        for name in VIDX + FVB:
            with open(os.path.join(tmp, FILE_NAMES.get(name, name)), "rb") as fh:
                out[name] = fh.read()
    return out


def _damage(blob, cut, flip, fix_crc):
    if cut is not None:
        blob = blob[: cut % len(blob)]
    else:
        bit = flip % (8 * len(blob))
        blob = bytearray(blob)
        blob[bit // 8] ^= 1 << (bit % 8)
        blob = bytes(blob)
    if fix_crc and len(blob) >= 8:
        blob = blob[:-8] + struct.pack("<Q", crc64(blob[:-8]))
    return blob


def load_damaged(name, cut, flip, fix_crc, directory):
    """Write the case's files into `directory`, damage one, read it back."""
    files = undamaged()
    for other in FVB:
        (directory / FILE_NAMES[other]).write_bytes(files[other])
    target = directory / FILE_NAMES.get(name, name)
    target.write_bytes(_damage(files[name], cut, flip, fix_crc and name in VIDX))
    if name in VIDX:
        return load_index(str(target))
    return read_embeddings(str(directory / FILE_NAMES["fvb"]))


@settings(max_examples=400, deadline=None, database=None)
@given(
    name=st.sampled_from(VIDX + FVB),
    cut=st.one_of(st.none(), st.integers(0, 10_000)),
    flip=st.integers(0, 100_000),
    fix_crc=st.booleans(),
)
# The high bit of the first label byte: not UTF-8 once the CRC is fixed.
@example(name="flat", cut=None, flip=8 * 30 + 7, fix_crc=True)
@example(name="ivf_flat", cut=None, flip=8 * 30 + 7, fix_crc=True)
@example(name="ivf_pq", cut=None, flip=8 * 30 + 7, fix_crc=True)
@example(name="fvb_labels", cut=None, flip=7, fix_crc=False)
# The top mantissa bit of row 0's first value: the normalized flag no
# longer holds. Rows start at byte 21 in FVB, at 45 in the flat VIDX.
@example(name="fvb", cut=None, flip=8 * 23 + 6, fix_crc=False)
@example(name="flat", cut=None, flip=8 * 47 + 6, fix_crc=True)
def test_damaged_file_loads_or_raises_typed_error_with_offset(name, cut, flip, fix_crc):
    error = VidxFormatError if name in VIDX else FvbFormatError
    with tempfile.TemporaryDirectory() as tmp:
        try:
            loaded = load_damaged(name, cut, flip, fix_crc, pathlib.Path(tmp))
        except error as exc:
            assert exc.offset is not None, str(exc)
            return
    if name in VIDX:
        assert len(search_any(loaded, _vectors()[:1], 1, nprobe=1)) == 1
    else:
        assert loaded.vectors.shape == (6, 4)


@pytest.mark.parametrize(
    "name,flip,offset",
    [
        # Labels start at byte 30 of a VIDX file; "é" is bytes 33-34.
        ("flat", 8 * 33 + 6, 33),
        ("ivf_pq", 8 * 33 + 6, 33),
        ("fvb_labels", 8 * 3 + 6, 3),
        # Row 2 of a normalized set, 16 bytes a row.
        ("flat", 8 * (45 + 32 + 3) + 6, 45 + 32),
        ("fvb", 8 * (21 + 32 + 3) + 6, 21 + 32),
    ],
)
def test_offset_points_at_the_bad_byte_or_row(name, flip, offset, tmp_path):
    error = VidxFormatError if name in VIDX else FvbFormatError
    with pytest.raises(error) as e:
        load_damaged(name, None, flip, True, tmp_path)
    assert e.value.offset == offset
