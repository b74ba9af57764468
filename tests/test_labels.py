"""Label lines round-trip through every file vse writes them to."""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vse import DataError, EmbeddingSet, flat_build, load_index, read_embeddings, save_index, write_embeddings
from vse import FvbFormatError, VidxFormatError
from vse.vidx import crc64

# Any non-empty label without "\n" or "\r" is storable. Surrogates are left
# out because they have no UTF-8 encoding.
labels_lists = st.lists(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None, database=None)
@given(labels=labels_lists)
@example(labels=["a", "b\u2028c", "d"])
@example(labels=["a", "b\u0085c", "d"])
@example(labels=["a", "b\x1cc", "d"])
def test_labels_round_trip_through_vidx_and_fvb(labels):
    rows = np.arange(len(labels) * 3, dtype=np.float32).reshape(len(labels), 3)
    es = EmbeddingSet(vectors=rows, labels=labels, normalized=False)
    with tempfile.TemporaryDirectory() as tmp:
        vidx = os.path.join(tmp, "set.vidx")
        save_index(flat_build(es), vidx)
        assert load_index(vidx).labels == labels
        fvb = os.path.join(tmp, "set.fvb")
        write_embeddings(es, fvb)
        assert read_embeddings(fvb).labels == labels


def test_fvb_sidecar_crlf_reads_as_one_break(tmp_path):
    es = EmbeddingSet(vectors=np.eye(2, dtype=np.float32), labels=["a", "b"], normalized=True)
    path = str(tmp_path / "s.fvb")
    write_embeddings(es, path)
    with open(path + ".labels", "wb") as fh:
        fh.write(b"a\r\nb\r\n")
    assert read_embeddings(path).labels == ["a", "b"]


def test_lone_surrogate_label_is_a_data_error_and_writes_nothing(tmp_path):
    es = EmbeddingSet(vectors=np.eye(2, dtype=np.float32), labels=["a", "b\ud800"], normalized=True)
    vidx = str(tmp_path / "set.vidx")
    fvb = str(tmp_path / "set.fvb")
    for write in (lambda: save_index(flat_build(es), vidx), lambda: write_embeddings(es, fvb)):
        with pytest.raises(DataError, match="label 1") as e:
            write()
        assert e.value.label == 1
    assert os.listdir(tmp_path) == []


def _three_rows(tmp_path, labels_block):
    """A flat VIDX file and an FVB file of three rows labelled "ab", "c",
    "d", with the 7-byte labels text replaced by `labels_block` in both."""
    es = EmbeddingSet(vectors=np.eye(3, dtype=np.float32), labels=["ab", "c", "d"], normalized=True)
    vidx = str(tmp_path / "set.vidx")
    save_index(flat_build(es), vidx)
    body = open(vidx, "rb").read()[:-8]
    # Labels start at byte 30 of a VIDX file.
    assert body[30:37] == b"ab\nc\nd\n" and len(labels_block) == 7
    body = body[:30] + labels_block + body[37:]
    with open(vidx, "wb") as fh:
        fh.write(body + struct.pack("<Q", crc64(body)))
    fvb = str(tmp_path / "set.fvb")
    write_embeddings(es, fvb)
    with open(fvb + ".labels", "wb") as fh:
        fh.write(labels_block)
    return vidx, fvb


@pytest.mark.parametrize(
    "block,at",
    [
        (b"a\nb\nc\nd", 6),  # four lines: where line 3 starts
        (b"ab c\nd\n", 7),  # two lines: the end of the block
    ],
)
def test_label_count_mismatch_is_reported_at_the_same_place_in_both_formats(tmp_path, block, at):
    vidx, fvb = _three_rows(tmp_path, block)
    with pytest.raises(VidxFormatError, match="lines, count is 3") as e:
        load_index(vidx)
    assert e.value.offset == 30 + at
    with pytest.raises(FvbFormatError, match="lines, count is 3") as e:
        read_embeddings(fvb)
    assert e.value.offset == at


def test_vidx_refuses_a_carriage_return_that_save_index_refuses(tmp_path):
    """A VIDX labels block loads a label exactly when encode_labels would
    write it; an FVB sidecar, a text file, reads the "\\r" as a line end."""
    vidx, fvb = _three_rows(tmp_path, b"\rb\nc\nd\n")
    with pytest.raises(VidxFormatError, match="label 0 contains a carriage return") as e:
        load_index(vidx)
    assert e.value.offset == 30
    refused = EmbeddingSet(vectors=np.eye(3, dtype=np.float32), labels=["\rb", "c", "d"])
    with pytest.raises(DataError, match="line break"):
        save_index(flat_build(refused), str(tmp_path / "x.vidx"))
    # The sidecar reads "", "b", "c", "d": the surplus line "d" starts at byte 5.
    with pytest.raises(FvbFormatError, match="4 lines") as e:
        read_embeddings(fvb)
    assert e.value.offset == 5
