"""Label lines round-trip through every file vse writes them to."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vse import DataError, EmbeddingSet, flat_build, load_index, read_embeddings, save_index, write_embeddings

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
