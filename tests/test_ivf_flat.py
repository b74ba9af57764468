import dataclasses

import numpy as np
import pytest

from vse import (
    DataError,
    EmbeddingSet,
    assign,
    default_nprobe,
    flat_build,
    flat_search,
    ivf_flat_build,
    ivf_flat_search,
    load_index,
    save_index,
)


def random_set(n, d, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)).astype(np.float32)
    return EmbeddingSet(
        vectors=rows, labels=[f"r{i}" for i in range(n)], normalized=False
    )


def clustered_set(n_clusters, per, d, seed=0, spread=10.0, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, d)).astype(np.float32) * spread
    rows = np.repeat(centers, per, axis=0) + rng.normal(
        scale=noise, size=(n_clusters * per, d)
    ).astype(np.float32)
    rows = rows.astype(np.float32)
    return EmbeddingSet(
        vectors=rows, labels=[f"r{i}" for i in range(len(rows))],
        normalized=False,
    )


def test_nlist_one_single_list_insertion_order():
    es = random_set(50, 8)
    idx = ivf_flat_build(es, nlist=1, seed=0)
    assert len(idx.list_ids) == 1
    assert idx.list_ids[0].tolist() == list(range(50))


def test_two_far_pairs_split_into_their_own_lists():
    rows = np.float32(
        [[0.0, 0.0], [0.1, 0.0], [100.0, 100.0], [100.1, 100.0]]
    )
    es = EmbeddingSet(vectors=rows, labels=list("abcd"), normalized=False)
    idx = ivf_flat_build(es, nlist=2, seed=0)
    lists = sorted(l.tolist() for l in idx.list_ids)
    assert lists == [[0, 1], [2, 3]]
    # the split agrees with a fresh assignment against the trained codebook
    labels = assign(rows, idx.coarse).labels
    for lid, members in enumerate(idx.list_ids):
        assert np.all(labels[members] == lid)


def test_posting_lists_partition_the_base():
    es = random_set(700, 10, seed=3)
    idx = ivf_flat_build(es, nlist=13, seed=3)
    lengths = [len(l) for l in idx.list_ids]
    assert sum(lengths) == 700
    all_ids = np.concatenate(idx.list_ids)
    assert sorted(all_ids.tolist()) == list(range(700))


def test_full_probe_equals_flat_bitwise():
    es = random_set(400, 16, seed=4)
    rng = np.random.default_rng(5)
    q = rng.standard_normal((12, 16)).astype(np.float32)
    ivf = ivf_flat_build(es, nlist=8, seed=4)
    flat = flat_build(es)
    a = ivf_flat_search(ivf, q, k=9, nprobe=8)
    b = flat_search(flat, q, k=9)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.dists, rb.dists)
        assert ra.approximate is False


def test_nlist_one_equals_flat():
    es = random_set(200, 8, seed=6)
    q = es.vectors[:5]
    a = ivf_flat_search(ivf_flat_build(es, nlist=1, seed=0), q, k=4, nprobe=1)
    b = flat_search(flat_build(es), q, k=4)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.dists, rb.dists)


def test_clustered_recall_at_one():
    es = clustered_set(64, 100, 32, seed=7)
    idx = ivf_flat_build(es, nlist=64, seed=7)
    flat = flat_build(es)
    q = es.vectors[::17]
    want = flat_search(flat, q, k=1)
    got = ivf_flat_search(idx, q, k=1, nprobe=8)
    hits = sum(int(a.ids[0] == b.ids[0]) for a, b in zip(want, got))
    assert hits / len(q) >= 0.9


def test_top1_distance_non_increasing_in_nprobe():
    es = random_set(600, 12, seed=8)
    idx = ivf_flat_build(es, nlist=16, seed=8)
    rng = np.random.default_rng(9)
    q = rng.standard_normal((10, 12)).astype(np.float32)
    prev = None
    for nprobe in (1, 2, 4, 8, 16):
        res = ivf_flat_search(idx, q, k=1, nprobe=nprobe)
        dists = [r.dists[0] for r in res]
        if prev is not None:
            assert all(d <= p for d, p in zip(dists, prev))
        prev = dists


def test_default_nprobe_rule():
    assert default_nprobe(1) == 1
    assert default_nprobe(31) == 1
    assert default_nprobe(32) == 1
    assert default_nprobe(64) == 2
    assert default_nprobe(256) == 8


def test_search_uses_default_nprobe_when_omitted():
    es = random_set(300, 8, seed=10)
    idx = ivf_flat_build(es, nlist=64, seed=10)
    q = es.vectors[:4]
    a = ivf_flat_search(idx, q, k=2)
    b = ivf_flat_search(idx, q, k=2, nprobe=2)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.dists, rb.dists)


def test_partial_probe_flags_approximate():
    es = random_set(300, 8, seed=11)
    idx = ivf_flat_build(es, nlist=8, seed=11)
    q = es.vectors[:2]
    assert ivf_flat_search(idx, q, k=1, nprobe=3)[0].approximate is True
    assert ivf_flat_search(idx, q, k=1, nprobe=8)[0].approximate is False


def test_short_candidate_pool_returns_fewer():
    es = clustered_set(4, 50, 8, seed=12)
    idx = ivf_flat_build(es, nlist=4, seed=12)
    r = ivf_flat_search(idx, es.vectors[0], k=200, nprobe=1)[0]
    assert 0 < r.ids.shape[0] < 200


def test_nprobe_out_of_range_rejected():
    es = random_set(100, 6, seed=13)
    idx = ivf_flat_build(es, nlist=5, seed=13)
    with pytest.raises(DataError):
        ivf_flat_search(idx, es.vectors[0], k=1, nprobe=0)
    with pytest.raises(DataError):
        ivf_flat_search(idx, es.vectors[0], k=1, nprobe=6)


def test_nlist_larger_than_base_rejected():
    es = random_set(5, 4)
    with pytest.raises(DataError):
        ivf_flat_build(es, nlist=6, seed=0)


def _with_list(idx, field, c, payload):
    """idx rebuilt through its constructor with list c of `field` replaced."""
    lists = list(getattr(idx, field))
    lists[c] = payload
    return dataclasses.replace(idx, **{field: tuple(lists)})


def _nonempty_list(idx):
    return next(c for c, ids in enumerate(idx.list_ids) if ids.size > 1)


def test_list_vectors_one_row_short_of_their_ids_are_refused():
    # Search would never return the missing row, and the saved file would
    # not load back.
    idx = ivf_flat_build(random_set(60, 4), nlist=4, seed=0)
    c = _nonempty_list(idx)
    with pytest.raises(DataError, match=f"posting list {c} holds"):
        _with_list(idx, "list_vectors", c, idx.list_vectors[c][:-1])


def test_list_vectors_of_the_wrong_width_are_refused():
    idx = ivf_flat_build(random_set(60, 4), nlist=4, seed=0)
    c = _nonempty_list(idx)
    wide = np.hstack([idx.list_vectors[c], np.zeros((idx.list_ids[c].size, 1), np.float32)])
    with pytest.raises(DataError, match=f"posting list {c} holds"):
        _with_list(idx, "list_vectors", c, wide)


def test_list_ids_that_are_not_integers_are_refused():
    idx = ivf_flat_build(random_set(60, 4), nlist=4, seed=0)
    c = _nonempty_list(idx)
    with pytest.raises(DataError, match=f"posting list {c} ids"):
        _with_list(idx, "list_ids", c, idx.list_ids[c].astype(np.float64))


def test_f64_list_vectors_are_rounded_once_and_answer_as_after_a_reload(tmp_path):
    es = random_set(60, 4)
    idx = ivf_flat_build(es, nlist=4, seed=0)
    c = _nonempty_list(idx)
    x64 = idx.list_vectors[c].astype(np.float64) + 1e-9
    got = _with_list(idx, "list_vectors", c, x64)
    assert got.list_vectors[c].dtype == np.float32
    assert np.array_equal(got.list_vectors[c], x64.astype(np.float32))
    assert got.list_ids[c].dtype == np.int64
    path = str(tmp_path / "f64.vidx")
    save_index(got, path)
    back = load_index(path)
    query = es.vectors[int(idx.list_ids[c][0])]
    for mem, disk in zip(
        ivf_flat_search(got, query, 3, nprobe=4), ivf_flat_search(back, query, 3, nprobe=4)
    ):
        assert np.array_equal(mem.ids, disk.ids)
        assert np.array_equal(mem.dists, disk.dists)
