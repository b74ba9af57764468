import dataclasses

import numpy as np
import pytest

from constructions import (
    LOSSLESS_ANCHORS,
    LOSSLESS_COARSE_INERTIA,
    LOSSLESS_SEED,
    centroid_only_set,
    lossless_set,
)
from vse import (
    DataError,
    EmbeddingSet,
    assign,
    flat_build,
    flat_search,
    ivf_pq_build,
    ivf_pq_decode,
    ivf_pq_encode,
    ivf_pq_search,
    ivf_pq_train,
    kmeans_train,
    squared_l2,
)
from vse import Codebook, IvfPqIndex, PqParams
from vse.ivf_pq import adc_table


def random_set(n, d, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)).astype(np.float32)
    return EmbeddingSet(
        vectors=rows, labels=[f"r{i}" for i in range(n)], normalized=False
    )


def clustered_set(n_clusters, per, d, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, d)).astype(np.float32) * 8
    rows = np.repeat(centers, per, axis=0) + rng.normal(
        scale=0.4, size=(n_clusters * per, d)
    ).astype(np.float32)
    return EmbeddingSet(
        vectors=rows.astype(np.float32),
        labels=[f"r{i}" for i in range(n_clusters * per)],
        normalized=False,
    )


def test_centroid_only_base_collapses_subcodebooks():
    es = centroid_only_set()
    idx = ivf_pq_build(es, nlist=4, m=4, seed=0)
    assert idx.coarse.inertia == 0.0
    for cb in idx.subs:
        assert cb.k == 1
        assert np.all(cb.centroids == 0.0)
        assert cb.inertia == 0.0


def test_centroid_only_adc_equals_centroid_distance():
    es = centroid_only_set()
    idx = ivf_pq_build(es, nlist=4, m=4, seed=0)
    rng = np.random.default_rng(1)
    q = rng.standard_normal(8).astype(np.float32)
    for lid in range(4):
        tables = adc_table(idx, q, lid)
        adc = sum(float(t[0]) for t in tables)
        want = squared_l2(q, idx.coarse.centroids[lid])
        assert abs(adc - want) <= 1e-4


def test_encode_of_centroid_selects_zero_codes():
    es = centroid_only_set()
    idx = ivf_pq_build(es, nlist=4, m=4, seed=0)
    lid = 2
    x = idx.coarse.centroids[lid]
    got_list, got_codes = ivf_pq_encode(idx, x)
    assert got_list == lid
    assert got_codes.tolist() == [0, 0, 0, 0]


def test_encode_is_deterministic():
    es = random_set(600, 16, seed=2)
    idx = ivf_pq_build(es, nlist=4, m=4, seed=2)
    x = es.vectors[17]
    a = ivf_pq_encode(idx, x)
    b = ivf_pq_encode(idx, x)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_lossless_training_reaches_zero_inertia():
    es = lossless_set()
    idx = ivf_pq_build(es, nlist=4, m=8, seed=LOSSLESS_SEED)
    anchors = np.float32(LOSSLESS_ANCHORS)
    order = np.argsort(idx.coarse.centroids[:, 0])
    for i, c in enumerate(order):
        assert np.all(idx.coarse.centroids[c] == anchors[i])
    assert idx.coarse.inertia == LOSSLESS_COARSE_INERTIA
    assert [cb.k for cb in idx.subs] == [4, 4, 4, 2, 4, 4, 4, 2]
    for cb in idx.subs:
        assert cb.inertia <= 1e-8


def test_lossless_reconstruction_is_exact():
    es = lossless_set()
    idx = ivf_pq_build(es, nlist=4, m=8, seed=LOSSLESS_SEED)
    for i in range(0, 512, 31):
        rebuilt = ivf_pq_decode(idx, *ivf_pq_encode(idx, es.vectors[i]))
        assert squared_l2(es.vectors[i], rebuilt) <= 1e-6


def test_lossless_full_probe_matches_flat_top1():
    es = lossless_set()
    idx = ivf_pq_build(es, nlist=4, m=8, seed=LOSSLESS_SEED)
    flat = flat_build(es)
    q = es.vectors[::5]
    want = flat_search(flat, q, k=1)
    got = ivf_pq_search(idx, q, k=1, nprobe=4)
    for a, b in zip(want, got):
        assert a.ids[0] == b.ids[0]
        assert abs(a.dists[0] - b.dists[0]) <= 1e-4


def test_training_composes_coarse_assign_and_per_slice_kmeans():
    es = random_set(2000, 64, seed=3)
    seed = 5
    coarse, subs = ivf_pq_train(es, nlist=16, m=8, seed=seed)
    labels = assign(es.vectors, coarse).labels
    resid = (
        es.vectors.astype(np.float64)
        - coarse.centroids.astype(np.float64)[labels]
    ).astype(np.float32)
    for j in range(8):
        sl = np.ascontiguousarray(resid[:, j * 8 : (j + 1) * 8])
        k = min(256, np.unique(sl, axis=0).shape[0])
        ref = kmeans_train(sl, k, seed=seed + 1 + j)
        assert subs[j].inertia == ref.inertia
        assert np.array_equal(subs[j].centroids, ref.centroids)


def test_adc_sum_equals_reconstruction_distance():
    es = random_set(800, 32, seed=4)
    idx = ivf_pq_build(es, nlist=8, m=8, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(40):
        q = rng.standard_normal(32).astype(np.float32)
        i = int(rng.integers(0, 800))
        lid, codes = ivf_pq_encode(idx, es.vectors[i])
        tables = adc_table(idx, q, lid)
        adc = sum(float(tables[j][codes[j]]) for j in range(8))
        want = squared_l2(q, ivf_pq_decode(idx, lid, codes))
        assert abs(adc - want) <= 1e-4


def test_search_is_always_flagged_approximate():
    es = random_set(600, 16, seed=6)
    idx = ivf_pq_build(es, nlist=4, m=4, seed=6)
    r = ivf_pq_search(idx, es.vectors[0], k=3, nprobe=4)[0]
    assert r.approximate is True


def test_corrupted_codes_lose_recall():
    es = clustered_set(16, 64, 32, seed=7)
    idx = ivf_pq_build(es, nlist=8, m=8, seed=7)
    flat = flat_build(es)
    q = es.vectors[::11]
    want = [set(r.ids.tolist()) for r in flat_search(flat, q, k=10)]

    def recall10(index):
        got = ivf_pq_search(index, q, k=10, nprobe=8)
        hit = sum(
            len(w & set(r.ids.tolist())) for w, r in zip(want, got)
        )
        return hit / (10 * len(q))

    real = recall10(idx)
    caps = np.array([cb.k for cb in idx.subs], dtype=np.int64)
    rng = np.random.default_rng(8)
    junk = tuple(
        rng.integers(0, caps, size=block.shape).astype(np.uint8)
        for block in idx.list_codes
    )
    corrupted = dataclasses.replace(idx, list_codes=junk)
    assert real >= recall10(corrupted) + 0.3


def test_too_few_vectors_rejected():
    es = random_set(200, 16, seed=9)
    with pytest.raises(DataError, match="256"):
        ivf_pq_build(es, nlist=4, m=4, seed=0)


def test_dim_not_divisible_by_m_rejected():
    es = random_set(300, 10, seed=10)
    with pytest.raises(DataError):
        ivf_pq_build(es, nlist=4, m=4, seed=0)


def test_nlist_larger_than_base_rejected():
    es = random_set(300, 8, seed=11)
    with pytest.raises(DataError):
        ivf_pq_build(es, nlist=301, m=4, seed=0)


def test_build_is_deterministic():
    es = random_set(500, 16, seed=12)
    a = ivf_pq_build(es, nlist=4, m=4, seed=3)
    b = ivf_pq_build(es, nlist=4, m=4, seed=3)
    assert np.array_equal(a.coarse.centroids, b.coarse.centroids)
    for ca, cb in zip(a.list_codes, b.list_codes):
        assert np.array_equal(ca, cb)
    for ca, cb in zip(a.subs, b.subs):
        assert np.array_equal(ca.centroids, cb.centroids)


def test_encode_files_a_vector_by_the_builds_assignment_rule():
    """encode picks the coarse list and the codes with `assign`, as the
    build does. Here `assign`'s f64 expansion and the canonical kernel
    disagree on the nearer of two close centroids."""
    coarse = Codebook(
        k=2,
        dim=2,
        centroids=np.float32(
            [[-142174.140625, 1119.1715087890625], [-142174.140625, 1119.17138671875]]
        ),
        inertia=0.0,
    )
    one = Codebook(k=1, dim=1, centroids=np.zeros((1, 1), dtype=np.float32), inertia=0.0)
    idx = IvfPqIndex(
        coarse=coarse,
        params=PqParams(m=2),
        subs=(one, one),
        list_ids=(np.array([0]), np.array([], dtype=np.int64)),
        list_codes=(np.zeros((1, 2), dtype=np.uint8), np.zeros((0, 2), dtype=np.uint8)),
        labels=["x"],
        normalized=False,
    )
    x = np.float32([-142174.125, 1119.1778564453125])
    assert assign(x, coarse).labels[0] == 1
    list_id, codes = ivf_pq_encode(idx, x)
    assert list_id == 1
    assert codes.tolist() == [0, 0]
