import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import (
    LOSSLESS_ANCHORS,
    LOSSLESS_COARSE_INERTIA,
    LOSSLESS_SEED,
    centroid_only_set,
    lossless_set,
)
from oracles import ivf_pq_search_v041
from vse import (
    DataError,
    EmbeddingSet,
    assign,
    flat_build,
    flat_search,
    ivf_flat_build,
    ivf_flat_search,
    ivf_pq_build,
    ivf_pq_decode,
    ivf_pq_encode,
    ivf_pq_search,
    ivf_pq_train,
    kmeans_train,
    squared_l2,
    squared_l2_batch,
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


def constructed_index(seed, m, subdim, nlist, count, small_k, small_ints):
    """An IvfPqIndex drawn at random, with no training.

    Some lists are left empty. With small_k every sub-codebook has fewer
    than 256 entries, otherwise most have 256. small_ints draws every value
    from a few integers, so estimates tie across rows and lists.
    """
    rng = np.random.default_rng(seed)
    dim = m * subdim

    def values(shape, scale):
        if small_ints:
            return rng.integers(-2, 3, shape).astype(np.float32)
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    ks = rng.integers(1, 9, m) if small_k else rng.choice([1, 2, 7, 255, 256, 256, 256], m)
    subs = tuple(
        Codebook(k=int(k), dim=subdim, centroids=values((int(k), subdim), 1.0), inertia=0.0)
        for k in ks
    )
    coarse = Codebook(k=nlist, dim=dim, centroids=values((nlist, dim), 4.0), inertia=0.0)
    used = rng.choice(nlist, size=int(rng.integers(1, nlist + 1)), replace=False)
    owner = rng.choice(used, size=count)
    codes = rng.integers(0, ks, (count, m)).astype(np.uint8)
    list_ids = tuple(np.flatnonzero(owner == c) for c in range(nlist))
    idx = IvfPqIndex(
        coarse=coarse,
        params=PqParams(m=m),
        subs=subs,
        list_ids=list_ids,
        list_codes=tuple(np.ascontiguousarray(codes[ids]) for ids in list_ids),
        labels=[f"r{i}" for i in range(count)],
        normalized=False,
    )
    return idx, values((8, dim), 4.0)


@st.composite
def pq_cases(draw):
    subdim = draw(st.sampled_from([1, 3, 8, 16, 24]))
    # subdim 1 is m == dim, one sub-codebook per coordinate.
    m = draw(st.integers(1, 24 if subdim == 1 else 6))
    nlist = draw(st.integers(1, 6))
    idx, queries = constructed_index(
        seed=draw(st.integers(0, 2**32 - 1)),
        m=m,
        subdim=subdim,
        nlist=nlist,
        count=draw(st.integers(1, 80)),
        small_k=draw(st.booleans()),
        small_ints=draw(st.booleans()),
    )
    nq = draw(st.sampled_from([1, 5]))
    nprobe = draw(st.sampled_from([1, nlist, (nlist + 1) // 2]))
    k = draw(st.sampled_from([1, 3, 10, 100]))
    return idx, queries[:nq], nprobe, k


def assert_matches_v041(idx, queries, k, nprobe):
    got = ivf_pq_search(idx, queries, k=k, nprobe=nprobe)
    want = ivf_pq_search_v041(idx, queries, k, nprobe)
    assert len(got) == len(want)
    for res, (ids, dists) in zip(got, want):
        assert res.approximate is True
        assert res.ids.tolist() == ids.tolist()
        assert res.dists.tobytes() == dists.tobytes()


@settings(max_examples=80, deadline=None, database=None)
@given(case=pq_cases())
def test_search_matches_v041_adc_bit_for_bit(case):
    idx, queries, nprobe, k = case
    assert_matches_v041(idx, queries, k, nprobe)


@pytest.mark.parametrize(
    "es, nlist, m",
    [
        (lossless_set(), 4, 8),  # sub-codebooks of k 4 and 2
        (random_set(600, 16, seed=13), 8, 16),  # subdim 1
        (random_set(700, 48, seed=14), 8, 2),  # subdim 24
    ],
    ids=["k4_and_k2", "subdim1", "subdim24"],
)
def test_built_index_matches_v041_adc_bit_for_bit(es, nlist, m):
    idx = ivf_pq_build(es, nlist=nlist, m=m, seed=LOSSLESS_SEED)
    q = es.vectors[::37] + np.float32(0.25)
    for nprobe in (1, nlist):
        assert_matches_v041(idx, q, 10, nprobe)
        assert_matches_v041(idx, q[:1], 10, nprobe)


@settings(max_examples=40, deadline=None, database=None)
@given(case=pq_cases())
def test_adc_table_is_the_canonical_kernel_per_subspace(case):
    idx, queries, _, _ = case
    sub = idx.subdim
    for q in queries:
        for lid in range(idx.nlist):
            tables = adc_table(idx, q, lid)
            assert tables.shape == (idx.m, 256)
            r = (
                q.astype(np.float64) - idx.coarse.centroids[lid].astype(np.float64)
            ).astype(np.float32)
            for j, cb in enumerate(idx.subs):
                want = squared_l2_batch(cb.centroids, r[j * sub : (j + 1) * sub])
                assert tables[j, : cb.k].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["flat", "ivf_flat", "ivf_pq"])
def test_threads_do_not_change_results(kind):
    """Searches run on the calling thread: threads=1 is the default call,
    and any other count is refused."""
    es = random_set(1200, 32, seed=15)
    rng = np.random.default_rng(16)
    q = rng.standard_normal((64, 32)).astype(np.float32)
    if kind == "flat":
        idx, search, kw = flat_build(es), flat_search, {}
    elif kind == "ivf_flat":
        idx, search, kw = ivf_flat_build(es, nlist=16, seed=15), ivf_flat_search, {"nprobe": 4}
    else:
        idx, search, kw = ivf_pq_build(es, nlist=16, m=8, seed=15), ivf_pq_search, {"nprobe": 4}
    a = search(idx, q, 10, **kw)
    b = search(idx, q, 10, threads=1, **kw)
    for ra, rb in zip(a, b):
        assert ra.approximate == rb.approximate
        assert np.array_equal(ra.ids, rb.ids)
        assert ra.dists.tobytes() == rb.dists.tobytes()
    with pytest.raises(DataError, match="threads must be 1, got 2"):
        search(idx, q, 10, threads=2, **kw)


def test_decode_gathers_the_sub_centroids():
    es = random_set(600, 16, seed=17)
    idx = ivf_pq_build(es, nlist=4, m=4, seed=17)
    lid, codes = ivf_pq_encode(idx, es.vectors[3])
    want = idx.coarse.centroids[lid].astype(np.float64)
    for j in range(4):
        want[j * 4 : (j + 1) * 4] += idx.subs[j].centroids[codes[j]].astype(np.float64)
    assert ivf_pq_decode(idx, lid, codes).tobytes() == want.astype(np.float32).tobytes()


def test_decode_rejects_list_id_out_of_range():
    idx = ivf_pq_build(lossless_set(), nlist=4, m=8, seed=LOSSLESS_SEED)
    for lid in (-1, 4):
        with pytest.raises(DataError, match=rf"list id {lid} out of range \[0, 4\)"):
            ivf_pq_decode(idx, lid, np.zeros(8, dtype=np.uint8))


def test_decode_refuses_non_integer_input():
    idx = ivf_pq_build(lossless_set(), nlist=4, m=8, seed=LOSSLESS_SEED)
    codes = np.zeros(8, dtype=np.uint8)
    with pytest.raises(DataError, match="codes must be integers, got dtype float64"):
        ivf_pq_decode(idx, 0, codes + 0.7)
    with pytest.raises(DataError, match="list id must be an integer, got 1.0"):
        ivf_pq_decode(idx, 1.0, codes)


def test_decode_rejects_wrong_code_count():
    idx = ivf_pq_build(lossless_set(), nlist=4, m=8, seed=LOSSLESS_SEED)
    with pytest.raises(DataError, match=r"expected 8 codes, got shape \(7,\)"):
        ivf_pq_decode(idx, 0, np.zeros(7, dtype=np.uint8))


def test_decode_names_the_first_subspace_with_a_bad_code():
    idx = ivf_pq_build(lossless_set(), nlist=4, m=8, seed=LOSSLESS_SEED)
    assert [cb.k for cb in idx.subs] == [4, 4, 4, 2, 4, 4, 4, 2]
    codes = np.zeros(8, dtype=np.uint8)
    codes[3] = 2  # subspace 3 has k == 2
    codes[5] = 200
    with pytest.raises(DataError, match=r"code 2 out of range \[0, 2\) in subspace 3"):
        ivf_pq_decode(idx, 0, codes)
    with pytest.raises(DataError, match=r"code -1 out of range \[0, 4\) in subspace 0"):
        ivf_pq_decode(idx, 0, [-1, 0, 0, 0, 0, 0, 0, 0])


def test_residual_overflow_names_the_list_without_a_warning():
    # The query is finite, but its residual to the one coarse centroid,
    # 3e38 - (-3e38), is past the f32 range.
    coarse = Codebook(k=1, dim=2, centroids=np.float32([[-3e38, 0.0]]), inertia=0.0)
    sub = Codebook(k=1, dim=1, centroids=np.float32([[0.0]]), inertia=0.0)
    idx = IvfPqIndex(
        coarse=coarse,
        params=PqParams(m=2),
        subs=(sub, sub),
        list_ids=(np.int64([0]),),
        list_codes=(np.zeros((1, 2), dtype=np.uint8),),
        labels=["a"],
        normalized=False,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"^the query's residual to list 0 overflows f32$"):
            ivf_pq_search(idx, np.float32([[3e38, 0.0]]), 1)
        with pytest.raises(DataError, match=r"^the query's residual to list 0 overflows f32$"):
            adc_table(idx, np.float32([3e38, 0.0]), 0)


def _with_codes(idx, c, codes):
    """idx rebuilt through its constructor with list c's codes replaced."""
    lists = list(idx.list_codes)
    lists[c] = codes
    return dataclasses.replace(idx, list_codes=tuple(lists))


def _small_pq():
    rng = np.random.default_rng(9)
    es = EmbeddingSet(
        vectors=rng.standard_normal((300, 8)).astype(np.float32),
        labels=[f"r{i}" for i in range(300)],
    )
    idx = ivf_pq_build(es, 2, 4, seed=0, max_iters=3)
    return idx, next(c for c, ids in enumerate(idx.list_ids) if ids.size)


def test_negative_int64_code_is_refused():
    # -1 would read another subspace's table, and save_index would wrap it to 255.
    idx, c = _small_pq()
    codes = idx.list_codes[c].astype(np.int64)
    codes[0, 0] = -1
    with pytest.raises(DataError, match=f"posting list {c} has a code outside its sub-codebook"):
        _with_codes(idx, c, codes)


def test_float_codes_are_refused():
    idx, c = _small_pq()
    with pytest.raises(DataError, match=f"posting list {c} has a code outside its sub-codebook"):
        _with_codes(idx, c, idx.list_codes[c].astype(np.float64))


def test_code_rows_of_the_wrong_width_are_refused():
    idx, c = _small_pq()
    with pytest.raises(DataError, match=f"posting list {c} holds"):
        _with_codes(idx, c, idx.list_codes[c][:, :-1])


def test_int64_codes_in_range_are_stored_as_bytes():
    idx, c = _small_pq()
    got = _with_codes(idx, c, idx.list_codes[c].astype(np.int64))
    assert got.list_codes[c].dtype == np.uint8
    assert np.array_equal(got.list_codes[c], idx.list_codes[c])
    q = np.ones((1, 8), dtype=np.float32)
    assert np.array_equal(ivf_pq_search(got, q, 5)[0].dists, ivf_pq_search(idx, q, 5)[0].dists)
