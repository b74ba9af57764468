import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vse import (
    DataError,
    EmbeddingSet,
    IvfFlatIndex,
    assign,
    clean_gallery,
    flat_build,
    flat_search,
    kmeans_train,
    l2_normalize,
    normalize_rows,
    squared_l2,
    squared_l2_batch,
    top_k_smallest,
)
from vse import core, kmeans


def test_squared_l2_identity():
    a = np.float32([1.0, 2.0])
    assert squared_l2(a, a) == 0.0


def test_squared_l2_three_four_five():
    assert squared_l2(np.float32([0.0, 0.0]), np.float32([3.0, 4.0])) == 25.0


def test_squared_l2_matches_scalar_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(512).astype(np.float32)
    b = rng.standard_normal(512).astype(np.float32)
    want = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))
    got = squared_l2(a, b)
    assert abs(got - want) <= 1e-4 * abs(want)


def test_squared_l2_rejects_dim_mismatch():
    with pytest.raises(DataError):
        squared_l2(np.float32([1.0, 2.0]), np.float32([1.0, 2.0, 3.0]))


def test_squared_l2_rejects_non_finite():
    with pytest.raises(DataError):
        squared_l2(np.float32([np.nan, 0.0]), np.float32([0.0, 0.0]))


def test_squared_l2_batch_matches_single():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((300, 24)).astype(np.float32)
    q = rng.standard_normal(24).astype(np.float32)
    batch = squared_l2_batch(base, q)
    singles = np.array([squared_l2(row, q) for row in base])
    assert np.array_equal(batch, singles)


def test_l2_normalize_three_four():
    got = l2_normalize(np.float32([3.0, 4.0]))
    assert np.allclose(got, [0.6, 0.8], atol=1e-7)
    assert got.dtype == np.float32


def test_l2_normalize_unit_vector_is_fixed_point():
    v = np.zeros(8, dtype=np.float32)
    v[3] = 1.0
    assert np.max(np.abs(l2_normalize(v) - v)) <= 1e-6


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(512).astype(np.float32)
    once = l2_normalize(v)
    assert np.max(np.abs(l2_normalize(once) - once)) <= 1e-6


def test_l2_normalize_rejects_zero_vector():
    with pytest.raises(DataError):
        l2_normalize(np.zeros(4, dtype=np.float32))


def test_normalize_rows_names_offending_row():
    rows = np.ones((3, 4), dtype=np.float32)
    rows[1] = 0.0
    with pytest.raises(DataError, match="row 1"):
        normalize_rows(rows)


def test_normalize_rows_unit_output():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((50, 16)).astype(np.float32)
    out = normalize_rows(rows)
    assert np.allclose((out.astype(np.float64) ** 2).sum(axis=1), 1.0, atol=1e-5)


def test_embedding_set_label_count_mismatch():
    with pytest.raises(DataError):
        EmbeddingSet(
            vectors=np.ones((2, 3), dtype=np.float32),
            labels=["a"],
            normalized=False,
        )


def test_embedding_set_normalized_flag_checked():
    with pytest.raises(DataError):
        EmbeddingSet(
            vectors=np.float32([[3.0, 4.0]]), labels=["a"], normalized=True
        )
    # a true unit row passes
    EmbeddingSet(vectors=np.float32([[0.6, 0.8]]), labels=["a"], normalized=True)


def test_embedding_set_rejects_non_finite():
    with pytest.raises(DataError):
        EmbeddingSet(
            vectors=np.float32([[np.inf, 0.0]]), labels=["a"], normalized=False
        )


def test_embedding_set_copies_and_locks():
    src = np.ones((2, 2), dtype=np.float32)
    es = EmbeddingSet(vectors=src, labels=["a", "b"], normalized=False)
    src[0, 0] = 9.0
    assert es.vectors[0, 0] == 1.0
    with pytest.raises(ValueError):
        es.vectors[0, 0] = 5.0


def test_top_k_smallest_orders_by_dist_then_id():
    dists = np.float64([3.0, 1.0, 3.0, 0.5, 1.0])
    ids = np.arange(5, dtype=np.int64)
    got_ids, got_dists = top_k_smallest(dists, ids, 4)
    assert got_ids.tolist() == [3, 1, 4, 0]
    assert got_dists.tolist() == [0.5, 1.0, 1.0, 3.0]


def test_top_k_smallest_boundary_tie_takes_lowest_ids():
    # four entries tie at the cut distance; only two slots remain
    dists = np.float64([2.0, 2.0, 1.0, 2.0, 2.0, 0.0])
    ids = np.int64([10, 4, 7, 2, 9, 1])
    got_ids, got_dists = top_k_smallest(dists, ids, 4)
    assert got_ids.tolist() == [1, 7, 2, 4]
    assert got_dists.tolist() == [0.0, 1.0, 2.0, 2.0]


def test_top_k_smallest_k_equals_n_is_full_sort():
    rng = np.random.default_rng(4)
    dists = rng.random(40)
    dists[5] = dists[11]
    ids = np.arange(40, dtype=np.int64)
    # k > n, as for an IVF query whose probed lists hold fewer than k rows,
    # and no candidates at all also return every candidate in order.
    for n, k in ((40, 40), (12, 20), (0, 3)):
        got_ids, got_dists = top_k_smallest(dists[:n], ids[:n], k)
        order = np.lexsort((ids[:n], dists[:n]))
        assert got_ids.dtype == np.int64 and np.array_equal(got_ids, ids[:n][order])
        assert got_dists.dtype == np.float64 and np.array_equal(got_dists, dists[:n][order])


# The one squared-L2 kernel, held bit for bit to the copies of vse 0.4.1
# that each caller used to hold.


@st.composite
def kernel_cases(draw):
    """Rows x (n, d) and one query q at magnitudes from 1e-30 to 1e30, with a
    row block that puts n on either side of a block edge."""
    d = draw(st.sampled_from([1, 7, 8, 9, 128]))
    block = draw(st.sampled_from([1, 2, 3, 5, 16384]))
    n = draw(st.integers(1, 12)) if block > 5 else block * draw(st.integers(1, 3))
    n = max(1, n + draw(st.integers(-1, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n + 1, d)
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(-30, 30))
    else:
        scale = 10.0 ** rng.integers(-30, 31, shape)
    rows = (rng.standard_normal(shape) * scale).astype(np.float32)
    return rows[:n], rows[n], block


@settings(max_examples=200, deadline=None, database=None)
@given(case=kernel_cases(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_every_kernel_caller_gives_the_v041_bits(case, k, seed):
    x, q, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ROWS", block)
        assert squared_l2(x[0], q) == oracles.squared_l2_v041(x[0], q)
        assert squared_l2_batch(x, q).tobytes() == oracles.squared_l2_batch_v041(x, q).tobytes()
        norms = oracles.row_squared_norms_v041(x)
        assert core._row_squared_norms(x).tobytes() == norms.tobytes()
        base = EmbeddingSet(vectors=x, labels=["a"] * x.shape[0])
        assert flat_build(base).norms.tobytes() == norms.tobytes()
        norm = oracles.l2_norm_v041(x[0])
        if norm > 1e-12:
            want = (x[0].astype(np.float64) / norm).astype(np.float32)
            assert l2_normalize(x[0]).tobytes() == want.tobytes()
        if np.all(norms > 1e-24):
            want = (x.astype(np.float64) / np.sqrt(norms)[:, None]).astype(np.float32)
            assert normalize_rows(x).tobytes() == want.tobytes()
        if k <= x.shape[0]:
            centroids, labels = kmeans._lloyd(x, k, 25, seed)
            want = oracles.inertia_v041(x, centroids, labels)
            assert kmeans_train(x, k, seed=seed).inertia == want


@settings(max_examples=100, deadline=None, database=None)
@given(
    folders=st.integers(1, 7),
    n=st.integers(1, 6),
    d=st.sampled_from([1, 7, 8, 9, 128]),
    exp=st.integers(-30, 30),
    block=st.sampled_from([1, 2, 3, 16384]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_rows_against_per_folder_centers_give_the_v041_bits(
    folders, n, d, exp, block, seed
):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((folders, n, d)) * 10.0**exp).astype(np.float32)
    centers = (rng.standard_normal((folders, 1, d)) * 10.0**exp).astype(np.float32)
    want = oracles.squared_distances_v041(x, centers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ROWS", block)
        got = core._squared_l2_rows(x, centers, np.arange(folders))
        assert got.tobytes() == want.tobytes()
        # clean_gallery's two stacked calls, over blocks of folders
        labels = [f"f{f}" for f in range(folders) for _ in range(n)]
        src = EmbeddingSet(vectors=x.reshape(-1, d), labels=labels)
        _, reports = clean_gallery(src, seed=seed)
    for f, rep in enumerate(reports):
        kept, removed, center, avg, threshold = oracles.clean_identity_v041(x[f], seed)
        assert np.array_equal(rep.kept, kept) and np.array_equal(rep.removed, removed)
        assert rep.main_center.tobytes() == center.tobytes()
        assert (rep.avg_dist, rep.threshold) == (avg, threshold)


def test_row_check_names_the_first_bad_row():
    x = np.ones((5, 3), dtype=np.float32)
    x[2, 1] = np.nan
    x[4, 0] = np.inf
    codebook = kmeans_train(np.eye(3, dtype=np.float32), 3)
    index = flat_build(EmbeddingSet(vectors=np.eye(3, dtype=np.float32), labels=list("abc")))
    for call in (
        lambda: kmeans_train(x, 2),
        lambda: assign(x, codebook),
        lambda: flat_search(index, x, 1),
    ):
        with pytest.raises(DataError, match="^row 2 contains NaN or infinity$") as err:
            call()
        assert err.value.row == 2


def test_row_check_reads_a_vector_as_one_row_and_refuses_other_shapes():
    index = flat_build(EmbeddingSet(vectors=np.eye(3, dtype=np.float32), labels=list("abc")))
    assert flat_search(index, np.float32([1, 0, 0]), 1)[0].ids.tolist() == [0]
    assert assign(np.float32([0, 0, 1]), kmeans_train(np.eye(3), 3)).labels.shape == (1,)
    with pytest.raises(DataError, match="2-d batch"):
        flat_search(index, np.zeros((1, 1, 3), dtype=np.float32), 1)
    with pytest.raises(DataError, match="nonempty"):
        kmeans_train(np.zeros((0, 3), dtype=np.float32), 1)
    with pytest.raises(DataError, match="does not match index dim"):
        flat_search(index, np.zeros((2, 4), dtype=np.float32), 1)


# A value finite in f64 but past the f32 range rounds to infinity in the
# cast. Each entry point that casts reports it as DataError, without
# numpy's overflow warning (an error under this suite's warning filter).


def test_embedding_set_names_the_row_past_the_f32_range():
    with pytest.raises(DataError, match="^row 1 holds a value outside the f32 range$") as err:
        EmbeddingSet(vectors=np.array([[1.0], [1e300]]), labels=["a", "b"])
    assert err.value.row == 1


def test_row_check_names_the_row_past_the_f32_range():
    with pytest.raises(DataError, match="^row 1 holds a value outside the f32 range$") as err:
        kmeans_train(np.array([[1.0], [-1e39]]), 1)
    assert err.value.row == 1


def test_posting_list_past_the_f32_range_is_refused():
    coarse = kmeans_train(np.eye(2, dtype=np.float32), 2)
    with pytest.raises(DataError, match="posting list 1 holds .* outside the f32 range"):
        IvfFlatIndex(
            coarse=coarse,
            list_ids=(np.array([0]), np.array([1])),
            list_vectors=(np.zeros((1, 2)), np.array([[0.0, 4e38]])),
            labels=["a", "b"],
            normalized=False,
        )


def test_vector_past_the_f32_range_is_refused():
    for call in (
        lambda: squared_l2(np.array([1e300]), np.array([1.0])),
        lambda: squared_l2_batch(np.ones((2, 1), dtype=np.float32), np.array([1e300])),
        lambda: l2_normalize(np.array([1e300, 1.0])),
    ):
        with pytest.raises(DataError, match="holds a value outside the f32 range$"):
            call()
