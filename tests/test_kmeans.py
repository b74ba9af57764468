import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assign_labels_v040,
    lloyd_reference,
    mean_update_sequential,
    mean_update_v040,
)
from vse import Codebook, DataError, assign, kmeans, kmeans_train, squared_l2_batch


def test_single_centroid_is_mean():
    x = np.float32([[0.0, 0.0], [2.0, 0.0]])
    cb = kmeans_train(x, 1, seed=0)
    assert cb.centroids.tolist() == [[1.0, 0.0]]
    assert cb.inertia == 2.0


def test_two_points_two_clusters_zero_inertia():
    x = np.float32([[0.0, 0.0], [10.0, 10.0]])
    cb = kmeans_train(x, 2, seed=0)
    assert cb.inertia == 0.0
    got = sorted(cb.centroids.tolist())
    assert got == [[0.0, 0.0], [10.0, 10.0]]


def test_gaussian_instance_matches_reference_exactly():
    rng = np.random.default_rng(42)
    centers = rng.standard_normal((4, 8)) * 10
    x = np.vstack(
        [centers[i] + 0.3 * rng.standard_normal((100, 8)) for i in range(4)]
    ).astype(np.float32)
    cb = kmeans_train(x, 4, seed=123)
    ref_cents, _, ref_inertia = lloyd_reference(x, 4, seed=123)
    assert cb.inertia == ref_inertia
    assert np.array_equal(cb.centroids, ref_cents)


def test_duplicate_heavy_instance_matches_reference():
    # few distinct values force empty clusters, exercising the repair path
    rng = np.random.default_rng(9)
    base = rng.standard_normal((3, 5)).astype(np.float32)
    x = base[rng.integers(0, 3, 120)]
    cb = kmeans_train(x, 6, seed=77)
    ref_cents, ref_labels, ref_inertia = lloyd_reference(x, 6, seed=77)
    assert cb.inertia == ref_inertia
    assert np.array_equal(cb.centroids, ref_cents)
    assert np.bincount(ref_labels, minlength=6).min() >= 1


def test_inertia_non_increasing_in_iterations():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((400, 12)).astype(np.float32)
    prev = None
    for iters in range(9):
        cb = kmeans_train(x, 7, seed=3, max_iters=iters)
        if prev is not None:
            assert cb.inertia <= prev
        prev = cb.inertia


def test_assign_exact_centroid_match():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((200, 10)).astype(np.float32)
    cb = kmeans_train(x, 5, seed=1)
    got = assign(cb.centroids[3], cb)
    assert got.labels.tolist() == [3]


def test_assign_tie_takes_lower_label():
    cb = Codebook(
        k=2, dim=2, centroids=np.float32([[-1.0, 0.0], [1.0, 0.0]]), inertia=0.0
    )
    got = assign(np.float32([0.0, 0.0]), cb)
    assert got.labels.tolist() == [0]


def test_assign_matches_brute_force():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1000, 16)).astype(np.float32)
    cb = kmeans_train(x, 9, seed=2)
    got = assign(x, cb)
    d = np.empty((1000, 9))
    for j in range(9):
        diff = x.astype(np.float64) - cb.centroids[j].astype(np.float64)
        d[:, j] = (diff * diff).sum(axis=1)
    assert np.array_equal(got.labels, np.argmin(d, axis=1))
    assert got.counts.sum() == 1000


def test_codebook_refuses_a_value_past_the_f32_range():
    cents = np.zeros((2, 3))
    cents[1, 2] = 1e300
    with pytest.raises(DataError, match="^codebook row 1 holds a value outside the f32 range$"):
        Codebook(k=2, dim=3, centroids=cents, inertia=0.0)


def test_k_out_of_range_rejected():
    x = np.ones((3, 2), dtype=np.float32)
    with pytest.raises(DataError):
        kmeans_train(x, 4, seed=0)
    with pytest.raises(DataError):
        kmeans_train(x, 0, seed=0)


def test_final_assignment_has_no_empty_cluster():
    rng = np.random.default_rng(10)
    base = rng.standard_normal((4, 6)).astype(np.float32)
    x = base[rng.integers(0, 4, 300)]
    cb = kmeans_train(x, 4, seed=11)
    got = assign(x, cb)
    assert got.counts.min() >= 1


def _data(family, n, d, rng):
    """n x d f32 rows of one hard family."""
    if family == "magnitudes":
        # each entry its own magnitude, 1e-30 .. 1e30
        return (rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-30, 30, (n, d))).astype(
            np.float32
        )
    if family == "cancelling":
        # small rows plus rows of +-1e30 whose sums cancel inside a cluster
        x = rng.standard_normal((n, d))
        big = rng.random(n) < 0.3
        x[big] = rng.choice([-1e30, 1e30], (int(big.sum()), d))
        return x.astype(np.float32)
    if family == "duplicates":
        # three distinct rows: init draws equal centroids, so clusters empty
        return rng.standard_normal((3, d)).astype(np.float32)[rng.integers(0, 3, n)]
    return (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-30, 30)).astype(np.float32)


_FAMILIES = ["scaled", "magnitudes", "cancelling", "duplicates"]
_SIZES = ["block-1", "block", "block+1", "below"]


def _rows(size, k):
    """n relative to one assignment block at k centroids: ragged by one
    either way, or below one block."""
    rows = next(kmeans._row_blocks(1 << 20, k))[1]
    return {"block-1": rows - 1, "block": rows, "block+1": rows + 1, "below": rows // 2 + 1}[size]


@settings(max_examples=60, deadline=None, database=None)
@given(
    family=st.sampled_from(_FAMILIES),
    size=st.sampled_from(_SIZES),
    d=st.sampled_from([2, 8, 33, 128]),
    k=st.sampled_from([1, 2, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_assign_and_mean_update_match_v040(family, size, d, k, seed):
    rng = np.random.default_rng(seed)
    n = _rows(size, k)
    x = _data(family, n, d, rng)
    centroids = np.vstack([x[rng.integers(0, n, k // 2)], _data(family, k - k // 2, d, rng)])
    assert np.array_equal(kmeans._assign_labels(x, centroids), assign_labels_v040(x, centroids))
    kk = min(k, n)
    labels = np.concatenate([np.arange(kk), rng.integers(0, kk, n - kk)])
    got = kmeans._mean_update(x, labels, kk)
    assert got.tobytes() == mean_update_v040(x, labels, kk).tobytes()


@settings(max_examples=25, deadline=None, database=None)
@given(
    family=st.sampled_from(_FAMILIES),
    size=st.sampled_from(_SIZES),
    d=st.sampled_from([2, 8, 33, 128]),
    k=st.sampled_from([1, 2, 256]),
    max_iters=st.sampled_from([0, 1, 3, 25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_train_matches_v040(family, size, d, k, max_iters, seed):
    n = max(_rows(size, k), k)
    x = _data(family, n, d, np.random.default_rng(seed))
    got = kmeans_train(x, k, max_iters=max_iters, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmeans, "_assign_labels", assign_labels_v040)
        mp.setattr(kmeans, "_mean_update", mean_update_v040)
        want = kmeans_train(x, k, max_iters=max_iters, seed=seed)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.inertia == want.inertia
    assert np.array_equal(assign(x, got).labels, assign_labels_v040(x, want.centroids))


def _mirrored(n, k, d, rng):
    """Rows whose halves are equal, and centroid pairs with halves swapped.

    Each row is then exactly as far from both centroids of a pair, and the
    order in which its dot products are summed decides the label.
    """
    h = d // 2
    xh = rng.standard_normal((n, h)).astype(np.float32)
    c = rng.standard_normal((k // 2, d)).astype(np.float32)
    return np.hstack([xh, xh]), np.vstack([c, np.hstack([c[:, h:], c[:, :h]])])


@pytest.mark.parametrize(
    "d,k,n",
    [
        (34, 256, 260),  # 4 rows past one block
        (128, 64, 1042),  # 18 rows past one block
        (128, 100, 524),  # k not a power of two
        (128, 6, 8232),
        (128, 1000, 65),
        (128, 2, 16385),  # one row past the 16,384-row run
        (64, 64, 17409),  # a run of one block and one row
    ],
)
def test_rounding_ties_follow_v040_after_short_blocks(d, k, n):
    for seed in range(3):
        x, c = _mirrored(n, k, d, np.random.default_rng(seed))
        assert np.array_equal(kmeans._assign_labels(x, c), assign_labels_v040(x, c))


@pytest.mark.parametrize("d", [1, 2, 3, 33])
def test_mean_update_sums_in_ascending_row_order(d):
    # d = 1 included: vse 0.4.0 summed a one-column cluster pairwise
    rng = np.random.default_rng(d)
    # a column whose sum depends on the order of the adds
    cancelling = np.tile(np.float32([1e30, 1.0, -1e30, 1.0]), 75)
    cases = [_data(family, 300, d, rng) for family in _FAMILIES]
    for x in cases + [np.repeat(cancelling[:, None], d, axis=1)]:
        labels = np.concatenate([np.arange(4), rng.integers(0, 4, 296)])
        got = kmeans._mean_update(x, labels, 4)
        assert got.tobytes() == mean_update_sequential(x, labels, 4).tobytes()


def test_expansion_can_pick_the_farther_of_two_close_centroids():
    # Known limit: the f64 expansion loses about |x|^2 * 2^-52, more than
    # the gap here, so assignment keeps label 1 though centroid 0 is nearer.
    x = np.float32([[-142174.125, 1119.1778564453125]])
    c = np.float32([[-142174.140625, 1119.1715087890625], [-142174.140625, 1119.17138671875]])
    cb = Codebook(k=2, dim=2, centroids=c, inertia=0.0)
    assert squared_l2_batch(c, x[0]).argmin() == 0
    assert assign(x, cb).labels.tolist() == [1]


@settings(max_examples=40, deadline=None, database=None)
@given(
    family=st.sampled_from(_FAMILIES),
    problems=st.integers(1, 6),
    d=st.sampled_from([1, 3, 16]),
    k=st.sampled_from([1, 2, 3, 5]),
    extra=st.integers(0, 25),
    max_iters=st.sampled_from([0, 1, 3, 25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_problems_get_the_bits_they_get_alone(
    family, problems, d, k, extra, max_iters, seed
):
    # problems of one stack converge at different iterations and some
    # need the empty-cluster repair; each must match its own lone run
    rng = np.random.default_rng(seed)
    x = np.stack([_data(family, k + extra, d, rng) for _ in range(problems)])
    centroids, labels = kmeans.kmeans_stack(x, k, max_iters=max_iters, seed=seed)
    for f in range(problems):
        alone = kmeans_train(x[f], k, max_iters=max_iters, seed=seed)
        assert centroids[f].tobytes() == alone.centroids.tobytes()
        assert np.array_equal(labels[f], assign(x[f], alone).labels)
