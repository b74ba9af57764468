"""The f32 screen in front of k-means assignment gives the f64 rule's labels.

`kmeans._screen` ranks rows by one f32 GEMM and leaves a row undecided
unless a proven bound shows that the f64 rule picks the same centroid.
These tests build rows whose nearest centroids differ by more than the f64
rule's rounding but less than the f32 ranking's, so a bound that is too
small shows up as a label that differs from the rule's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assign_labels_v040, mean_update_v040
from test_kmeans import _mirrored
from vse import assign, kmeans, kmeans_train, normalize_rows, synthetic_gallery
from vse.core import _BLOCK_ROWS


def _near_ties(shape, k, d, offset, family, rng):
    """f32 rows of `shape` (n, or (F, n)) with d columns and k centroids per
    problem, all about `offset` from the origin.

    "cluster": rows and centroids scattered around one point at distances
    from offset * 2^-3 down to offset * 2^-30, so many rows have two
    centroids closer than the f32 ranking can tell apart.
    "far": rows at `offset`, centroids near offset * 2^-40 that differ by
    about 2^-13 of their norm, so the f64 rule's adds of |x|^2 round away
    gaps the f32 ranking sees clearly.
    """
    def unit(*s):
        v = rng.standard_normal(s + (d,))
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    lead = shape[:-1]
    if family == "cluster":
        center = offset * unit(*lead)[..., None, :]

        def scatter(count):
            scale = offset * 2.0 ** -rng.uniform(3, 30, lead + (count, 1))
            return center + scale * rng.standard_normal(lead + (count, d))

        x, c = scatter(shape[-1]), scatter(k)
    else:
        x = offset * unit(*shape) * rng.uniform(0.5, 2.0, shape + (1,))
        base = offset * 2.0**-40 * unit(*lead)[..., None, :]
        c = base * (1 + 2.0**-13 * rng.uniform(-4, 4, lead + (k, d)))
    with np.errstate(over="ignore"):
        return x.astype(np.float32), c.astype(np.float32)


# Offsets from 1e-24, where the f32 products of rows and centroids are
# subnormal or zero, to 1e15, and past the overflow guard, where the rule
# ranks every row.
_OFFSETS = st.one_of(st.floats(-24, 15), st.floats(19.5, 30)).map(lambda e: 10.0**e)


@settings(max_examples=80, deadline=None, database=None)
@given(
    family=st.sampled_from(["cluster", "far"]),
    offset=_OFFSETS,
    d=st.sampled_from([1, 2, 8, 128]),
    k=st.sampled_from([3, 64, 256]),
    n=st.sampled_from([1, 5, 300, _BLOCK_ROWS + 37]),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_labels_are_the_rules(family, offset, d, k, n, seed):
    x, c = _near_ties((n,), k, d, offset, family, np.random.default_rng(seed))
    want = assign_labels_v040(x, c)
    assert np.array_equal(kmeans._assign_labels(x, c), want)
    # Rows the screen decides keep its label even inside a block the rule
    # ranks again, so check them on their own.
    screened = kmeans._screen(x, c, kmeans._row_dots(c.astype(np.float64)))
    if screened is not None:
        labels, undecided = screened
        assert np.array_equal(labels[~undecided], want[~undecided])


@pytest.mark.parametrize("family", ["cluster", "far"])
@pytest.mark.parametrize("d,k", [(1, 3), (2, 64), (8, 256), (128, 64)])
def test_screen_is_sound_on_seeded_near_ties(family, d, k):
    # The same property on fixed seeds, so a run without hypothesis's
    # random draws still meets both families at every width.
    for seed, exponent in enumerate([-22, -20, -7, 0, 4, 15]):
        x, c = _near_ties((600,), k, d, 10.0**exponent, family, np.random.default_rng(seed))
        want = assign_labels_v040(x, c)
        labels, undecided = kmeans._screen(x, c, kmeans._row_dots(c.astype(np.float64)))
        assert np.array_equal(labels[~undecided], want[~undecided])
        assert np.array_equal(kmeans._assign_labels(x, c), want)


@pytest.mark.parametrize("d", [1, 8])
def test_rows_with_subnormal_products_go_to_the_rule(d):
    # At 1e-22 each f32 product of a row and a centroid is a subnormal, so
    # the f32 scores hold little but rounding; only the underflow term
    # keeps the screen from deciding on them.
    x, c = _near_ties((2000,), 64, d, 1e-22, "cluster", np.random.default_rng(d))
    want = assign_labels_v040(x, c)
    labels, undecided = kmeans._screen(x, c, kmeans._row_dots(c.astype(np.float64)))
    assert np.array_equal(labels[~undecided], want[~undecided])
    assert undecided.all()
    assert np.array_equal(kmeans._assign_labels(x, c), want)
    # Subnormal rows: every f32 product is zero.
    tiny = (x * np.float32(1e-19)).astype(np.float32)
    assert np.array_equal(kmeans._assign_labels(tiny, c), assign_labels_v040(tiny, c))


def test_screen_stands_aside_past_the_overflow_guard_and_at_two_centroids():
    rng = np.random.default_rng(4)
    x = (rng.standard_normal((50, 4)) * 1e19).astype(np.float32)
    c = x[:5].copy()
    assert kmeans._screen(x, c, kmeans._row_dots(c.astype(np.float64))) is None
    assert np.array_equal(kmeans._assign_labels(x, c), assign_labels_v040(x, c))
    small = x * np.float32(1e-19)
    assert kmeans._screen(small, c[:2], kmeans._row_dots(c[:2].astype(np.float64))) is None


@settings(max_examples=20, deadline=None, database=None)
@given(
    family=st.sampled_from(["cluster", "far"]),
    offset=_OFFSETS,
    d=st.sampled_from([1, 2, 8, 128]),
    k=st.sampled_from([3, 64, 256]),
    max_iters=st.sampled_from([1, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_train_and_stack_match_the_rule(family, offset, d, k, max_iters, seed):
    x, c = _near_ties((3, 300), k, d, offset, family, np.random.default_rng(seed))
    # Centroid rows among the data give the init draw near ties to keep.
    x[:, : k // 2] = c[:, : k // 2]
    want = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmeans, "_assign_labels", assign_labels_v040)
        mp.setattr(kmeans, "_mean_update", mean_update_v040)
        for f in range(3):
            want.append(kmeans_train(x[f], k, max_iters=max_iters, seed=seed))
    got = kmeans_train(x[0], k, max_iters=max_iters, seed=seed)
    assert got.centroids.tobytes() == want[0].centroids.tobytes()
    assert got.inertia == want[0].inertia
    centroids, labels = kmeans.kmeans_stack(x, k, max_iters=max_iters, seed=seed)
    for f in range(3):
        assert centroids[f].tobytes() == want[f].centroids.tobytes()
        assert np.array_equal(labels[f], assign_labels_v040(x[f], want[f].centroids))


def _count_rule_blocks(mp):
    """Patch the rule so each call records its block's (problems, rows)."""
    calls = []
    rule = kmeans._rule_block

    def counted(x, ct, csq):
        calls.append(x.shape[:-1])
        return rule(x, ct, csq)

    mp.setattr(kmeans, "_rule_block", counted)
    return calls


def test_mirrored_ties_always_reach_the_rule(monkeypatch):
    # Every row is exactly as far from two centroids, so no bound can
    # decide it, and each block goes to the rule.
    x, c = _mirrored(1042, 64, 128, np.random.default_rng(0))
    calls = _count_rule_blocks(monkeypatch)
    assert np.array_equal(kmeans._assign_labels(x, c), assign_labels_v040(x, c))
    assert len(calls) == len(list(kmeans._row_blocks(1042, 64)))
    stack = np.stack([x, x[::-1].copy()])
    calls.clear()
    kmeans._assign_labels(stack, np.stack([c, c]))
    assert calls == [(2, stop - start) for start, stop in kmeans._row_blocks(1042, 64)]


def test_most_blocks_of_a_served_gallery_are_decided_by_the_screen(monkeypatch):
    es = synthetic_gallery(2000, 10, 128, 0.05, seed=0)
    x = normalize_rows(es.vectors)
    cb = kmeans_train(x, 256, max_iters=5, seed=0)
    calls = _count_rule_blocks(monkeypatch)
    got = assign(x, cb).labels
    blocks = len(list(kmeans._row_blocks(x.shape[0], 256)))
    assert len(calls) < blocks // 2
    assert np.array_equal(got, assign_labels_v040(x, cb.centroids))


def test_a_stack_ranks_only_its_problems_with_an_undecided_row(monkeypatch):
    rng = np.random.default_rng(5)
    clear = rng.standard_normal((300, 16)).astype(np.float32)
    tied, tied_c = _mirrored(300, 8, 16, rng)
    x = np.stack([clear, tied, clear])
    c = np.stack([clear[:8], tied_c, clear[8:16]])
    calls = _count_rule_blocks(monkeypatch)
    got = kmeans._assign_labels(x, c)
    # A stack is not screened: every block reaches the rule with all 3 problems.
    assert calls == [(3, stop - start) for start, stop in kmeans._row_blocks(300, 8)]
    for f in range(3):
        assert np.array_equal(got[f], assign_labels_v040(x[f], c[f]))
