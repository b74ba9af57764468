import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_search
from vse import (
    DataError,
    EmbeddingSet,
    flat_build,
    flat_search,
    read_embeddings,
    write_embeddings,
)


def random_set(n, d, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)).astype(np.float32)
    return EmbeddingSet(
        vectors=rows, labels=[f"r{i}" for i in range(n)], normalized=False
    )


def test_single_vector_index():
    es = random_set(1, 8)
    idx = flat_build(es)
    assert idx.base.count == 1
    r = flat_search(idx, es.vectors[0], k=1)[0]
    assert r.ids.tolist() == [0]
    assert r.dists.tolist() == [0.0]
    assert r.approximate is False


def test_build_preserves_size_and_dim():
    es = random_set(3000, 16)
    idx = flat_build(es)
    assert idx.base.count == 3000
    assert idx.base.dim == 16


def test_rebuild_from_file_gives_identical_results(tmp_path):
    es = random_set(500, 12, seed=4)
    path = str(tmp_path / "base.fvb")
    write_embeddings(es, path)
    q = es.vectors[:20]
    a = flat_search(flat_build(es), q, k=7)
    b = flat_search(flat_build(read_embeddings(path)), q, k=7)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.dists, rb.dists)


def test_query_equal_to_base_row_is_rank_one():
    es = random_set(300, 32, seed=1)
    idx = flat_build(es)
    r = flat_search(idx, es.vectors[7], k=3)[0]
    assert r.ids[0] == 7
    assert r.dists[0] == 0.0


def test_k_equals_n_is_full_permutation():
    es = random_set(120, 6, seed=2)
    idx = flat_build(es)
    r = flat_search(idx, es.vectors[0], k=120)[0]
    assert sorted(r.ids.tolist()) == list(range(120))
    assert np.all(np.diff(r.dists) >= 0)


def test_matches_brute_force_oracle():
    es = random_set(100, 16, seed=3)
    rng = np.random.default_rng(33)
    queries = rng.standard_normal((10, 16)).astype(np.float32)
    idx = flat_build(es)
    got = flat_search(idx, queries, k=5)
    want = brute_force_search(es.vectors, queries, 5)
    for r, (ids, dists) in zip(got, want):
        assert np.array_equal(r.ids, ids)
        assert np.array_equal(r.dists, dists)


def test_duplicate_rows_tie_on_id():
    rows = np.ones((6, 4), dtype=np.float32)
    rows[4] = 2.0
    es = EmbeddingSet(
        vectors=rows, labels=[str(i) for i in range(6)], normalized=False
    )
    r = flat_search(flat_build(es), np.ones(4, dtype=np.float32), k=5)[0]
    assert r.ids.tolist() == [0, 1, 2, 3, 5]


def test_k_out_of_range_rejected():
    es = random_set(10, 4)
    idx = flat_build(es)
    with pytest.raises(DataError):
        flat_search(idx, es.vectors[0], k=0)
    with pytest.raises(DataError):
        flat_search(idx, es.vectors[0], k=11)


def test_query_dim_mismatch_rejected():
    es = random_set(10, 4)
    idx = flat_build(es)
    with pytest.raises(DataError):
        flat_search(idx, np.ones(5, dtype=np.float32), k=1)


def _case(family, n, d, seed):
    """Base rows and queries that stress the f32 ranking of flat_search."""
    rng = np.random.default_rng(seed)
    if family == "small_ints":
        # Exact ties and duplicate rows.
        base = rng.integers(-2, 3, (n, d)).astype(np.float32)
        base[rng.integers(0, n, n // 3)] = base[rng.integers(0, n, n // 3)]
        queries = rng.integers(-2, 3, (3, d)).astype(np.float32)
    elif family == "magnitudes":
        # Rows from 1e-30 to 1e30: the f32 dot products underflow and overflow.
        base = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-30, 30, (n, 1))
        queries = rng.standard_normal((3, d)) * 10.0 ** rng.uniform(-30, 30, (3, 1))
    else:
        # Near-ties at the k-th boundary: rows a hair apart, far from the
        # origin, so the f32 estimate cannot tell them apart.
        center = rng.standard_normal(d) * 1e3
        base = center + rng.standard_normal((n, d)) * 1e-2
        base[rng.integers(0, n, n // 2)] += rng.standard_normal((n // 2, d)) * 1e-4
        queries = center + rng.standard_normal((3, d)) * 1e-2
    base = base.astype(np.float32)
    queries = np.concatenate([queries.astype(np.float32), base[:1]])
    return base, queries


@settings(max_examples=150, deadline=None, database=None)
@given(
    family=st.sampled_from(["small_ints", "magnitudes", "near_ties"]),
    n=st.integers(10, 40),
    d=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_oracle_bitwise_on_hard_inputs(family, n, d, seed):
    base, queries = _case(family, n, d, seed)
    es = EmbeddingSet(vectors=base, labels=[f"r{i}" for i in range(n)], normalized=False)
    idx = flat_build(es)
    for k in (1, 10, n):
        got = flat_search(idx, queries, k=k)
        want = brute_force_search(base, queries, k)
        for r, (ids, dists) in zip(got, want):
            assert r.approximate is False
            assert np.array_equal(r.ids, ids)
            assert np.array_equal(r.dists, dists)
