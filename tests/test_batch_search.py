"""Batched searches against the one-query-at-a-time loops of vse 0.5.0.

Each search scans a batch in query blocks, and each IVF list once for every
query of a block that probes it. Whatever the batch size and block cap,
every result must carry the bits the per-query loop gave.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    flat_search_v050,
    ivf_flat_search_v050,
    ivf_pq_search_v041,
    probe_order_v050,
)
from vse import (
    Codebook,
    DataError,
    EmbeddingSet,
    IvfFlatIndex,
    IvfPqIndex,
    PqParams,
    default_nprobe,
    flat_build,
    flat_search,
    ivf_flat_search,
    ivf_pq_search,
)
from vse import flat
from vse.flat import exact_candidates
from vse.ivf_flat import probe_order

BATCHES = [1, 2, 17, 200]
# 1 << 21 is the shipped cap; the small ones split every scan into uneven blocks.
CAPS = [3, 40, 1 << 21]


def draw_rows(rng, family, shape):
    if family == "small_ints":
        # Exact ties between rows, lists and queries.
        return rng.integers(-2, 3, shape).astype(np.float32)
    if family == "huge":
        # |x|^2 near 1e38 per coordinate: the f32 products overflow.
        return (rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(18.5, 19.2, shape)).astype(
            np.float32
        )
    return rng.standard_normal(shape).astype(np.float32)


def draw_case(seed, family, count, dim, nlist, batch):
    """Rows with duplicates, an owner list per row (some lists left empty),
    coarse centroids with a duplicate, and queries that include stored rows."""
    rng = np.random.default_rng(seed)
    rows = draw_rows(rng, family, (count, dim))
    dup = rng.integers(0, count, count // 3)
    rows[dup] = rows[rng.integers(0, count, dup.size)]
    centroids = draw_rows(rng, family, (nlist, dim))
    if nlist > 1:
        centroids[-1] = centroids[0]
    used = rng.choice(nlist, size=int(rng.integers(1, nlist + 1)), replace=False)
    owner = rng.choice(used, size=count)
    queries = draw_rows(rng, family, (batch, dim))
    queries[: batch // 2] = rows[rng.integers(0, count, batch // 2)]
    return rows, owner, centroids, queries


def ivf_flat_index(rows, owner, centroids):
    nlist = centroids.shape[0]
    list_ids = tuple(np.flatnonzero(owner == c) for c in range(nlist))
    return IvfFlatIndex(
        coarse=Codebook(k=nlist, dim=rows.shape[1], centroids=centroids, inertia=0.0),
        list_ids=list_ids,
        list_vectors=tuple(rows[ids] for ids in list_ids),
        labels=[f"r{i}" for i in range(rows.shape[0])],
        normalized=False,
    )


def assert_same(got, want, approximate):
    assert len(got) == len(want)
    for res, (ids, dists) in zip(got, want):
        assert res.approximate is approximate
        assert res.ids.tolist() == ids.tolist()
        assert res.dists.tobytes() == dists.tobytes()


cases = dict(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["normal", "small_ints", "huge"]),
    count=st.integers(1, 60),
    dim=st.integers(1, 12),
    nlist=st.integers(1, 6),
    batch=st.sampled_from(BATCHES),
    cap=st.sampled_from(CAPS),
)


@settings(max_examples=60, deadline=None, database=None)
@given(**cases)
def test_flat_and_ivf_flat_match_the_per_query_loop(
    seed, family, count, dim, nlist, batch, cap
):
    rows, owner, centroids, queries = draw_case(seed, family, count, dim, min(nlist, count), batch)
    ivf = ivf_flat_index(rows, owner, centroids)
    base = flat_build(EmbeddingSet(vectors=rows, labels=ivf.labels))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flat, "_BLOCK_ELEMS", cap)
        for k in sorted({1, min(10, count), count}):
            got = flat_search(base, queries, k)
            assert_same(got, flat_search_v050(base, queries, k), approximate=False)
            # Probing every list gives flat's bits.
            assert_same(ivf_flat_search(ivf, queries, k, nprobe=ivf.nlist),
                        [(r.ids, r.dists) for r in got], approximate=False)
        # More than every list holds, and than the base holds.
        for k in (1, 10, count + 1):
            for nprobe in sorted({1, default_nprobe(ivf.nlist), ivf.nlist}):
                got = ivf_flat_search(ivf, queries, k, nprobe=nprobe)
                want = ivf_flat_search_v050(ivf, queries, k, nprobe)
                assert_same(got, want, approximate=nprobe < ivf.nlist)


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["normal", "small_ints", "huge"]),
    nlist=st.integers(1, 300),
    dim=st.integers(1, 12),
)
def test_probe_order_matches_the_canonical_ranking(seed, family, nlist, dim):
    _, _, centroids, queries = draw_case(seed, family, 1, dim, nlist, 8)
    coarse = Codebook(k=nlist, dim=dim, centroids=centroids, inertia=0.0)
    for q in queries:
        for nprobe in sorted({1, default_nprobe(nlist), min(8, nlist), nlist}):
            got = probe_order(coarse, q, nprobe)
            assert got.ndim == 1
            assert got.tolist() == probe_order_v050(coarse, q, nprobe).tolist()


def ivf_pq_index(rng, owner, nlist, m, subdim, small_k):
    count = owner.size
    ks = rng.integers(1, 9, m) if small_k else rng.choice([1, 7, 256], m)
    subs = tuple(
        Codebook(k=int(k), dim=subdim, centroids=rng.standard_normal((int(k), subdim)),
                 inertia=0.0)
        for k in ks
    )
    codes = rng.integers(0, ks, (count, m)).astype(np.uint8)
    codes[count // 2 :] = codes[: count - count // 2]  # rows that tie on their estimate
    list_ids = tuple(np.flatnonzero(owner == c) for c in range(nlist))
    return IvfPqIndex(
        coarse=Codebook(k=nlist, dim=m * subdim,
                        centroids=4 * rng.standard_normal((nlist, m * subdim)), inertia=0.0),
        params=PqParams(m=m),
        subs=subs,
        list_ids=list_ids,
        list_codes=tuple(codes[ids] for ids in list_ids),
        labels=[f"r{i}" for i in range(count)],
        normalized=False,
    )


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 60),
    nlist=st.integers(1, 6),
    m=st.sampled_from([1, 3, 9, 16]),
    subdim=st.sampled_from([1, 3, 8]),
    small_k=st.booleans(),
    batch=st.sampled_from(BATCHES),
    cap=st.sampled_from(CAPS),
)
def test_ivf_pq_matches_the_per_query_loop(
    seed, count, nlist, m, subdim, small_k, batch, cap
):
    rng = np.random.default_rng(seed)
    nlist = min(nlist, count)
    used = rng.choice(nlist, size=int(rng.integers(1, nlist + 1)), replace=False)
    idx = ivf_pq_index(rng, rng.choice(used, size=count), nlist, m, subdim, small_k)
    queries = (4 * rng.standard_normal((batch, m * subdim))).astype(np.float32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flat, "_BLOCK_ELEMS", cap)
        for k in (1, 10, count + 1):
            for nprobe in sorted({1, default_nprobe(nlist), nlist}):
                got = ivf_pq_search(idx, queries, k, nprobe=nprobe)
                assert_same(got, ivf_pq_search_v041(idx, queries, k, nprobe), approximate=True)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("threads", [1, 2])
def test_query_blocks_cover_the_batch_in_order(cap, threads):
    """threads=1 scans the batch in order, in blocks of at most
    block_queries(rows); any other count is refused before a block is scanned."""
    blocks = []

    def spy(vectors, terms, queries, qterms, k):
        blocks.append(queries)
        return exact_candidates(vectors, terms, queries, qterms, k)

    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flat, "_BLOCK_ELEMS", cap)
        mp.setattr(flat, "exact_candidates", spy)
        for rows in (1, 7, 5000):
            base = flat_build(EmbeddingSet(
                vectors=rng.standard_normal((rows, 2)), labels=["r"] * rows))
            for n in (0, 1, 2, 17, 200):
                queries = rng.standard_normal((n, 2)).astype(np.float32)
                blocks.clear()
                if threads != 1:
                    with pytest.raises(DataError, match=f"threads must be 1, got {threads}"):
                        flat_search(base, queries, 1, threads=threads)
                    assert blocks == []
                    continue
                assert len(flat_search(base, queries, 1, threads=threads)) == n
                assert all(0 < b.shape[0] <= flat.block_queries(rows) for b in blocks)
                got = np.concatenate(blocks) if blocks else np.empty((0, 2), np.float32)
                assert got.tobytes() == queries.tobytes()
