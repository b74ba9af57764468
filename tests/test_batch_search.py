"""Batched searches against the one-query-at-a-time loops of vse 0.5.0.

Each search scans a batch in query blocks, and each IVF list once for every
query of a block that probes it. Whatever the batch size and block cap,
every result must carry the bits the per-query loop gave.
"""

import re

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
from vse import flat, ivf_flat
from vse.flat import exact_candidates, select_rows
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


@pytest.mark.parametrize("kind", ["flat", "ivf_flat", "ivf_pq"])
def test_k_and_nprobe_must_be_integers(kind):
    """k and nprobe that are bools or not integers are refused with
    DataError; numpy integers are taken as their value."""
    rng = np.random.default_rng(4)
    count, dim = 300, 4
    rows = rng.standard_normal((count, dim)).astype(np.float32)
    owner = np.arange(count) % 3
    if kind == "flat":
        index = flat_build(EmbeddingSet(vectors=rows, labels=[f"r{i}" for i in range(count)]))
        search, probes = (lambda q, k, **kw: flat_search(index, q, k)), {}
    elif kind == "ivf_flat":
        index = ivf_flat_index(rows, owner, rows[:3])
        search, probes = (lambda q, k, **kw: ivf_flat_search(index, q, k, **kw)), {"nprobe": 2}
    else:
        index = ivf_pq_index(rng, owner, 3, 2, 2, small_k=False)
        search, probes = (lambda q, k, **kw: ivf_pq_search(index, q, k, **kw)), {"nprobe": 2}
    q = rows[:5]
    want = search(q, 3, **probes)
    for k in (np.int64(3), np.uint8(3), np.int32(3)):
        got = search(q, k, **probes)
        assert [r.ids.tolist() for r in got] == [r.ids.tolist() for r in want]
    for bad in (2.5, 3.0, True, np.True_, "3", None):
        with pytest.raises(DataError, match=rf"^k must be an integer, got {bad!r}$"):
            search(q, bad, **probes)
    if probes:
        got = search(q, 3, nprobe=np.int64(2))
        assert [r.ids.tolist() for r in got] == [r.ids.tolist() for r in want]
        for bad in (2.5, 2.0, True, False):
            with pytest.raises(DataError, match=rf"^nprobe must be an integer, got {bad!r}$"):
                search(q, 3, nprobe=bad)


@pytest.mark.parametrize("kind", ["flat", "ivf_flat", "ivf_pq"])
def test_threads_must_be_the_integer_one(kind):
    """A threads value equal to 1 that is not an integer, such as True or
    1.0, is refused as 2 is; a numpy integer 1 is taken."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((30, 4)).astype(np.float32)
    owner = np.arange(30) % 3
    if kind == "flat":
        index = flat_build(EmbeddingSet(vectors=rows, labels=["r"] * 30))
        search = lambda **kw: flat_search(index, rows[:4], 3, **kw)
    elif kind == "ivf_flat":
        index = ivf_flat_index(rows, owner, rows[:3])
        search = lambda **kw: ivf_flat_search(index, rows[:4], 3, nprobe=2, **kw)
    else:
        index = ivf_pq_index(rng, owner, 3, 2, 2, small_k=False)
        search = lambda **kw: ivf_pq_search(index, rows[:4], 3, nprobe=2, **kw)
    want = [r.ids.tolist() for r in search()]
    assert [r.ids.tolist() for r in search(threads=np.int64(1))] == want
    for bad in (True, 1.0, np.float64(1), 2):
        with pytest.raises(DataError, match=rf"^threads must be 1, got {re.escape(repr(bad))}$"):
            search(threads=bad)


# Six lists around the query region (0.3, 0.3): lists 0-2 centred near it,
# list 3 probed but empty, lists 4 and 5 far away. nprobe 4 probes 0-3.
UNION_CENTROIDS = np.array(
    [[0, 0], [1, 0], [0, 1], [-1, 0], [10, 10], [-10, -10]], dtype=np.float32
)


def union_queries(rng):
    return (0.3 + 0.05 * rng.standard_normal((17, 2))).astype(np.float32)


def assert_alone_and_batched_match(ivf, queries, k, nprobe):
    """Each query alone, ranked over the union of its probed lists, and all
    17 as one block, scanned list by list, give the per-query loop's bits."""
    want = ivf_flat_search_v050(ivf, queries, k, nprobe)
    approximate = nprobe < ivf.nlist
    alone = [ivf_flat_search(ivf, q[None], k, nprobe=nprobe)[0] for q in queries]
    assert_same(alone, want, approximate)
    assert_same(ivf_flat_search(ivf, queries, k, nprobe=nprobe), want, approximate)
    return want


def test_one_query_union_spans_three_lists_and_an_empty_one():
    rng = np.random.default_rng(11)
    owner = rng.choice([0, 1, 2, 4, 5], size=300)
    rows = (UNION_CENTROIDS[owner] + 0.4 * rng.standard_normal((300, 2))).astype(np.float32)
    ivf = ivf_flat_index(rows, owner, UNION_CENTROIDS)
    queries = union_queries(rng)
    want = assert_alone_and_batched_match(ivf, queries, 10, 4)
    for q, (ids, _) in zip(queries, want):
        assert sorted(probe_order(ivf.coarse, q, 4).tolist()) == [0, 1, 2, 3]
        assert set(owner[ids]) == {0, 1, 2}


def test_one_query_union_shorter_than_k_gives_the_short_list():
    rng = np.random.default_rng(12)
    # Lists 0-2 hold 1, 2 and 0 rows; list 3 is empty; the far lists hold 40.
    owner = np.array([0, 1, 1] + [4] * 20 + [5] * 20)
    rows = (UNION_CENTROIDS[owner] + 0.1 * rng.standard_normal((43, 2))).astype(np.float32)
    ivf = ivf_flat_index(rows, owner, UNION_CENTROIDS)
    queries = union_queries(rng)
    for nprobe, short in ((4, 3), (3, 3), (1, 1)):
        for k in (short, 10):
            want = assert_alone_and_batched_match(ivf, queries, k, nprobe)
            assert all(ids.size == short for ids, _ in want)
    # Every probed list empty: no candidates at all.
    owner[:3] = 4
    ivf = ivf_flat_index(rows, owner, UNION_CENTROIDS)
    want = assert_alone_and_batched_match(ivf, queries, 10, 4)
    assert all(ids.size == 0 for ids, _ in want)


def test_one_query_union_keeps_rows_whose_f32_dots_overflow():
    """Rows and queries near the corners (+-2e19, +-2e19): every f32 product
    overflows, so a row at an adjacent corner can have a NaN dot (one
    query's matrix-vector product gives NaN there with OpenBLAS, where the
    block's matrix product gives an infinity) and no bound; with k large
    enough it is among the true nearest."""
    rng = np.random.default_rng(13)
    corners = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]]) * 2e19
    noise = lambda n: 1 + 0.01 * rng.standard_normal((n, 2))
    rows = (corners[rng.integers(0, 4, 200)] * noise(200)).astype(np.float32)
    owner = rng.integers(0, 8, 200)
    owner[owner == 5] = 6  # an empty list
    ivf = ivf_flat_index(rows, owner, draw_rows(rng, "huge", (8, 2)))
    queries = (corners[rng.integers(0, 4, 17)] * noise(17)).astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(rows @ queries[0]).all()
    for k in (1, 10, 60):
        for nprobe in (1, 3, 8):
            assert_alone_and_batched_match(ivf, queries, k, nprobe)


def test_one_query_full_probe_equals_flat():
    rows, owner, centroids, queries = draw_case(14, "small_ints", 60, 5, 6, 17)
    ivf = ivf_flat_index(rows, owner, centroids)
    base = flat_build(EmbeddingSet(vectors=rows, labels=ivf.labels))
    for k in (1, 10, 60):
        want = [(r.ids, r.dists) for r in flat_search(base, queries, k)]
        alone = [ivf_flat_search(ivf, q[None], k, nprobe=ivf.nlist)[0] for q in queries]
        assert_same(alone, want, approximate=False)
        assert_alone_and_batched_match(ivf, queries, k, ivf.nlist)


def test_one_query_selects_once_over_its_probed_lists():
    """A one-query ivf_flat search runs select_rows twice: once over the
    coarse centroids, once over the union of its probed lists. A batch
    runs it once per query for the probe and once per probed list."""
    calls = []

    def spy(dots, terms, qterms, k):
        calls.append(terms.shape[1])
        return select_rows(dots, terms, qterms, k)

    rng = np.random.default_rng(15)
    rows = rng.standard_normal((400, 8)).astype(np.float32)
    owner = rng.integers(0, 16, 400)
    ivf = ivf_flat_index(rows, owner, rows[:16])
    queries = rng.standard_normal((2, 8)).astype(np.float32)
    probes = [probe_order(ivf.coarse, q, 8).tolist() for q in queries]
    with pytest.MonkeyPatch.context() as mp:
        for module in (flat, ivf_flat):
            mp.setattr(module, "select_rows", spy)
        ivf_flat_search(ivf, queries[:1], 10, nprobe=8)
        assert calls == [16, sum(int(np.sum(owner == c)) for c in probes[0])]
        calls.clear()
        ivf_flat_search(ivf, queries, 10, nprobe=8)
        assert len(calls) == 2 + len(set(probes[0]) | set(probes[1]))
