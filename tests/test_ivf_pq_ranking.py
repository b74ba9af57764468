"""ivf_pq's ranking step against vse 0.4.1's ADC scan.

ivf_pq_search ranks each probed list by the three-term IVFADC estimate and
scores only the rows a proven bound keeps. Wherever the estimate loses
precision (large common offsets, tiny spreads, exact ties), the results
must still carry the bits of scoring every row by the ADC tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ivf_pq_search_v041
from vse import Codebook, EmbeddingSet, IvfPqIndex, PqParams, ivf_pq_build, ivf_pq_search
from vse import flat, ivf_pq
from vse.ivf_pq import adc_table

CAPS = [3, 40, 1 << 21]


def pq_index(centroids, subs, codes, owner):
    """An IvfPqIndex from coarse centroids, sub-centroid blocks, one code
    row and one list per stored row."""
    nlist, m = centroids.shape[0], len(subs)
    list_ids = tuple(np.flatnonzero(owner == c) for c in range(nlist))
    return IvfPqIndex(
        coarse=Codebook(k=nlist, dim=centroids.shape[1], centroids=centroids, inertia=0.0),
        params=PqParams(m=m),
        subs=tuple(
            Codebook(k=s.shape[0], dim=s.shape[1], centroids=s, inertia=0.0) for s in subs
        ),
        list_ids=list_ids,
        list_codes=tuple(codes[ids] for ids in list_ids),
        labels=[f"r{i}" for i in range(owner.size)],
        normalized=False,
    )


def draw_index(seed, m, subdim, nlist, count, offset, spread, ints, batch):
    """Centroids and queries around a common offset, residual sub-centroids
    at the spread, some lists empty, rows with equal codes, and queries
    that sit on stored rows. With `ints` every value is an integer in
    [-2, 2] times the spread, so estimates tie across rows and lists."""
    rng = np.random.default_rng(seed)
    dim = m * subdim

    def noise(shape):
        if ints:
            return spread * rng.integers(-2, 3, shape).astype(np.float64)
        return spread * rng.standard_normal(shape)

    centroids = (offset + noise((nlist, dim))).astype(np.float32)
    ks = rng.choice([1, 2, 5, 256], m)
    subs = [noise((int(k), subdim)).astype(np.float32) for k in ks]
    used = rng.choice(nlist, size=int(rng.integers(1, nlist + 1)), replace=False)
    owner = rng.choice(used, size=count)
    codes = rng.integers(0, ks, (count, m)).astype(np.uint8)
    codes[count // 2 :] = codes[: count - count // 2]
    idx = pq_index(centroids, subs, codes, owner)
    queries = (offset + noise((batch, dim))).astype(np.float32)
    on_rows = rng.integers(0, count, batch // 2)
    for i, row in enumerate(on_rows):
        queries[i] = ivf_pq.ivf_pq_decode(idx, int(owner[row]), codes[row])
    return idx, queries


def assert_matches_v041(idx, queries, k, nprobe):
    got = ivf_pq_search(idx, queries, k, nprobe=nprobe)
    want = ivf_pq_search_v041(idx, queries, k, nprobe)
    assert len(got) == len(want)
    for res, (ids, dists) in zip(got, want):
        assert res.approximate is True
        assert res.ids.tolist() == ids.tolist()
        assert res.dists.tobytes() == dists.tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([1, 2, 16]),
    subdim=st.sampled_from([1, 2, 3]),  # subdim 1 is m == dim
    nlist=st.integers(1, 5),
    count=st.integers(1, 60),
    offset=st.sampled_from([0.0, 1e4, 1e8, 1e12, 1e17]),
    spread=st.sampled_from([1e-20, 1e-8, 1.0, 1e6, 1e15]),
    ints=st.booleans(),
    batch=st.sampled_from([1, 200]),
    cap=st.sampled_from(CAPS),
)
def test_ranking_keeps_the_adc_bits_under_offsets_and_ties(
    seed, m, subdim, nlist, count, offset, spread, ints, batch, cap
):
    idx, queries = draw_index(seed, m, subdim, nlist, count, offset, spread, ints, batch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flat, "_BLOCK_ELEMS", cap)
        # k = count + 1 is past every list: all probed rows come back.
        for k in (1, 3, count + 1):
            for nprobe in sorted({1, nlist}):
                assert_matches_v041(idx, queries, k, nprobe)


def test_ranking_bound_covers_the_residual_rounding():
    """The estimate ranks by the exact residual e = q - c; the ADC rule by
    r = f32(e). Here e = 1 + 2^-24 + 2^-30 rounds to r = 1 + 2^-23, row 1
    (sub-centroid 0) is nearer to e, and row 0 (sub-centroid 2 + 2^-22) ties
    with it on the ADC value, so the tie rule returns row 0. Without the
    |r - e| term in the bound, only row 1 would be scored."""
    idx = pq_index(
        centroids=np.float32([[-(2.0**-24 + 2.0**-30)]]),
        subs=[np.float32([[0.0], [2.0 + 2.0**-22]])],
        codes=np.uint8([[1], [0]]),
        owner=np.array([0, 0]),
    )
    q = np.float32([[1.0]])
    assert (q.astype(np.float64) - idx.coarse.centroids.astype(np.float64))[0, 0] == (
        1.0 + 2.0**-24 + 2.0**-30
    )
    res = ivf_pq_search(idx, q, 1, nprobe=1)[0]
    assert res.ids.tolist() == [0]
    assert res.dists.tolist() == [(1.0 + 2.0**-23) ** 2]
    assert_matches_v041(idx, q, 1, 1)


@settings(max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([1, 2, 16]),
    subdim=st.sampled_from([1, 3]),
    offset=st.sampled_from([0.0, 1e8]),
    ints=st.booleans(),
)
def test_each_scored_row_is_the_sum_of_its_adc_table_entries(seed, m, subdim, offset, ints):
    idx, queries = draw_index(seed, m, subdim, 3, 40, offset, 1.0, ints, 4)
    owner = np.empty(idx.count, dtype=np.int64)
    pos = np.empty(idx.count, dtype=np.int64)
    for c, ids in enumerate(idx.list_ids):
        owner[ids], pos[ids] = c, np.arange(ids.size)
    for k in (1, 5, idx.count):
        for q, res in zip(queries, ivf_pq_search(idx, queries, k, nprobe=idx.nlist)):
            for row, dist in zip(res.ids, res.dists):
                codes = idx.list_codes[owner[row]][pos[row]]
                tables = adc_table(idx, q, int(owner[row]))
                assert np.float64(dist).tobytes() == tables[np.arange(m), codes].sum().tobytes()


def test_shortlist_holds_k_rows_per_list_on_normalized_rows():
    """On a trained index over normalized rows the bound is tight: each
    probed list keeps its k best rows and no more."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3000, 32))
    x /= np.sqrt((x * x).sum(axis=1))[:, None]
    es = EmbeddingSet(vectors=x, labels=[f"r{i}" for i in range(3000)], normalized=True)
    idx = ivf_pq_build(es, nlist=8, m=8, seed=0, max_iters=5)
    assert min(ids.size for ids in idx.list_ids) > 10
    queries = es.vectors[::100] + np.float32(0.01)
    scored = []

    def spy(x, y=None, pairs=None):
        if pairs is not None:  # the ADC rule on kept rows, not a norm or residual
            scored.append(x.shape[0])
        return kernel(x, y, pairs)

    kernel = ivf_pq._squared_l2_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ivf_pq, "_squared_l2_rows", spy)
        got = ivf_pq_search(idx, queries, 10, nprobe=4)
    assert sum(scored) == 10 * 4 * len(queries)
    assert_matches_v041(idx, queries, 10, 4)
    assert all(r.ids.size == 10 for r in got)


@pytest.mark.parametrize(
    "seed, m, subdim, nlist, count, offset, spread, ints, k",
    [
        (1547573342, 1, 2, 3, 12, 1e17, 1.0, True, 1),
        (2986536174, 16, 2, 3, 5, 1e8, 1e-8, False, 1),
        (3048361836, 16, 3, 2, 14, 1e8, 1e-8, False, 3),
        (4077275035, 16, 2, 1, 22, 1e4, 1e-8, True, 3),
    ],
)
def test_ranking_bound_covers_the_cancellation_at_an_offset(
    seed, m, subdim, nlist, count, offset, spread, ints, k
):
    """Centroids and queries share a large offset, so 2<c, S> and 2<q, S>
    cancel in the estimate and their f64 rounding reorders rows whose ADC
    values are close or tied. Without the f64 error terms in the bound,
    each of these cases returns other rows. Blocks of 2 of the 4 queries
    and scoring passes of 1 or 3 rows put block and pass edges among them."""
    idx, queries = draw_index(seed, m, subdim, nlist, count, offset, spread, ints, 4)
    assert_matches_v041(idx, queries, k, nlist)
    per_query = nlist * (-(-count // nlist) + idx.dim) + ivf_pq.KSUB * m
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flat, "_BLOCK_ELEMS", 2 * per_query)
        for rows in (1, 3):
            mp.setattr(ivf_pq, "_SCORE_ELEMS", rows * idx.dim)
            assert_matches_v041(idx, queries, k, nlist)
