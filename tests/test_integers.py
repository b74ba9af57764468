"""Every public integer parameter goes through one check, core.check_int.

One table names each parameter with its range [low, stop) (stop None for
no upper end) and a call that passes it a value. Each must refuse a bool, a
float, a numpy float and a string, and a value just outside its range, with
a DataError whose message starts with the parameter's name; numpy integers
must give the results a plain int gives.
"""

import dataclasses
import re

import numpy as np
import pytest

from vse import (
    Codebook,
    DataError,
    EmbeddingSet,
    IdentityFolder,
    PqParams,
    SplitSpec,
    StrategyConfig,
    clean_gallery,
    clean_identity,
    default_nprobe,
    flat_build,
    flat_search,
    ivf_flat_build,
    ivf_flat_search,
    ivf_pq_build,
    ivf_pq_decode,
    ivf_pq_search,
    ivf_pq_train,
    kmeans_train,
    make_split,
    synthetic_gallery,
    top_k_smallest,
)
from vse.kmeans import kmeans_stack

N = 300


def _set(n=N, per=3, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 8)).astype(np.float32)
    return EmbeddingSet(vectors=rows, labels=[f"id{i // per}" for i in range(n)])


ES = _set()
PAIRS = _set(n=40, per=2, seed=1)  # folders of two rows, which k-means never sees
Q = ES.vectors[:5]
FLAT = flat_build(ES)
IVF = ivf_flat_build(ES, 4, seed=0, max_iters=2)
PQ = ivf_pq_build(ES, 4, 2, seed=0, max_iters=2)
DISTS = np.array([3.0, 1.0, 2.0, 1.0])
CODES = np.zeros(2, dtype=np.uint8)


def _build_pq(**kw):
    return ivf_pq_build(ES, **{"nlist": 4, "m": 2, "seed": 0, "max_iters": 2, **kw})


def _config(**kw):
    return StrategyConfig(**{"kind": "ivf_pq", "nlist": 8, "nprobe": 2, "m": 2, "seed": 0, **kw})


def _spec(**kw):
    return make_split(ES, SplitSpec(**{"n_identities": 10, "in_gallery_fraction": 0.5,
                                       "probes_per_identity": 1, "seed": 0, **kw}))


# (parameter name, low, stop, a valid value, the call that takes it)
SITES = {
    "flat_search k": ("k", 1, N + 1, 3, lambda v: flat_search(FLAT, Q, v)),
    "ivf_flat_search k": ("k", 1, None, 3, lambda v: ivf_flat_search(IVF, Q, v, nprobe=2)),
    "ivf_flat_search nprobe": ("nprobe", 1, 5, 2, lambda v: ivf_flat_search(IVF, Q, 3, nprobe=v)),
    "ivf_pq_search k": ("k", 1, None, 3, lambda v: ivf_pq_search(PQ, Q, v, nprobe=2)),
    "ivf_pq_search nprobe": ("nprobe", 1, 5, 2, lambda v: ivf_pq_search(PQ, Q, 3, nprobe=v)),
    "top_k_smallest k": ("k", 1, None, 2, lambda v: top_k_smallest(DISTS, np.arange(4), v)),
    "default_nprobe nlist": ("nlist", 1, None, 64, default_nprobe),
    "ivf_flat_build nlist": ("nlist", 1, N + 1, 4, lambda v: ivf_flat_build(ES, v, max_iters=2)),
    "ivf_flat_build seed": ("seed", 0, None, 1, lambda v: ivf_flat_build(ES, 4, v, max_iters=2)),
    "ivf_flat_build max_iters": ("max_iters", 0, None, 1, lambda v: ivf_flat_build(ES, 4, 0, v)),
    "ivf_pq_build nlist": ("nlist", 1, N + 1, 4, lambda v: _build_pq(nlist=v)),
    "ivf_pq_build m": ("m", 1, None, 2, lambda v: _build_pq(m=v)),
    "ivf_pq_build seed": ("seed", 0, None, 1, lambda v: _build_pq(seed=v)),
    "ivf_pq_build max_iters": ("max_iters", 0, None, 1, lambda v: _build_pq(max_iters=v)),
    "ivf_pq_train m": ("m", 1, None, 2, lambda v: ivf_pq_train(ES, 4, v, max_iters=2)),
    "PqParams m": ("m", 1, None, 2, lambda v: PqParams(m=v)),
    "kmeans_train k": ("k", 1, N + 1, 3, lambda v: kmeans_train(ES.vectors, v, max_iters=2)),
    "kmeans_train max_iters": ("max_iters", 0, None, 2, lambda v: kmeans_train(ES.vectors, 3, v)),
    "kmeans_train seed": ("seed", 0, None, 2, lambda v: kmeans_train(ES.vectors, 3, 2, v)),
    "kmeans_stack seed": (
        "seed", 0, None, 2, lambda v: kmeans_stack(PAIRS.vectors.reshape(4, 10, 8), 2, 2, v)
    ),
    "Codebook k": ("k", 1, None, 2, lambda v: Codebook(v, 8, np.zeros((2, 8)), 0.0)),
    "Codebook dim": ("dim", 1, None, 8, lambda v: Codebook(2, v, np.zeros((2, 8)), 0.0)),
    "clean_gallery seed": ("seed", 0, None, 1, lambda v: clean_gallery(ES, seed=v)),
    "clean_gallery seed, small folders": (
        "seed", 0, None, 1, lambda v: clean_gallery(PAIRS, seed=v)
    ),
    "clean_identity seed": (
        "seed", 0, None, 1, lambda v: clean_identity(IdentityFolder("a", ES.vectors[:6]), seed=v)
    ),
    "ivf_pq_decode list id": ("list id", 0, 4, 1, lambda v: ivf_pq_decode(PQ, v, CODES)),
    "SplitSpec n_identities": ("n_identities", 1, None, 10, lambda v: _spec(n_identities=v)),
    "SplitSpec probes_per_identity": (
        "probes_per_identity", 1, None, 1, lambda v: _spec(probes_per_identity=v)
    ),
    "SplitSpec seed": ("seed", 0, None, 1, lambda v: _spec(seed=v)),
    "synthetic_gallery n_identities": (
        "n_identities", 1, None, 5, lambda v: synthetic_gallery(v, 2, 4)
    ),
    "synthetic_gallery per_identity": (
        "per_identity", 1, None, 2, lambda v: synthetic_gallery(5, v, 4)
    ),
    "synthetic_gallery dim": ("dim", 1, None, 4, lambda v: synthetic_gallery(5, 2, v)),
    "synthetic_gallery seed": ("seed", 0, None, 1, lambda v: synthetic_gallery(5, 2, 4, seed=v)),
    "StrategyConfig nlist": ("nlist", 1, None, 8, lambda v: _config(nlist=v)),
    "StrategyConfig m": ("m", 1, None, 2, lambda v: _config(m=v)),
    "StrategyConfig nprobe": ("nprobe", 1, 9, 2, lambda v: _config(nprobe=v)),
    "StrategyConfig seed": ("seed", 0, None, 1, lambda v: _config(seed=v)),
}


def _digest(obj):
    """A comparable form of a result, with each scalar's type, so an int
    that a numpy integer leaves behind as a numpy scalar shows."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return (type(obj).__name__,) + tuple(_digest(getattr(obj, f.name)) for f in fields)
    if isinstance(obj, (list, tuple)):
        return tuple(_digest(o) for o in obj)
    return (type(obj).__name__, obj)


@pytest.mark.parametrize("site", list(SITES))
def test_every_integer_parameter_goes_through_one_check(site):
    name, low, stop, good, call = SITES[site]
    starts = rf"^{re.escape(name)} "
    for bad in (True, 2.0, np.float64(2), "2"):
        with pytest.raises(DataError, match=starts + "must be an integer"):
            call(bad)
    upper = "inf" if stop is None else stop
    for out in [low - 1] + ([] if stop is None else [stop]):
        message = re.escape(f"{out} out of range [{low}, {upper})")
        with pytest.raises(DataError, match=starts + message):
            call(out)
    want = _digest(call(good))
    for kind in (np.int32, np.int64, np.uint8):
        assert _digest(call(kind(good))) == want


def test_decode_refuses_a_bool_list_id():
    # True was taken as an int, and centroids[True] as a boolean index,
    # which gave every centroid: a (1, nlist, dim) array.
    with pytest.raises(DataError, match="^list id must be an integer, got True$"):
        ivf_pq_decode(PQ, True, CODES)


def test_builds_refuse_float_and_bool_parameters_with_data_error():
    # Each reached numpy and raised an untyped TypeError.
    with pytest.raises(DataError, match="^nlist must be an integer, got 4.0$"):
        ivf_flat_build(ES, 4.0)
    with pytest.raises(DataError, match="^nlist must be an integer, got True$"):
        ivf_flat_build(ES, True)
    with pytest.raises(DataError, match="^m must be an integer, got True$"):
        ivf_pq_build(ES, 4, True)
