import json

import numpy as np
import pytest

from vse import (
    Codebook,
    DataError,
    EmbeddingSet,
    IvfFlatIndex,
    OUT_OF_GALLERY,
    REJECT,
    SplitSpec,
    StrategyConfig,
    default_bench_matrix,
    flat_build,
    flat_search,
    ivf_pq_build,
    make_split,
    reports_to_json,
    reports_to_tsv,
    run_benchmark,
    synthetic_gallery,
    top1_identify,
)


def test_split_shape_matches_protocol():
    base = synthetic_gallery(n_identities=1000, per_identity=10, dim=16, seed=0)
    split = make_split(
        base,
        SplitSpec(n_identities=1000, in_gallery_fraction=0.8,
                  probes_per_identity=3, seed=0),
    )
    assert split.probes.count == 3000
    assert len(split.in_gallery_identities) == 800
    assert len(split.out_of_gallery_identities) == 200
    gallery_labels = set(split.gallery.labels)
    assert all(i in gallery_labels for i in split.in_gallery_identities)
    assert all(i not in gallery_labels for i in split.out_of_gallery_identities)


def test_split_rows_are_disjoint():
    base = synthetic_gallery(n_identities=100, per_identity=8, dim=12, seed=1)
    split = make_split(
        base,
        SplitSpec(n_identities=60, in_gallery_fraction=0.5,
                  probes_per_identity=2, seed=1),
    )
    assert not set(split.probe_rows.tolist()) & set(split.gallery_rows.tolist())
    gallery_bytes = {row.tobytes() for row in split.gallery.vectors}
    assert not any(row.tobytes() in gallery_bytes for row in split.probes.vectors)


def test_split_truth_labels():
    base = synthetic_gallery(n_identities=50, per_identity=6, dim=8, seed=2)
    split = make_split(
        base,
        SplitSpec(n_identities=40, in_gallery_fraction=1.0,
                  probes_per_identity=2, seed=2),
    )
    gallery_labels = set(split.gallery.labels)
    assert all(t in gallery_labels for t in split.truth)

    split2 = make_split(
        base,
        SplitSpec(n_identities=40, in_gallery_fraction=0.5,
                  probes_per_identity=2, seed=3),
    )
    n_out = sum(1 for t in split2.truth if t == OUT_OF_GALLERY)
    assert n_out == 20 * 2


def test_split_insufficient_identities_rejected():
    base = synthetic_gallery(n_identities=10, per_identity=3, dim=8, seed=3)
    with pytest.raises(DataError, match="qualify"):
        make_split(
            base,
            SplitSpec(n_identities=10, in_gallery_fraction=0.5,
                      probes_per_identity=3, seed=0),
        )


def test_top1_identify_exact_match():
    rows = np.eye(4, dtype=np.float32)
    es = EmbeddingSet(vectors=rows, labels=list("abcd"), normalized=True)
    idx = flat_build(es)
    assert top1_identify(idx, rows[2]) == "c"


def test_top1_identify_refuses_a_batch():
    rows = np.eye(4, dtype=np.float32)
    idx = flat_build(EmbeddingSet(vectors=rows, labels=list("abcd"), normalized=True))
    for probe in (rows[[2, 1]], rows[:0]):
        with pytest.raises(DataError, match="takes a single probe"):
            top1_identify(idx, probe)


def test_top1_identify_threshold_rejects():
    rows = np.eye(3, dtype=np.float32)
    es = EmbeddingSet(vectors=rows, labels=list("abc"), normalized=True)
    idx = flat_build(es)
    probe = np.float32([0.0, 0.0, 0.0])
    assert top1_identify(idx, probe, threshold=0.0) == REJECT


def _ivf_with_empty_list():
    """Three lists around (0, 0), (10, 0) and (0, 10); the last one is empty."""
    rows = np.float32([[0, 0], [1, 0], [0, 1], [10, 0], [11, 0], [10, 1]])
    coarse = Codebook(k=3, dim=2, centroids=np.float32([[0, 0], [10, 0], [0, 10]]), inertia=0.0)
    index = IvfFlatIndex(
        coarse=coarse,
        list_ids=(np.arange(3), np.arange(3, 6), np.empty(0, dtype=np.int64)),
        list_vectors=(rows[:3], rows[3:], np.empty((0, 2), dtype=np.float32)),
        labels=list("aabccd"),
        normalized=False,
    )
    gallery = EmbeddingSet(vectors=rows, labels=list("aabccd"), normalized=False)
    probes = np.float32([[0.2, 0.1], [3, 0], [10.2, 0.3], [0, 9], [0.5, 6]])
    probes = EmbeddingSet(vectors=probes, labels=list("vwxyz"), normalized=False)
    return index, StrategyConfig(kind="ivf_flat", nlist=3, nprobe=1), gallery, probes


def _split_case(kind):
    base = synthetic_gallery(n_identities=80, per_identity=6, dim=16, seed=5)
    split = make_split(
        base,
        SplitSpec(n_identities=60, in_gallery_fraction=0.8,
                  probes_per_identity=2, seed=5),
    )
    if kind == "flat":
        index, config = flat_build(split.gallery), StrategyConfig(kind="flat")
    else:
        index = ivf_pq_build(split.gallery, nlist=8, m=4, seed=0, max_iters=5)
        config = StrategyConfig(kind="ivf_pq", nlist=8, nprobe=2, m=4)
    return index, config, split.gallery, split.probes


@pytest.mark.parametrize("case", ["flat", "ivf_pq", "ivf_flat_empty_list"])
@pytest.mark.parametrize("with_threshold", [False, True])
def test_run_benchmark_decides_like_top1_identify(monkeypatch, case, with_threshold):
    if case == "ivf_flat_empty_list":
        index, config, gallery, probes = _ivf_with_empty_list()
        threshold = 1.0 if with_threshold else None
    else:
        index, config, gallery, probes = _split_case(case)
        top1 = [r.dists[0] for r in flat_search(flat_build(gallery), probes, k=1)]
        threshold = float(np.median(top1)) if with_threshold else None
    expected = [
        top1_identify(index, p, threshold=threshold, nprobe=config.nprobe)
        for p in probes.vectors
    ]
    assert set(expected) - {REJECT}
    if with_threshold or case == "ivf_flat_empty_list":
        assert REJECT in expected
    if case == "ivf_flat_empty_list":
        assert expected[3:] == [REJECT, REJECT]

    monkeypatch.setattr("vse.evaluate._build_for", lambda *args, **kwargs: index)
    # With top1_identify's decisions as truth (REJECT included, which scores
    # as an in-gallery label), only identical decisions give 100%.
    report = run_benchmark(gallery, probes, expected, [config], threshold=threshold)[0]
    assert report.closed_set_accuracy == 100.0


def test_accuracy_matches_hand_labeling():
    rng = np.random.default_rng(4)
    centers = rng.standard_normal((10, 8)).astype(np.float32) * 6
    rows = np.repeat(centers, 4, axis=0) + rng.normal(
        scale=0.2, size=(40, 8)
    ).astype(np.float32)
    rows = rows.astype(np.float32)
    labels = [f"id{i // 4}" for i in range(40)]
    gallery = EmbeddingSet(vectors=rows, labels=labels, normalized=False)
    probes_rows = centers + rng.normal(scale=0.2, size=(10, 8)).astype(np.float32)
    probes = EmbeddingSet(
        vectors=probes_rows.astype(np.float32),
        labels=[f"id{i}" for i in range(10)],
        normalized=False,
    )
    truth = list(probes.labels)

    # hand labeling: nearest gallery row decides, f64 loop
    hand = []
    for p in probes.vectors:
        d = ((rows.astype(np.float64) - p.astype(np.float64)) ** 2).sum(axis=1)
        hand.append(labels[int(np.argmin(d))])
    want = 100.0 * sum(h == t for h, t in zip(hand, truth)) / len(truth)

    rep = run_benchmark(gallery, probes, truth,
                        [StrategyConfig(kind="flat", seed=0)])[0]
    assert rep.closed_set_accuracy == want


def test_flat_and_full_probe_ivf_agree():
    base = synthetic_gallery(n_identities=80, per_identity=6, dim=16, seed=5)
    split = make_split(
        base,
        SplitSpec(n_identities=60, in_gallery_fraction=0.8,
                  probes_per_identity=2, seed=5),
    )
    reps = run_benchmark(
        split.gallery,
        split.probes,
        split.truth,
        [
            StrategyConfig(kind="flat", seed=1),
            StrategyConfig(kind="ivf_flat", nlist=8, nprobe=8, seed=1),
        ],
    )
    assert reps[0].closed_set_accuracy == reps[1].closed_set_accuracy


def test_flat_at_least_as_accurate_as_partial_probe():
    base = synthetic_gallery(n_identities=120, per_identity=8, dim=32, seed=6)
    split = make_split(
        base,
        SplitSpec(n_identities=100, in_gallery_fraction=0.8,
                  probes_per_identity=2, seed=6),
    )
    reps = run_benchmark(
        split.gallery,
        split.probes,
        split.truth,
        [
            StrategyConfig(kind="flat", seed=2),
            StrategyConfig(kind="ivf_flat", nlist=16, nprobe=1, seed=2),
        ],
    )
    assert reps[0].closed_set_accuracy >= reps[1].closed_set_accuracy


def test_per_query_time_consistent():
    base = synthetic_gallery(n_identities=40, per_identity=5, dim=8, seed=7)
    split = make_split(
        base,
        SplitSpec(n_identities=30, in_gallery_fraction=0.8,
                  probes_per_identity=2, seed=7),
    )
    rep = run_benchmark(split.gallery, split.probes, split.truth,
                        [StrategyConfig(kind="flat", seed=0)])[0]
    assert rep.per_query_time == rep.total_time / split.probes.count


def test_reports_tsv_and_json():
    base = synthetic_gallery(n_identities=40, per_identity=5, dim=8, seed=8)
    split = make_split(
        base,
        SplitSpec(n_identities=30, in_gallery_fraction=0.8,
                  probes_per_identity=2, seed=8),
    )
    configs = [
        StrategyConfig(kind="flat", seed=0),
        StrategyConfig(kind="ivf_flat", nlist=4, nprobe=2, seed=0),
    ]
    reps = run_benchmark(split.gallery, split.probes, split.truth, configs)
    tsv = reports_to_tsv(reps)
    lines = tsv.strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split("\t")
    for needed in ("strategy", "num_clustering_centers", "nprobe", "m",
                   "accuracy_pct", "time_s"):
        assert needed in header
    docs = json.loads(reports_to_json(reps))
    assert len(docs) == 2
    assert docs[0]["strategy"] == "flat"
    assert docs[1]["nlist"] == 4


def test_truth_length_mismatch_rejected():
    base = synthetic_gallery(n_identities=20, per_identity=4, dim=8, seed=9)
    split = make_split(
        base,
        SplitSpec(n_identities=10, in_gallery_fraction=1.0,
                  probes_per_identity=2, seed=9),
    )
    with pytest.raises(DataError):
        run_benchmark(split.gallery, split.probes, split.truth[:-1],
                      [StrategyConfig(kind="flat", seed=0)])


def test_strategy_config_validation():
    with pytest.raises(DataError):
        StrategyConfig(kind="bogus", seed=0)
    with pytest.raises(DataError):
        StrategyConfig(kind="ivf_flat", seed=0)  # nlist required
    with pytest.raises(DataError):
        StrategyConfig(kind="ivf_pq", nlist=4, seed=0)  # m required


def test_default_bench_matrix_shape():
    configs = default_bench_matrix(seed=0)
    kinds = [(c.kind, c.nlist, c.nprobe, c.m) for c in configs]
    assert kinds == [
        ("flat", None, None, None),
        ("ivf_flat", 64, 2, None),
        ("ivf_flat", 256, 8, None),
        ("ivf_pq", 64, 2, 16),
        ("ivf_pq", 256, 8, 16),
    ]


def test_synthetic_gallery_shape_and_labels():
    base = synthetic_gallery(n_identities=30, per_identity=4, dim=16, seed=10)
    assert base.count == 120
    assert base.dim == 16
    assert base.labels[0] == "id00000"
    assert base.labels[-1] == "id00029"
    assert len(set(base.labels)) == 30


def test_strategy_config_rejects_parameters_its_kind_does_not_take():
    with pytest.raises(DataError, match="takes no nlist"):
        StrategyConfig(kind="flat", nlist=3, m=2, nprobe=-1)
    with pytest.raises(DataError, match="takes no nprobe"):
        StrategyConfig(kind="flat", nprobe=1)
    with pytest.raises(DataError, match="takes no m"):
        StrategyConfig(kind="ivf_flat", nlist=4, m=2)
    for nprobe in (0, -1, 5):
        with pytest.raises(DataError, match="nprobe"):
            StrategyConfig(kind="ivf_pq", nlist=4, nprobe=nprobe, m=2)
    assert StrategyConfig(kind="ivf_flat", nlist=4, nprobe=4).nprobe == 4
