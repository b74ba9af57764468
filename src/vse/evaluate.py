"""Evaluation protocol: gallery/probe splits, top-1 identification, and the
accuracy/time benchmark matrix across search strategies.

A split samples identities, holds out a few probe images each, and drops a
fraction of identities from the gallery entirely so open-set behavior can
be scored. Accuracy is top-1: the label of the single nearest gallery
vector, optionally gated by a rejection threshold on distance.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import DataError, EmbeddingSet, SearchResult, as_rows, check_int
from .flat import FlatIndex, flat_build, flat_search
from .ivf_flat import IvfFlatIndex, default_nprobe, ivf_flat_build, ivf_flat_search
from .ivf_pq import IvfPqIndex, ivf_pq_build, ivf_pq_search

__all__ = [
    "OUT_OF_GALLERY",
    "REJECT",
    "SplitSpec",
    "Split",
    "StrategyConfig",
    "EvalReport",
    "make_split",
    "top1_identify",
    "search_any",
    "run_benchmark",
    "synthetic_gallery",
    "default_bench_matrix",
    "report_rows",
    "reports_to_tsv",
    "reports_to_json",
]

OUT_OF_GALLERY = "<out-of-gallery>"
REJECT = "<reject>"


@dataclass(frozen=True)
class SplitSpec:
    n_identities: int
    in_gallery_fraction: float
    probes_per_identity: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n_identities", 1), ("probes_per_identity", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        if not 0.0 <= self.in_gallery_fraction <= 1.0:
            raise DataError(
                f"in_gallery_fraction must be in [0, 1], got {self.in_gallery_fraction}"
            )


@dataclass(frozen=True)
class Split:
    gallery: EmbeddingSet
    probes: EmbeddingSet
    truth: list[str]
    in_gallery_identities: list[str]
    out_of_gallery_identities: list[str]
    gallery_rows: np.ndarray
    probe_rows: np.ndarray


def make_split(source: EmbeddingSet, spec: SplitSpec) -> Split:
    """Sample identities into probes plus a gallery with some dropped.

    Identities with at least probes_per_identity + 1 images are eligible
    (each needs probe images plus one to leave behind). The sampled
    identities are split: the first in_gallery_fraction of the draw keep
    their non-probe images in the gallery, the rest are withdrawn entirely
    and their probes' truth becomes OUT_OF_GALLERY.
    """
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(source.labels):
        by_label.setdefault(label, []).append(i)
    need = spec.probes_per_identity + 1
    eligible = [label for label, rows in by_label.items() if len(rows) >= need]
    if len(eligible) < spec.n_identities:
        raise DataError(
            f"need {spec.n_identities} identities with >= {need} images, "
            f"only {len(eligible)} qualify"
        )
    rng = np.random.default_rng(spec.seed)
    chosen = [eligible[i] for i in rng.choice(len(eligible), spec.n_identities, replace=False)]
    n_in = int(round(spec.in_gallery_fraction * spec.n_identities))
    in_ids = chosen[:n_in]
    out_ids = chosen[n_in:]
    out_set = set(out_ids)

    probe_rows: list[int] = []
    truth: list[str] = []
    is_probe = np.zeros(source.count, dtype=bool)
    for label in chosen:
        rows = by_label[label]
        picks = rng.choice(len(rows), spec.probes_per_identity, replace=False)
        for p in np.sort(picks):
            row = rows[p]
            probe_rows.append(row)
            is_probe[row] = True
            truth.append(OUT_OF_GALLERY if label in out_set else label)

    drop = is_probe.copy()
    for label in out_ids:
        drop[by_label[label]] = True
    gallery_rows = np.flatnonzero(~drop)
    if gallery_rows.size == 0:
        raise DataError("split leaves an empty gallery")
    probe_rows_arr = np.asarray(probe_rows, dtype=np.int64)
    gallery = EmbeddingSet(
        vectors=source.vectors[gallery_rows],
        labels=[source.labels[i] for i in gallery_rows],
        normalized=source.normalized,
    )
    probes = EmbeddingSet(
        vectors=source.vectors[probe_rows_arr],
        labels=[source.labels[i] for i in probe_rows_arr],
        normalized=source.normalized,
    )
    return Split(
        gallery=gallery,
        probes=probes,
        truth=truth,
        in_gallery_identities=in_ids,
        out_of_gallery_identities=out_ids,
        gallery_rows=gallery_rows,
        probe_rows=probe_rows_arr,
    )


def search_any(index, queries, k: int, nprobe: int | None = None) -> list[SearchResult]:
    """Dispatch a search on the index's kind; a flat index ignores nprobe.

    The batch is scanned in query blocks on the calling thread; see
    README, "Thread counts".
    """
    kind = getattr(index, "kind", None)
    if kind == FlatIndex.kind:
        return flat_search(index, queries, k)
    if kind == IvfFlatIndex.kind:
        return ivf_flat_search(index, queries, k, nprobe=nprobe)
    if kind == IvfPqIndex.kind:
        return ivf_pq_search(index, queries, k, nprobe=nprobe)
    raise DataError(f"unsupported index type {type(index).__name__}")


def _top1_label(index, result: SearchResult, threshold: float | None) -> str:
    """The top-1 decision on one k>=1 search result.

    With no threshold the decision is closed-set: the nearest label wins
    however far it is. An approximate index that probes only empty lists
    returns REJECT (it claims no neighbor).
    """
    if result.ids.shape[0] == 0:
        return REJECT
    if threshold is not None and float(result.dists[0]) > threshold:
        return REJECT
    return index.labels[int(result.ids[0])]


def top1_identify(index, probe, threshold: float | None = None, nprobe: int | None = None) -> str:
    """Label of the gallery vector nearest one probe; REJECT when past the threshold."""
    q = as_rows(probe)
    if q.shape[0] != 1:
        raise DataError("top1_identify takes a single probe")
    result = search_any(index, q, k=1, nprobe=nprobe)[0]
    return _top1_label(index, result, threshold)


# The parameters each index kind takes, each marked required (True) or
# optional (False). A kind's optional nprobe defaults to default_nprobe(nlist).
_KIND_PARAMS: dict[str, dict[str, bool]] = {
    FlatIndex.kind: {},
    IvfFlatIndex.kind: {"nlist": True, "nprobe": False},
    IvfPqIndex.kind: {"nlist": True, "nprobe": False, "m": True},
}


def _check_params(kind: str, values, error=DataError, flag: str = "") -> None:
    """Raise `error` for an unknown kind, or naming the first of the nlist,
    nprobe and m attributes of `values` (None or absent when not given) that
    `kind` does not take, or the first one it requires that is left out."""
    if kind not in _KIND_PARAMS:
        raise error(f"unknown strategy kind {kind!r}")
    takes = _KIND_PARAMS[kind]
    for name in ("nlist", "nprobe", "m"):
        given = getattr(values, name, None) is not None
        if given and name not in takes:
            raise error(f"{kind} takes no {flag}{name}")
        if not given and takes.get(name, False):
            raise error(f"{kind} requires {flag}{name}")


@dataclass(frozen=True)
class StrategyConfig:
    kind: str  # a key of _KIND_PARAMS
    nlist: int | None = None
    nprobe: int | None = None
    m: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_params(self.kind, self)
        for name, low in (("nlist", 1), ("m", 1), ("nprobe", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is not None:  # a kind's nprobe comes with its nlist
                stop = self.nlist + 1 if name == "nprobe" else None
                object.__setattr__(self, name, check_int(name, value, low, stop))


@dataclass(frozen=True)
class EvalReport:
    strategy: str
    nlist: int | None
    nprobe: int | None
    m: int | None
    probes: int
    closed_set_accuracy: float
    open_set_accuracy: float | None
    threshold: float | None
    build_time: float
    total_time: float
    per_query_time: float


def _build_for(config: StrategyConfig, gallery: EmbeddingSet, max_iters: int = 25):
    if config.kind == FlatIndex.kind:
        return flat_build(gallery)
    if config.kind == IvfFlatIndex.kind:
        return ivf_flat_build(gallery, config.nlist, seed=config.seed, max_iters=max_iters)
    return ivf_pq_build(
        gallery, config.nlist, config.m, seed=config.seed, max_iters=max_iters
    )


def _accuracies(
    predicted: list[str], truth: list[str], threshold: float | None
) -> tuple[float, float | None]:
    in_total = in_hit = 0
    all_hit = 0
    for got, want in zip(predicted, truth):
        if want == OUT_OF_GALLERY:
            if got == REJECT:
                all_hit += 1
        else:
            in_total += 1
            if got == want:
                in_hit += 1
                all_hit += 1
    closed = 100.0 * in_hit / in_total if in_total else 0.0
    if threshold is None:
        return closed, None
    return closed, 100.0 * all_hit / len(truth) if truth else 0.0


def run_benchmark(
    gallery: EmbeddingSet,
    probes: EmbeddingSet,
    truth: list[str],
    configs: list[StrategyConfig],
    threshold: float | None = None,
) -> list[EvalReport]:
    """One EvalReport per config over a fixed gallery/probe/truth triple.

    Search time is the median of 3 timed full-batch runs; the build is
    timed separately. Closed-set accuracy scores in-gallery probes only;
    open-set accuracy (when a threshold is given) also requires REJECT on
    the out-of-gallery probes.
    """
    if probes.count != len(truth):
        raise DataError(f"{probes.count} probes but {len(truth)} truth labels")
    reports = []
    for config in configs:
        t0 = time.perf_counter()
        index = _build_for(config, gallery)
        build_s = time.perf_counter() - t0
        nprobe = config.nprobe
        if nprobe is None and "nprobe" in _KIND_PARAMS[config.kind]:
            nprobe = default_nprobe(config.nlist)
        times = []
        results: list[SearchResult] = []
        for _ in range(3):
            t0 = time.perf_counter()
            results = search_any(index, probes, k=1, nprobe=nprobe)
            times.append(time.perf_counter() - t0)
        total_s = float(np.median(times))
        predicted = [_top1_label(index, r, threshold) for r in results]
        closed, open_acc = _accuracies(predicted, truth, threshold)
        reports.append(
            EvalReport(
                strategy=config.kind,
                nlist=config.nlist,
                nprobe=nprobe,
                m=config.m,
                probes=probes.count,
                closed_set_accuracy=closed,
                open_set_accuracy=open_acc,
                threshold=threshold,
                build_time=build_s,
                total_time=total_s,
                per_query_time=total_s / probes.count,
            )
        )
    return reports


def synthetic_gallery(
    n_identities: int = 1000,
    per_identity: int = 10,
    dim: int = 128,
    sigma: float = 0.05,
    seed: int = 0,
) -> EmbeddingSet:
    """Identity centers uniform on the unit sphere plus Gaussian noise."""
    n_identities = check_int("n_identities", n_identities, 1)
    per_identity = check_int("per_identity", per_identity, 1)
    dim = check_int("dim", dim, 1)
    rng = np.random.default_rng(check_int("seed", seed))
    centers = rng.standard_normal((n_identities, dim))
    centers /= np.sqrt((centers**2).sum(axis=1))[:, None]
    vectors = np.repeat(centers, per_identity, axis=0) + sigma * rng.standard_normal(
        (n_identities * per_identity, dim)
    )
    labels = [f"id{i:05d}" for i in range(n_identities) for _ in range(per_identity)]
    return EmbeddingSet(vectors=vectors.astype(np.float32), labels=labels, normalized=False)


def default_bench_matrix(seed: int = 0) -> list[StrategyConfig]:
    """The standard strategy sweep: exact, two IVF points, two IVF-PQ points."""
    return [
        StrategyConfig(kind="flat", seed=seed),
        StrategyConfig(kind="ivf_flat", nlist=64, nprobe=2, seed=seed),
        StrategyConfig(kind="ivf_flat", nlist=256, nprobe=8, seed=seed),
        StrategyConfig(kind="ivf_pq", nlist=64, nprobe=2, m=16, seed=seed),
        StrategyConfig(kind="ivf_pq", nlist=256, nprobe=8, m=16, seed=seed),
    ]


_TSV_COLUMNS = [
    "strategy",
    "num_clustering_centers",
    "nprobe",
    "m",
    "probes",
    "accuracy_pct",
    "open_set_accuracy_pct",
    "build_s",
    "time_s",
    "per_query_s",
]


def report_rows(reports: list[EvalReport]) -> list[list[str]]:
    rows = [list(_TSV_COLUMNS)]
    for r in reports:
        rows.append(
            [
                r.strategy,
                "-" if r.nlist is None else str(r.nlist),
                "-" if r.nprobe is None else str(r.nprobe),
                "-" if r.m is None else str(r.m),
                str(r.probes),
                f"{r.closed_set_accuracy:.2f}",
                "-" if r.open_set_accuracy is None else f"{r.open_set_accuracy:.2f}",
                f"{r.build_time:.6f}",
                f"{r.total_time:.6f}",
                f"{r.per_query_time:.9f}",
            ]
        )
    return rows


def reports_to_tsv(reports: list[EvalReport]) -> str:
    return "".join("\t".join(row) + "\n" for row in report_rows(reports))


def reports_to_json(reports: list[EvalReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2) + "\n"
