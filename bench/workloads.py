"""The two workloads, their timed run and their traced run.

Both are a closed loop: one client sends one query per call (k=10,
threads=1) and waits for the answer. Each also makes single-threaded
batch calls, builds one IVF index, cleans its gallery, and saves and
loads the index. The timed phases are interleaved in rounds, so that a
slow spell of the host falls on every metric rather than on one.

serve_100k serves flat and ivf_flat over a 100k-row gallery: the time
goes to the squared-L2 kernel over large matrices, top-k selection, the
coarse k-means at k=256 and the CRC over a ~50 MB file.

enroll_20k cleans a 20k-row gallery and serves ivf_pq built on the
result: the time goes to sub-quantizer k-means at d=8 (x16), thousands
of k=2 k-means calls in cleaning and ADC lookups, while the large-matrix
kernel and the CRC do little.

Both galleries hold planted mislabeled rows (5% of the identities on
serve_100k, 25% on enroll_20k), and both report the share of them that
cleaning removes.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

import checks
from spans import SPAN_NAMES, Tracer, peak_alloc_mb

K = 10
DIM = 128
SIGMA = 0.05  # per-coordinate noise around each identity's unit center
PER_IDENTITY = 10
IN_GALLERY = 0.9  # share of probed identities that stay in the gallery
TRAIN_SEED = 0  # k-means seed; the workload seed only shapes the inputs
FAILED = object()


@dataclass(frozen=True)
class Spec:
    kind: str  # the IVF index served next to flat: "ivf_flat" or "ivf_pq"
    identities: int
    probe_identities: int  # identities that each give one held-out probe
    nlist: int
    nprobe: int
    planted: float  # share of gallery identities given one mislabeled row
    m: int = 0
    enroll: bool = False  # gallery goes through FVB and is cleaned before serving
    # Heavy phases, spread evenly over the query rounds of a timed run.
    saves: int = 2  # save-then-load pairs
    batches: int = 2
    setups: int = 2  # setups repeated after the first one
    clean_parts: int = 10  # the gallery is cleaned in this many identity-disjoint parts
    clean_passes: int = 1  # times each part is cleaned
    refill: bool = False  # after the queue, one more save/load pair per round
    flat_per_round: int = 2
    ivf_per_round: int = 100
    min_ivf_samples: int = 1000
    traced_queries: int = 500  # traced run: untraced and traced, each


SPECS = {
    "serve_100k": Spec(kind="ivf_flat", identities=10_000, probe_identities=1000, nlist=256,
                       nprobe=8, planted=0.05, saves=1, batches=4, setups=1, clean_parts=5,
                       clean_passes=2, flat_per_round=1, ivf_per_round=70),
    "enroll_20k": Spec(kind="ivf_pq", identities=2000, probe_identities=1000, nlist=64, nprobe=4,
                       m=16, planted=0.25, enroll=True, saves=6, batches=3, setups=3,
                       clean_parts=4, clean_passes=4, refill=True, flat_per_round=5,
                       ivf_per_round=40),
}

# A size that runs both workloads in seconds, for the self-test.
SMOKE = {
    "serve_100k": replace(SPECS["serve_100k"], identities=300, probe_identities=60, nlist=32,
                          nprobe=4, ivf_per_round=10, min_ivf_samples=60, traced_queries=40),
    "enroll_20k": replace(SPECS["enroll_20k"], identities=100, probe_identities=40, nlist=8,
                          nprobe=2, ivf_per_round=10, min_ivf_samples=60, traced_queries=40),
}


def spread_out(groups: list[list]) -> list:
    """Merge lists so that each one's items fall evenly over the result."""
    placed = [((i + 0.5) / len(g), n, item) for n, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for _, _, item in sorted(placed, key=lambda p: p[:2])]


def split_identities(vse, gallery, parts: int) -> list:
    """The gallery as `parts` sets of whole identities, rows in gallery order,
    each with the gallery rows it holds."""
    order = {label: i for i, label in enumerate(dict.fromkeys(gallery.labels))}
    part_of = np.array([order[label] * parts // len(order) for label in gallery.labels])
    out = []
    for j in range(parts):
        rows = np.flatnonzero(part_of == j)
        out.append((vse.EmbeddingSet(vectors=gallery.vectors[rows],
                                     labels=[gallery.labels[i] for i in rows],
                                     normalized=gallery.normalized), rows))
    return out


@dataclass
class Inputs:
    gallery: object  # EmbeddingSet as the program receives it
    probes: object
    truth: list
    planted: np.ndarray  # gallery rows whose label was replaced
    written: object = None  # the set written to FVB, when setup round-trips it


def plant_outliers(vse, gallery, rate: float, seed: int):
    """Relabel the first row of one donor identity into each of `rate` of the
    identities, so each receiver holds one vector of somebody else."""
    first: dict[str, int] = {}
    for row, label in enumerate(gallery.labels):
        first.setdefault(label, row)
    names = list(first)
    n = int(round(rate * len(names)))
    if n == 0:
        return gallery, np.empty(0, dtype=np.int64)
    rng = np.random.default_rng([seed, 1])  # own stream: the split's draws stay put
    picks = rng.choice(len(names), size=2 * n, replace=False)
    labels = list(gallery.labels)
    rows = []
    for receiver, donor in zip(picks[:n], picks[n:]):
        row = first[names[donor]]
        labels[row] = names[receiver]
        rows.append(row)
    planted = vse.EmbeddingSet(vectors=gallery.vectors, labels=labels, normalized=gallery.normalized)
    return planted, np.sort(np.asarray(rows, dtype=np.int64))


def make_inputs(vse, spec: Spec, seed: int, scratch: str) -> Inputs:
    source = vse.synthetic_gallery(spec.identities, PER_IDENTITY, DIM, SIGMA, seed=seed)
    source = vse.EmbeddingSet(vectors=vse.normalize_rows(source.vectors), labels=source.labels,
                              normalized=True)
    split = vse.make_split(source, vse.SplitSpec(spec.probe_identities, IN_GALLERY, 1, seed=seed))
    gallery, planted = plant_outliers(vse, split.gallery, spec.planted, seed)
    if not spec.enroll:
        return Inputs(gallery, split.probes, split.truth, planted)
    path = os.path.join(scratch, "gallery.fvb")
    vse.write_embeddings(gallery, path)
    return Inputs(vse.read_embeddings(path), split.probes, split.truth, planted, written=gallery)


class Run:
    """One invocation: counts operations, keeps timings, records mismatches."""

    def __init__(self, vse, spec: Spec, scratch: str, tracer: Tracer | None = None):
        self.vse = vse
        self.spec = spec
        self.scratch = scratch
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.index_path = os.path.join(scratch, "index.vidx")
        self.saved_digest = None
        self.file_bytes = 0
        self.first: dict[int, object] = {}  # probe -> first single-query IVF answer
        self.batch_results = None
        self.cleaned_before: dict[int, bytes | None] = {}  # part -> digest of its first clean

    # -- operations and checks --------------------------------------------

    def call(self, metric, fn, *args, **kwargs):
        """One operation on the program; timed into `metric` unless None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return FAILED
        if metric:
            self.samples[metric].append(time.perf_counter() - start)
        return out

    def need(self, metric, fn, *args, **kwargs):
        out = self.call(metric, fn, *args, **kwargs)
        if out is FAILED:
            raise SystemExit(f"{metric or fn.__name__} failed; the run cannot go on")
        return out

    def verify(self, what: str, check, *args):
        with self.tracer.paused() if self.tracer else nullcontext():
            try:
                return check(*args)
            except checks.Mismatch as err:
                self.problems.append(f"{what}: {err}")
                return None

    # -- phases -------------------------------------------------------------

    def setup(self, seed: int) -> None:
        self.inputs = self.need("setup", make_inputs, self.vse, self.spec, seed, self.scratch)
        self.removed = np.zeros(self.inputs.gallery.count, dtype=bool)  # by any checked clean

    def setup_again(self) -> None:
        """Time the setup once more; the same seed must give the same inputs."""
        again = self.call("setup", make_inputs, self.vse, self.spec, self.seed, self.scratch)
        if again is not FAILED:
            self.verify("setup", checks.check_set_equal, self.inputs.gallery, again.gallery)

    def check_inputs(self) -> None:
        self.verify("crc64", checks.check_crc, self.vse.vidx.crc64)
        if self.inputs.written is not None:
            self.verify("fvb round trip", checks.check_set_equal, self.inputs.written,
                        self.inputs.gallery)

    def warm_up(self) -> None:
        """Untimed small versions of each phase, so code paths and caches are warm."""
        vse, s, g = self.vse, self.spec, self.inputs.gallery
        part = vse.EmbeddingSet(vectors=g.vectors[:1000], labels=g.labels[:1000],
                                normalized=g.normalized)
        self.call(None, vse.clean_gallery, part, seed=TRAIN_SEED)
        if s.kind == "ivf_flat":
            small = self.need(None, vse.ivf_flat_build, part, 8, seed=TRAIN_SEED, max_iters=3)
        else:
            small = self.need(None, vse.ivf_pq_build, part, 4, s.m, seed=TRAIN_SEED, max_iters=3)
        path = os.path.join(self.scratch, "warm.vidx")
        self.call(None, vse.save_index, small, path)
        self.call(None, vse.load_index, path)

    def clean(self, gallery, metric: str | None, rows=None):
        """Clean `gallery`; `rows` are its rows in the workload's gallery,
        where the removals are recorded."""
        out = self.call(metric, self.vse.clean_gallery, gallery, seed=TRAIN_SEED)
        if out is FAILED:
            return None, None
        cleaned, reports = out
        removed = self.verify("clean", checks.check_clean, gallery, cleaned, reports)
        if rows is not None and removed is not None:
            self.removed[rows[removed]] = True
        return cleaned, removed

    def clean_part(self, j: int) -> None:
        """Clean part j; a repeat must give what the checked first clean gave."""
        part, rows = self.parts[j]
        if j not in self.cleaned_before:
            cleaned, _ = self.clean(part, f"clean_part{j}", rows)
            self.cleaned_before[j] = None if cleaned is None else checks.set_digest(cleaned)
            return
        out = self.call(f"clean_part{j}", self.vse.clean_gallery, part, seed=TRAIN_SEED)
        if out is not FAILED and self.cleaned_before[j] is not None:
            self.verify("clean repeat", checks.check_same_digest, self.cleaned_before[j], out[0])

    def serve_and_prepare(self) -> None:
        """Fix the served gallery (cleaned on enroll) and its exact answers."""
        g = self.inputs.gallery
        self.served = g
        if self.spec.enroll:
            self.served, _ = self.clean(g, "clean_whole", np.arange(g.count))
            if self.served is None:
                raise SystemExit("clean_gallery failed; the run cannot go on")
        self.parts = split_identities(self.vse, g, self.spec.clean_parts)
        self.q = self.inputs.probes.vectors
        self.exact_ids, self.exact_d = checks.exact_topk(self.served.vectors, self.q, K)

    def build(self) -> None:
        vse, s = self.vse, self.spec
        if s.kind == "ivf_flat":
            self.index = self.need("build", vse.ivf_flat_build, self.served, s.nlist, seed=TRAIN_SEED)
        else:
            self.index = self.need("build", vse.ivf_pq_build, self.served, s.nlist, s.m,
                                   seed=TRAIN_SEED)
        self.flat = vse.flat_build(self.served)
        self.oracle = checks.IvfOracle(self.index, self.served.vectors, s.nprobe, K)

    def check_build(self) -> None:
        n = self.served.count
        sample = np.random.default_rng(0).choice(n, size=min(256, n), replace=False)
        self.verify("build", self.oracle.check_build, sample)
        if self.spec.kind != "ivf_flat":
            return
        # Probing every list must reproduce flat search bit for bit.
        full = self.call(None, self.vse.ivf_flat_search, self.index, self.q[:3], K,
                         nprobe=self.spec.nlist, threads=1)
        flat = self.call(None, self.vse.flat_search, self.flat, self.q[:3], K, threads=1)
        if full is not FAILED and flat is not FAILED:
            for p, (a, b) in enumerate(zip(full, flat)):
                self.verify("full probe", checks.check_same, a, b)
                self.verify("full probe", checks.check_exact, a, self.exact_ids[p], self.exact_d[p])

    def ivf_search(self, index, queries):
        """The served IVF kind, looked up at call time so a traced run sees it."""
        vse, s = self.vse, self.spec
        search = vse.ivf_flat_search if s.kind == "ivf_flat" else vse.ivf_pq_search
        return search(index, queries, K, nprobe=s.nprobe, threads=1)

    def flat_queries(self, probes, metric: str | None = "flat") -> None:
        answers = []
        for p in probes:
            res = self.call(metric, self.vse.flat_search, self.flat, self.q[p : p + 1], K, threads=1)
            if res is not FAILED:
                answers.append((p, res[0]))
        for p, res in answers:
            self.verify("flat", checks.check_exact, res, self.exact_ids[p], self.exact_d[p])

    def ivf_queries(self, probes, metric: str | None = "ivf") -> None:
        answers = []
        for p in probes:
            res = self.call(metric, self.ivf_search, self.index, self.q[p : p + 1])
            if res is not FAILED:
                answers.append((p, res[0]))
        for p, res in answers:
            self.verify(self.spec.kind, self.oracle.check, res, self.q[p])
            self.first.setdefault(p, res)

    def query_round(self, r: int) -> None:
        """Timed queries, each kind after untimed ones: the heavy phase that
        ran before leaves the caches cold."""
        s, n = self.spec, self.q.shape[0]
        flat = [(r * s.flat_per_round + i) % n for i in range(s.flat_per_round)]
        ivf = [(r * s.ivf_per_round + i) % n for i in range(s.ivf_per_round)]
        self.flat_queries(flat[:1], metric=None)
        self.flat_queries(flat)
        self.ivf_queries(ivf[:3], metric=None)
        self.ivf_queries(ivf)

    def batch(self) -> None:
        res = self.call("batch", self.ivf_search, self.index, self.q)
        if res is FAILED:
            return
        for p, answer in enumerate(res):
            if p in self.first:
                self.verify("batch", checks.check_same, answer, self.first[p])
            else:
                self.verify("batch", self.oracle.check, answer, self.q[p])
        self.batch_results = res

    def save(self) -> None:
        if self.call("save", self.vse.save_index, self.index, self.index_path) is FAILED:
            return
        with open(self.index_path, "rb") as fh:
            blob = fh.read()
        digest = self.verify("save", checks.check_saved, blob, self.saved_digest,
                             checks.vidx_size(self.index))
        self.saved_digest = self.saved_digest or digest
        self.file_bytes = len(blob)

    def load(self) -> None:
        loaded = self.call("load", self.vse.load_index, self.index_path)
        if loaded is FAILED:
            return
        self.verify("load", checks.check_index_equal, self.index, loaded)
        with self.tracer.paused() if self.tracer else nullcontext():
            again = self.call(None, self.ivf_search, loaded, self.q[:2])
            before = self.call(None, self.ivf_search, self.index, self.q[:2])
        if again is not FAILED and before is not FAILED:
            for a, b in zip(again, before):
                self.verify("load", checks.check_same, a, b)

    def save_load(self) -> None:
        self.save()
        self.load()

    # -- the two kinds of run -------------------------------------------------

    def timed_run(self, seed: int, seconds: float) -> dict:
        """Setup, build, then query rounds with one heavy phase after each,
        until the heavy queue is empty and `seconds` have passed."""
        s = self.spec
        self.seed = seed
        self.setup(seed)
        self.check_inputs()
        deadline = time.perf_counter() + seconds
        self.warm_up()
        self.serve_and_prepare()
        self.build()
        self.check_build()
        self.flat_queries(range(2), metric=None)
        self.ivf_queries(range(20), metric=None)
        queue = spread_out([
            [self.save_load] * s.saves,
            [self.batch] * s.batches,
            [self.setup_again] * s.setups,
            [partial(self.clean_part, j) for j in range(s.clean_parts)] * s.clean_passes,
        ])
        r = 0
        while True:
            self.query_round(r)
            r += 1
            if queue:
                queue.pop(0)()
            elif time.perf_counter() >= deadline and len(self.samples["ivf"]) >= s.min_ivf_samples:
                break
            elif s.refill:
                self.save_load()
        return self.end_to_end(rounds=r)

    def end_to_end(self, rounds: int) -> dict:
        med = lambda name: statistics.median(self.samples[name])  # noqa: E731
        flat_ms = np.asarray(self.samples["flat"]) * 1e3
        ivf_ms = np.asarray(self.samples["ivf"]) * 1e3
        recall, top1 = checks.recall_and_top1(self.batch_results, self.exact_ids,
                                              self.served.labels, self.inputs.truth,
                                              self.vse.OUT_OF_GALLERY)
        mb = self.file_bytes / 1e6
        clean_s = sum(med(f"clean_part{j}") for j in range(self.spec.clean_parts))
        summary = ", ".join(f"{k} n={len(v)} med={statistics.median(v):.4g}"
                            for k, v in sorted(self.samples.items()))
        print(f"rounds={rounds}; {summary}; ivf p99 {np.percentile(ivf_ms, 99):.4g} ms",
              file=sys.stderr)
        caught = int(self.removed[self.inputs.planted].sum())
        print(f"clean: removed {int(self.removed.sum())} rows, {caught} of "
              f"{self.inputs.planted.size} planted", file=sys.stderr)
        return {
            "setup_s": (med("setup"), "s"),
            "clean_s": (clean_s, "s"),
            "build_s": (med("build"), "s"),
            "flat_p50_ms": (float(np.median(flat_ms)), "ms"),
            "ivf_p50_ms": (float(np.median(ivf_ms)), "ms"),
            "batch_qps": (self.q.shape[0] / med("batch"), "1/s"),
            "save_mbps": (mb / med("save"), "MB/s"),
            "load_mbps": (mb / med("load"), "MB/s"),
            "recall_at_10": (recall, "fraction"),
            "top1_acc_pct": (top1, "%"),
            "outliers_removed_pct": (100.0 * caught / self.inputs.planted.size, "%"),
            "bytes_per_vector": (self.file_bytes / self.index.count, "B"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def traced_run(self, seed: int, spans_path: str) -> dict:
        """A fixed amount of work with spans on, then a tracemalloc pass.

        The clean and the per-query search also run untraced, so the tracing
        overhead is measured in the same process, on the same inputs.
        """
        tracer, s = self.tracer, self.spec
        self.seed = seed
        with tracer.active():
            self.setup(seed)
        self.check_inputs()
        self.warm_up()
        self.clean(self.inputs.gallery, "clean_untraced")
        with tracer.active():
            self.clean(self.inputs.gallery, "clean_traced")
        self.serve_and_prepare()  # on enroll, cleans again untraced
        with tracer.active():
            self.build()
        self.check_build()
        self.ivf_queries(range(20), metric=None)
        # Untraced and traced chunks alternate, so both see the same host.
        n, chunk = self.q.shape[0], 100 if s.traced_queries >= 100 else 10
        for start in range(0, s.traced_queries, chunk):
            probes = [p % n for p in range(start, start + chunk)]
            self.ivf_queries(probes, metric="ivf_untraced")
            with tracer.active():
                self.ivf_queries(probes, metric="ivf_traced")
        with tracer.active():
            self.flat_queries(range(s.flat_per_round * 4))
            self.batch()
            self.save_load()
        tracer.write(spans_path)

        peaks = {}
        _, peaks["build"] = peak_alloc_mb(self.build)
        _, peaks["search"] = peak_alloc_mb(self.ivf_search, self.index, self.q[:200])
        _, peaks["save"] = peak_alloc_mb(self.save)
        _, peaks["load"] = peak_alloc_mb(self.load)

        metrics = {}
        self_s = tracer.self_times()
        for name in SPAN_NAMES:
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        c = tracer.counts
        for name in ("core.squared_l2_batch.rows", "kmeans.kmeans_train.calls",
                     "ivf_pq.adc_table.calls", "gallery.clean_identity.calls"):
            metrics[name] = (c[name], "count")
        metrics["vidx.crc64.bytes"] = (c["vidx.crc64.bytes"], "B")
        for kind in ("ivf_flat", "ivf_pq"):
            metrics[f"{kind}.scanned_per_query"] = (c[f"{kind}.scanned"] / max(1, c[f"{kind}.queries"]), "rows")
        metrics["ivf_flat.empty_probes"] = (c["ivf_flat.empty_probes"], "count")
        for phase, mb in peaks.items():
            metrics[f"{phase}.peak_alloc_mb"] = (mb, "MB")
        med = lambda name: statistics.median(self.samples[name])  # noqa: E731
        metrics["trace.search_overhead_ms"] = ((med("ivf_traced") - med("ivf_untraced")) * 1e3, "ms")
        metrics["trace.clean_overhead_s"] = (med("clean_traced") - med("clean_untraced"), "s")
        return metrics


def run(vse, workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        scratch: str, spans_path: str) -> dict:
    """Run one workload; return the result object the benchmark prints."""
    spec = (SMOKE if smoke else SPECS)[workload]
    bench = Run(vse, spec, scratch, Tracer() if trace else None)
    if trace:
        metrics = bench.traced_run(seed, spans_path)
    else:
        metrics = bench.timed_run(seed, seconds)
    for problem in bench.problems[:20]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
