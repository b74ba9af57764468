"""Spans and counts around vse's public functions, recorded from outside.

A traced run replaces each function in TARGETS wherever a vse module
binds it, so a call from inside the package (``vse.flat`` calling
``squared_l2_batch``) is recorded as well as a call from the benchmark.
Each span keeps its parent; a layer's self time is its spans' time minus
the time of their direct child spans. Counts are derived from the calls'
arguments and return values.

Memory is measured in a separate pass with tracemalloc, never while spans
are timed, because tracemalloc slows numpy-heavy Python code 1.2x-2.5x.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, function) pairs wrapped in a traced run. A metric name drops the
# leading underscore of `_io`, since metric names start with a letter.
TARGETS = [
    ("core", "squared_l2_batch"),
    ("core", "top_k_smallest"),
    ("kmeans", "kmeans_train"),
    ("kmeans", "assign"),
    ("flat", "flat_search"),
    ("ivf_flat", "probe_order"),
    ("ivf_flat", "ivf_flat_build"),
    ("ivf_flat", "ivf_flat_search"),
    ("ivf_pq", "adc_table"),
    ("ivf_pq", "ivf_pq_build"),
    ("ivf_pq", "ivf_pq_search"),
    ("gallery", "clean_identity"),
    ("gallery", "clean_gallery"),
    ("vidx", "crc64"),
    ("vidx", "save_index"),
    ("vidx", "load_index"),
    ("_io", "atomic_write_bytes"),
    ("fvb", "write_embeddings"),
    ("fvb", "read_embeddings"),
    ("evaluate", "synthetic_gallery"),
    ("evaluate", "make_split"),
]
SPAN_NAMES = [f"{mod.lstrip('_')}.{fn}" for mod, fn in TARGETS]
SEARCHES = ("ivf_flat.ivf_flat_search", "ivf_pq.ivf_pq_search")


def bindings(fn) -> list:
    """Every (module, attribute) in the vse package that is bound to fn."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "vse" or name.startswith("vse.")):
            continue
        for attr, value in vars(module).items():
            if value is fn:
                found.append((module, attr))
    return found


class Tracer:
    """Spans in memory, (id, parent id, name, start, end), plus counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[tuple] = []  # (id, name, args) of the spans now running
        self._next_id = 0
        self._recording = True

    @contextmanager
    def paused(self):
        """Calls inside this block, such as a check's own searches, go unrecorded."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    @contextmanager
    def active(self):
        """Record calls to the TARGETS functions inside this block."""
        patched = []
        for mod, fn_name in TARGETS:
            original = getattr(sys.modules[f"vse.{mod}"], fn_name)
            wrapper = self._wrap(f"{mod.lstrip('_')}.{fn_name}", original)
            for module, attr in bindings(original):
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            self._open.append((span_id, name, args))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append((span_id, parent, name, start, end))
            self._count(name, args, out)
            return out

        return traced

    def _count(self, name: str, args: tuple, out) -> None:
        c = self.counts
        if name == "core.squared_l2_batch":
            c[name + ".rows"] += args[0].shape[0]
        elif name in ("kmeans.kmeans_train", "ivf_pq.adc_table", "gallery.clean_identity"):
            c[name + ".calls"] += 1
        elif name == "vidx.crc64":
            c[name + ".bytes"] += len(args[0])
        elif name == "ivf_flat.probe_order":
            # The enclosing search holds the index; its lists give the rows
            # each probed centroid stands for.
            for _, outer, outer_args in reversed(self._open):
                if outer in SEARCHES:
                    sizes = np.array([outer_args[0].list_ids[p].shape[0] for p in out])
                    kind = outer.split(".")[0]
                    c[kind + ".queries"] += 1
                    c[kind + ".scanned"] += int(sizes.sum())
                    c[kind + ".empty_probes"] += int(np.count_nonzero(sizes == 0))
                    break

    def self_times(self) -> dict[str, float]:
        children: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start) - children[span_id]
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def peak_alloc_mb(fn, *args, **kwargs):
    """Run fn under tracemalloc; return (result, peak MB allocated meanwhile).

    crc64 runs with tracing stopped: tracemalloc makes its pure-Python loop
    about 24x slower. The peak is then the larger of the peak before it and
    the memory live when it started plus the peak after it, so the CRC's own
    scratch copy of the data is left out.
    """
    crc = sys.modules["vse.vidx"].crc64
    crc_sites = bindings(crc)
    state = {"live": 0, "peak": 0}

    def crc_untraced(data):
        current, peak = tracemalloc.get_traced_memory()
        state["peak"] = max(state["peak"], state["live"] + peak)
        state["live"] += current
        tracemalloc.stop()
        try:
            return crc(data)
        finally:
            tracemalloc.start()

    for module, attr in crc_sites:
        setattr(module, attr, crc_untraced)
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        for module, attr in crc_sites:
            setattr(module, attr, crc)
    return out, max(state["peak"], state["live"] + peak) / 1e6
