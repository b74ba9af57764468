"""Self-test of the benchmark: smoke runs, wrong answers, a bare checkout.

    python3 bench/selftest.py

1. Runs both workloads at the smoke size, untraced and traced, and checks
   that each run prints every metric BENCHMARK.json names for its mode,
   with correct=true and no failed operation.
2. Feeds each correctness check a right answer, which must pass, and
   deliberately wrong ones (a swapped id, a nudged distance, a flipped
   byte in a saved file, ...), which must raise Mismatch.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   bench/, where it must exit non-zero without printing a result.

Exits 0 when every step passes.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import vse  # noqa: E402

import checks  # noqa: E402
from checks import Mismatch  # noqa: E402

FAILURES = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[selftest] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    if not ok:
        FAILURES.append(name)


def rejects(name: str, check, *args) -> None:
    try:
        check(*args)
    except Mismatch as err:
        report(name, True, f"({err})")
    else:
        report(name, False, "(wrong answer accepted)")


def accepts(name: str, check, *args) -> None:
    try:
        check(*args)
    except Mismatch as err:
        report(name, False, f"({err})")
    else:
        report(name, True)


def smoke_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            name = f"smoke {w['name']} trace={trace}"
            if proc.returncode != 0:
                report(name, False, proc.stderr.strip().splitlines()[-1:])
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok = res["correct"] and res["failed"] == 0 and res["attempted"] > 0 and got == want
            report(name, ok, f"(attempted {res['attempted']})")


def with_result(res, ids=None, dists=None, approximate=None):
    return vse.SearchResult(ids=res.ids if ids is None else ids,
                            dists=res.dists if dists is None else dists,
                            approximate=res.approximate if approximate is None else approximate)


def wrong_answers(scratch: str) -> None:
    src = vse.synthetic_gallery(300, 10, 128, 0.05, seed=5)
    gallery = vse.EmbeddingSet(vectors=vse.normalize_rows(src.vectors), labels=src.labels,
                               normalized=True)
    x = gallery.vectors
    q = x[:4] + np.float32(0.01)
    exact_ids, exact_d = checks.exact_topk(x, q, 10)

    flat = vse.flat_search(vse.flat_build(gallery), q[:1], 10)[0]
    accepts("flat: exact answer", checks.check_exact, flat, exact_ids[0], exact_d[0])
    swapped = flat.ids.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    rejects("flat: swapped ids", checks.check_exact, with_result(flat, ids=swapped),
            exact_ids[0], exact_d[0])
    nudged = flat.dists.copy()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    rejects("flat: distance one ulp off", checks.check_exact, with_result(flat, dists=nudged),
            exact_ids[0], exact_d[0])
    rejects("flat: flagged approximate", checks.check_exact,
            with_result(flat, approximate=True), exact_ids[0], exact_d[0])
    rejects("order: unsorted result", checks.check_order,
            with_result(flat, ids=flat.ids[::-1], dists=flat.dists[::-1]))

    ivf = vse.ivf_flat_build(gallery, 16, seed=0)
    oracle = checks.IvfOracle(ivf, x, 2, 10)
    res = vse.ivf_flat_search(ivf, q[:1], 10, nprobe=2)[0]
    accepts("ivf_flat: right answer", oracle.check, res, q[0])
    accepts("ivf_flat: built right", oracle.check_build, np.arange(0, x.shape[0], 7))
    nudged = res.dists.copy()
    nudged[-1] = np.nextafter(nudged[-1], np.inf)
    rejects("ivf_flat: distance one ulp off", oracle.check, with_result(res, dists=nudged), q[0])
    rejects("ivf_flat: exact flag on a partial probe", oracle.check,
            with_result(res, approximate=False), q[0])
    far = int(np.argmax(checks.sq_l2(x, q[0])))
    ids = res.ids.copy()
    ids[-1] = far
    dists = res.dists.copy()
    dists[-1] = checks.sq_l2(x[far], q[0])[0]
    order = np.lexsort((ids, dists))
    rejects("ivf_flat: row from an unprobed list", oracle.check,
            with_result(res, ids=ids[order], dists=dists[order]), q[0])
    # Move one row into a list whose centroid is not its nearest.
    row = int(ivf.list_ids[0][0])
    list_ids = [a for a in ivf.list_ids]
    list_vecs = [a for a in ivf.list_vectors]
    list_ids[0], list_vecs[0] = list_ids[0][1:], list_vecs[0][1:]
    list_ids[1] = np.append(list_ids[1], row)
    list_vecs[1] = np.vstack([list_vecs[1], x[row : row + 1]])
    moved = vse.IvfFlatIndex(coarse=ivf.coarse, list_ids=tuple(list_ids),
                             list_vectors=tuple(list_vecs), labels=ivf.labels,
                             normalized=ivf.normalized)
    rejects("ivf_flat: row filed in the wrong list",
            checks.IvfOracle(moved, x, 2, 10).check_build, np.array([row]))

    pq = vse.ivf_pq_build(gallery, 8, 16, seed=0, max_iters=5)
    pq_oracle = checks.IvfOracle(pq, x, 2, 10)
    res = vse.ivf_pq_search(pq, q[:1], 10, nprobe=2)[0]
    accepts("ivf_pq: right answer", pq_oracle.check, res, q[0])
    accepts("ivf_pq: codes name nearest sub-centroids", pq_oracle.check_build, np.arange(0, 3000, 97))
    nudged = res.dists.copy()
    nudged[0] = np.nextafter(nudged[0], -np.inf)
    rejects("ivf_pq: estimate one ulp off", pq_oracle.check, with_result(res, dists=nudged), q[0])
    rejects("ivf_pq: flagged exact", pq_oracle.check, with_result(res, approximate=False), q[0])

    cleaned, reports = vse.clean_gallery(gallery)
    accepts("clean: right answer", checks.check_clean, gallery, cleaned, reports)
    short = vse.EmbeddingSet(vectors=cleaned.vectors[1:], labels=cleaned.labels[1:], normalized=True)
    rejects("clean: a kept row missing", checks.check_clean, gallery, short, reports)
    accepts("clean: repeat gives the same set", checks.check_same_digest,
            checks.set_digest(cleaned), vse.clean_gallery(gallery)[0])
    rejects("clean: repeat gives another set", checks.check_same_digest,
            checks.set_digest(cleaned), short)
    bad = list(reports)
    r0 = bad[0]
    bad[0] = vse.CleanReport(identity=r0.identity, kept=r0.kept[1:],
                             removed=np.append(r0.removed, r0.kept[0]),
                             main_center=r0.main_center, avg_dist=r0.avg_dist,
                             threshold=r0.threshold)
    rejects("clean: removal inside the threshold", checks.check_clean, gallery, cleaned, bad)
    report_of = lambda **kw: [replace(reports[0], **kw)] + reports[1:]  # noqa: E731
    rejects("clean: infinite threshold, nothing removed", checks.check_clean, gallery, cleaned,
            report_of(threshold=np.inf))
    rejects("clean: threshold not twice avg_dist", checks.check_clean, gallery, cleaned,
            report_of(threshold=r0.threshold * 1.5))
    rejects("clean: avg_dist of no majority subset", checks.check_clean, gallery, cleaned,
            report_of(avg_dist=r0.avg_dist * 1.5, threshold=r0.threshold * 1.5))
    rejects("clean: main_center moved", checks.check_clean, gallery, cleaned,
            report_of(main_center=r0.main_center + np.float32(1e-3)))

    path = os.path.join(scratch, "gallery.fvb")
    vse.write_embeddings(gallery, path)
    accepts("fvb: round trip", checks.check_set_equal, gallery, vse.read_embeddings(path))
    relabeled = vse.EmbeddingSet(vectors=x, labels=["x"] + gallery.labels[1:], normalized=True)
    rejects("fvb: changed label", checks.check_set_equal, relabeled, vse.read_embeddings(path))

    path = os.path.join(scratch, "index.vidx")
    vse.save_index(ivf, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    size = checks.vidx_size(ivf)
    digest = checks.check_saved(blob, None, size)
    accepts("vidx: second save", checks.check_saved, blob, digest, size)
    flipped = bytearray(blob)
    flipped[-12] ^= 1  # low mantissa byte of the last stored float
    rejects("vidx: flipped byte against the first save", checks.check_saved, bytes(flipped),
            digest, size)
    rejects("vidx: truncated file", checks.check_saved, blob[:-1], None, size)
    accepts("vidx: load round trip", checks.check_index_equal, ivf, vse.load_index(path))
    body = bytes(flipped[:-8])
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<Q", vse.vidx.crc64(body)))
    rejects("vidx: flipped byte with a valid CRC", checks.check_index_equal, ivf,
            vse.load_index(path))
    accepts("crc64 check value", checks.check_crc, vse.vidx.crc64)
    rejects("crc64: wrong function", checks.check_crc, lambda data: 0)


def bare_directory(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(bare, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--workload", "serve_100k", "--seed", "1", "--seconds", "1",
                                     "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180, check=False)
    printed = proc.stdout.strip().splitlines()
    ok = proc.returncode != 0 and not (printed and printed[-1].startswith("{"))
    report("bare checkout exits non-zero", ok, f"(exit code {proc.returncode})")


def main() -> int:
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=out)
    try:
        smoke_runs()
        wrong_answers(scratch)
        bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"[selftest] {'all passed' if not FAILURES else f'{len(FAILURES)} failed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
