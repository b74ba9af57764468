"""Run one benchmark workload against the vse sources beside this directory.

    python3 bench/run.py --workload serve_100k --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object: whether every output
checked out, how many operations were attempted and failed, and the
metrics. With --trace 0 they are the end-to-end metrics; with --trace 1 a
traced run prints the per-layer metrics and writes its spans to
.bench_out/trace-<workload>.jsonl. See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads: every search runs with
# threads=1, and on a small machine a BLAS pool only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("serve_100k", "enroll_20k")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a small gallery that runs in seconds")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vse", "__init__.py")):
        print(f"bench: no vse package under {SRC}", file=sys.stderr)
        return 2
    # The run is single-threaded; keeping it on one CPU, the same in every
    # run, avoids migrations and the spread between CPUs of unequal speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import vse
    import workloads

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    spans_path = os.path.join(OUT, f"trace-{args.workload}.jsonl")
    try:
        result = workloads.run(vse, args.workload, args.seed, args.seconds, bool(args.trace),
                               args.size == "smoke", scratch, spans_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
