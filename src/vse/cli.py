"""Command-line surface: ingest, clean, fuse, build, search, eval, bench.

Exit codes are a stable contract: 0 success, 1 usage error (bad arguments,
bad flag combinations), 2 data or format error (unreadable files, bad
values, checksum failures), 3 internal invariant violation. Every training
command takes a required --seed so reported numbers are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from ._io import FormatError, atomic_write_bytes, read_label_file
from .core import DataError, EmbeddingSet, normalize_rows
from .evaluate import (
    OUT_OF_GALLERY,
    SplitSpec,
    StrategyConfig,
    _KIND_PARAMS,
    _build_for,
    _check_params,
    default_bench_matrix,
    make_split,
    reports_to_json,
    reports_to_tsv,
    run_benchmark,
    search_any,
    synthetic_gallery,
)
from .fvb import default_labels_path, read_embeddings, write_embeddings
from .gallery import FusionStrategy, clean_gallery, fuse_sets
from .vidx import load_index, save_index

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_bytes(path, text.encode("utf-8"))


def _read_csv(path: str) -> np.ndarray:
    rows: list[list[float]] = []
    linenos: list[int] = []
    dim: int | None = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if dim is None:
                dim = len(row)
            elif len(row) != dim:
                raise DataError(
                    f"row {lineno}: expected {dim} values, got {len(row)} (ragged CSV)"
                )
            values = []
            for cell in row:
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(f"row {lineno}: non-numeric cell {cell.strip()!r}")
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise DataError(f"{path} contains no data rows")
    # The check is on the f32 values: 1e40 is a finite float but not a finite f32.
    with np.errstate(over="ignore"):
        arr = np.asarray(rows, dtype=np.float32)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise DataError(f"row {linenos[int(np.argmin(finite))]}: non-finite value")
    return arr


def cmd_ingest(args) -> int:
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if args.input.lower().endswith(".csv") else "fvb"
    if fmt == "csv":
        vectors = _read_csv(args.input)
        if args.labels:
            labels, _ = read_label_file(args.labels, vectors.shape[0], FormatError)
        else:
            labels = [str(i) for i in range(vectors.shape[0])]
        normalized = False
    else:
        source = read_embeddings(args.input, labels_path=args.labels)
        vectors = source.vectors
        labels = source.labels
        normalized = source.normalized
    if args.normalize:
        vectors = normalize_rows(vectors)
        normalized = True
    out = EmbeddingSet(vectors=vectors, labels=labels, normalized=normalized)
    write_embeddings(out, args.out)
    print(f"wrote {out.count} x {out.dim} vectors to {args.out}")
    return 0


def _strategy(args) -> StrategyConfig:
    """The StrategyConfig of --kind and its flags. A flag the kind does not
    take, or a required one left out, is a usage error; a bad value is a
    DataError."""
    _check_params(args.kind, args, UsageError, flag="--")
    nprobe = getattr(args, "nprobe", None)  # vse build has no --nprobe
    return StrategyConfig(
        kind=args.kind, nlist=args.nlist, nprobe=nprobe, m=args.m, seed=args.seed
    )


def cmd_build(args) -> int:
    config = _strategy(args)
    base = read_embeddings(args.input, labels_path=args.labels)
    index = _build_for(config, base, max_iters=args.max_iters)
    save_index(index, args.out)
    print(f"built {args.kind} index over {base.count} x {base.dim} -> {args.out}")
    return 0


def cmd_search(args) -> int:
    index = load_index(args.index)
    if args.nprobe is not None and "nprobe" not in _KIND_PARAMS[index.kind]:
        raise UsageError(f"{index.kind} takes no --nprobe")
    queries = read_embeddings(args.queries, labels_path=args.query_labels)
    results = search_any(index, queries, k=args.k, nprobe=args.nprobe)
    labels = index.labels
    lines = ["query_idx\trank\tid\tlabel\tdist\n"]
    for qi, result in enumerate(results):
        for rank, (vid, dist) in enumerate(result.entries(), start=1):
            lines.append(f"{qi}\t{rank}\t{vid}\t{labels[vid]}\t{dist!r}\n")
    _write_text(args.out, "".join(lines))
    return 0


def cmd_clean(args) -> int:
    source = read_embeddings(args.input, labels_path=args.labels)
    cleaned, reports = clean_gallery(source, seed=args.seed)
    write_embeddings(cleaned, args.out)
    if args.report:
        lines = []
        for r in reports:
            lines.append(
                json.dumps(
                    {
                        "identity": r.identity,
                        "kept": [int(i) for i in r.kept],
                        "removed": [int(i) for i in r.removed],
                        "avg_dist": r.avg_dist,
                        "threshold": r.threshold,
                    }
                )
                + "\n"
            )
        _write_text(args.report, "".join(lines))
    removed = source.count - cleaned.count
    print(
        f"cleaned {len(reports)} identities: kept {cleaned.count}, removed {removed} "
        f"-> {args.out}"
    )
    return 0


def cmd_fuse(args) -> int:
    strategy = FusionStrategy(args.strategy)
    first = read_embeddings(args.inputs[0])
    if len(args.inputs) == 2:
        second = read_embeddings(args.inputs[1])
    elif strategy is FusionStrategy.SINGLE:
        second = None
    else:
        # One file: row i pairs with row i + count/2.
        if first.count % 2 != 0:
            raise DataError(
                f"single-input fusion needs an even row count, got {first.count}"
            )
        half = first.count // 2
        for i in range(half):
            if first.labels[i] != first.labels[i + half]:
                raise DataError(
                    f"rows {i} and {i + half} pair different labels: "
                    f"{first.labels[i]!r} vs {first.labels[i + half]!r}"
                )
        second = EmbeddingSet(
            vectors=first.vectors[half:], labels=first.labels[half:], normalized=False
        )
        first = EmbeddingSet(
            vectors=first.vectors[:half], labels=first.labels[:half], normalized=False
        )
    fused = fuse_sets(first, second, strategy, normalize=args.normalize)
    write_embeddings(fused, args.out)
    print(f"fused {fused.count} x {fused.dim} vectors ({strategy.value}) -> {args.out}")
    return 0


def _emit_reports(args, reports) -> None:
    wrote = False
    if args.json:
        _write_text(args.json, reports_to_json(reports))
        wrote = True
    if args.tsv:
        _write_text(args.tsv, reports_to_tsv(reports))
        wrote = True
    if not wrote:
        _write_text(None, reports_to_tsv(reports))


def cmd_eval(args) -> int:
    config = _strategy(args)
    gallery = read_embeddings(args.gallery)
    probes = read_embeddings(args.probes)
    known = set(gallery.labels)
    truth = [label if label in known else OUT_OF_GALLERY for label in probes.labels]
    reports = run_benchmark(gallery, probes, truth, [config], threshold=args.threshold)
    _emit_reports(args, reports)
    return 0


def cmd_bench(args) -> int:
    source = synthetic_gallery(
        n_identities=args.identities,
        per_identity=args.per_identity,
        dim=args.dim,
        sigma=args.sigma,
        seed=args.seed,
    )
    source = EmbeddingSet(
        vectors=normalize_rows(source.vectors), labels=source.labels, normalized=True
    )
    split = make_split(
        source,
        SplitSpec(
            n_identities=args.identities,
            in_gallery_fraction=args.in_gallery_fraction,
            probes_per_identity=args.probes_per_identity,
            seed=args.seed,
        ),
    )
    reports = run_benchmark(
        split.gallery,
        split.probes,
        split.truth,
        default_bench_matrix(seed=args.seed),
        threshold=args.threshold,
    )
    _emit_reports(args, reports)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="vse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert CSV or FVB input into a normalized FVB file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["auto", "csv", "fvb"], default="auto")
    p.add_argument("--labels", help="labels file, one per line (default: row numbers for CSV)")
    p.add_argument("--out", required=True)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="build an index file of one --kind")
    p.add_argument("--input", required=True, help="FVB base set")
    p.add_argument("--labels", help="labels sidecar (default: <input>.labels)")
    p.add_argument("--kind", required=True, choices=list(_KIND_PARAMS))
    p.add_argument("--nlist", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--max-iters", type=int, default=25)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="run queries against an index file, emit TSV")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="FVB query set")
    p.add_argument("--query-labels", help="labels sidecar for the queries")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--nprobe", type=int)
    p.add_argument("--out", help="TSV path (default: stdout)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("clean", help="per-identity outlier removal over a labeled FVB set")
    p.add_argument("--input", required=True)
    p.add_argument("--labels")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="JSON-lines report path")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("fuse", help="fuse paired feature files (or halves of one file)")
    p.add_argument("--inputs", nargs="+", required=True, metavar="FVB")
    p.add_argument(
        "--strategy", required=True, choices=[s.value for s in FusionStrategy]
    )
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="top-1 accuracy of one strategy on a gallery/probe pair")
    p.add_argument("--gallery", required=True)
    p.add_argument("--probes", required=True)
    p.add_argument("--kind", required=True, choices=list(_KIND_PARAMS))
    p.add_argument("--nlist", type=int)
    p.add_argument("--nprobe", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", help="JSON report path")
    p.add_argument("--tsv", help="TSV report path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="strategy matrix on the seeded synthetic gallery")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--identities", type=int, default=1000)
    p.add_argument("--per-identity", type=int, default=10)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--in-gallery-fraction", type=float, default=0.8)
    p.add_argument("--probes-per-identity", type=int, default=3)
    p.add_argument("--threshold", type=float)
    p.add_argument("--json", help="JSON report path")
    p.add_argument("--tsv", help="TSV report path (default: stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
