import itertools
import json
import warnings

import numpy as np
import pytest

from vse import DataError, EmbeddingSet, StrategyConfig, read_embeddings, write_embeddings
from vse.cli import build_parser, main


def run(argv):
    return main(argv)


def write_csv(path, rows):
    with open(path, "w") as f:
        for row in rows:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def write_set(path, n=64, d=8, seed=0, labels=None, normalized=False):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)).astype(np.float32)
    if normalized:
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows.astype(np.float32)
    es = EmbeddingSet(
        vectors=rows,
        labels=labels or [f"r{i}" for i in range(n)],
        normalized=False,
    )
    write_embeddings(es, str(path))
    return es


def test_ingest_csv_normalizes(tmp_path):
    csv = tmp_path / "v.csv"
    write_csv(csv, [[1.0, 0.0], [0.0, 1.0]])
    out = tmp_path / "v.fvb"
    assert run(["ingest", "--input", str(csv), "--out", str(out)]) == 0
    es = read_embeddings(str(out))
    assert es.normalized is True
    assert np.array_equal(es.vectors, np.eye(2, dtype=np.float32))
    assert es.labels == ["0", "1"]


def test_ingest_fvb_passthrough_is_identity(tmp_path):
    src = tmp_path / "in.fvb"
    write_set(src, n=20, d=6, seed=1)
    out = tmp_path / "out.fvb"
    assert run(
        ["ingest", "--input", str(src), "--out", str(out), "--no-normalize"]
    ) == 0
    assert open(src, "rb").read() == open(out, "rb").read()


def test_ingest_csv_round_trips_large(tmp_path):
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((10_000, 16)).astype(np.float32)
    csv = tmp_path / "big.csv"
    write_csv(csv, rows)
    out = tmp_path / "big.fvb"
    assert run(
        ["ingest", "--input", str(csv), "--out", str(out), "--no-normalize"]
    ) == 0
    assert np.array_equal(read_embeddings(str(out)).vectors, rows)


def test_ingest_ragged_csv_names_row(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    open(csv, "w").write("1.0,2.0\n3.0\n")
    out = tmp_path / "bad.fvb"
    assert run(["ingest", "--input", str(csv), "--out", str(out)]) == 2
    assert "row 2" in capsys.readouterr().err


def test_ingest_non_numeric_csv_names_row(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    open(csv, "w").write("1.0,2.0\n1.0,zebra\n")
    out = tmp_path / "bad.fvb"
    assert run(["ingest", "--input", str(csv), "--out", str(out)]) == 2
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "1e40"])
def test_ingest_non_finite_csv_names_file_line(tmp_path, capsys, value):
    """After a blank line the data row and the file line differ; the error
    names the line, as a ragged row does. 1e40 is finite only before the
    cast to f32, and the cast warns nothing."""
    csv = tmp_path / "bad.csv"
    open(csv, "w").write(f"1,2\n\n3,4\n{value},5\n")
    out = tmp_path / "bad.fvb"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["ingest", "--input", str(csv), "--out", str(out)]) == 2
    assert "row 4: non-finite value" in capsys.readouterr().err


def test_build_and_search_self_hit(tmp_path, capsys):
    base = tmp_path / "base.fvb"
    es = write_set(base, n=50, d=8, seed=3)
    idx = tmp_path / "base.vidx"
    assert run(
        ["build", "--input", str(base), "--kind", "flat", "--seed", "0",
         "--out", str(idx)]
    ) == 0
    capsys.readouterr()

    queries = tmp_path / "q.fvb"
    write_embeddings(
        EmbeddingSet(vectors=es.vectors[7:8], labels=["probe"], normalized=False),
        str(queries),
    )
    assert run(
        ["search", "--index", str(idx), "--queries", str(queries), "--k", "3"]
    ) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "query_idx\trank\tid\tlabel\tdist"
    first = lines[1].split("\t")
    assert first == ["0", "1", "7", "r7", "0.0"]


def test_search_results_stable_across_runs(tmp_path, capsys):
    base = tmp_path / "base.fvb"
    write_set(base, n=80, d=8, seed=4)
    idx = tmp_path / "b.vidx"
    run(["build", "--input", str(base), "--kind", "ivf_flat", "--nlist", "4",
         "--seed", "1", "--out", str(idx)])
    queries = tmp_path / "q.fvb"
    write_set(queries, n=10, d=8, seed=5)
    capsys.readouterr()
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    run(["search", "--index", str(idx), "--queries", str(queries),
         "--nprobe", "2", "--out", str(a)])
    run(["search", "--index", str(idx), "--queries", str(queries),
         "--nprobe", "2", "--out", str(b)])
    assert open(a).read() == open(b).read()


def test_build_flat_rejects_nlist(tmp_path, capsys):
    base = tmp_path / "base.fvb"
    write_set(base)
    code = run(
        ["build", "--input", str(base), "--kind", "flat", "--nlist", "4",
         "--seed", "0", "--out", str(tmp_path / "x.vidx")]
    )
    assert code == 1
    assert "nlist" in capsys.readouterr().err


def test_build_ivf_flat_requires_nlist(tmp_path, capsys):
    base = tmp_path / "base.fvb"
    write_set(base)
    code = run(
        ["build", "--input", str(base), "--kind", "ivf_flat", "--seed", "0",
         "--out", str(tmp_path / "x.vidx")]
    )
    assert code == 1


def test_build_ivf_pq_requires_m(tmp_path):
    base = tmp_path / "base.fvb"
    write_set(base, n=300, d=8)
    code = run(
        ["build", "--input", str(base), "--kind", "ivf_pq", "--nlist", "4",
         "--seed", "0", "--out", str(tmp_path / "x.vidx")]
    )
    assert code == 1


def test_build_seed_is_required(tmp_path, capsys):
    base = tmp_path / "base.fvb"
    write_set(base)
    code = run(
        ["build", "--input", str(base), "--kind", "flat",
         "--out", str(tmp_path / "x.vidx")]
    )
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_missing_input_is_data_error(tmp_path, capsys):
    code = run(
        ["build", "--input", str(tmp_path / "nope.fvb"), "--kind", "flat",
         "--seed", "0", "--out", str(tmp_path / "x.vidx")]
    )
    assert code == 2


def test_search_nprobe_on_flat_is_usage_error(tmp_path, capsys):
    base = tmp_path / "base.fvb"
    write_set(base)
    idx = tmp_path / "b.vidx"
    run(["build", "--input", str(base), "--kind", "flat", "--seed", "0",
         "--out", str(idx)])
    queries = tmp_path / "q.fvb"
    write_set(queries, n=2)
    code = run(["search", "--index", str(idx), "--queries", str(queries),
                "--nprobe", "2"])
    assert code == 1


def test_internal_error_maps_to_three(tmp_path, capsys, monkeypatch):
    base = tmp_path / "base.fvb"
    write_set(base)
    idx = tmp_path / "b.vidx"
    run(["build", "--input", str(base), "--kind", "flat", "--seed", "0",
         "--out", str(idx)])
    queries = tmp_path / "q.fvb"
    write_set(queries, n=2)
    import vse.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli_mod, "search_any", boom)
    code = run(["search", "--index", str(idx), "--queries", str(queries)])
    assert code == 3


def test_clean_writes_report_jsonl(tmp_path, capsys):
    rng = np.random.default_rng(6)
    rows = []
    labels = []
    for i in range(3):
        feats = rng.normal(loc=4.0 * i, scale=0.05, size=(8, 4))
        feats[0] += 30.0  # one planted outlier per identity
        rows.append(feats)
        labels.extend([f"id{i}"] * 8)
    es = EmbeddingSet(
        vectors=np.vstack(rows).astype(np.float32), labels=labels,
        normalized=False,
    )
    src = tmp_path / "g.fvb"
    write_embeddings(es, str(src))
    out = tmp_path / "clean.fvb"
    report = tmp_path / "report.jsonl"
    assert run(
        ["clean", "--input", str(src), "--seed", "0", "--out", str(out),
         "--report", str(report)]
    ) == 0
    docs = [json.loads(line) for line in open(report)]
    assert len(docs) == 3
    for d in docs:
        assert sorted(d) == ["avg_dist", "identity", "kept", "removed",
                             "threshold"]
        assert len(d["kept"]) + len(d["removed"]) == 8
    cleaned = read_embeddings(str(out))
    assert cleaned.count == sum(len(d["kept"]) for d in docs)


def test_fuse_single_file_pairs_halves(tmp_path, capsys):
    rows = np.float32([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 4.0]])
    es = EmbeddingSet(
        vectors=rows, labels=["a", "b", "a", "b"], normalized=False
    )
    src = tmp_path / "2x.fvb"
    write_embeddings(es, str(src))
    out = tmp_path / "fused.fvb"
    assert run(
        ["fuse", "--inputs", str(src), "--strategy", "sum",
         "--no-normalize", "--out", str(out)]
    ) == 0
    fused = read_embeddings(str(out))
    assert fused.count == 2
    assert fused.labels == ["a", "b"]
    assert np.array_equal(fused.vectors, np.float32([[4.0, 0.0], [0.0, 6.0]]))


def test_fuse_single_file_label_mismatch(tmp_path, capsys):
    rows = np.ones((4, 2), dtype=np.float32)
    es = EmbeddingSet(
        vectors=rows, labels=["a", "b", "b", "a"], normalized=False
    )
    src = tmp_path / "bad.fvb"
    write_embeddings(es, str(src))
    code = run(
        ["fuse", "--inputs", str(src), "--strategy", "sum",
         "--out", str(tmp_path / "f.fvb")]
    )
    assert code == 2
    assert "labels" in capsys.readouterr().err


def test_fuse_odd_count_rejected(tmp_path, capsys):
    src = tmp_path / "odd.fvb"
    write_set(src, n=5, d=4)
    code = run(
        ["fuse", "--inputs", str(src), "--strategy", "max",
         "--out", str(tmp_path / "f.fvb")]
    )
    assert code == 2


def test_fuse_two_files_concat(tmp_path, capsys):
    a = EmbeddingSet(
        vectors=np.float32([[1.0, 0.0]]), labels=["x"], normalized=False
    )
    b = EmbeddingSet(
        vectors=np.float32([[0.0, 2.0]]), labels=["x"], normalized=False
    )
    pa, pb = tmp_path / "a.fvb", tmp_path / "b.fvb"
    write_embeddings(a, str(pa))
    write_embeddings(b, str(pb))
    out = tmp_path / "cat.fvb"
    assert run(
        ["fuse", "--inputs", str(pa), str(pb), "--strategy", "concat",
         "--no-normalize", "--out", str(out)]
    ) == 0
    fused = read_embeddings(str(out))
    assert fused.dim == 4
    assert fused.vectors.tolist() == [[1.0, 0.0, 0.0, 2.0]]


def test_eval_emits_tsv(tmp_path, capsys):
    gallery = tmp_path / "g.fvb"
    write_set(gallery, n=60, d=8, seed=7,
              labels=[f"id{i // 3}" for i in range(60)])
    probes = tmp_path / "p.fvb"
    write_set(probes, n=6, d=8, seed=8, labels=[f"id{i}" for i in range(6)])
    assert run(
        ["eval", "--gallery", str(gallery), "--probes", str(probes),
         "--kind", "flat", "--seed", "0"]
    ) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].split("\t")[0] == "strategy"
    assert lines[1].split("\t")[0] == "flat"


def test_bench_default_matrix_row_count(tmp_path, capsys):
    tsv = tmp_path / "bench.tsv"
    assert run(
        ["bench", "--seed", "0", "--identities", "150", "--per-identity", "8",
         "--dim", "32", "--probes-per-identity", "2", "--tsv", str(tsv)]
    ) == 0
    lines = open(tsv).read().strip().split("\n")
    assert len(lines) == 6  # header + 5 matrix rows
    kinds = [l.split("\t")[0] for l in lines[1:]]
    assert kinds == ["flat", "ivf_flat", "ivf_flat", "ivf_pq", "ivf_pq"]


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    base = tmp_path / "base.fvb"
    write_set(base, n=40, d=8, seed=9)
    idx = tmp_path / "b.vidx"
    run(["build", "--input", str(base), "--kind", "flat", "--seed", "0",
         "--out", str(idx)])
    queries = tmp_path / "q.fvb"
    write_set(queries, n=4, d=8, seed=10)
    capsys.readouterr()
    monkeypatch.setenv("VSE_THREADS", "3")
    assert run(["search", "--index", str(idx), "--queries", str(queries)]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("VSE_THREADS")
    assert run(["search", "--index", str(idx), "--queries", str(queries)]) == 0
    assert capsys.readouterr().out == with_env


@pytest.mark.parametrize("argv", [
    ["search", "--index", "i.vidx", "--queries", "q.fvb"],
    ["eval", "--gallery", "g.fvb", "--probes", "p.fvb", "--kind", "flat", "--seed", "0"],
    ["bench", "--seed", "0", "--identities", "150", "--per-identity", "8", "--dim", "32",
     "--probes-per-identity", "2"],
])
def test_threads_is_an_unknown_flag(capsys, argv):
    build_parser().parse_args(argv)  # valid without it
    assert run(argv + ["--threads", "2"]) == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["search", "--bogus"]) == 1


# The parameters each kind takes, and the ones it requires, stated here
# apart from vse's own table.
_TAKES = {"flat": (), "ivf_flat": ("nlist", "nprobe"), "ivf_pq": ("nlist", "nprobe", "m")}
_REQUIRES = {"flat": (), "ivf_flat": ("nlist",), "ivf_pq": ("nlist", "m")}
_VALUES = {"nlist": 4, "nprobe": 2, "m": 2}


def _misfits(kind, given):
    return [f for f in given if f not in _TAKES[kind]] + [
        f for f in _REQUIRES[kind] if f not in given
    ]


@pytest.mark.parametrize("nprobe", [False, True], ids=["", "nprobe"])
@pytest.mark.parametrize(
    "given", [(), ("nlist",), ("m",), ("nlist", "m")], ids=["none", "nlist", "m", "nlist+m"]
)
@pytest.mark.parametrize("kind", ["flat", "ivf_flat", "ivf_pq"])
def test_build_and_eval_share_one_parameter_rule(tmp_path, capsys, kind, given, nprobe):
    """`vse eval`, `vse build` and StrategyConfig refuse the same flags.

    A flag the kind does not take, or a required one left out, exits 1 and
    is named on stderr. build has no --nprobe (it is a search parameter), so
    it runs the same flags without it.
    """
    gallery = tmp_path / "g.fvb"
    write_set(gallery, n=300, d=8, seed=3, labels=[f"id{i // 3}" for i in range(300)])
    probes = tmp_path / "p.fvb"
    write_set(probes, n=6, d=8, seed=4, labels=[f"id{i}" for i in range(6)])
    eval_flags = given + ("nprobe",) * nprobe

    def outcome(argv, flags):
        argv += list(itertools.chain(*((f"--{f}", str(_VALUES[f])) for f in flags)))
        code = run(argv + ["--seed", "0"])
        return code, capsys.readouterr().err

    built = outcome(
        ["build", "--input", str(gallery), "--kind", kind, "--max-iters", "3",
         "--out", str(tmp_path / "x.vidx")],
        given,
    )
    evaluated = outcome(
        ["eval", "--gallery", str(gallery), "--probes", str(probes), "--kind", kind,
         "--tsv", str(tmp_path / "r.tsv")],
        eval_flags,
    )
    for (code, err), misfits in ((built, _misfits(kind, given)),
                                 (evaluated, _misfits(kind, eval_flags))):
        if misfits:
            assert code == 1, err
            assert any(f"--{f}" in err for f in misfits), err
        else:
            assert code == 0, err
    if not nprobe:
        assert built[1] == evaluated[1]

    config = {f: _VALUES[f] for f in eval_flags}
    if _misfits(kind, eval_flags):
        with pytest.raises(DataError):
            StrategyConfig(kind=kind, **config)
    else:
        assert StrategyConfig(kind=kind, **config).kind == kind


def test_ingest_label_file_count_mismatch_names_its_byte_offset(tmp_path, capsys):
    csv = tmp_path / "in.csv"
    write_csv(csv, [[1.0, 2.0], [3.0, 4.0]])
    names = tmp_path / "names.txt"
    names.write_bytes(b"a\r\nb\r\nc\r\n")  # three lines for two rows
    out = tmp_path / "out.fvb"
    assert run(["ingest", "--input", str(csv), "--labels", str(names), "--out", str(out)]) == 2
    assert "3 lines, count is 2 (byte offset 6)" in capsys.readouterr().err
    names.write_bytes(b"a\r\nb")
    assert run(["ingest", "--input", str(csv), "--labels", str(names), "--out", str(out)]) == 0
    assert read_embeddings(str(out)).labels == ["a", "b"]


@pytest.mark.parametrize("command", ["build", "clean", "bench", "eval"])
def test_negative_seed_exits_two(tmp_path, capsys, command):
    # build, clean and bench used to exit 3 on numpy's ValueError, and eval
    # of a flat index, which trains nothing, exited 0.
    gallery = tmp_path / "g.fvb"
    write_set(gallery, n=40, d=8, labels=[f"id{i // 4}" for i in range(40)])
    argv = {
        "build": ["build", "--input", str(gallery), "--kind", "ivf_flat", "--nlist", "4",
                  "--out", str(tmp_path / "x.vidx")],
        "clean": ["clean", "--input", str(gallery), "--out", str(tmp_path / "c.fvb")],
        "bench": ["bench", "--identities", "20", "--per-identity", "4", "--dim", "8",
                  "--probes-per-identity", "1"],
        "eval": ["eval", "--gallery", str(gallery), "--probes", str(gallery), "--kind", "flat",
                 "--tsv", str(tmp_path / "r.tsv")],
    }[command]
    assert run(argv + ["--seed", "-1"]) == 2
    assert "seed -1 out of range [0, inf)" in capsys.readouterr().err


def test_search_k_zero_exits_two(tmp_path, capsys):
    base = tmp_path / "base.fvb"
    write_set(base)
    idx = tmp_path / "b.vidx"
    assert run(["build", "--input", str(base), "--kind", "flat", "--seed", "0",
                "--out", str(idx)]) == 0
    queries = tmp_path / "q.fvb"
    write_set(queries, n=2)
    assert run(["search", "--index", str(idx), "--queries", str(queries), "--k", "0"]) == 2
    assert "k 0 out of range [1, 65)" in capsys.readouterr().err
