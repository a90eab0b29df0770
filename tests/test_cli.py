import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scmdist

from scmdist import (Dataset, EstimatorConfig, KernelConfig, NumericalError, load_dataset,
                     load_graph, median_heuristic, pairwise_matrix, sample_m1, sample_m2,
                     save_dataset, save_graph)
from scmdist.cli import _shared_bandwidth, main
from scmdist.graph import Dag


@pytest.fixture()
def fwd_graph(tmp_path):
    p = tmp_path / "fwd.txt"
    save_graph(Dag(["X", "Y"], [("X", "Y")]), p)
    return str(p)


@pytest.fixture()
def rev_graph(tmp_path):
    p = tmp_path / "rev.txt"
    save_graph(Dag(["X", "Y"], [("Y", "X")]), p)
    return str(p)


def write_samples(tmp_path):
    d1 = sample_m1(3, 600, 70)
    d3 = sample_m2(3, 600, 71)
    p1, p3 = tmp_path / "d1.csv", tmp_path / "d3.csv"
    save_dataset(d1, p1)
    save_dataset(d3, p3)
    return str(p1), str(p3)


def test_sid_identical_graphs_prints_zero(fwd_graph, capsys):
    assert main(["sid", fwd_graph, fwd_graph]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_sid_reversed_graphs(fwd_graph, rev_graph, capsys):
    assert main(["sid", fwd_graph, rev_graph]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_usage_error_exit_code_1():
    assert main(["scmd", "--data1", "only-one-side.csv"]) == 1
    assert main(["frobnicate"]) == 1


def test_bad_escmd_levels_is_a_usage_error(tmp_path, fwd_graph, capsys):
    p1, p3 = write_samples(tmp_path)
    assert main(["escmd", "--data1", p1, "--data2", p3, "--graph1", fwd_graph,
                 "--graph2", fwd_graph, "--sigma-sq", "0.1", "--levels", "0.1,abc"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_synth_spec_is_a_validation_error(tmp_path, capsys):
    spec = tmp_path / "model.json"
    out = str(tmp_path / "out.csv")
    argv = ["synth", "--model", "scm", "--spec", str(spec), "--n", "10", "--out", out]
    for text in (json.dumps({"nodes": ["X"], "edges": []}),  # no noise_variances
                 '{"nodes": ["X"], ',
                 json.dumps({"nodes": ["X", "Y"], "edges": [["X", "Y"]],
                             "noise_variances": {"X": 1.0, "Y": 1.0}}),
                 json.dumps(["X", "Y"])):
        spec.write_text(text)
        assert main(argv) == 2, text
        assert "invalid input" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_validation_error_exit_code_2(tmp_path, fwd_graph):
    bad = tmp_path / "bad.csv"
    bad.write_text("X,Y\n1,apple\n")
    code = main(["scmd", "--data1", str(bad), "--data2", str(bad),
                 "--graph1", fwd_graph, "--graph2", fwd_graph,
                 "--sigma-sq", "0.1", "--policy", "mean"])
    assert code == 2


def test_missing_file_exit_code_2(fwd_graph):
    assert main(["scmd", "--data1", "nope.csv", "--data2", "nope.csv",
                 "--graph1", fwd_graph, "--graph2", fwd_graph,
                 "--sigma-sq", "0.1", "--policy", "mean"]) == 2


def test_numerical_error_exit_code_3(tmp_path, fwd_graph, monkeypatch):
    p1, p3 = write_samples(tmp_path)
    import scmdist.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setattr(cli_mod, "scmd", boom)
    assert main(["scmd", "--data1", p1, "--data2", p3,
                 "--graph1", fwd_graph, "--graph2", fwd_graph,
                 "--sigma-sq", "0.1", "--policy", "mean"]) == 3


def test_synth_roundtrip_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["synth", "--model", "m1", "--a", "3", "--n", "100",
                     "--seed", "5", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    d = load_dataset(out1)
    assert d.n == 100
    assert d.variable_names == ("X", "Y")


def test_synth_generic_scm_spec(tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({
        "nodes": ["Z", "X", "Y"],
        "edges": [["Z", "X", 1.0], ["X", "Y", 2.0]],
        "noise_variances": {"Z": 1.0, "X": 1.0, "Y": 1.0},
    }))
    out = tmp_path / "chain.csv"
    assert main(["synth", "--model", "scm", "--spec", str(spec), "--n", "5000",
                 "--seed", "3", "--out", str(out)]) == 0
    d = load_dataset(out)
    assert np.var(d.column("Y")) == pytest.approx(4 * 2 + 1, rel=0.15)


def test_scmd_command_output_deterministic(tmp_path, fwd_graph, rev_graph, capsys):
    p1, p3 = write_samples(tmp_path)
    argv = ["scmd", "--data1", p1, "--data2", p3, "--graph1", fwd_graph,
            "--graph2", rev_graph, "--sigma-sq", "0.1", "--lam", "0.5",
            "--intervene", "X=1", "--intervene", "Y=1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["kind"] == "scmd"
    assert 0.5 < payload["value"] < 1.5
    assert set(payload["pair_terms"]) == {"X->Y", "Y->X"}


def test_pscmd_target_flag(tmp_path, fwd_graph, capsys):
    p1, _ = write_samples(tmp_path)
    d2 = sample_m1(5, 600, 72)
    p2 = tmp_path / "d2.csv"
    save_dataset(d2, p2)
    assert main(["pscmd", "--data1", p1, "--data2", str(p2), "--graph1", fwd_graph,
                 "--graph2", fwd_graph, "--sigma-sq", "0.1",
                 "--intervene", "X=1", "--intervene", "Y=1", "--target", "Y"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "p-scmd"
    assert list(payload["pair_terms"]) == ["X->Y"]


def test_escmd_levels_flag(tmp_path, fwd_graph, rev_graph, capsys):
    p1, p3 = write_samples(tmp_path)
    assert main(["escmd", "--data1", p1, "--data2", p3, "--graph1", fwd_graph,
                 "--graph2", rev_graph, "--sigma-sq", "0.1",
                 "--levels", "0.3,0.7", "--pairing", "paired"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "e-scmd"
    assert payload["config"]["levels"] == [0.3, 0.7]


def test_mmd_command(tmp_path, capsys):
    p1, p3 = write_samples(tmp_path)
    assert main(["mmd", "--data1", p1, "--data2", p3, "--sigma-sq", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "mmd"
    assert 0.0 <= payload["value"] < 0.2


def test_scmd_family_on_one_variable_is_a_validation_error(tmp_path, capsys):
    rng = np.random.default_rng(72)
    paths = [str(tmp_path / f"one{k}.csv") for k in range(2)]
    for k, path in enumerate(paths):
        save_dataset(Dataset({"X": rng.normal(size=40)}, id=f"one{k}"), path)
    graph = tmp_path / "one.txt"
    graph.write_text("X\n")
    pair = ["--data1", paths[0], "--data2", paths[1], "--graph1", str(graph),
            "--graph2", str(graph), "--sigma-sq", "0.5"]
    for argv in (["scmd", *pair, "--policy", "mean"],
                 ["pscmd", *pair, "--policy", "mean", "--target", "X"],
                 ["escmd", *pair],
                 ["pairwise", "--data", *paths, "--graph", str(graph), "--metric", "scmd"]):
        assert main(argv) == 2, argv
        assert "at least two variables, got only ['X']" in capsys.readouterr().err
    assert main(["pairwise", "--data", *paths, "--graph", str(graph), "--metric", "mmd",
                 "--sigma-sq", "0.5"]) == 0


def test_median_heuristic_default_bandwidth(tmp_path, fwd_graph, capsys):
    p1, p3 = write_samples(tmp_path)
    assert main(["mmd", "--data1", p1, "--data2", p3]) == 0
    err = capsys.readouterr().err
    assert "median-heuristic" in err


def test_shared_bandwidth_matches_numpy_median_bit_for_bit():
    rng = np.random.default_rng(32)
    base = rng.normal(size=50)
    for count in range(1, 8):
        for _ in range(30):
            # drawn from four scales, so columns often tie
            scales = rng.choice(rng.uniform(0.1, 10.0, size=4), size=count)
            d = Dataset({f"V{k}": s * base for k, s in enumerate(scales)})
            expect = np.median([median_heuristic(d.column(v)).bandwidth_sq
                                for v in d.variable_names])
            assert _shared_bandwidth([d]).bandwidth_sq.hex() == float(expect).hex()


def test_escmd_with_median_heuristic_leaves_numpy_ma_unloaded(tmp_path, fwd_graph, rev_graph):
    p1, p3 = write_samples(tmp_path)
    src = str(Path(scmdist.__file__).resolve().parents[1])
    argv = ["escmd", "--data1", p1, "--data2", p3, "--graph1", fwd_graph, "--graph2", rev_graph]
    code = (f"import sys; from scmdist.cli import main; status = main({argv!r}); "
            "print(status, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert "median-heuristic" in proc.stderr
    # np.quantile and np.median would each import numpy.ma (about 14 ms)
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_pairwise_csv_symmetric(tmp_path, fwd_graph, capsys):
    paths = []
    for a, seed in ((3, 80), (3, 81), (5, 82)):
        d = sample_m1(a, 400, seed)
        p = tmp_path / f"{d.id}.csv"
        save_dataset(d, p)
        paths.append(str(p))
    argv = ["pairwise", "--data", *paths, "--graph", fwd_graph, "--metric", "scmd",
            "--sigma-sq", "0.1", "--format", "csv"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    body = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    assert np.array_equal(body, body.T)
    assert np.all(np.diag(body) == 0)


def test_pairwise_user_policy_matches_the_library(tmp_path, fwd_graph, capsys):
    p1, p3 = write_samples(tmp_path)
    argv = ["pairwise", "--data", p1, p3, "--graph", fwd_graph, "--metric", "scmd",
            "--sigma-sq", "0.1", "--policy", "user"]
    values = {"d1": {"X": 1.0, "Y": 0.5}, "d3": {"X": -0.5, "Y": 2.0}}
    intervene = [a for env, vals in values.items() for name, v in vals.items()
                 for a in ("--intervene", f"{env}:{name}={v!r}")]
    assert main(argv + intervene) == 0
    m = pairwise_matrix([load_dataset(p1), load_dataset(p3)], load_graph(fwd_graph), "scmd",
                        EstimatorConfig(KernelConfig(0.1), 0.5), intervention_policy="user",
                        interventions=values)
    got = json.loads(capsys.readouterr().out)["values"]
    assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row]
                                                       for row in m.values.tolist()]
    assert main(argv + ["--intervene", "X=1"]) == 1
    assert "expected ENV:NAME=VALUE" in capsys.readouterr().err
    assert main(argv + intervene + ["--intervene", "d2:X=1"]) == 2
    assert "unknown environments ['d2']" in capsys.readouterr().err
    assert main(argv + intervene + ["--intervene", "d1:Z=1"]) == 2
    assert "environment 'd1': intervention values name variables outside the graph: ['Z']" \
        in capsys.readouterr().err


def test_intervention_values_a_run_would_not_read_are_errors(tmp_path, fwd_graph, capsys):
    p1, p3 = write_samples(tmp_path)
    pair = ["--data1", p1, "--data2", p3, "--graph1", fwd_graph, "--graph2", fwd_graph,
            "--sigma-sq", "0.1", "--policy", "mean"]
    for flag in ("--intervene", "--intervene1", "--intervene2"):
        assert main(["scmd", *pair, flag, "X=7"]) == 1
        assert "read only under --policy user" in capsys.readouterr().err
    assert main(["pscmd", *pair, "--target", "Y", "--intervene", "X=7"]) == 1
    user = [*pair[:-1], "user", "--intervene", "X=1", "--intervene", "Y=1"]
    for nameless in ("=1", " =1"):
        assert main(["scmd", *user, "--intervene", nameless]) == 1
        assert "expected NAME=VALUE" in capsys.readouterr().err
    assert main(["scmd", *user, "--intervene1", "Z=9"]) == 2
    assert "intervention values name variables outside the graph: ['Z']" \
        in capsys.readouterr().err
    many = ["pairwise", "--data", p1, p3, "--graph", fwd_graph, "--sigma-sq", "0.1"]
    assert main([*many, "--metric", "scmd", "--intervene", "d1:X=7"]) == 1
    assert "read only under --policy user" in capsys.readouterr().err
    assert main([*many, "--metric", "mmd", "--policy", "user", "--intervene", "zz:X=1"]) == 2
    assert "'mmd' under policy 'user' reads no intervention values" in capsys.readouterr().err
    assert main([*many, "--metric", "mmd", "--lam", "0.5"]) == 1  # the MMD reads no ridge
    assert "--lam is read only by --metric scmd" in capsys.readouterr().err


def test_pairwise_addresses_an_environment_id_containing_a_colon(tmp_path, fwd_graph, capsys):
    paths = []
    for name, seed in (("a:b", 73), ("a", 74)):
        p = tmp_path / f"{name}.csv"
        save_dataset(sample_m1(3, 300, seed), p)
        paths.append(str(p))
    values = {"a:b": {"X": 1.0, "Y": 0.5}, "a": {"X": -0.5, "Y": 2.0}}
    argv = ["pairwise", "--data", *paths, "--graph", fwd_graph, "--metric", "scmd",
            "--sigma-sq", "0.1", "--policy", "user"]
    argv += [a for env, vals in values.items() for name, v in vals.items()
             for a in ("--intervene", f"{env}:{name}={v!r}")]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["ids"] == ["a:b", "a"]
    m = pairwise_matrix([load_dataset(p) for p in paths], load_graph(fwd_graph), "scmd",
                        EstimatorConfig(KernelConfig(0.1), 0.5), intervention_policy="user",
                        interventions=values)
    assert got["values"] == m.values.tolist()
    assert main(argv + ["--intervene", "b:X=1"]) == 2
    assert "unknown environments ['b']" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path, fwd_graph):
    p1, p3 = write_samples(tmp_path)
    out = tmp_path / "result.json"
    assert main(["mmd", "--data1", p1, "--data2", p3, "--sigma-sq", "0.1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "mmd"


def test_cli_import_leaves_scipy_signal_unloaded():
    src = str(Path(scmdist.__file__).resolve().parents[1])
    code = ("import sys, scmdist.cli; "
            "print('scipy.signal' in sys.modules, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'), 'concurrent.futures' in sys.modules, "
            "'scmdist.oracle' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    # scipy loads only with the dense Cholesky path, which importing does not
    # take; concurrent.futures (with the logging it loads) would cost every
    # CLI process about 9 ms; no command reads the closed forms of oracle.py
    assert proc.stdout.strip() == "False [] False False"


def run_cli(argv, stdout=subprocess.PIPE, buffered=False):
    """``python -m scmdist.cli ARGV`` in a fresh process, which ends through
    ``scmdist.cli.run`` as the console script does.  ``buffered`` drops
    PYTHONUNBUFFERED, so that stdout is written only by the final flush."""
    env = {**os.environ, "PYTHONPATH": str(Path(scmdist.__file__).resolve().parents[1])}
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "scmdist.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120, check=False)


def _escmd_argv(tmp_path, fwd_graph, rev_graph):
    p1, p3 = write_samples(tmp_path)
    return ["escmd", "--data1", p1, "--data2", p3, "--graph1", fwd_graph, "--graph2", rev_graph]


def _pairwise_csv_argv(tmp_path, fwd_graph, rev_graph):
    p1, p3 = write_samples(tmp_path)
    return ["pairwise", "--data", p1, p3, "--graph", fwd_graph, "--metric", "scmd",
            "--format", "csv"]


@pytest.mark.parametrize("make_argv", [_escmd_argv, _pairwise_csv_argv],
                         ids=["escmd", "pairwise-csv"])
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_a_cli_process_prints_what_main_returns(tmp_path, fwd_graph, rev_graph, make_argv,
                                                buffered, capsys):
    argv = make_argv(tmp_path, fwd_graph, rev_graph)
    code = main(argv)
    captured = capsys.readouterr()
    proc = run_cli(argv, buffered=buffered)
    assert code == 0 and proc.returncode == 0
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


def test_a_cli_process_exits_with_mains_codes(tmp_path, fwd_graph):
    usage = run_cli(["frobnicate"])
    assert usage.returncode == 1 and b"scmdist: usage error" in usage.stderr
    bad = tmp_path / "bad.csv"
    bad.write_text("X,Y\n1,apple\n")
    invalid = run_cli(["scmd", "--data1", str(bad), "--data2", str(bad), "--graph1", fwd_graph,
                       "--graph2", fwd_graph, "--sigma-sq", "0.1", "--policy", "mean"])
    assert invalid.returncode == 2 and b"scmdist: invalid input" in invalid.stderr
    # argparse's own exit still ends the process the normal way
    version = run_cli(["--version"])
    assert version.returncode == 0 and version.stdout.strip() == f"scmdist {scmdist.__version__}".encode()
    for proc in (usage, invalid, version):
        assert b"Traceback" not in proc.stderr


def test_a_cli_process_writes_a_complete_out_file(tmp_path, fwd_graph, rev_graph):
    argv = _escmd_argv(tmp_path, fwd_graph, rev_graph)
    assert main(argv + ["--out", str(tmp_path / "in_process.json")]) == 0
    proc = run_cli(argv + ["--out", str(tmp_path / "process.json")], buffered=True)
    assert proc.returncode == 0 and proc.stdout == b""
    assert ((tmp_path / "process.json").read_bytes()
            == (tmp_path / "in_process.json").read_bytes())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_a_cli_process_on_a_full_stdout_exits_2(tmp_path, fwd_graph, rev_graph, buffered):
    # unbuffered, the write inside main fails; buffered, the flush after it
    with open("/dev/full", "wb") as full:
        proc = run_cli(_escmd_argv(tmp_path, fwd_graph, rev_graph), stdout=full,
                       buffered=buffered)
    assert proc.returncode == 2
    assert b"scmdist: i/o error" in proc.stderr
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr


def test_scmd_of_a_file_with_itself_is_zero(tmp_path, fwd_graph, capsys):
    p1, _ = write_samples(tmp_path)
    assert main(["scmd", "--data1", p1, "--data2", p1, "--graph1", fwd_graph,
                 "--graph2", fwd_graph, "--sigma-sq", "0.1", "--policy", "mean"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0.0
    assert payload["dataset_ids"] == ["d1", "d1"]


def _same_stem_files(tmp_path):
    paths = []
    for sub, (a, seed) in (("a", (3, 90)), ("b", (5, 91))):
        (tmp_path / sub).mkdir()
        paths.append(str(tmp_path / sub / "env.csv"))
        save_dataset(sample_m1(a, 300, seed), paths[-1])
    return paths


def test_files_sharing_a_stem_take_their_paths_for_ids(tmp_path, fwd_graph, capsys):
    pa, pb = _same_stem_files(tmp_path)
    common = ["--sigma-sq", "0.1"]
    assert main(["scmd", "--data1", pa, "--data2", pb, "--graph1", fwd_graph,
                 "--graph2", fwd_graph, "--policy", "mean", *common]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dataset_ids"] == [pa, pb] and payload["value"] > 0
    assert main(["mmd", "--data1", pa, "--data2", pb, *common]) == 0
    assert json.loads(capsys.readouterr().out)["value"] > 0
    assert main(["pairwise", "--data", pa, pb, "--graph", fwd_graph, "--metric", "scmd",
                 *common]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ids"] == [pa, pb] and payload["values"][0][1] > 0


def test_pairwise_rejects_a_repeated_path(tmp_path, fwd_graph, capsys):
    p1, _ = write_samples(tmp_path)
    assert main(["pairwise", "--data", p1, p1, "--graph", fwd_graph, "--metric", "scmd",
                 "--sigma-sq", "0.1"]) == 2
    assert "distinct ids" in capsys.readouterr().err


def test_pairwise_help_documents_the_shared_options(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["pairwise", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for help_text in ("Gaussian kernel variance (default: median heuristic)",
                      "ridge regularization (default 0.5)",
                      "write the result here instead of stdout",
                      "result format (default json)"):
        assert help_text in text


@pytest.mark.parametrize("command, removed", [
    ("scmd", ["--jitter", "1e-10"]),
    ("pscmd", ["--jitter", "1e-10"]),
    ("escmd", ["--jitter", "1e-10"]),
    ("mmd", ["--jitter", "1e-10"]),
    ("mmd", ["--lam", "0.5"]),
    ("pairwise", ["--jitter", "1e-10"]),
    ("pairwise", ["--threads", "2"]),
    ("scmd", ["--cost-budget", "1"]),
], ids=["scmd", "pscmd", "escmd", "mmd", "mmd-lam", "pairwise", "pairwise-threads",
        "scmd-cost-budget"])
def test_jitter_flag_is_a_usage_error(tmp_path, fwd_graph, command, removed, capsys):
    p1, p3 = write_samples(tmp_path)
    pair = ["--data1", p1, "--data2", p3]
    graphs = ["--graph1", fwd_graph, "--graph2", fwd_graph]
    argv = [command, "--sigma-sq", "0.1", *{
        "scmd": [*pair, *graphs, "--policy", "mean"],
        "pscmd": [*pair, *graphs, "--policy", "mean", "--target", "Y"],
        "escmd": [*pair, *graphs],
        "mmd": pair,
        "pairwise": ["--data", p1, p3, "--graph", fwd_graph, "--metric", "scmd"],
    }[command]]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + removed) == 1
    assert f"unrecognized arguments: {removed[0]}" in capsys.readouterr().err
