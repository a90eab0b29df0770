import csv
import io
import json
import sys

import numpy as np
import pytest

from scmdist import (
    Dag,
    Dataset,
    DistanceReport,
    PairwiseMatrix,
    ValidationError,
    load_dataset,
    load_graph,
    sachs_expert_graph,
    sample_m1,
    save_dataset,
    save_graph,
    write_report,
)
from scmdist.io import _ROWS_PER_BLOCK, render_report

from oracles import save_dataset_rowwise


def test_load_dataset_well_formed(tmp_path):
    p = tmp_path / "small.csv"
    p.write_text("X,Y\n1,2\n3,4\n5,6\n")
    d = load_dataset(p)
    assert d.id == "small"
    assert d.n == 3
    assert d.variable_names == ("X", "Y")
    assert np.array_equal(d.column("Y"), [2.0, 4.0, 6.0])


def test_load_dataset_nan_cell_names_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("X,Y\n1,2\n3,NaN\n")
    with pytest.raises(ValidationError) as err:
        load_dataset(p)
    assert "line 3" in str(err.value)
    assert "'Y'" in str(err.value)


def test_load_dataset_specific_errors(tmp_path):
    cases = {
        "empty.csv": ("", "header"),
        "ragged.csv": ("X,Y\n1\n", "cells"),
        "text.csv": ("X,Y\n1,apple\n", "non-numeric"),
        "dup.csv": ("X,X\n1,2\n", "duplicate"),
        "norows.csv": ("X,Y\n", "no data rows"),
    }
    for name, (content, needle) in cases.items():
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(ValidationError) as err:
            load_dataset(p)
        assert needle in str(err.value)


def test_dataset_round_trip_full_precision(tmp_path):
    d = sample_m1(3, 50, 0)
    p = tmp_path / "round.csv"
    save_dataset(d, p)
    back = load_dataset(p)
    for v in d.variable_names:
        assert np.array_equal(back.column(v), d.column(v))


def test_save_dataset_bytes_match_the_rowwise_writer(tmp_path):
    rng = np.random.default_rng(5)
    edge = [-0.0, 5e-324, 1e16, 1e22, 1 / 3, sys.float_info.max, -sys.float_info.max,
            0.1, -2.5e-308, 123456789.0]
    cases = {
        "edge": Dataset({"X": edge, "Y": edge[::-1]}),
        "one_row": Dataset({"X": [1 / 3], "Y": [-0.0], "Z": [1e22]}),
        "one_column": Dataset({"X": rng.normal(size=7)}),
        "blocks": Dataset({f"V{k}": rng.normal(scale=10.0 ** (k - 5), size=2 * _ROWS_PER_BLOCK + 3)
                           for k in range(11)}),
        "quoted": Dataset({"a,b": [1.0, 2.0], 'say "hi"': [3.0, 4.0], "two\nlines": [5.0, 6.0],
                           "plain": [7.0, 8.0]}),
    }
    for name, d in cases.items():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
        save_dataset(d, got)
        save_dataset_rowwise(d, want)
        assert got.read_bytes() == want.read_bytes(), name
        back = load_dataset(got)
        assert back.variable_names == d.variable_names, name
        for v in d.variable_names:  # bit for bit, -0.0 included
            assert [x.hex() for x in back.column(v).tolist()] == \
                   [x.hex() for x in d.column(v).tolist()], (name, v)


def test_save_dataset_refuses_names_load_dataset_would_change(tmp_path):
    # each would write a file that reads back renamed, or not at all
    for names, bad in (([" X", "Y"], " X"), (["X", "Y\t"], "Y\t"), (["X", ""], ""),
                       (["\ufeffX", "Y"], "\ufeffX")):
        d = Dataset({n: [1.0, 2.0] for n in names}, variable_names=names)
        p = tmp_path / "bad.csv"
        with pytest.raises(ValidationError) as err:
            save_dataset(d, p)
        assert repr(bad) in str(err.value)
        assert not p.exists()
    # the same names, trimmed, round-trip; a BOM past the first column is kept
    d = Dataset({"X": [1.0, 2.0], "\ufeffY": [3.0, 4.0], "a b": [5.0, 6.0]})
    save_dataset(d, tmp_path / "ok.csv")
    assert load_dataset(tmp_path / "ok.csv").variable_names == d.variable_names


def test_load_dataset_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfX,Y\r\n1,2\r\n3,4\r\n")
    d = load_dataset(p)
    assert d.variable_names == ("X", "Y")
    assert np.array_equal(d.column("X"), [1.0, 3.0])


def test_load_graph_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.txt"
    p.write_bytes(b"\xef\xbb\xbfX -> Y\n")
    assert load_graph(p, nodes={"X", "Y"}) == Dag(["X", "Y"], [("X", "Y")])


def test_load_graph_two_node_chain(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment line\nX -> Y\n")
    g = load_graph(p, nodes={"X", "Y"})
    assert g.edges == {("X", "Y")}


def test_load_graph_cycle_error(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("X -> Y\nY -> X\n")
    with pytest.raises(ValidationError) as err:
        load_graph(p)
    assert "cycle" in str(err.value)


def test_load_graph_isolated_node_and_node_set(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("X -> Y\nW\n")
    g = load_graph(p)
    assert set(g.nodes) == {"X", "Y", "W"}
    with pytest.raises(ValidationError) as err:
        load_graph(p, nodes={"X", "Y"})
    assert "mismatch" in str(err.value)


def test_load_graph_malformed_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("X - Y\n")
    with pytest.raises(ValidationError):
        load_graph(p)


def test_graph_round_trip(tmp_path):
    g = sachs_expert_graph()
    p = tmp_path / "sachs.txt"
    save_graph(g, p)
    assert load_graph(p, nodes=g.nodes) == g


def test_save_graph_refuses_names_load_graph_would_misread(tmp_path):
    bad = {
        "a#b": Dag(["a#b", "c"], [("a#b", "c")]),  # read back as a lone node 'a'
        " s": Dag([" s", "t"], [(" s", "t")]),  # read back renamed to 's'
        "p->q": Dag(["p->q", "r"], [("p->q", "r")]),  # a line load_graph rejects
        "x y": Dag(["x y", "z"], []),  # an isolated node load_graph rejects
    }
    for name, g in bad.items():
        p = tmp_path / "bad.txt"
        with pytest.raises(ValidationError) as err:
            save_graph(g, p)
        assert repr(name) in str(err.value)
        assert not p.exists()
    for name in ("", "t ", "u\nv", "u\rv"):
        with pytest.raises(ValidationError):
            save_graph(Dag([name, "w"], [("w", name)]), tmp_path / "bad.txt")
    # a name written first that begins with U+FEFF reads back as a byte-order mark
    for g in (Dag(["\ufeffa", "b"], [("\ufeffa", "b")]), Dag(["\ufeffa"], [])):
        with pytest.raises(ValidationError) as err:
            save_graph(g, tmp_path / "bad.txt")
        assert "U+FEFF" in str(err.value)
        assert not (tmp_path / "bad.txt").exists()
    g = Dag(["a", "\ufeffb"], [("a", "\ufeffb")])  # past the first name it is kept
    save_graph(g, tmp_path / "ok.txt")
    assert load_graph(tmp_path / "ok.txt", nodes=g.nodes) == g
    # whitespace inside a name that takes part in an edge reads back whole
    g = Dag(["x y", "z", "lone"], [("x y", "z")])
    save_graph(g, tmp_path / "ok.txt")
    assert load_graph(tmp_path / "ok.txt", nodes=g.nodes) == g


def test_bundled_expert_graph_shape():
    g = sachs_expert_graph()
    assert len(g.nodes) == 11
    assert len(g.edges) == 17


def test_write_report_zero_self_comparison(tmp_path):
    report = DistanceReport(value=0.0, pair_terms={("X", "Y"): 0.0, ("Y", "X"): 0.0},
                            dataset_ids=("a", "a"), kind="scmd",
                            config_echo={"bandwidth_sq": 0.1})
    p = tmp_path / "report.json"
    write_report(report, p, format="json")
    payload = json.loads(p.read_text())
    assert payload["value"] == 0.0
    assert payload["pair_terms"] == {"X->Y": 0.0, "Y->X": 0.0}
    assert payload["kind"] == "scmd"


def test_report_json_round_trips_float_precision():
    value = 0.12345678901234567
    report = DistanceReport(value=value, pair_terms={("X", "Y"): value / 3},
                            dataset_ids=("a", "b"), kind="p-scmd")
    payload = json.loads(render_report(report, "json"))
    assert payload["value"] == value
    assert payload["pair_terms"]["X->Y"] == value / 3


def test_report_of_numpy_scalars_renders_as_its_float_twin():
    def report(num):
        return DistanceReport(value=num(0.5), pair_terms={("X", "Y"): num(0.1),
                                                          ("Y", "X"): num(0.3)},
                              dataset_ids=("a", "b"), kind="scmd",
                              config_echo={"bandwidth_sq": num(0.1), "levels": [num(0.7)],
                                           "interventions_1": {"X": num(1.1)}, "count": 3})

    def twin(x):
        return float(np.float32(x))

    assert render_report(report(np.float32), "json") == render_report(report(twin), "json")
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_report(DistanceReport(0.5, {}, ("a", "b"), "scmd", {"cfg": object()}), "json")


def test_matrix_csv_symmetric_under_transpose(tmp_path):
    values = np.array([[0.0, 1.5, 2.0], [1.5, 0.0, 0.25], [2.0, 0.25, 0.0]])
    m = PairwiseMatrix(ids=("e1", "e2", "e3"), values=values, metric="scmd")
    p = tmp_path / "matrix.csv"
    write_report(m, p, format="csv")
    lines = [row.split(",") for row in p.read_text().strip().splitlines()]
    assert lines[0] == ["id", "e1", "e2", "e3"]
    body = np.array([[float(c) for c in row[1:]] for row in lines[1:]])
    assert np.array_equal(body, body.T)
    assert np.array_equal(body, values)


def test_csv_reports_quote_names_that_hold_a_comma():
    ids = ("env,1", "env2", 'env"3')
    values = np.array([[0.0, 1.5, 2.0], [1.5, 0.0, 0.25], [2.0, 0.25, 0.0]])
    rows = list(csv.reader(io.StringIO(render_report(
        PairwiseMatrix(ids=ids, values=values, metric="scmd"), "csv"))))
    assert [len(row) for row in rows] == [4, 4, 4, 4]
    assert rows[0] == ["id", *ids] and [row[0] for row in rows[1:]] == list(ids)
    assert np.array_equal([[float(c) for c in row[1:]] for row in rows[1:]], values)
    # numpy floats print as plain numbers too
    report = DistanceReport(value=np.float64(0.5),
                            pair_terms={("a,b", "c"): 0.25, ("c", "a,b"): np.float64(0.25)},
                            dataset_ids=ids[:2], kind="scmd")
    rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
    assert rows == [["term", "value"], ["scmd", "0.5"], ["a,b->c", "0.25"], ["c->a,b", "0.25"]]


def test_dataset_quantile_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(31)
    columns = [rng.normal(size=n) for n in (1, 2, 3, 10, 257)]
    # ties, and values whose differences are small against their size
    columns += [rng.integers(0, 3, size=n).astype(float) for n in (1, 2, 7, 100)]
    columns += [1e8 + rng.normal(size=n) for n in (2, 9, 500)]
    levels = [1e-12, 1.0 - 1e-12, 0.25, 0.5, 0.75, *np.linspace(0.01, 0.99, 99),
              *rng.uniform(size=200), np.float32(0.3), np.float16(0.7)]
    for x in columns:
        d = Dataset({"X": x})
        for q in levels:  # a numpy level is read as its float twin
            assert d.quantile("X", q).hex() == float(np.quantile(x, float(q))).hex(), (x.size, q)


def test_dataset_copies_the_callers_arrays():
    x = np.array([0.5, 1.5, 2.5])
    d = Dataset({"X": x})
    x[0] = np.nan
    x[1:] = 7.0
    assert d.column("X").tolist() == [0.5, 1.5, 2.5]
    assert not d.column("X").flags.writeable


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset({"X": [1.0], "Y": [1.0, 2.0]})
    with pytest.raises(ValidationError):
        Dataset({"X": [np.inf]})
    with pytest.raises(ValidationError):
        Dataset({})
    with pytest.raises(ValidationError):
        Dataset({"X": []})
    for bad in (["a", "b"], np.array([1 + 2j, 3j]), [np.complex128(1 + 2j), np.complex128(3j)]):
        with pytest.raises(ValidationError, match="column 'X' is not real-valued"):
            Dataset({"X": bad})
    # .ravel() would interleave the rows of a matrix into one column
    for bad, shape in ((np.ones((3, 2)), r"\(3, 2\)"), (1.0, r"\(\)")):
        with pytest.raises(ValidationError,
                           match=f"column 'X' must be one-dimensional, got shape {shape}"):
            Dataset({"X": bad})
    with pytest.raises(ValidationError, match="quantile level must be a real number"):
        Dataset({"X": [1.0, 2.0]}).quantile("X", "0.5")
