"""CLI grammar, formats, exit codes, and byte-determinism."""

import argparse
import ast
import contextlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import cli, errors, io, persist
from cellcomplex.cli import main
from cellcomplex.core import BoundaryMatrix

import helpers


@pytest.fixture
def toy_file(tmp_path, toy):
    path = tmp_path / "toy.json"
    path.write_text(io.dumps(io.complex_to_json(toy)))
    return str(path)


@pytest.fixture
def square_points(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("0,0\n1,0\n1,1\n0,1\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_valid_toy(self, capsys, toy_file):
        code, out, _ = run(capsys, "validate", toy_file)
        assert code == 0
        assert json.loads(out) == {"valid": True, "failures": []}

    def test_nd_flag(self, capsys, toy_file):
        code, out, _ = run(capsys, "validate", "--nd", toy_file)
        assert code == 0 and json.loads(out)["valid"]

    def test_invalid_complex_exits_one(self, capsys, tmp_path, toy_graph):
        b2 = BoundaryMatrix(6, 1, ())
        broken = cx.CellComplex(
            2, (*toy_graph.cells, ("f",)), (toy_graph.boundary(1), b2)
        )
        path = tmp_path / "broken.json"
        path.write_text(io.dumps(io.complex_to_json(broken)))
        code, out, _ = run(capsys, "validate", "--nd", str(path))
        assert code == 1
        doc = json.loads(out)
        assert not doc["valid"]
        assert doc["failures"][0]["condition"] == "cell-acyclic"


    @pytest.mark.parametrize("cc, failures", [
        (cx.from_boundary_matrices([["a", "b"]], []), []),
        (cx.from_tuples(range(3), [(0, 1), (1, 2)]), []),
        (cx.from_boundary_matrices([["a", "b"], ["e"]], [BoundaryMatrix(2, 1, ((0, 0, 1),))]),
         [{"condition": "B1-columns", "cell": "1-cell e",
           "detail": "column has signs [1], expected one -1 and one +1"}]),
    ], ids=["dim-0", "path", "edge-with-one-end"])
    def test_dimensions_0_and_1(self, capsys, tmp_path, cc, failures):
        path = tmp_path / "low.json"
        path.write_text(io.dumps(cc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == (1 if failures else 0)
        assert json.loads(out) == {"valid": not failures, "failures": failures}


class TestBettiCommand:
    def test_csv_output(self, capsys, toy_file):
        code, out, _ = run(capsys, "--output", "csv", "betti", toy_file)
        assert code == 0 and out == "1,0,0\n"

    def test_json_default(self, capsys, toy_file):
        code, out, _ = run(capsys, "betti", toy_file)
        assert code == 0
        assert json.loads(out)["betti"] == [1, 0, 0]

    def test_integer_flag(self, capsys, toy_file):
        code, out, _ = run(capsys, "betti", "--integer", toy_file)
        doc = json.loads(out)
        assert doc["coefficients"] == "integer" and doc["betti"] == [1, 0, 0]


class TestSpectrumCommand:
    def test_csv_rows_and_determinism(self, capsys, toy_file):
        code, first, _ = run(capsys, "spectrum", toy_file, "--dim", "1")
        assert code == 0
        code, second, _ = run(capsys, "spectrum", toy_file, "--dim", "1")
        assert first == second
        rows = [line.split(",") for line in first.strip().splitlines()]
        assert len(rows) == 6
        assert {tag for _, tag in rows} == {"gradient", "curl"}

    def test_json_output(self, capsys, toy_file):
        code, out, _ = run(capsys, "--output", "json", "spectrum", toy_file, "--dim", "0")
        doc = json.loads(out)
        assert len(doc["eigenvalues"]) == 5
        assert doc["tags"].count("harmonic") == 1


class TestSignalCommands:
    def write_signal(self, tmp_path, values):
        path = tmp_path / "signal.json"
        path.write_text(json.dumps({"dim": 1, "values": values}))
        return str(path)

    def test_decompose_components_sum(self, capsys, tmp_path, toy_file):
        signal = self.write_signal(tmp_path, [1, 2, 3, 4, 5, 6])
        code, out, _ = run(capsys, "decompose", toy_file, "--dim", "1", "--signal", signal)
        assert code == 0
        doc = json.loads(out)
        total = (
            np.array(doc["gradient"]["values"])
            + np.array(doc["curl"]["values"])
            + np.array(doc["harmonic"]["values"])
        )
        assert np.allclose(total, [1, 2, 3, 4, 5, 6], atol=1e-9)

    @pytest.mark.parametrize("command, dim", [
        (["decompose"], -1), (["filter", "--filter", "identity"], 7), (["spectrum"], 5),
    ], ids=["decompose", "filter", "spectrum"])
    def test_dimension_off_the_complex(self, capsys, tmp_path, toy_file, command, dim):
        argv = [command[0], toy_file, "--dim", str(dim), *command[1:]]
        if command[0] != "spectrum":
            argv += ["--signal", self.write_signal(tmp_path, [1, 2, 3, 4, 5, 6])]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: no Laplacian L_{dim} on a 2-complex\n")

    def test_filter_identity_round_trips(self, capsys, tmp_path, toy_file):
        signal = self.write_signal(tmp_path, [1, -1, 0.5, 2, 0, 3])
        code, out, _ = run(
            capsys, "filter", toy_file, "--dim", "1", "--signal", signal,
            "--filter", "identity",
        )
        assert code == 0
        assert np.allclose(json.loads(out)["values"], [1, -1, 0.5, 2, 0, 3], atol=1e-9)

    def test_unknown_filter_exits_one(self, capsys, tmp_path, toy_file):
        signal = self.write_signal(tmp_path, [0, 0, 0, 0, 0, 0])
        code, _, err = run(
            capsys, "filter", toy_file, "--dim", "1", "--signal", signal,
            "--filter", "bandpass",
        )
        assert code == 1 and "bandpass" in err

    def test_weights_file(self, capsys, tmp_path, toy_file):
        signal = self.write_signal(tmp_path, [1, 2, 3, 4, 5, 6])
        weights = tmp_path / "weights.json"
        weights.write_text(
            json.dumps({"weights": [[1] * 5, [2, 1, 1, 1, 1, 1], [1, 1]]})
        )
        code, out, _ = run(
            capsys, "decompose", toy_file, "--dim", "1", "--signal", signal,
            "--weights", str(weights),
        )
        assert code == 0 and json.loads(out)["harmonic"]["dim"] == 1


class TestBuildCommands:
    def test_build_vr_round_trips_schema(self, capsys, square_points):
        code, out, _ = run(capsys, "build", "vr", square_points, "--eps", "1", "--maxdim", "2")
        assert code == 0
        cc = io.complex_from_json(json.loads(out))
        assert [len(layer) for layer in cc.cells] == [4, 4]

    def test_build_cubical(self, capsys):
        code, out, _ = run(capsys, "build", "cubical", "4", "4")
        cc = io.complex_from_json(json.loads(out))
        assert [len(layer) for layer in cc.cells] == [16, 24, 9]

    def test_product(self, capsys, tmp_path):
        k2 = helpers.k2_paper()
        path = tmp_path / "k2.json"
        path.write_text(io.dumps(io.complex_to_json(k2)))
        code, out, _ = run(capsys, "product", str(path), str(path))
        cc = io.complex_from_json(json.loads(out))
        assert [len(layer) for layer in cc.cells] == [4, 4, 1]


class TestLiftCommands:
    @pytest.fixture
    def graph_file(self, tmp_path, toy_graph):
        path = tmp_path / "graph.json"
        path.write_text(io.dumps(io.complex_to_json(toy_graph)))
        return str(path)

    def test_lift_tree(self, capsys, graph_file):
        code, out, _ = run(capsys, "lift", "tree", graph_file)
        cc = io.complex_from_json(json.loads(out))
        assert cc.n_cells(2) == 2

    def test_lift_tree_with_root(self, capsys, graph_file):
        code, out, _ = run(capsys, "lift", "tree", graph_file, "--root", "3")
        assert code == 0 and io.complex_from_json(json.loads(out)).n_cells(2) == 2

    def test_lift_chordless(self, capsys, graph_file):
        code, out, _ = run(capsys, "lift", "chordless", graph_file)
        cc = io.complex_from_json(json.loads(out))
        assert cc.cells[2] == ("0-1-2-3", "0-3-4")

    def test_lift_window(self, capsys, tmp_path):
        square = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        graph = tmp_path / "square.json"
        graph.write_text(io.dumps(io.complex_to_json(square)))
        coords = tmp_path / "coords.csv"
        coords.write_text("0,0\n1,0\n1,1\n0,1\n")
        code, out, _ = run(capsys, "lift", "window", str(graph), "--coords", str(coords))
        cc = io.complex_from_json(json.loads(out))
        assert cc.cells[2] == ("0-1-2-3",)

    def test_lift_window_keeps_the_input_edge_labels(self, capsys, tmp_path):
        # Labels that are not tail-head, and an edge against the drawing's turn.
        square = cx.from_boundary_matrices(
            [list("abcd"), ["ab", "cb", "cd", "da"]],
            [cx.from_tuples("abcd", [("a", "b"), ("c", "b"), ("c", "d"), ("d", "a")]).boundary(1)],
        )
        graph = tmp_path / "square.json"
        graph.write_text(io.dumps(io.complex_to_json(square)))
        coords = tmp_path / "coords.csv"
        coords.write_text("0,0\n1,0\n1,1\n0,1\n")
        code, out, _ = run(capsys, "lift", "window", str(graph), "--coords", str(coords))
        cc = io.complex_from_json(json.loads(out))
        assert code == 0
        assert cc.cells == (tuple("abcd"), ("ab", "cb", "cd", "da"), ("a-b-c-d",))
        assert cc.boundary(1) == square.boundary(1)
        assert cc.boundary(2).column(0) == [(0, 1), (1, -1), (2, 1), (3, 1)]

    @pytest.mark.parametrize("lifting", ["window", "tree", "chordless"])
    def test_edge_without_tail_and_head(self, capsys, tmp_path, lifting):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({
            "dim": 1, "cells": [["0", "1", "2"], ["a", "b"]],
            "boundaries": [{"k": 1, "rows": 3, "cols": 2,
                            "entries": [[0, 0, -1], [1, 0, 1], [1, 1, 1], [2, 1, 1]]}],
        }))
        coords = tmp_path / "coords.csv"
        coords.write_text("0,0\n1,0\n1,1\n")
        extra = ["--coords", str(coords)] if lifting == "window" else []
        code, out, err = run(capsys, "lift", lifting, str(graph), *extra)
        assert (code, out) == (1, "")
        assert err == "error: edge column 1 is not a (tail, head) incidence\n"

    @pytest.mark.parametrize("lifting", ["window", "tree", "chordless"])
    @pytest.mark.parametrize("dim", [0, 2])
    def test_rejects_a_complex_that_is_not_a_graph(self, capsys, tmp_path, lifting, dim):
        square = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1, 2, 3)])
        cc = cx.from_tuples(range(4)) if dim == 0 else square
        graph = tmp_path / "graph.json"
        graph.write_text(io.dumps(io.complex_to_json(cc)))
        coords = tmp_path / "coords.csv"
        coords.write_text("0,0\n1,0\n1,1\n0,1\n")
        extra = ["--coords", str(coords)] if lifting == "window" else []
        code, out, err = run(capsys, "lift", lifting, str(graph), *extra)
        assert (code, out) == (1, "")
        assert err == "error: lifting expects a 1-dimensional complex\n"

    def test_window_boundary_that_is_not_a_simple_cycle(self, capsys, tmp_path):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (0, 5)]
        graph = tmp_path / "graph.json"
        graph.write_text(io.dumps(io.complex_to_json(cx.from_tuples(range(6), edges))))
        coords = tmp_path / "coords.csv"
        coords.write_text("0,0\n4,0\n4,4\n0,4\n1,2\n2,1\n")
        code, out, err = run(capsys, "lift", "window", str(graph), "--coords", str(coords))
        assert (code, out) == (1, "")
        assert err == ("error: window boundary is not a simple cycle: two outgoing edges "
                       "at vertex 0 (branch or bad orientation)\n")

    @pytest.mark.parametrize("rows", [3, 5])
    def test_window_coordinate_rows_must_match_the_vertices(self, capsys, tmp_path, rows):
        square = cx.from_tuples(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        graph = tmp_path / "square.json"
        graph.write_text(io.dumps(io.complex_to_json(square)))
        coords = tmp_path / "coords.csv"
        coords.write_text("".join(f"{i},{i * i}\n" for i in range(rows)))
        code, out, err = run(capsys, "lift", "window", str(graph), "--coords", str(coords))
        assert (code, out) == (1, "")
        assert err == f"error: {rows} coordinate rows for 4 vertices\n"


class TestPersistCommand:
    def test_square_csv(self, capsys, square_points):
        code, out, _ = run(capsys, "persist", square_points, "--max-eps", "2", "--max-dim", "2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        h1 = [row for row in rows if row[0] == "1"]
        assert len(h1) == 1
        assert float(h1[0][1]) == pytest.approx(1.0)
        assert float(h1[0][2]) == pytest.approx(math.sqrt(2))
        assert any(row[2] == "inf" for row in rows)

    def test_json_output(self, capsys, square_points):
        code, out, _ = run(
            capsys, "--output", "json", "persist", square_points,
            "--max-eps", "2", "--max-dim", "1",
        )
        doc = json.loads(out)
        assert any(bar["death"] == "inf" for bar in doc["bars"])

    def test_determinism(self, capsys, square_points):
        _, first, _ = run(capsys, "persist", square_points, "--max-eps", "2", "--max-dim", "2")
        _, second, _ = run(capsys, "persist", square_points, "--max-eps", "2", "--max-dim", "2")
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["persist", "{points}", "--max-eps", "nan", "--max-dim", "2"],
        ["build", "vr", "{points}", "--eps", "nan", "--maxdim", "2"],
    ], ids=["persist", "build-vr"])
    def test_nan_scale_is_bad_input(self, capsys, square_points, argv):
        code, out, err = run(capsys, *(a.format(points=square_points) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


    @settings(max_examples=200)
    @given(bars=st.lists(st.tuples(
        st.integers(0, 3), st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
    ), max_size=30))
    def test_bar_lines_match_one_format_per_bar(self, bars):
        # Repeated values, -0.0 beside 0.0, subnormals and infinite deaths.
        dims = [dim for dim, _, _, _ in bars]
        births = [min(a, b) for _, a, b, _ in bars]
        deaths = [math.inf if dies_never else max(a, b) for _, a, b, dies_never in bars]
        want = "".join(f"{d},{b:.12g},{e:.12g}\n" for d, b, e in zip(dims, births, deaths))
        assert cli._bar_lines(persist.PersistenceDiagram(dims, births, deaths)) == want

    def test_bar_lines_keep_the_sign_of_zero(self):
        diagram = persist.PersistenceDiagram([0, 0, 1], [0.0, -0.0, -0.0], [0.0, -0.0, 1.0])
        assert cli._bar_lines(diagram) == "0,0,0\n0,-0,-0\n1,-0,1\n"

    @pytest.mark.parametrize("b", range(-600, 601, 50))
    def test_the_345_triangle_at_any_scale(self, capsys, tmp_path, b):
        path = tmp_path / "triangle.csv"
        path.write_text(f"0,0\n{math.ldexp(3, b)!r},0\n0,{math.ldexp(4, b)!r}\n")
        code, out, err = run(capsys, "persist", str(path), "--max-eps", "1e300", "--max-dim", "2")
        assert (code, err) == (0, "")
        assert out == f"0,0,{math.ldexp(3, b):.12g}\n0,0,{math.ldexp(4, b):.12g}\n0,0,inf\n"

    def test_far_points_die_at_their_distance(self, capsys, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text("0,0\n1e200,0\n0,1e200\n")
        code, out, err = run(capsys, "persist", str(path), "--max-eps", "1e300", "--max-dim", "2")
        assert (code, out, err) == (0, "0,0,1e+200\n0,0,1e+200\n0,0,inf\n", "")

    def test_no_per_simplex_objects(self, capsys, monkeypatch, square_points):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(persist.FiltrationStep, "__init__", refuse)
        monkeypatch.setattr(persist.PersistenceBar, "__init__", refuse)
        for argv in (
            ["persist", square_points, "--max-eps", "2", "--max-dim", "3", "--keep-zero-bars"],
            ["--output", "json", "persist", square_points, "--max-eps", "2", "--max-dim", "2"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 0 and out and not err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, counter", [
    (["persist", f"{GOLDEN}/grid_points.csv", "--max-eps", "2.5", "--max-dim", "2"],
     "persist.steps"),
    (["--output", "json", "persist", f"{GOLDEN}/points.csv", "--max-eps", "0.6",
      "--max-dim", "3", "--keep-zero-bars"], "persist.steps"),
    (["build", "vr", f"{GOLDEN}/grid_points.csv", "--eps", "2", "--maxdim", "2"],
     "builders.cells_built"),
    (["validate", "--nd", f"{GOLDEN}/cube.json"], "validate.cells_checked"),
    (["betti", "--integer", f"{GOLDEN}/rp2.json"], "snf.calls"),
    (["lift", "tree", f"{GOLDEN}/grid_graph.json"], "builders.cells_built"),
    (["lift", "window", f"{GOLDEN}/window_graph.json", "--coords",
      f"{GOLDEN}/window_coords.csv"], "builders.cells_built"),
], ids=["persist", "persist-json", "build-vr", "validate-nd", "betti-integer", "lift-tree",
        "lift-window"])
def test_traced_commands_print_the_untraced_bytes(capsys, argv, counter):
    # The benchmark's tracer wraps public functions of every layer; the
    # wrapped program must print exactly what the plain one prints.
    code, expected, _ = run(capsys, *argv)
    root = Path(cx.__file__).resolve().parents[2]
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracing\n"
        "from cellcomplex import cli\n"
        "tracer = tracing.Tracer(); tracing.install(tracer); tracer.active = True\n"
        "code = cli.main(sys.argv[2:]); sys.stderr.write(repr(dict(tracer.counts)))\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script, str(root / "ccxbench"), *argv],
        env=env, capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (code, expected)
    counts = ast.literal_eval(result.stderr)  # the tracer ran and counted the work
    assert counts.get(counter, 0) > 0


# One row per kind of command line: every subcommand, missing and bad
# arguments, an unknown command, help, and option values that spell a
# subcommand's name.
PARSER_CASES = [
    ["validate", "x.json"], ["validate", "--nd", "x.json"], ["betti", "--integer", "x"],
    ["--output", "csv", "betti", "x"], ["decompose", "x", "--dim", "1", "--signal", "s"],
    ["spectrum", "x", "--dim", "0", "--weights", "w"],
    ["filter", "x", "--dim", "1", "--signal", "s", "--filter", "lowpass"],
    ["build", "vr", "p", "--eps", "1", "--maxdim", "2"], ["build", "cubical", "3", "3"],
    ["product", "a", "b"], ["lift", "window", "g", "--coords", "c"],
    ["lift", "tree", "g", "--root", "5"], ["lift", "chordless", "g", "--max-cells", "9"],
    ["persist", "p", "--max-eps", "1", "--max-dim", "2", "--keep-zero-bars"],
    ["--output", "json", "persist", "p", "--max-eps", "1", "--max-dim", "1"],
    [], ["betti"], ["persist", "p"], ["persist", "p", "--max-eps", "x", "--max-dim", "1"],
    ["build"], ["build", "vr"], ["build", "cubical"], ["lift"], ["lift", "tree"],
    ["spectrum", "x", "--dim", "z"], ["betti", "x", "--bogus"], ["product", "a"],
    ["no-such-command"], ["no-such-command", "persist"], ["build", "torus", "x"],
    ["-h"], ["--help"], ["-h", "persist"], ["--help", "betti", "x"], ["persist", "-h"],
    ["build", "-h"], ["build", "vr", "-h"],
    ["lift", "window", "--help"], ["--output", "xml"], ["--output", "xml", "betti", "x"],
    ["--output"], ["validate", "betti"], ["--output", "betti", "validate", "x"],
    ["persist", "persist", "--max-eps", "1", "--max-dim", "1"], ["--out", "csv", "betti", "x"],
]


def parse_outcome(argv):
    """What the ccx parser makes of argv: the namespace as a dict, or the exit
    code, with what it printed; golden/parser_cases.json holds one per row."""
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(cli.PARSER.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return {"argv": argv, "result": result, "stdout": out.getvalue(), "stderr": err.getvalue()}


PARSER_GOLDEN = {tuple(row["argv"]): row
                 for row in json.loads((GOLDEN / "parser_cases.json").read_text())}


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_subcommand_parser_agrees_with_the_full_one(monkeypatch, argv):
    # The golden is the full parser's output, recorded while main still tried
    # a one-subcommand parser first (hence the name), with COLUMNS pinned to
    # 80; the help formatter reads the width on every call.
    monkeypatch.setenv("COLUMNS", "80")
    # Through JSON, so an int where the golden has a float (or back) differs.
    expected = json.dumps(PARSER_GOLDEN[tuple(argv)], sort_keys=True)
    assert json.dumps(parse_outcome(argv), sort_keys=True) == expected


def test_commands_build_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (
        ["betti", f"{GOLDEN}/toy.json"],
        ["build", "cubical", "2", "2"],
        ["lift", "window", f"{GOLDEN}/window_graph.json", "--coords",
         f"{GOLDEN}/window_coords.csv"],
        ["persist", f"{GOLDEN}/points.csv", "--max-eps", "0.6", "--max-dim", "2"],
    ):
        assert run(capsys, *argv)[0] == 0
    for argv in (["no-such-command"], ["persist", "-h"], ["build", "vr"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == []


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    def test_unknown_option_before_the_subcommand_is_usage_error(self, toy_file):
        with pytest.raises(SystemExit) as info:
            main(["--tolerance", "-1", "betti", toy_file])
        assert info.value.code == 2

    def test_missing_file_is_one(self, capsys):
        code, _, err = run(capsys, "betti", "/nonexistent/toy.json")
        assert code == 1 and err

    def test_schema_error_is_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("argv", [
        ["betti", "{deep}"],
        ["decompose", "{toy}", "--dim", "0", "--signal", "{deep}"],
        ["spectrum", "{toy}", "--dim", "0", "--weights", "{deep}"],
    ], ids=["complex", "signal", "weights"])
    def test_deeply_nested_json_is_one_error_line(self, capsys, tmp_path, toy_file, argv):
        # Too deep for the decoder's recursion, which raises RecursionError.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, *(a.format(deep=deep, toy=toy_file) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {deep}: invalid JSON (") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["persist", "{csv}", "--max-eps", "1", "--max-dim", "1"],
        ["build", "vr", "{csv}", "--eps", "1", "--maxdim", "1"],
        ["lift", "window", "{graph}", "--coords", "{csv}"],
    ], ids=["persist", "build-vr", "lift-window"])
    def test_empty_csv_is_one_error_line(self, capsys, tmp_path, toy_graph, argv):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        graph = tmp_path / "graph.json"
        graph.write_text(io.dumps(io.complex_to_json(toy_graph)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *(a.format(csv=csv, graph=graph) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not caught  # a numpy warning would print to stderr outside pytest


    @pytest.mark.parametrize("argv, message", [
        (["persist", "{csv}", "--max-eps", "1", "--max-dim", "1"],
         "point coordinates must be finite"),
        (["build", "vr", "{csv}", "--eps", "1", "--maxdim", "1"],
         "point coordinates must be finite"),
        (["lift", "window", "{graph}", "--coords", "{csv}"], "coordinates must be finite"),
    ], ids=["persist", "build-vr", "lift-window"])
    def test_nan_in_csv_is_one_error_line(self, capsys, tmp_path, toy_graph, argv, message):
        csv = tmp_path / "points.csv"
        csv.write_text("0,0\n1,nan\n")
        graph = tmp_path / "graph.json"
        graph.write_text(io.dumps(io.complex_to_json(toy_graph)))
        code, out, err = run(capsys, *(a.format(csv=csv, graph=graph) for a in argv))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["persist", "{points}", "--max-eps", "1", "--max-dim", "-1"],
        ["build", "vr", "{points}", "--eps", "1", "--maxdim", "-1"],
    ], ids=["persist", "build-vr"])
    def test_negative_dimension_is_one_error_line(self, capsys, square_points, argv):
        code, out, err = run(capsys, *(a.format(points=square_points) for a in argv))
        assert (code, out, err) == (1, "", "error: max_dim must be non-negative\n")


def _edge_doc() -> dict:
    return io.complex_to_json(helpers.k2_paper())


def _loop_doc() -> dict:
    """One vertex and one edge with an empty boundary column."""
    return {"dim": 1, "cells": [["v"], ["e"]],
            "boundaries": [{"k": 1, "rows": 1, "cols": 1, "entries": []}]}


def _with(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestInputContract:
    """Each bad input exits 1 with exactly one ``error:`` line."""

    # Each case would pass the schema if JSON true counted as the integer 1.
    @pytest.mark.parametrize("doc", [
        _with(_edge_doc(), ("dim",), True),
        _with(_edge_doc(), ("boundaries", 0, "k"), True),
        _with(_loop_doc(), ("boundaries", 0, "rows"), True),
        _with(_loop_doc(), ("boundaries", 0, "cols"), True),
        _with(_edge_doc(), ("boundaries", 0, "entries", 0, 2), True),
        _with(_edge_doc(), ("boundaries", 0, "entries", 1, 0), True),
    ], ids=["dim", "k", "rows", "cols", "sign", "row"])
    def test_bool_in_complex_rejected(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "betti", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("entries, fault", [
        ([[0, 0, 1], [1, 0, True]], "triplet"),
        ([[0, 0, 1.0], [1, 0, -1]], "triplet"),
        ([[0, 0], [1, 0, -1]], "triplet"),
        ([[0, 0, 2], [1, 0, -1]], "sign"),
        ([[0, 0, 2], [1, 0, 1.0]], "sign"),
        ([[0, 0, 1.0], [1, 0, 2]], "triplet"),
    ], ids=["bool", "float", "short-row", "sign-2", "sign-first", "triplet-first"])
    def test_bad_entry_message(self, capsys, tmp_path, entries, fault):
        # With faults of both kinds, the first faulty entry names the error.
        message = {
            "triplet": "boundary 1 entries must be [row, col, sign] integer triplets",
            "sign": "boundary 1 signs must be -1 or 1",
        }[fault]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_with(_edge_doc(), ("boundaries", 0, "entries"), entries)))
        code, out, err = run(capsys, "betti", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("path, value, message", [
        (("boundaries", 0, "cols"), 2**62, f"B_1 has shape (2, {2**62}), expected (2, 1)"),
        (("boundaries", 0, "rows"), 2**62, f"B_1 has shape ({2**62}, 1), expected (2, 1)"),
        (("boundaries", 0, "entries", 0, 0), 2**70, f"entry ({2**70}, 0) outside 2x1 matrix"),
        (("boundaries", 0, "entries", 1, 1), -(2**70), f"entry (1, {-(2**70)}) outside 2x1 matrix"),
    ], ids=["cols", "rows", "row-index", "col-index"])
    def test_huge_shape_or_index_is_one_error_line(self, capsys, tmp_path, path, value, message):
        # Sizes that no array could hold are rejected before any is allocated.
        doc_path = tmp_path / "huge.json"
        doc_path.write_text(json.dumps(_with(_edge_doc(), path, value)))
        code, out, err = run(capsys, "validate", str(doc_path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("signal, weights", [
        ('{"dim": true, "values": [1]}', None),
        ('{"dim": 1, "values": [true]}', None),
        ('{"dim": 1, "values": [NaN]}', None),
        ('{"dim": 1, "values": [Infinity]}', None),
        ('{"dim": 1, "values": [1%s]}' % ("0" * 400), None),
        ('{"dim": 1, "values": [1]}', '{"weights": [[1, true], [1]]}'),
        ('{"dim": 1, "values": [1]}', '{"weights": [[1, 1], [1%s]]}' % ("0" * 400)),
        ('{"dim": 1, "values": [1, 2]}', None),
        ('{"dim": 1, "values": [1]}', '{"weights": [[1, 1]]}'),
    ], ids=["chain-dim", "chain-value", "chain-nan", "chain-inf", "chain-huge-int",
            "weight-value", "weight-huge-int", "chain-length", "weight-count"])
    def test_bad_signal_or_weights_rejected(self, capsys, tmp_path, signal, weights):
        complex_path = tmp_path / "edge.json"
        complex_path.write_text(json.dumps(_edge_doc()))
        signal_path = tmp_path / "signal.json"
        signal_path.write_text(signal)
        argv = ["decompose", str(complex_path), "--dim", "1", "--signal", str(signal_path)]
        if weights is not None:
            weights_path = tmp_path / "weights.json"
            weights_path.write_text(weights)
            argv += ["--weights", str(weights_path)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("descriptor", [
        "heat:t=nan", "heat:t=inf", "heat:t=-inf", "poly:1,nan", "poly:inf",
    ])
    def test_non_finite_filter_rejected(self, capsys, tmp_path, toy_file, descriptor):
        signal = tmp_path / "signal.json"
        signal.write_text(json.dumps({"dim": 1, "values": [1, 2, 3, 4, 5, 6]}))
        code, out, err = run(
            capsys, "filter", toy_file, "--dim", "1", "--signal", str(signal),
            "--filter", descriptor,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestNonFiniteResults:
    """A result that overflows to inf or NaN exits 1 with one ``error:`` line."""

    @staticmethod
    def argv(tmp_path, command, values, weighted):
        """``command`` at dim 1 on cubical([4, 4]), with a signal and extreme weights."""
        grid = tmp_path / "grid.json"
        grid.write_text(io.dumps(io.complex_to_json(cx.cubical([4, 4]))))
        argv = [command[0], str(grid), "--dim", "1", *command[1:]]
        if values is not None:
            signal = tmp_path / "signal.json"
            signal.write_text(json.dumps({"dim": 1, "values": list(values)}))
            argv += ["--signal", str(signal)]
        if weighted:
            # The weighted B_2 entries are 1e300, so the curl eigenvalues overflow.
            weights = tmp_path / "weights.json"
            weights.write_text(json.dumps({"weights": [[1e300] * 16, [1e-300] * 24, [1e300] * 9]}))
            argv += ["--weights", str(weights)]
        return argv

    @pytest.mark.parametrize("command, values, weighted", [
        (["filter", "--filter", "heat:t=-1000"], range(1, 25), False),
        (["filter", "--filter", "poly:1e308,1e308"], range(1, 25), False),
        (["decompose"], [1e308] * 24, False),
        (["spectrum"], None, True),
        (["filter", "--filter", "lowpass"], range(1, 25), True),
    ], ids=["heat-overflow", "poly-overflow", "decompose-overflow", "spectrum-weights",
            "filter-weights"])
    def test_overflow_is_an_error(self, capsys, tmp_path, command, values, weighted):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *self.argv(tmp_path, command, values, weighted))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not caught  # a numpy warning would print to stderr outside pytest

    @pytest.mark.parametrize("command", [
        ["spectrum"],
        ["filter", "--filter", "heat:t=1", "--signal", "SIGNAL"],
    ], ids=["spectrum", "heat"])
    def test_weighted_boundary_overflow_reaches_no_solver(self, capfd, tmp_path, toy_file,
                                                           command):
        # W_0 = 1e-320 beside W_1 = 1e308 puts inf into the weighted B_1; LAPACK
        # would print to file descriptor 1 and the SVD would not converge.
        weights, signal = tmp_path / "weights.json", tmp_path / "signal.json"
        weights.write_text(json.dumps({"weights": [[1e-320] * 5, [1e308] * 6, [1.0] * 2]}))
        signal.write_text(json.dumps({"dim": 1, "values": [1, 2, 3, 4, 5, 6]}))
        argv = [command[0], toy_file, "--dim", "1", "--weights", str(weights)]
        argv += [str(signal) if a == "SIGNAL" else a for a in command[1:]]
        code, out, err = run(capfd, *argv)
        assert (code, out) == (1, "")
        assert err == "error: the weighted B_1 overflowed the float range\n"

    def test_finite_results_under_the_same_weights_pass(self, capsys, tmp_path):
        # The curl part overflows, but the decomposition and a heat filter
        # that damps it stay finite: the grid has no hole, so the filter
        # keeps just the gradient part.
        code, out, err = run(capsys, *self.argv(tmp_path, ["decompose"], range(1, 25), True))
        assert (code, err) == (0, "")
        split = json.loads(out)
        parts = [np.array(split[p]["values"]) for p in ("gradient", "curl", "harmonic")]
        assert np.allclose(sum(parts), np.arange(1, 25), rtol=0, atol=1e-9)
        heat = ["filter", "--filter", "heat:t=1"]
        code, out, err = run(capsys, *self.argv(tmp_path, heat, range(1, 25), True))
        assert (code, err) == (0, "")
        assert np.allclose(json.loads(out)["values"], parts[0], rtol=0, atol=1e-9)


def _extreme_cases():
    """(name, complex, k, W_k): 1e-300 beside 1e300 in one weight vector, on each
    bridge edge of a path and in each dimension of a grid."""
    path = cx.cubical([6])
    for j in range(path.n_cells(1)):
        for rest in (1.0, 1e300):
            w = [rest] * path.n_cells(1)
            w[j] = 1e-300
            yield f"path-bridge{j}-rest{rest:g}", path, 1, w
    grid = cx.cubical([4, 4])
    for k in range(3):
        n = grid.n_cells(k)
        for name, w in (("pair", [1.0] * n), ("huge", [1e300] * n), ("tiny", [1e-300] * n)):
            w[0], w[n // 2] = 1e-300, 1e300
            yield f"grid{k}-{name}", grid, k, w
        w = list(np.where(np.random.default_rng(k).random(n) < 0.5, 1e-300, 1e300))
        yield f"grid{k}-mixed", grid, k, w


EXTREME_CASES = list(_extreme_cases())


@pytest.mark.parametrize("cc, k, wk", [case[1:] for case in EXTREME_CASES],
                         ids=[case[0] for case in EXTREME_CASES])
def test_decompose_with_weights_past_the_float_range(capsys, tmp_path, cc, k, wk):
    # Finite parts that sum to x, or NonFiniteResult as one error line: never
    # numpy's LinAlgError, a traceback, or a warning.
    vectors = [[1.0] * cc.n_cells(j) for j in range(cc.dim + 1)]
    vectors[k] = wk
    x = np.arange(1.0, cc.n_cells(k) + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            try:
                split = cx.hodge_decompose(cc, k, cx.ChainVector(k, x), cx.WeightSet(vectors))
            except errors.NonFiniteResult:
                split = None
    files = {"c": io.complex_to_json(cc), "w": {"weights": vectors},
             "s": {"dim": k, "values": x.tolist()}}
    for key, doc in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "decompose", str(tmp_path / "c.json"), "--dim", str(k),
                             "--signal", str(tmp_path / "s.json"),
                             "--weights", str(tmp_path / "w.json"))
    assert not caught
    if split is None:
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert (code, err) == (0, "")
        parts = [np.array(json.loads(out)[p]["values"]) for p in ("gradient", "curl", "harmonic")]
        assert all(np.isfinite(part).all() for part in parts)
        assert np.allclose(sum(parts), x, rtol=0, atol=1e-9 * np.max(x))


def test_spectrum_with_extreme_weights_never_raises(capsys, tmp_path):
    # Log-uniform weights over 10^-4..10^4 spread the spectrum over many
    # orders of magnitude; the subspace sizes come from exact ranks, so
    # every draw splits into 35 gradient, 25 curl and no harmonic vectors.
    grid = cx.cubical([6, 6])
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(io.dumps(io.complex_to_json(grid)))
    for seed in range(12):
        rng = np.random.default_rng(seed)
        vectors = [(10.0 ** rng.uniform(-4, 4, grid.n_cells(k))).tolist() for k in range(3)]
        weights = tmp_path / f"weights{seed}.json"
        weights.write_text(json.dumps({"weights": vectors}))
        code, out, err = run(
            capsys, "spectrum", str(grid_path), "--dim", "1", "--weights", str(weights)
        )
        assert (code, err) == (0, "")
        tags = Counter(line.rsplit(",", 1)[1] for line in out.splitlines())
        assert tags == {"gradient": 35, "curl": 25}


def test_spectrum_with_underflowing_weights_is_an_error(capsys, tmp_path):
    # The weighted B_1 entries are 1e-300, so the squared singular values,
    # the curl eigenvalues of L_0, underflow to 0.
    grid = tmp_path / "grid.json"
    grid.write_text(io.dumps(io.complex_to_json(cx.cubical([4, 4]))))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"weights": [[1e300] * 16, [1e-300] * 24, [1e300] * 9]}))
    code, out, err = run(capsys, "spectrum", str(grid), "--dim", "0", "--weights", str(weights))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "underflow" in err and err.count("\n") == 1


def test_importing_the_cli_leaves_networkx_unloaded():
    # networkx is no dependency: the import does not load it, and ``lift
    # chordless`` runs where importing it fails.
    src = os.path.dirname(os.path.dirname(cx.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["lift", "chordless", str(GOLDEN / "grid_graph.json")]
    code = (
        "import sys, cellcomplex.cli; print('networkx' in sys.modules); "
        f"sys.modules['networkx'] = None; sys.exit(cellcomplex.cli.main({argv!r}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n" + (GOLDEN / "lift_chordless.out").read_text()


def test_the_package_imports_only_the_standard_library_and_numpy():
    # Every import statement, function-local ones too, by its top-level name.
    allowed = sys.stdlib_module_names | {"numpy", "cellcomplex"}
    for path in sorted(Path(cx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    requirements = pyproject["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", r).group() for r in requirements] == ["numpy"]
