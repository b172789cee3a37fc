"""Golden stdout of every subcommand on fixed inputs.

Each exact-output case runs ``ccx`` on input files stored in
``tests/golden/`` and compares stdout byte for byte with
``tests/golden/<case>.out``.  The output of spectrum, decompose and
filter depends on LAPACK floating point, so those cases, on the
signals and weights in ``hodge_inputs.json``, compare with
``hodge_tolerance.json`` to a tolerance instead: tag counts exactly,
and per tag the sorted eigenvalues, or the chain values, to 1e-9
relative to the largest magnitude in the expected output.  Sorting
within a tag leaves out the order of tied eigenvalues, which LAPACK
does not fix.  ``golden/capture_hodge.py`` writes the expected outputs
from whichever ``src/`` is on PYTHONPATH.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cellcomplex.cli import main

GOLDEN = Path(__file__).parent / "golden"
G = str(GOLDEN)

# case name -> (argv, expected exit code)
CASES = {
    "build_cubical_3_3": (["build", "cubical", "3", "3"], 0),
    "build_cubical_2_2_2": (["build", "cubical", "2", "2", "2"], 0),
    "product_toy_path": (["product", f"{G}/toy.json", f"{G}/path3.json"], 0),
    "product_path_graph": (["product", f"{G}/path3.json", f"{G}/grid_graph.json"], 0),
    "lift_tree": (["lift", "tree", f"{G}/grid_graph.json"], 0),
    "lift_tree_root": (["lift", "tree", f"{G}/grid_graph.json", "--root", "5"], 0),
    "lift_window": (
        ["lift", "window", f"{G}/window_graph.json", "--coords", f"{G}/window_coords.csv"],
        0,
    ),
    "lift_chordless": (["lift", "chordless", f"{G}/grid_graph.json"], 0),
    "validate_toy": (["validate", f"{G}/toy.json"], 0),
    "validate_nd_toy": (["validate", "--nd", f"{G}/toy.json"], 0),
    "validate_cube": (["validate", f"{G}/cube.json"], 0),
    "validate_broken": (["validate", f"{G}/broken.json"], 1),
    "validate_nd_broken": (["validate", "--nd", f"{G}/broken.json"], 1),
    "betti_toy": (["betti", f"{G}/toy.json"], 0),
    "betti_csv_rp2": (["--output", "csv", "betti", f"{G}/rp2.json"], 0),
    "betti_integer_rp2": (["betti", "--integer", f"{G}/rp2.json"], 0),
    "betti_integer_cube": (["betti", "--integer", f"{G}/cube.json"], 0),
    "build_vr": (["build", "vr", f"{G}/points.csv", "--eps", "0.45", "--maxdim", "2"], 0),
    "persist": (["persist", f"{G}/points.csv", "--max-eps", "0.6", "--max-dim", "2"], 0),
    "persist_json": (
        ["--output", "json", "persist", f"{G}/points.csv", "--max-eps", "0.6",
         "--max-dim", "1", "--keep-zero-bars"],
        0,
    ),
    "persist_dim3_zero_bars": (
        ["persist", f"{G}/points.csv", "--max-eps", "0.6", "--max-dim", "3",
         "--keep-zero-bars"],
        0,
    ),
    # Integer grid ring with repeated points: zero distances and tied diameters.
    "persist_grid_ties": (
        ["persist", f"{G}/grid_points.csv", "--max-eps", "2.5", "--max-dim", "2"], 0
    ),
    "persist_grid_json": (
        ["--output", "json", "persist", f"{G}/grid_points.csv", "--max-eps", "3",
         "--max-dim", "2"],
        0,
    ),
    "persist_grid_zero_bars": (
        ["persist", f"{G}/grid_points.csv", "--max-eps", "2.5", "--max-dim", "1",
         "--keep-zero-bars"],
        0,
    ),
    "build_vr_grid": (
        ["build", "vr", f"{G}/grid_points.csv", "--eps", "2", "--maxdim", "2"], 0
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, capsys):
    argv, expected_code = CASES[case]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.out").read_text()


HODGE_INPUTS = json.loads((GOLDEN / "hodge_inputs.json").read_text())
HODGE_EXPECTED = json.loads((GOLDEN / "hodge_tolerance.json").read_text())
HODGE_COMMANDS = {
    "spectrum": ["spectrum"],
    "decompose": ["decompose"],
    "heat": ["filter", "--filter", "heat:t=0.5"],
    "poly": ["filter", "--filter", "poly:0.5,-0.25,0.125"],
    "lowpass": ["filter", "--filter", "lowpass"],
    "identity": ["filter", "--filter", "identity"],
    "spectrumjson": ["--output", "json", "spectrum"],
}
HODGE_CASES = [
    f"{command}_{name}_{k}{'_w' if weighted else ''}"
    for name, inputs in HODGE_INPUTS.items()
    for k in range(len(inputs["signals"]))
    for weighted in (False, True)
    for command in HODGE_COMMANDS
]


def hodge_argv(case: str, tmp_path: Path) -> list[str]:
    """The ``ccx`` command line of one tolerance case, inputs written to tmp_path."""
    command, name, k, *weighted = case.split("_")
    inputs = HODGE_INPUTS[name]
    argv = [*HODGE_COMMANDS[command], f"{G}/{name}.json", "--dim", k]
    if "spectrum" not in HODGE_COMMANDS[command]:
        signal = tmp_path / "signal.json"
        signal.write_text(json.dumps({"dim": int(k), "values": inputs["signals"][int(k)]}))
        argv += ["--signal", str(signal)]
    if weighted:
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"weights": inputs["weights"]}))
        argv += ["--weights", str(weights)]
    return argv


def hodge_values(case: str, out: str) -> dict[str, np.ndarray]:
    """Per-tag sorted eigenvalues of a spectrum, or the chain(s) of a decompose/filter."""
    command = case.split("_")[0]
    if "spectrum" in HODGE_COMMANDS[command]:
        if command == "spectrumjson":
            doc = json.loads(out)
            rows = zip(doc["eigenvalues"], doc["tags"])
        else:
            rows = (line.split(",") for line in out.splitlines())
        by_tag: dict[str, list[float]] = {}
        for value, tag in rows:
            by_tag.setdefault(tag, []).append(float(value))
        return {tag: np.sort(values) for tag, values in by_tag.items()}
    doc = json.loads(out)
    chains = doc if command == "decompose" else {"chain": doc}
    return {part: np.array(chain["values"]) for part, chain in chains.items()}


@pytest.mark.parametrize("case", HODGE_CASES)
def test_hodge_output_within_tolerance(case, tmp_path, capsys):
    code = main(hodge_argv(case, tmp_path))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    expected = hodge_values(case, HODGE_EXPECTED[case])
    actual = hodge_values(case, captured.out)
    assert {t: len(v) for t, v in actual.items()} == {t: len(v) for t, v in expected.items()}
    scale = max(float(np.max(np.abs(v), initial=0.0)) for v in expected.values())
    for tag, values in expected.items():
        assert np.max(np.abs(actual[tag] - values), initial=0.0) <= 1e-9 * scale, tag
