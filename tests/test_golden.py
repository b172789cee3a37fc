"""Byte-for-byte stdout of every exact-output subcommand on fixed inputs.

Each case runs ``ccx`` on input files stored in ``tests/golden/`` and
compares stdout with ``tests/golden/<case>.out``.  Subcommands whose
output depends on LAPACK floating point (spectrum, decompose, filter)
are left out.
"""

from pathlib import Path

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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, capsys):
    argv, expected_code = CASES[case]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.out").read_text()
