"""Write the expected outputs of the spectrum, decompose and filter goldens.

Runs the tolerance cases of ``tests/test_golden.py`` through
``cellcomplex.cli.main`` and stores each case's stdout in
``hodge_tolerance.json`` next to this script.  Entries of cases that are
not selected are kept as they are.  The package comes from whichever
``src/`` is on PYTHONPATH, so capturing the goldens of another checkout
is one command:

    PYTHONPATH=<checkout>/src python tests/golden/capture_hodge.py lowpass identity

The arguments name commands of ``HODGE_COMMANDS`` (spectrum, decompose,
heat, poly, lowpass, identity, spectrumjson); without arguments every
case is captured.  A case that exits nonzero or writes to stderr stops
the capture before anything is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, HODGE_CASES, HODGE_COMMANDS, hodge_argv, main  # noqa: E402


def capture(case: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = hodge_argv(case, Path(tmp))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code != 0 or err.getvalue():
        raise SystemExit(f"{case}: exit {code}, stderr {err.getvalue()!r}")
    return out.getvalue()


def run(commands: list[str]) -> None:
    unknown = set(commands) - set(HODGE_COMMANDS)
    if unknown:
        raise SystemExit(f"unknown commands {sorted(unknown)}; choose from {list(HODGE_COMMANDS)}")
    path = GOLDEN / "hodge_tolerance.json"
    expected = json.loads(path.read_text())
    for case in HODGE_CASES:
        if not commands or case.split("_")[0] in commands:
            expected[case] = capture(case)
    expected = {case: expected[case] for case in HODGE_CASES if case in expected}
    path.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    run(sys.argv[1:])
