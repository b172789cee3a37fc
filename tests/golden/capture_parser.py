"""Write what the ``ccx`` parser makes of every ``PARSER_CASES`` command line.

For each row of ``PARSER_CASES`` in ``tests/test_cli.py`` it stores the
argv, the parsed namespace as a dict (or the exit code when the parser
exits), and the parser's stdout and stderr, in ``parser_cases.json``
next to this script.  COLUMNS is pinned to 80, so help and usage lines
wrap the same on every terminal.  The package comes from whichever
``src/`` is on PYTHONPATH:

    PYTHONPATH=src python tests/golden/capture_parser.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["COLUMNS"] = "80"
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_cli import GOLDEN, PARSER_CASES, parse_outcome  # noqa: E402

if __name__ == "__main__":
    rows = [parse_outcome(argv) for argv in PARSER_CASES]
    (GOLDEN / "parser_cases.json").write_text(json.dumps(rows, indent=1) + "\n")
