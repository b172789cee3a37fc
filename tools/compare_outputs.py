#!/usr/bin/env python3
"""Compare the ``ccx`` output of two source trees over benchmark workload rounds.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC --workload lattice spectral rips \
        --seed 11 --rounds 0 1

OLD_SRC and NEW_SRC are directories that hold a ``cellcomplex`` package
(a ``src/`` tree).  Each workload given gets one block of output, headed
by its name.  Every command of the chosen rounds, as
``ccxbench/workloads.py`` of this checkout writes it, runs through
``cellcomplex.cli.main(argv)``: once in a fresh interpreter per tree,
one tree after the other, on input files at the same paths.  The tool
prints each side's command count and the SHA-256 over every command's
(exit code, stdout, stderr), then how many commands differ, by subcommand,
and the first of them.  For differing commands whose exit codes and stderr
agree and whose stdouts have the same shape, it prints the largest
difference between their numbers, relative to the largest finite number of
the command's output and relative to each value; the others it counts as
differing in more than numbers.  A stdout is read as JSON, or else as lines
of comma-separated fields (the CSV output), where every field that reads as
a float is a number and the others must agree as text.  Of the CSV outputs
that differ in more than numbers, it counts apart those whose numbers agree
row by row to 1e-9 relative and whose text fields differ only by a
permutation within runs of tied rows (rows whose numbers agree to 1e-9
relative with the row before): the tags of eigenvalues equal in exact
arithmetic, which rounding may order either way.  It exits 0 when both
sides agree on every workload and 1 when they do not on any.
Nothing under ``ccxbench/`` is changed; its input files go to a
temporary directory.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "ccxbench"
TIED = 1e-9  # relative agreement of numbers in rows that may swap their text fields


def run_side(src: str, workload: str, seed: int, rounds: list[int], work: str) -> None:
    """Run the rounds against the package in src; print one JSON line per command."""
    sys.path[:0] = [src, str(BENCH)]
    import workloads
    from cellcomplex import cli

    for rnd in rounds:
        directory = os.path.join(work, f"round{rnd}")
        os.makedirs(directory)
        for cmd in workloads.WORKLOADS[workload](seed, rnd, workloads.Files(directory)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(cmd.argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
                except Exception as exc:  # what a user would see as a traceback
                    rc = f"uncaught {type(exc).__name__}: {exc}"
            record = {"argv": cmd.argv, "rc": rc, "stdout": out.getvalue(),
                      "stderr": err.getvalue()}
            print(json.dumps(record), flush=True)
        shutil.rmtree(directory)


def side(src: str, workload: str, args, work: str) -> list[dict]:
    """The records of one tree, from a child interpreter with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, __file__, "--side", str(Path(src).resolve()), "--workload",
           workload, "--seed", str(args.seed), "--work", work,
           "--rounds", *map(str, args.rounds)]
    child = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if child.returncode != 0:
        sys.exit(f"error: the run against {src} failed:\n{child.stderr}")
    return [json.loads(line) for line in child.stdout.splitlines()]


def digest(records: list[dict]) -> str:
    sha = hashlib.sha256()
    for record in records:
        sha.update(json.dumps([record["rc"], record["stdout"], record["stderr"]]).encode())
    return sha.hexdigest()


def _rows(stdout: str) -> list[list[float | str]] | None:
    """A stdout that is not JSON as its lines of comma-separated fields, each a
    float where it reads as one; None for a JSON stdout."""
    try:
        json.loads(stdout)
    except json.JSONDecodeError:
        return [[_field(text) for text in line.split(",")] for line in stdout.splitlines()]
    return None


def _document(stdout: str):
    """A command's stdout as JSON, or else as its CSV rows (_rows)."""
    rows = _rows(stdout)
    return json.loads(stdout) if rows is None else rows


def _field(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def _numbers(a, b, out: list[tuple[float, float]]) -> bool:
    """Append (|a - b|, max(|a|, |b|)) for each pair of numbers at the same place in
    two documents; False if they differ in anything but their numbers."""
    if isinstance(a, (bool, str)) or a is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(b, bool):
        same = a == b or math.isnan(a) and math.isnan(b)
        out.append((0.0 if same else abs(a - b), max(abs(a), abs(b))))
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_numbers(x, y, out) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_numbers(a[key], b[key], out) for key in a)
    return False


def _tied(a: list[float], b: list[float]) -> bool:
    """Whether two lists of numbers agree place by place to TIED relative."""
    return len(a) == len(b) and all(
        x == y or abs(x - y) <= TIED * max(abs(x), abs(y)) or math.isnan(x) and math.isnan(y)
        for x, y in zip(a, b))


def _tie_reordered(old: str, new: str, out: list[tuple[float, float]]) -> bool:
    """Whether two CSV stdouts have the same rows up to numbers that agree to TIED
    relative and a permutation of the text fields within each run of tied rows;
    appends (|a - b|, max(|a|, |b|)) for their numbers, as _numbers does."""
    a, b = _rows(old), _rows(new)
    if a is None or b is None or len(a) != len(b):
        return False
    texts: list[collections.Counter] = [collections.Counter(), collections.Counter()]
    run, previous = 0, None
    for x, y in zip(a, b):
        kinds = [isinstance(field, str) for field in x]
        if kinds != [isinstance(field, str) for field in y]:
            return False
        numbers = [[f for f in row if not isinstance(f, str)] for row in (x, y)]
        if not _tied(*numbers):
            return False
        run += previous is None or not _tied(previous, numbers[0])
        previous = numbers[0]
        for counter, row in zip(texts, (x, y)):
            counter[run, tuple(f for f in row if isinstance(f, str))] += 1
        _numbers(*numbers, out)
    return texts[0] == texts[1]


def _relative_difference(pairs: list[tuple[dict, dict]]) -> tuple[float, float, int, int]:
    """Over record pairs, the largest difference between the numbers of a pair's
    stdouts, relative to the largest finite number in the pair and relative to
    the value; how many pairs differ in more than their numbers; and how many
    of those only by the order of CSV text fields among tied rows (_tie_reordered)."""
    largest, per_value, other, reordered = 0.0, 0.0, 0, 0
    for old, new in pairs:
        found: list[tuple[float, float]] = []
        alike = (old["rc"], old["stderr"]) == (new["rc"], new["stderr"])
        if not (alike and _numbers(_document(old["stdout"]), _document(new["stdout"]), found)):
            other += 1
            found = []
            if not (alike and _tie_reordered(old["stdout"], new["stdout"], found)):
                continue
            reordered += 1
        if found:
            scale = max((size for _, size in found if math.isfinite(size)), default=0.0)
            diff = max(diff for diff, _ in found)
            largest = max(largest, diff / scale if scale else diff)
            per_value = max([per_value] + [d / size for d, size in found if 0 < size < math.inf])
    return largest, per_value, other, reordered


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", help="first source tree")
    parser.add_argument("new", nargs="?", help="second source tree")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=("lattice", "spectral", "rips"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, nargs="+", default=[0])
    parser.add_argument("--side", help=argparse.SUPPRESS)  # one tree, in the child
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.side:
        run_side(args.side, args.workload[0], args.seed, args.rounds, args.work)
        return 0
    if not (args.old and args.new):
        parser.error("give two source trees")
    # Every block is printed, also after one that differs.
    return max([compare(workload, args) for workload in args.workload])


def compare(workload: str, args) -> int:
    """Print one workload's block; 0 when both trees agree on it, else 1."""
    print(f"{workload}:")
    work = tempfile.mkdtemp(prefix="compare-outputs-")
    try:
        # Both sides write their inputs to the same paths, which error lines may name.
        records = [side(src, workload, args, work) for src in (args.old, args.new)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for src, found in zip((args.old, args.new), records):
        print(f"{src}: {len(found)} commands, sha256 {digest(found)}")
    keys = [[(r["rc"], r["stdout"], r["stderr"]) for r in found] for found in records]
    pairs = [(old, new) for old, new, a, b in zip(*records, *keys) if a != b]
    if pairs:
        first = pairs[0][0]["argv"]
        print(f"{len(pairs)} commands differ; the first: ccx {' '.join(first)}")
        by_command = collections.Counter(old["argv"][0] for old, _ in pairs)
        print("by subcommand: " + ", ".join(f"{n} {c}" for c, n in sorted(by_command.items())))
        largest, per_value, other, reordered = _relative_difference(pairs)
        print(f"largest difference between their numbers, relative to the output's "
              f"largest: {largest:.2e}; relative to the value: {per_value:.2e}")
        if other:
            print(f"{other} of them differ in more than their numbers, {reordered} of those "
                  f"only in the order of text fields among rows tied to {TIED:g}")
    if len(records[0]) != len(records[1]):
        print("the sides ran different numbers of commands")
    elif not pairs:
        print("identical")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
