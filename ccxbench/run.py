#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``ccx`` command line.

    python3 ccxbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each round writes a fresh, seeded list of
input files and runs every command of the workload in this process
through ``cellcomplex.cli.main(argv)`` with stdout captured, then checks
each output independently.  Rounds repeat until ``--seconds`` have
passed; only whole rounds run.  A fixed reference kernel is timed just
before and just after every command, and each time is rescaled to the
kernel's nominal speed, which cancels most of the drift in CPU speed.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the program's layers are wrapped
with timers (see tracing.py) and the metrics are per layer.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so every run uses the same BLAS configuration.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 9

# Run by each set-up sample: import the CLI, note the time, then time the
# reference kernel in the same process, on the CPU that did the import.
SETUP_CHILD = """
import sys, time
import cellcomplex.cli
imported = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import refkernel
print(imported, refkernel.reference_time(3))
"""


def measure_setup() -> tuple[float, float]:
    """Median (raw, normalised) seconds from spawning a fresh interpreter to
    an imported ``cellcomplex.cli``.  perf_counter is CLOCK_MONOTONIC, so
    the parent's and the child's readings share one time base."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(HERE)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, check=True, capture_output=True)  # writes bytecode once
    raw, norm = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        imported, reference = map(float, child.stdout.split())
        raw.append(imported - start)
        norm.append(refkernel.normalise(imported - start, reference))
    return statistics.median(raw), statistics.median(norm)


def execute(cli, argv: list[str]) -> tuple[str, int | None, float, str | None]:
    """Run one ccx command in-process: (stdout, exit code, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # an uncaught exception is what a user sees as a traceback
            rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return out.getvalue(), rc, elapsed, error


class Run:
    """Accumulates one run's timings, failures and per-layer figures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.jobs: list[float] = []  # normalised seconds per command
        self.rounds: list[float] = []  # normalised seconds per round
        self.raw_jobs: list[float] = []
        self.raw_rounds: list[float] = []
        self.references: list[float] = []
        self.layer_rounds: list[dict] = []
        self.first_counts: dict = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []  # failures the benchmark does not expect

    def round(self, cmds, cli, selftest: bool) -> None:
        total = raw_total = 0.0
        layers: dict[str, float] = {}
        counts: dict[str, int] = {}
        for cmd in cmds:
            before = refkernel.reference_time()
            if self.tracer is not None:
                self.tracer.active = True
            out, rc, raw, error = execute(cli, cmd.argv)
            if self.tracer is not None:
                self.tracer.active = False
            after = refkernel.reference_time()
            reference = (before + after) / 2
            self.references.append(reference)
            norm = refkernel.normalise(raw, reference)
            self.jobs.append(norm)
            self.raw_jobs.append(raw)
            total += norm
            raw_total += raw
            if self.tracer is not None:
                times, found = self.tracer.take()
                for name, seconds in times.items():
                    layers[name] = layers.get(name, 0.0) + 1e3 * refkernel.normalise(seconds, reference)
                found["io.bytes_written"] = len(out.encode())
                for name, n in found.items():
                    counts[name] = counts.get(name, 0) + n
            self.attempted += 1
            if error is None:
                try:
                    cmd.check(out, rc)
                except checks.CHECK_ERRORS as exc:
                    error = f"check failed: {exc}"
            if error is not None:
                self.failed += 1
                if not cmd.known_fault:
                    self.problems.append(f"{' '.join(cmd.argv)}: {error}")
            elif selftest:
                corrupted = cmd.corrupt(out)
                try:
                    cmd.check(corrupted, rc)
                    self.problems.append(f"self-test: check accepted corrupted {cmd.argv[:2]}")
                except checks.CHECK_ERRORS:
                    pass
        self.rounds.append(total)
        self.raw_rounds.append(raw_total)
        self.layer_rounds.append(layers)
        if not self.first_counts:
            self.first_counts = counts


def quantiles(values: list[float]) -> tuple[float, float]:
    """(median, 90th percentile)."""
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        from cellcomplex import cli

        tracing.install(tracer)
    else:
        tracer = None
        from cellcomplex import cli

    build = workloads.WORKLOADS[args.workload]
    run = Run(tracer)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    start = time.perf_counter()
    try:
        rnd = 0
        while rnd == 0 or time.perf_counter() - start < args.seconds:
            directory = workdir / f"round{rnd}"
            directory.mkdir(parents=True)
            cmds = build(args.seed, rnd, workloads.Files(str(directory)))
            run.round(cmds, cli, selftest=rnd == 0)
            shutil.rmtree(directory)
            rnd += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()

    for problem in run.problems[:20]:
        print(problem, file=sys.stderr)
    p50, p90 = quantiles(run.jobs)
    raw_p50, raw_p90 = quantiles(run.raw_jobs)
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": len(run.rounds),
        "commands_per_round": run.attempted // len(run.rounds),
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "nominal_ref_s": refkernel.NOMINAL_REF_S,
        "median_ref_s": statistics.median(run.references),
        "raw": {"wall_s": statistics.median(run.raw_rounds),
                "job_p50_ms": 1e3 * raw_p50, "job_p90_ms": 1e3 * raw_p90},
    }
    if tracer is None:
        setup_raw, setup_norm = measure_setup()
        info["raw"]["setup_s"] = setup_raw
        metrics = {
            "setup_s": (setup_norm, "s"),
            "wall_s": (statistics.median(run.rounds), "s"),
            "job_p50_ms": (1e3 * p50, "ms"),
            "job_p90_ms": (1e3 * p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {"trace.wall_s": (statistics.median(run.rounds), "s")}
        for name in tracing.TIMES:
            per_round = [layers.get(name, 0.0) for layers in run.layer_rounds]
            metrics[name] = (statistics.median(per_round), "ms")
        for name in tracing.COUNTS:
            metrics[name] = (run.first_counts.get(name, 0), "count")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "cellcomplex" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'cellcomplex'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import checks  # noqa: E402
    import refkernel  # noqa: E402
    import workloads  # noqa: E402

    sys.exit(main())
