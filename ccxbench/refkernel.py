"""Reference kernel for speed normalisation.

The machine's CPU speed drifts by about a quarter over a few seconds,
so raw times of identical work differ that much from run to run.  A
fixed kernel, which never touches the program, is timed beside every
measurement; dividing by its time and multiplying by NOMINAL_REF_S
reports each measurement in seconds at the kernel's nominal speed.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds reference_time() takes at nominal speed: about its median
# between commands on the machine the figures in README.md come from.
NOMINAL_REF_S = 0.0025

_MATRIX = np.random.default_rng(20250611).normal(size=(40, 40))
_MATRIX = _MATRIX + _MATRIX.T
_eigh = np.linalg.eigh  # bound now, so the traced run's wrapper never sees the kernel


def kernel() -> int:
    """Pure-Python dict, set and sort work plus one small eigh."""
    table = {}
    for i in range(2500):
        table[(i * 7919) % 4099] = i
    residues = {v % 1013 for v in table.values()}
    order = sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    _eigh(_MATRIX)
    return len(residues) + order[0][0]


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def reference_time(repeats: int = 2) -> float:
    """Fastest of ``repeats`` back-to-back kernel runs.

    The first run after other work pays for cold caches.  Measured
    between lattice commands, the minimum of two scatters 40% less than
    a single run and follows the commands' own slow-downs more closely
    (correlation 0.64 against 0.37).
    """
    return min(time_kernel() for _ in range(repeats))


def normalise(raw: float, reference: float) -> float:
    """raw seconds rescaled to the kernel's nominal speed."""
    return raw * NOMINAL_REF_S / reference
