"""Per-layer timing for the traced run, from the benchmark's own files.

The program carries no spans of its own yet, so the traced run replaces
public functions of each layer with timing wrappers before any command
runs.  A wrapper records its span's self time (its duration minus the
time covered by nested spans) under a metric name, and may add counts
computed from the call's arguments and result.  The untraced run never
imports this module.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Self-time metrics, in the order they are reported.
TIMES = (
    "cli.self_ms", "io.read_ms", "io.write_ms", "core.construct_ms", "core.exactness_ms",
    "core.cycle_ms", "core.closure_ms", "builders.lift_ms", "builders.embed_ms",
    "builders.product_ms", "builders.rips_ms", "builders.simplicial_ms", "validate.self_ms",
    "snf.ms", "homology.self_ms", "hodge.assemble_ms", "hodge.eigh_ms", "hodge.lstsq_ms",
    "hodge.self_ms", "persist.filtration_ms", "persist.reduce_ms",
)
COUNTS = (
    "io.bytes_read", "io.bytes_written", "core.nnz", "builders.cells_built",
    "validate.cells_checked", "snf.calls", "snf.entries", "hodge.eigh_calls",
    "hodge.eigh_n3", "persist.steps", "persist.bars",
)


def _cells(cc) -> int:
    return sum(len(layer) for layer in cc.cells)


def _file_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else None
    return {"io.bytes_read": os.path.getsize(path)} if isinstance(path, str) else {}


def _nnz(args, kwargs, result) -> dict:
    return {"core.nnz": sum(len(b.entries) for b in result.boundaries)}


def _checked(args, kwargs, result, dims) -> dict:
    cc = args[0]
    return {"validate.cells_checked": sum(cc.n_cells(k) for k in dims(cc))}


def _snf(args, kwargs, result) -> dict:
    m = args[0]
    rows, cols = (m.rows, m.cols) if hasattr(m, "rows") else np.shape(m)
    return {"snf.calls": 1, "snf.entries": rows * cols}


def _eigh(args, kwargs, result) -> dict:
    n = int(np.shape(args[0])[0])
    return {"hodge.eigh_calls": 1, "hodge.eigh_n3": n ** 3}


def _persistence(args, kwargs, result) -> dict:
    return {"persist.steps": len(args[0].steps), "persist.bars": len(result.bars)}


class Tracer:
    """Collects self times and counts while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # [metric, time covered by children]
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def take(self) -> tuple[dict, dict]:
        """Return and reset what was collected since the last call."""
        times, counts = dict(self.times), dict(self.counts)
        self.times.clear()
        self.counts.clear()
        return times, counts

    def wrap(self, metric: str, fn, count=None, builder: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer.stack[-1][0] if tracer.stack else None
            frame = [metric, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                tracer.stack.pop()
                tracer.times[metric] += span - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += span
            if count is not None:
                for name, n in count(args, kwargs, result).items():
                    tracer.counts[name] += n
            if builder and not (outer or "").startswith("builders."):
                tracer.counts["builders.cells_built"] += _cells(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions wherever the package refers to them."""
    from cellcomplex import builders, cli, core, hodge, homology, io, persist, snf, validate

    modules = [m for name, m in sys.modules.items()
               if name == "cellcomplex" or name.startswith("cellcomplex.")]

    def patch(owner, attr, metric, count=None, builder=False):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(metric, original, count, builder)
        setattr(owner, attr, wrapped)
        for module in modules:  # names imported with "from .x import f"
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)

    patch(cli, "main", "cli.self_ms")
    for owner, attr in ((io, "load_complex"), (cli, "_load_chain"),
                        (cli, "_load_weights"), (np, "loadtxt")):
        patch(owner, attr, "io.read_ms", _file_bytes)
    for attr in ("dumps", "complex_to_json", "chain_to_json"):
        patch(io, attr, "io.write_ms")
    patch(core, "from_boundary_matrices", "core.construct_ms", _nnz)
    patch(core, "from_tuples", "core.construct_ms")
    patch(core.BoundaryMatrix, "__post_init__", "core.construct_ms")
    patch(core, "integer_product", "core.exactness_ms")
    for attr in ("oriented_cycle", "_edge_endpoints", "_cycle_tuple"):
        patch(core, attr, "core.cycle_ms")
    patch(core, "closure_indices", "core.closure_ms")
    patch(core, "subcomplex", "core.closure_ms")
    patch(core.BoundaryMatrix, "restrict", "core.closure_ms")
    for attr in ("window_lifting", "spanning_tree_lifting", "chordless_cycle_lifting"):
        patch(builders, attr, "builders.lift_ms", builder=True)
    patch(builders.PlanarEmbedding, "__post_init__", "builders.embed_ms")
    for attr in ("product", "cubical", "path_complex"):
        patch(builders, attr, "builders.product_ms", builder=True)
    patch(builders, "rips_simplices", "builders.rips_ms")
    patch(builders, "vietoris_rips", "builders.rips_ms", builder=True)
    patch(builders, "from_simplicial", "builders.simplicial_ms", builder=True)
    patch(validate, "validate_nd", "validate.self_ms",
          functools.partial(_checked, dims=lambda cc: range(1, cc.dim + 1)))
    patch(validate, "validate_dim1", "validate.self_ms",
          functools.partial(_checked, dims=lambda cc: (1,)))
    patch(validate, "validate_dim2", "validate.self_ms",
          functools.partial(_checked, dims=lambda cc: (2,)))
    patch(cli, "_basic_report", "validate.self_ms")
    patch(snf, "smith_normal_form", "snf.ms", _snf)
    patch(homology, "betti_numbers", "homology.self_ms")
    patch(hodge, "dense_boundary", "hodge.assemble_ms")
    patch(hodge, "hodge_laplacian", "hodge.assemble_ms")
    patch(np.linalg, "eigh", "hodge.eigh_ms", _eigh)
    patch(np.linalg, "lstsq", "hodge.lstsq_ms")
    for attr in ("spectral_basis", "hodge_decompose", "spectral_filter"):
        patch(hodge, attr, "hodge.self_ms")
    patch(persist, "vr_filtration", "persist.filtration_ms")
    patch(persist.Filtration, "__post_init__", "persist.filtration_ms")
    patch(persist, "persistence", "persist.reduce_ms", _persistence)
