"""Command-line entry point.

One binary with subcommands, JSON/CSV output on stdout, and a stable
exit-code contract: 0 on success, 1 on validation or data errors, 2 on
usage errors.  Numeric output is printed with 12 significant digits and
is byte-identical across runs for identical inputs.  The one argparse
parser is built once, at import, and every ``main`` call parses with it.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from typing import Sequence

import numpy as np

from . import builders, homology, hodge, io, persist, validate
from .core import CellComplex, ChainVector
from .errors import CellComplexError


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _load_csv(path: str) -> np.ndarray:
    """Rows of comma-separated numbers; an empty file gives an empty array.

    numpy warns on an empty file; the caller's shape check reports it as
    the one error line instead.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, delimiter=",", ndmin=2)


def _load_points(path: str) -> builders.PointCloud:
    return builders.PointCloud(_load_csv(path))


def _load_chain(path: str) -> ChainVector:
    return io.chain_from_json(io.load_json(path))


def _load_weights(path: str | None) -> hodge.WeightSet | None:
    if path is None:
        return None
    return hodge.WeightSet(tuple(io.weights_from_json(io.load_json(path))))


def _validate_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--nd", action="store_true", help="run the per-cell n-d conditions")


def _betti_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--integer", action="store_true", help="exact integer homology")


def _decompose_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--weights")


def _spectrum_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--weights")


def _filter_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--filter", required=True, dest="descriptor",
                   metavar="DESC", help="identity | lowpass | heat:t=T | poly:c0,c1,...")
    p.add_argument("--weights")


def _build_args(p) -> None:
    build_sub = p.add_subparsers(dest="builder", required=True)
    b = build_sub.add_parser("vr", help="Vietoris-Rips complex of a point cloud")
    b.add_argument("points", help="csv file, one comma-separated point per row")
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--maxdim", type=int, required=True)
    b = build_sub.add_parser("cubical", help="cubical lattice complex")
    b.add_argument("sizes", type=int, nargs="+")


def _product_args(p) -> None:
    p.add_argument("a")
    p.add_argument("b")


def _lift_args(p) -> None:
    lift_sub = p.add_subparsers(dest="lifting", required=True)
    l = lift_sub.add_parser("window", help="inner windows of a planar embedding")
    l.add_argument("graph")
    l.add_argument("--coords", required=True,
                   help="csv of x,y rows aligned with the vertex order")
    l = lift_sub.add_parser("tree", help="fundamental cycles of a BFS spanning tree")
    l.add_argument("graph")
    l.add_argument("--root", default=None)
    l = lift_sub.add_parser("chordless", help="all chordless cycles")
    l.add_argument("graph")
    l.add_argument("--max-cells", type=int, default=builders.DEFAULT_CYCLE_CAP)


def _persist_args(p) -> None:
    p.add_argument("points")
    p.add_argument("--max-eps", type=float, required=True)
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--keep-zero-bars", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """The ``ccx`` parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="ccx", description="Cell complex toolkit: build, validate, analyse."
    )
    parser.add_argument("--output", choices=("json", "csv"), default=None,
                        help="override the command's default output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, _) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=text))
    return parser


def _emit_complex(cc) -> int:
    sys.stdout.write(io.dumps(cc))
    return 0


def _run_validate(args) -> int:
    cc = io.load_complex(args.file)
    report = validate.validate_nd(cc) if args.nd else _basic_report(cc)
    sys.stdout.write(io.dumps(report.to_json()))
    return 0 if report.valid else 1


def _basic_report(cc) -> validate.ValidationReport:
    if cc.dim == 0:
        return validate.ValidationReport(True, ())
    if cc.dim == 1:
        return validate.validate_dim1(cc)
    if cc.dim == 2:
        dim1 = validate.validate_dim1(cc)
        dim2 = validate.validate_dim2(cc)
        return validate.ValidationReport.from_failures(
            list(dim1.failures) + list(dim2.failures)
        )
    return validate.validate_nd(cc)


def _run_betti(args) -> int:
    cc = io.load_complex(args.file)
    summary = homology.betti_numbers(cc, "integer" if args.integer else "real")
    if args.output == "csv":
        sys.stdout.write(",".join(str(b) for b in summary.betti) + "\n")
    else:
        sys.stdout.write(io.dumps(summary.to_json()))
    return 0


def _run_decompose(args) -> int:
    cc = io.load_complex(args.file)
    split = hodge.hodge_decompose(
        cc, args.dim, _load_chain(args.signal), _load_weights(args.weights)
    )
    parts = ("gradient", "curl", "harmonic")
    sys.stdout.write(io.dumps({p: io.chain_to_json(getattr(split, p)) for p in parts}))
    return 0


def _run_spectrum(args) -> int:
    cc = io.load_complex(args.file)
    eigenvalues, tags = hodge.laplacian_spectrum(cc, args.dim, _load_weights(args.weights))
    if args.output == "json":
        doc = {"eigenvalues": [io.round_sig(v) for v in eigenvalues], "tags": list(tags)}
        sys.stdout.write(io.dumps(doc))
    else:
        for lam, tag in zip(eigenvalues, tags):
            sys.stdout.write(f"{_fmt(lam)},{tag}\n")
    return 0


def _run_filter(args) -> int:
    cc = io.load_complex(args.file)
    filtered = hodge.spectral_filter(
        cc, args.dim, _load_chain(args.signal), args.descriptor,
        _load_weights(args.weights),
    )
    sys.stdout.write(io.dumps(io.chain_to_json(filtered)))
    return 0


def _run_build(args) -> int:
    if args.builder == "vr":
        cloud = _load_points(args.points)
        return _emit_complex(builders.vietoris_rips(cloud, args.eps, args.maxdim))
    return _emit_complex(builders.cubical(args.sizes))


def _run_product(args) -> int:
    return _emit_complex(builders.product(io.load_complex(args.a), io.load_complex(args.b)))


def _run_lift(args) -> int:
    cc = io.load_complex(args.graph)
    if args.lifting == "window":
        coords = _load_csv(args.coords)
        pairs = builders._underlying_graph(cc)
        lifted = builders.window_lifting(builders.PlanarEmbedding(coords, pairs, cc.cells[0]))
        # Its B_1 is the input's column for column; the input's edges keep their labels.
        cells, mats = cc.cells + lifted.cells[2:], cc.boundaries + lifted.boundaries[1:]
        return _emit_complex(CellComplex(lifted.dim, cells, mats))
    if args.lifting == "tree":
        return _emit_complex(builders.spanning_tree_lifting(cc, args.root))
    return _emit_complex(builders.chordless_cycle_lifting(cc, args.max_cells))


def _run_persist(args) -> int:
    cloud = _load_points(args.points)
    filtration = persist.vr_filtration(cloud, args.max_eps, args.max_dim)
    diagram = persist.persistence(filtration, keep_zero_bars=args.keep_zero_bars)
    if args.output == "json":
        bars = zip(diagram.dims.tolist(), diagram.births.tolist(), diagram.deaths.tolist())
        doc = {
            "bars": [
                {
                    "dim": dim,
                    "birth": io.round_sig(birth),
                    "death": "inf" if death == math.inf else io.round_sig(death),
                }
                for dim, birth, death in bars
            ]
        }
        sys.stdout.write(io.dumps(doc))
    else:
        sys.stdout.write(_bar_lines(diagram))
    return 0


def _bar_lines(diagram: persist.PersistenceDiagram) -> str:
    """One ``dim,birth,death`` line per bar, the values in _fmt's format (inf prints
    "inf").  Each distinct value, told apart by its float64 bits so that 0.0 and -0.0
    stay apart, is formatted once; the lines are one join of a table of those texts."""
    n = len(diagram.dims)
    values = np.concatenate([diagram.births, diagram.deaths])
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([_fmt(v) for v in distinct.view(float).tolist()], dtype=object)
    lead = np.array([f"{k}," for k in range(diagram.dims.max(initial=0) + 1)], dtype=object)
    table = np.empty((n, 5), dtype=object)
    table[:, 0] = lead[diagram.dims]
    table[:, 1] = text[inverse[:n]]
    table[:, 2] = ","
    table[:, 3] = text[inverse[n:]]
    table[:, 4] = "\n"
    return "".join(table.ravel().tolist())


# Subcommand -> (help, function that adds its arguments, function that runs
# it on the parsed arguments), in help order.
_SUBCOMMANDS = {
    "validate": ("check regularity conditions", _validate_args, _run_validate),
    "betti": ("Betti numbers", _betti_args, _run_betti),
    "decompose": ("gradient/curl/harmonic split of a chain", _decompose_args, _run_decompose),
    "spectrum": ("Hodge Laplacian eigenvalues with tags", _spectrum_args, _run_spectrum),
    "filter": ("apply a spectral filter to a chain", _filter_args, _run_filter),
    "build": ("build a complex", _build_args, _run_build),
    "product": ("product of two complexes", _product_args, _run_product),
    "lift": ("attach 2-cells to a graph", _lift_args, _run_lift),
    "persist": ("persistence diagram of a Rips filtration", _persist_args, _run_persist),
}


# Building the parser costs about forty times a parse, so it is built once.
PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # Overflow reaches stderr only as the error line of NonFiniteResult.
        with np.errstate(all="ignore"):
            return _SUBCOMMANDS[args.command][2](args)
    except (CellComplexError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
