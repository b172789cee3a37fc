"""JSON formats for complexes, chains, and weight sets.

Complex documents look like::

    {"dim": n,
     "cells": [["v0", ...], ["e0", ...], ...],
     "boundaries": [{"k": 1, "rows": r, "cols": c,
                     "entries": [[i, j, s], ...]}, ...]}

with signs s in {-1, 1} and entries sorted by (j, i).  Chains are
``{"dim": k, "values": [...]}`` and weight sets
``{"weights": [[...], ...]}`` with one positive vector per dimension.
Documents are schema-checked before any computation touches them:
integers and numbers exclude JSON true/false, and chain and weight
values must be finite.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import BoundaryMatrix, CellComplex, ChainVector, from_boundary_matrices
from .errors import SchemaError


def round_sig(x: float, digits: int = 12) -> float:
    """Round to the given number of significant digits."""
    return float(f"{float(x):.{digits}g}")


def complex_to_json(cc: CellComplex) -> dict[str, Any]:
    return {
        "dim": cc.dim,
        "cells": [list(layer) for layer in cc.cells],
        "boundaries": [
            {
                "k": k,
                "rows": b.rows,
                "cols": b.cols,
                "entries": [[i, j, s] for i, j, s in b.entries],
            }
            for k, b in enumerate(cc.boundaries, start=1)
        ],
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


# JSON true/false load as bool, a subclass of int; exact type tests keep
# them out of every integer and number field.
def _is_int(value: Any) -> bool:
    return type(value) is int


def _is_number(value: Any) -> bool:
    return type(value) is int or type(value) is float


def _finite_vector(values: Any, message: str) -> np.ndarray:
    """A JSON list of finite numbers as a float array."""
    _require(isinstance(values, list) and all(map(_is_number, values)), message)
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(message) from None
    _require(bool(np.isfinite(array).all()), message)
    return array


def complex_from_json(doc: Any) -> CellComplex:
    _require(isinstance(doc, dict), "complex document must be an object")
    _require(
        set(doc) == {"dim", "cells", "boundaries"},
        "complex document needs exactly the keys dim, cells, boundaries",
    )
    dim, cells, boundaries = doc["dim"], doc["cells"], doc["boundaries"]
    _require(_is_int(dim) and dim >= 0, "dim must be a non-negative integer")
    _require(
        isinstance(cells, list) and len(cells) == dim + 1,
        "cells must list one label array per dimension 0..dim",
    )
    for layer in cells:
        _require(
            isinstance(layer, list) and all(isinstance(l, str) for l in layer),
            "cell labels must be strings",
        )
    _require(
        isinstance(boundaries, list) and len(boundaries) == dim,
        "boundaries must list one matrix per dimension 1..dim",
    )
    mats = []
    for k, spec in enumerate(boundaries, start=1):
        _require(isinstance(spec, dict), f"boundary {k} must be an object")
        _require(
            set(spec) == {"k", "rows", "cols", "entries"},
            f"boundary {k} needs exactly the keys k, rows, cols, entries",
        )
        _require(
            _is_int(spec["k"]) and spec["k"] == k,
            f"boundary {k} has mismatched k={spec['k']}",
        )
        entries = spec["entries"]
        _require(isinstance(entries, list), f"boundary {k} entries must be a list")
        triplets = []
        for entry in entries:
            _require(
                isinstance(entry, list)
                and len(entry) == 3
                and all(map(_is_int, entry)),
                f"boundary {k} entries must be [row, col, sign] integer triplets",
            )
            _require(entry[2] in (-1, 1), f"boundary {k} signs must be -1 or 1")
            triplets.append(tuple(entry))
        _require(
            _is_int(spec["rows"]) and _is_int(spec["cols"]),
            f"boundary {k} rows/cols must be integers",
        )
        mats.append(BoundaryMatrix(spec["rows"], spec["cols"], tuple(triplets)))
    return from_boundary_matrices(cells, mats)


def chain_to_json(chain: ChainVector) -> dict[str, Any]:
    return {"dim": chain.dim, "values": [round_sig(v) for v in chain.values]}


def chain_from_json(doc: Any) -> ChainVector:
    _require(isinstance(doc, dict), "chain document must be an object")
    _require(set(doc) == {"dim", "values"}, "chain document needs keys dim, values")
    _require(_is_int(doc["dim"]) and doc["dim"] >= 0, "chain dim must be >= 0")
    values = _finite_vector(doc["values"], "chain values must be finite numbers")
    return ChainVector(doc["dim"], values)


def weights_from_json(doc: Any) -> list[np.ndarray]:
    _require(isinstance(doc, dict), "weights document must be an object")
    _require(set(doc) == {"weights"}, "weights document needs the single key weights")
    vectors = doc["weights"]
    _require(isinstance(vectors, list), "weights must be a list of vectors")
    return [
        _finite_vector(w, "each weight vector must be a list of finite numbers")
        for w in vectors
    ]


def load_complex(path: str) -> CellComplex:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    return complex_from_json(doc)


def dumps(doc: Any) -> str:
    """Deterministic, human-readable JSON serialisation."""
    return json.dumps(doc, indent=2) + "\n"
