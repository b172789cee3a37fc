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

Output is written by ``dumps``, whose contract is the bytes of
``json.dumps(doc, indent=2)`` plus a newline.  The standard library
runs an indented dump through its pure-Python encoder, one generator
step per token; ``dumps`` instead joins each list of scalars in one
call and formats each list of equal-length integer rows through one
``%d`` template.  Given a ``CellComplex``, ``dumps`` writes the bytes of
its document ``complex_to_json(cc)`` straight from the CSC arrays: each
boundary's entries are one flat ``tolist()`` of its rows, columns and
signs fed to that template, with no per-entry tuple and no type scan.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any

import numpy as np

from .core import (
    BoundaryMatrix,
    CellComplex,
    ChainVector,
    _cell_layers,
    _entry_arrays,
    from_boundary_matrices,
)
from .errors import SchemaError, ShapeMismatch


def round_sig(x: float) -> float:
    """Round to 12 significant digits."""
    return float(f"{float(x):.12g}")


def complex_to_json(cc: CellComplex) -> dict[str, Any]:
    return _document(cc, lambda b: b.entries)


def _document(cc: CellComplex, entries) -> dict[str, Any]:
    """The complex document of cc, with entries(b) as each boundary's entries."""
    return {
        "dim": cc.dim,
        "cells": [list(layer) for layer in cc.cells],
        "boundaries": [
            {"k": k, "rows": b.rows, "cols": b.cols, "entries": entries(b)}
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


def _check_entries(entries: list, k: int) -> None:
    """Every entry an integer triplet [row, col, sign] with sign -1 or 1.

    Checked over the sets of row types, row lengths, element types and
    signs; with faults of both kinds, the first faulty entry names the
    error.
    """
    well_formed = (
        set(map(type, entries)) <= {list}
        and set(map(len, entries)) <= {3}
        and set(map(type, chain.from_iterable(entries))) <= {int}
    )
    if not well_formed:
        first = next(
            i for i, e in enumerate(entries)
            if type(e) is not list or len(e) != 3 or set(map(type, e)) != {int}
        )
        entries = entries[:first]
    _require(
        set(map(itemgetter(2), entries)) <= {-1, 1}, f"boundary {k} signs must be -1 or 1"
    )
    _require(well_formed, f"boundary {k} entries must be [row, col, sign] integer triplets")


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
        _check_entries(entries, k)
        _require(
            _is_int(spec["rows"]) and _is_int(spec["cols"]),
            f"boundary {k} rows/cols must be integers",
        )
        shape, want = (spec["rows"], spec["cols"]), (len(cells[k - 1]), len(cells[k]))
        if shape != want:  # before the shape sizes any array, after the cell layers
            _cell_layers(cells)
            raise ShapeMismatch(f"B_{k} has shape {shape}, expected {want}")
        try:  # flat, as numpy reads nested lists slowly
            entries = np.fromiter(chain.from_iterable(entries), np.int64).reshape(-1, 3)
        except OverflowError:  # an index beyond int64, which the constructor names
            pass
        mats.append(BoundaryMatrix(*shape, entries))
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


def load_json(path: str) -> Any:
    """The document in a JSON file.  Malformed JSON, and JSON nested too
    deeply for the decoder's recursion, is a SchemaError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def load_complex(path: str) -> CellComplex:
    return complex_from_json(load_json(path))


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2)`` plus a newline, byte for byte.

    A CellComplex is written as its document ``complex_to_json(doc)``.
    Dict keys must be strings; a value of any type json cannot encode
    raises TypeError.
    """
    if isinstance(doc, CellComplex):
        doc = _document(doc, _Triplets)
    return _encode(doc, "\n") + "\n"


class _Triplets:
    """A boundary's (row, col, sign) entries in (col, row) order, held as one
    flat list of ints read from its CSC arrays; _encode writes it as the list
    of triplets."""

    __slots__ = ("flat",)

    def __init__(self, b: BoundaryMatrix):
        self.flat = np.column_stack(_entry_arrays(b)[:3]).ravel().tolist()


_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# Encoders of a list whose items all have one of these exact types; a
# bool, though an int, is not one of them.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float}


def _encode(o: Any, indent: str) -> str:
    """o at the nesting level whose line break and indent is ``indent``."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        return "[" + inner + _items(o, inner) + indent + "]" if o else "[]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in o.items()]
        ) + indent + "}"
    if isinstance(o, _Triplets):
        return "[" + inner + _int_rows(o.flat, 3, inner) + indent + "]" if o.flat else "[]"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _items(seq: list | tuple, inner: str) -> str:
    """The items of a nonempty list, one per line at indent ``inner``."""
    sep = "," + inner
    types = set(map(type, seq))
    if len(types) == 1:
        kind = types.pop()
        if kind in _SCALARS:
            return sep.join(map(_SCALARS[kind], seq))
        if kind in (list, tuple):
            lengths = set(map(len, seq))
            width = lengths.pop()
            if not lengths and width and set(map(type, chain.from_iterable(seq))) == {int}:
                return _int_rows(tuple(chain.from_iterable(seq)), width, inner)
    return sep.join([_encode(v, inner) for v in seq])


def _int_rows(flat: list | tuple, width: int, inner: str) -> str:
    """The rows of ``width`` ints that the flat list holds, one row per line at
    indent ``inner``, through one template; %d spells an int as int.__repr__."""
    cell = "," + inner + "  "
    row = "[" + inner + "  " + cell.join(["%d"] * width) + inner + "]"
    return ("," + inner).join([row] * (len(flat) // width)) % tuple(flat)
