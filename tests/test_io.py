"""The JSON writer against its contract, the standard library's indented dump."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcomplex as cx
from cellcomplex import io

import helpers

# Quotes, backslashes, control and non-ASCII characters (one outside the BMP).
_special = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "😀"])
_text = st.text(st.one_of(st.characters(), _special), max_size=6)
_floats = st.one_of(st.floats(), st.sampled_from([-0.0, 1e-300, 1e300, -1e300]))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**20), 10**20), _floats, _text,
)
# Homogeneous lists take the writer's one-join paths.
_scalar_lists = st.one_of(
    st.lists(st.integers(-5, 5)), st.lists(_floats), st.lists(_text),
    st.lists(st.booleans()), st.lists(st.none()),
)
# Equal-length rows take the one-template path; a bool, a float or a
# short row among them must not.
_row_items = st.one_of(st.integers(-(10**12), 10**12), st.booleans(), st.just(1.0))


@st.composite
def _rows(draw):
    width = draw(st.integers(0, 4))
    item = draw(st.sampled_from([st.integers(-3, 3), _row_items]))
    row = st.lists(item, min_size=width, max_size=draw(st.sampled_from([width, width + 1])))
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), max_size=5))
    return rows if draw(st.booleans()) else tuple(rows)


_documents = st.recursive(
    st.one_of(_scalars, _scalar_lists, _rows()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=200)
@given(doc=_documents)
def test_dumps_matches_the_standard_library(doc):
    assert io.dumps(doc) == helpers.dumps_oracle(doc)


@pytest.mark.parametrize("doc", [
    {"a": object()}, [np.int64(1)], [[1, 2], [3, np.int64(4)]],
], ids=["object", "numpy-int", "numpy-int-row"])
def test_unencodable_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        io.dumps(doc)


def _product_label_cases() -> list[cx.CellComplex]:
    commas = cx.product(
        cx.from_tuples(["1,2", "1"], [("1,2", "1")]),
        cx.from_tuples(["3", "2,3"], [("3", "2,3")]),
    )
    edge = cx.from_tuples(["v", "w"], [("v", "w")])
    edge = cx.from_boundary_matrices([edge.cells[0], ["v"]], [edge.boundary(1)])
    quoted = cx.from_tuples(['"a\\', "é😀"], [('"a\\', "é😀")])
    return [commas, cx.product(edge, edge), cx.product(quoted, quoted)]


def test_complex_documents_match_the_standard_library():
    rng = random.Random(7)
    complexes = [helpers.random_builder_complex(rng) for _ in range(60)]
    for cc in complexes + _product_label_cases():
        doc = io.complex_to_json(cc)
        assert io.dumps(doc) == helpers.dumps_oracle(doc)
        assert io.complex_from_json(json.loads(io.dumps(doc))).cells == cc.cells


def _dumps_complex_matches_its_document(cc: cx.CellComplex) -> None:
    assert io.dumps(cc) == helpers.dumps_oracle(io.complex_to_json(cc))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), two=st.booleans())
def test_complexes_are_written_as_their_documents(seed, two):
    rng = random.Random(seed)
    _dumps_complex_matches_its_document(
        helpers.random_two_complex(rng) if two else helpers.random_builder_complex(rng)
    )


@pytest.mark.parametrize("cc", [
    *_product_label_cases(),
    cx.cubical([3, 3, 3]),
    cx.from_boundary_matrices([["a", "b"]], []),
    cx.from_boundary_matrices([["a", "b"], ["e"]], [cx.BoundaryMatrix(2, 1, ())]),
], ids=["commas", "edge-product", "quoted", "cube-3x3x3", "dim-0", "no-entries"])
def test_complex_writer_cases(cc):
    _dumps_complex_matches_its_document(cc)


@pytest.mark.parametrize("doc", [
    [-math.inf], [1.0, -math.inf, math.inf, math.nan], {"a": -math.inf},
])
def test_infinities_and_nan_match_the_standard_library(doc):
    assert io.dumps(doc) == helpers.dumps_oracle(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, [{"a": 1, 2.0: "b"}]])
def test_non_string_keys_raise_type_error(doc):
    # The standard library would coerce these keys to strings; dumps refuses them.
    with pytest.raises(TypeError, match="keys must be str"):
        io.dumps(doc)
