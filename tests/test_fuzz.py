"""Property-based fuzzing of the input boundary.

Whatever bytes, JSON value or text arrives, the model loader returns a
``Model`` or raises a ``QlpropError``, and each parser returns an AST or
raises a ``ParseError``.  Anything else (a ``TypeError``, a
``RecursionError``, a numpy warning turned error) fails the test.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from qlprop.errors import ParseError, QlpropError
from qlprop.model import Model, dump_model, load_model, m_qbit, m_sr
from qlprop.syntax import parse_lx, parse_prag, parse_tq

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16)

_FIXTURE_DOCS = [json.loads(dump_model(m())) for m in (m_sr, m_qbit)]


def _paths(node, prefix=()):
    """Every path from the root of a JSON document to a value in it."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _load_or_reject(data):
    try:
        model = load_model(data)
    except QlpropError:
        return
    assert isinstance(model, Model)


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_load_or_raise_a_library_error(data):
    _load_or_reject(data)


@given(_JSON)
@settings(max_examples=150, deadline=None)
def test_arbitrary_json_loads_or_raises_a_library_error(value):
    _load_or_reject(json.dumps(value))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fixture_with_one_value_replaced_loads_or_raises(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_FIXTURE_DOCS)))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(_JSON)
    if path:
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
    else:
        doc = value
    _load_or_reject(json.dumps(doc))


# formula text: arbitrary characters, and strings built from the three
# languages' own tokens so that parsing gets past the first character
_TOKENS = ["E(x)", "F(x)", "Ez+(x)", "(", ")", "!", "~", "~q", "&", "|",
           "|q", "->q", "|-", "N", "K", "A", " ", "x", "E", "-", "q"]
_FORMULA_TEXT = st.text(max_size=40) | st.lists(
    st.sampled_from(_TOKENS), max_size=30).map("".join)


@pytest.mark.parametrize("parse", [parse_lx, parse_tq, parse_prag],
                         ids=["lx", "ltq", "prag"])
@given(text=_FORMULA_TEXT)
@settings(max_examples=200, deadline=None)
def test_arbitrary_text_parses_or_raises_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass
