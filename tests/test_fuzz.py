"""Property-based fuzzing of the input boundary.

Whatever bytes, JSON value or text arrives, the model loader returns a
``Model`` or raises a ``QlpropError``, and each parser returns an AST or
raises a ``ParseError``.  Anything else (a ``TypeError``, a
``RecursionError``, a numpy warning turned error) fails the test.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from qlprop.errors import ParseError, QlpropError
from qlprop.model import Model, dump_model, load_model, m_cm, m_qbit, m_sr
from qlprop.syntax import parse_lx, parse_prag, parse_tq

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


# ---------------------------------------------------------------------------
# generated command lines through cli.main: exit 0 or 1, or a SystemExit
# with 0 (help) or 2 (usage), and never a traceback on stderr

_SUBCOMMANDS = ["parse", "eval", "props", "check", "lattice", "fixtures"]
# the classical fixtures only: a Hilbert model makes cm close a quotient
# of hundreds of classes, seconds per example
_PATHS = ["m_sr.json", "m_cm.json", ".", "missing.json"]
# free text stays inside the working directory ("/" is excluded) and
# does not start an option, so it cannot spell an abbreviated --depth
_TEXT = st.text(st.characters(blacklist_characters="/\\",
                              blacklist_categories=("Cs",)),
                max_size=8).filter(lambda t: not t.startswith("-"))
_FORMULAS = ["E(x)", "!E(x) | F(x)", "E(x) &", "~q E(x)", "E(x) |q F(x)",
             "K(|- E(x), |- F(x))", "Z(x)"]
_INTERPS = ["S1=u1", "S1=zz,S2=v1", "S9=u1", "S1", "x=", ""]


def _value(choices):
    """One of ``choices``, or (as often as any one of them) free text."""
    return st.sampled_from([*choices, None]).flatmap(
        lambda c: _TEXT if c is None else st.just(c))


# --depth only comes with a bounded value: deeper checks and closures
# take minutes
_VALUES = {
    "--model": _value(_PATHS),
    "--lang": _value(["lx", "ltq", "prag"]),
    "--state": _value(["S1", "S2", "S3", "S9"]),
    "--object": _value(["u1", "v1", "a1", "zz"]),
    "--interp": _value(_INTERPS),
    "--individual": _value(_INTERPS),
    "--suite": _value(["sec3", "cm", "qm", "prag"]),
    "--which": _value(["testable", "lindenbaum", "LS"]),
    "--depth": st.sampled_from(["-1", "0", "1", "2", "5"]),
    "--dot": _value(["out.dot", ".", "m_sr.json"]),
    "--out": _value(["fx", ".", "..", "m_sr.json"]),
    "--tol": _value(["1e-9", "0.5", "nan", "-1", "1e-300"]),
    "--enum-cap": _value(["-1", "0", "1", "100"]),
}
_COMMON = ["--tol", "--json"]
_FLAGS_OF = {
    "parse": ["--lang"],
    "eval": ["--model", "--lang", "--state", "--object", "--interp",
             "--qtruth"],
    "props": ["--model", "--lang", "--physical", "--individual", "--forall",
              "--enum-cap"],
    "check": ["--model", "--suite", "--depth", "--assume-cmt"],
    "lattice": ["--model", "--which", "--depth", "--closed", "--dot"],
    "fixtures": ["--out"],
}
_REQUIRED = {"parse": [], "eval": ["--model", "--state"], "props": ["--model"],
             "check": ["--model", "--suite"], "lattice": ["--model", "--which"],
             "fixtures": ["--out"]}
_LOOSE = st.one_of(st.sampled_from(_SUBCOMMANDS + _PATHS + ["-h", "--bogus"]),
                   _TEXT)


@st.composite
def _argv(draw):
    """A subcommand, its required options, up to three more of its
    options or loose words, and a formula where one is expected.  Each
    value is valid or free text."""
    cmd = draw(st.sampled_from(_SUBCOMMANDS))
    words = [cmd]
    extra = st.sampled_from(_FLAGS_OF[cmd] + _COMMON + [None])
    for flag in _REQUIRED[cmd] + draw(st.lists(extra, max_size=3)):
        if flag is None:
            words.append(draw(_LOOSE))
        elif flag in _VALUES:
            words += [flag, draw(_VALUES[flag])]
        else:
            words.append(flag)
    if cmd in ("parse", "eval", "props"):
        words.append(draw(_value(_FORMULAS)))
    return words


@pytest.fixture(scope="module")
def argv_workdir(tmp_path_factory):
    # one level below a private directory, so "--out .." stays inside it
    work = tmp_path_factory.mktemp("argv") / "work"
    work.mkdir()
    return work


@given(words=_argv())
@settings(max_examples=200, deadline=None)
def test_generated_argv_exits_cleanly(argv_workdir, words):
    from qlprop.cli import main

    # rewritten per example: --dot or --out may have overwritten them
    for name, make in (("m_sr.json", m_sr), ("m_cm.json", m_cm)):
        (argv_workdir / name).write_text(dump_model(make()), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(argv_workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(words)
            except SystemExit as exc:
                assert exc.code in (0, 2), (words, exc.code)
            else:
                assert code in (0, 1), (words, code)
    finally:
        os.chdir(cwd)
    assert "Traceback" not in err.getvalue(), (words, err.getvalue())
