"""Input checks that end in a typed error: the class and the message.

Each case is one malformed input to one public function.  A model file
is also given to ``qlprop check --model``, which must exit 1 and print
``ERROR <Class>: <message>`` and nothing else.
"""

import copy
import json

import numpy as np
import pytest

from qlprop.cli import main
from qlprop.errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    HilbertDimensionMismatch,
    InvalidTolerance,
    MeetJoinMissing,
    NonOrthonormalBasis,
    NotAPartialOrder,
    QlpropError,
    RankError,
    SchemaError,
)
from qlprop.hilbert import HilbertAnnotation, Subspace, closure_generate
from qlprop.lattice import OrthoLattice, build_poset
from qlprop.model import build_qm_model, load_model, m_qbit, m_sr, make_model
from qlprop.quantum import q_truth, q_truth_classical, tq_is_true
from qlprop.semantics import individual_proposition, is_true
from qlprop.syntax import parse_lx, parse_tq

# two states on the coordinate rays of C^2 and one property, the first ray
_DOC = {
    "states": ["S", "T"],
    "universes": {"S": ["a"], "T": ["a"]},
    "properties": ["E"],
    "extensions": {"S": {"E": ["a"]}, "T": {"E": []}},
    "hilbert": {
        "dim": 2,
        "state_rays": {"S": [[1, 0], [0, 0]], "T": [[0, 0], [1, 0]]},
        "property_subspaces": {"E": [[[1, 0], [0, 0]]]},
    },
}


_DROP = object()


def _set(path, value):
    """The model document with the entry at ``path`` replaced, or removed
    when ``value`` is ``_DROP``."""
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        if value is _DROP:
            del doc[last]
        else:
            doc[last] = value
    return edit


FILES = [
    ("universe for an unknown state", _set(["universes", "U"], ["b"]),
     SchemaError, "universe for unknown state 'U'"),
    ("no extension for a (state, property) pair",
     _set(["properties"], ["E", "F"]),
     SchemaError, "no extension for ('S', 'F')"),
    ("extensions for an unknown state", _set(["extensions", "U"], {"E": []}),
     SchemaError, "extensions for unknown state 'U'"),
    ("subspaces miss a property",
     _set(["hilbert", "property_subspaces", "E"], _DROP),
     SchemaError, "property_subspaces must cover exactly the properties"),
    ("two states on one ray",
     _set(["hilbert", "state_rays", "T"], [[2, 0], [0, 0]]),
     SchemaError, "states 'S' and 'T' map to the same ray"),
    ("empty ray array", _set(["hilbert", "state_rays", "S"], []),
     SchemaError,
     "state_rays['S'] must be a nonempty array of [re, im] pairs"),
    ("hilbert not an object", _set(["hilbert"], []),
     SchemaError, "'hilbert' must be an object"),
    ("unknown hilbert key", _set(["hilbert", "basis"], 1),
     SchemaError, "unknown hilbert keys: ['basis']"),
    ("missing hilbert key", _set(["hilbert", "dim"], _DROP),
     SchemaError, "missing hilbert key 'dim'"),
    ("ray of the wrong length",
     _set(["hilbert", "state_rays", "S"], [[1, 0], [0, 0], [0, 0]]),
     HilbertDimensionMismatch, "ray of 'S' has length 3, expected 2"),
    ("basis vector of the wrong length",
     _set(["hilbert", "property_subspaces", "E"], [[[1, 0], [0, 0], [0, 0]]]),
     HilbertDimensionMismatch,
     "basis vector of 'E' has length 3, expected 2"),
    ("zero ray", _set(["hilbert", "state_rays", "S"], [[0, 0], [0, 0]]),
     RankError, "ray of 'S' is the zero vector"),
]


def _document(edit) -> str:
    doc = copy.deepcopy(_DOC)
    edit(doc)
    return json.dumps(doc)


def test_the_base_document_loads():
    m = load_model(json.dumps(_DOC))
    assert m.hilbert.table.certain("E") == frozenset({"S"})


def _assert_refused(text, cls, message, tmp_path, capsys):
    with pytest.raises(cls) as exc:
        load_model(text)
    assert type(exc.value) is cls and str(exc.value) == message
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", "--model", str(path), "--suite", "sec3"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"ERROR {cls.__name__}: {message}\n")


@pytest.mark.parametrize("name, edit, cls, message", FILES,
                         ids=[c[0] for c in FILES])
def test_model_file_is_refused(name, edit, cls, message, tmp_path, capsys):
    _assert_refused(_document(edit), cls, message, tmp_path, capsys)


def _repeated(path) -> str:
    """The base document's text with the entry at ``path`` written twice
    in its object."""
    obj = _DOC
    for key in path[:-1]:
        obj = obj[key]
    entry = f"{json.dumps(path[-1])}: {json.dumps(obj[path[-1]])}"
    text = json.dumps(_DOC)
    assert text.count(entry) == 1
    return text.replace(entry, f"{entry}, {entry}")


# json.loads alone would keep the last of a repeated key without a word
REPEATED = [
    ("top level", ["states"]),
    ("universes", ["universes", "S"]),
    ("extensions row", ["extensions", "S"]),
    ("state_rays", ["hilbert", "state_rays", "S"]),
    ("property_subspaces", ["hilbert", "property_subspaces", "E"]),
]


@pytest.mark.parametrize("name, path", REPEATED, ids=[c[0] for c in REPEATED])
def test_model_file_with_a_repeated_key_is_refused(name, path, tmp_path,
                                                   capsys):
    _assert_refused(_repeated(path), SchemaError,
                    f"key {path[-1]!r} repeated in one JSON object",
                    tmp_path, capsys)


def _qubit_annotation(**change) -> HilbertAnnotation:
    rays = {"S": Subspace.ray([1, 0]), "T": Subspace.ray([0, 1])}
    subs = {"E": Subspace.ray([1, 0])}
    for name, sub in change.items():
        (rays if name in rays else subs)[name] = sub
    return HilbertAnnotation(2, rays, subs)


def _hand_built(ann: HilbertAnnotation):
    return make_model(["S", "T"], {"S": ["a"], "T": ["a"]}, ["E"],
                      {"S": {"E": ["a"]}, "T": {"E": []}}, hilbert=ann)


CALLS = [
    ("ray of the wrong dimension",
     lambda: _hand_built(_qubit_annotation(S=Subspace.ray([1, 0, 0]))),
     HilbertDimensionMismatch, "ray of 'S' has dimension 3, expected 2"),
    ("ray of rank 2",
     lambda: _hand_built(_qubit_annotation(S=Subspace.full(2))),
     RankError, "state 'S' must map to a rank-1 subspace"),
    ("subspace of the wrong dimension",
     lambda: _hand_built(_qubit_annotation(E=Subspace.full(3))),
     HilbertDimensionMismatch,
     "subspace of 'E' has dimension 3, expected 2"),
    ("rays and subspaces at two tolerances",
     lambda: _hand_built(_qubit_annotation(E=Subspace.ray([1, 0], tol=1e-6))),
     SchemaError,
     "rays and subspaces must share one tolerance, got 1e-09 and 1e-06"),
    ("unknown extension policy",
     lambda: build_qm_model(2, {"S": [1, 0]}, {"E": [[1, 0]]},
                            policy="uniform"),
     SchemaError, "unknown extension policy 'uniform'"),
    ("q_truth at an unknown state",
     lambda: q_truth(m_qbit(), "Sy+", parse_tq("Ez+(x)")),
     SchemaError, "unknown state 'Sy+'"),
    ("q_truth_classical at an unknown state",
     lambda: q_truth_classical(m_qbit(), "Sy+", parse_lx("Ez+(x)")),
     SchemaError, "unknown state 'Sy+'"),
    ("truth at an unknown state",
     lambda: is_true(m_sr(), {"S1": "u1", "S2": "v1"}, "S9", parse_lx("E(x)")),
     SchemaError, "unknown state 'S9'"),
    ("truth at a state the interpretation omits",
     lambda: is_true(m_sr(), {"S1": "u1"}, "S2", parse_lx("E(x)")),
     SchemaError, "interpretation omits state 'S2'"),
    ("individual proposition of a partial interpretation",
     lambda: individual_proposition(m_sr(), {"S1": "u1"}, parse_lx("E(x)")),
     SchemaError, "interpretation omits state 'S2'"),
    ("quantum truth at an unknown state",
     lambda: tq_is_true(m_qbit(), {}, "Nope", parse_tq("Ez+(x)")),
     SchemaError, "unknown state 'Nope'"),
    ("subspace of dimension 0", lambda: Subspace(0),
     DimensionMismatch, "dimension must be positive, got 0"),
    ("basis of the wrong width", lambda: Subspace(2, [[1, 0, 0]]),
     DimensionMismatch, "basis shape (1, 3) does not fit dimension 2"),
    ("spanned vector of the wrong length",
     lambda: Subspace.span([[1, 0, 0]], 2),
     DimensionMismatch, "vector of length 3 in dimension 2"),
    # the Gram test fails on a NaN or infinite entry, and no warning is
    # issued on the way
    ("basis with a NaN entry", lambda: Subspace(2, [[np.nan, 0]]),
     NonOrthonormalBasis, "basis rows are not orthonormal within 1e-12"),
    ("basis with an infinite entry", lambda: Subspace(2, [[np.inf, 0]]),
     NonOrthonormalBasis, "basis rows are not orthonormal within 1e-12"),
    ("basis with a NaN imaginary part", lambda: Subspace(2, [[1, 1j * np.nan]]),
     NonOrthonormalBasis, "basis rows are not orthonormal within 1e-12"),
    ("spanned vector with a NaN entry",
     lambda: Subspace.span([[1, 0], [np.nan, 0]], 2),
     SchemaError, "vector 1 has a NaN or infinite entry"),
    ("spanned vector with an infinite entry",
     lambda: Subspace.span([[0, -np.inf]], 2),
     SchemaError, "vector 0 has a NaN or infinite entry"),
    ("spanned vector with a huge entry and a NaN",
     lambda: Subspace.span([[1e308, 1j * np.nan]], 2),
     SchemaError, "vector 0 has a NaN or infinite entry"),
    ("ray with an infinite entry", lambda: Subspace.ray([np.inf, 0]),
     SchemaError, "vector 0 has a NaN or infinite entry"),
    # the NaN vector was dropped: E became the zero subspace
    ("property subspace with a NaN entry",
     lambda: build_qm_model(2, {"a": [1, 0], "b": [0, 1]},
                            {"E": [[np.nan, 0]], "I": [[1, 0], [0, 1]]}),
     SchemaError, "vector 0 has a NaN or infinite entry"),
    ("subspace at a NaN tolerance", lambda: Subspace(2, tol=np.nan),
     InvalidTolerance, "tolerance nan is outside [1e-12, 0.001]"),
    ("zero subspace at tolerance 1", lambda: Subspace.zero(2, tol=1.0),
     InvalidTolerance, "tolerance 1.0 is outside [1e-12, 0.001]"),
    ("whole space at an infinite tolerance",
     lambda: Subspace.full(2, tol=np.inf),
     InvalidTolerance, "tolerance inf is outside [1e-12, 0.001]"),
    ("ray at a negative tolerance", lambda: Subspace.ray([1, 0], tol=-1),
     InvalidTolerance, "tolerance -1 is outside [1e-12, 0.001]"),
    ("span at a tolerance that is not a number",
     lambda: Subspace.span([[1, 0]], 2, tol="x"),
     InvalidTolerance, "tolerance 'x' is not a number"),
    # a str is a sequence of one-character ids; it is refused instead
    ("states given as a string",
     lambda: make_model("S1", {"S": ["a"], "1": ["b"]}, ["E"],
                        {"S": {"E": []}, "1": {"E": []}}),
     SchemaError, "states must be a sequence of ids, got the string 'S1'"),
    ("properties given as a string",
     lambda: make_model(["S"], {"S": ["a"]}, "EF",
                        {"S": {"E": [], "F": []}}),
     SchemaError,
     "properties must be a sequence of ids, got the string 'EF'"),
    ("universe given as a string",
     lambda: make_model(["S"], {"S": "ab"}, ["E"], {"S": {"E": []}}),
     SchemaError,
     "universe of 'S' must be a sequence of ids, got the string 'ab'"),
    ("extension given as a string",
     lambda: make_model(["S"], {"S": ["a", "b"]}, ["E"], {"S": {"E": "ab"}}),
     SchemaError, "extension of ('S', 'E') must be a sequence of ids, "
     "got the string 'ab'"),
    ("projected vector of the wrong length",
     lambda: Subspace.full(2).project([1, 0, 0]),
     DimensionMismatch, "vector of length 3 in dimension 2"),
    ("closure cap below the generators",
     lambda: closure_generate(
         2, [Subspace.ray([1, 0]), Subspace.ray([0, 1])], 1),
     ClosureCapExceeded, "cap 1 is smaller than the 2 generators"),
    ("generator of another dimension",
     lambda: closure_generate(2, [Subspace.full(3)], 4),
     DimensionMismatch, "generator of dimension 3 in closure of dimension 2"),
    ("closure generators at two tolerances",
     lambda: closure_generate(
         2, [Subspace.ray([1, 0]), Subspace.ray([0, 1], tol=1e-6)], 4),
     InvalidTolerance,
     "generators must share one tolerance, got 1e-09 and 1e-06"),
    ("order matrix of the wrong shape",
     lambda: build_poset([0, 1], np.eye(3, dtype=bool)),
     NotAPartialOrder, "matrix shape (3, 3) for 2 elements"),
    ("too few labels",
     lambda: build_poset([0, 1], np.eye(2, dtype=bool), ["a"]),
     NotAPartialOrder, "1 labels for 2 elements"),
    # a finite poset with every meet and join is bounded unless empty
    ("unbounded ortholattice",
     lambda: OrthoLattice(build_poset([], np.zeros((0, 0), dtype=bool)), []),
     MeetJoinMissing, "ortholattice must be bounded"),
    ("ortho table not a permutation",
     lambda: OrthoLattice(
         build_poset([0, 1], np.array([[True, True], [False, True]])),
         np.array([0, 0])),
     QlpropError, "ortho table is not a permutation"),
]


@pytest.mark.parametrize("name, call, cls, message", CALLS,
                         ids=[c[0] for c in CALLS])
def test_call_is_refused(name, call, cls, message):
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls and str(exc.value) == message


def test_bad_interpretation_entry_is_refused(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_DOC), encoding="utf-8")
    assert main(["eval", "--model", str(path), "--state", "S",
                 "--interp", "S=a, T", "E(x)"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", "ERROR QlpropError: bad interpretation entry 'T'; "
        "use state=object\n")
