"""The quantum and assertive checkers against their per-query references.

``check_tq_equalities`` and ``check_preservation`` compute each
enumerated formula's witness, propositions, translation and preimage
once; ``helpers.reference_tq_equalities`` and
``helpers.reference_preservation`` ask the public single-query functions
once per (formula, state) and per pair.  Reports and first exceptions
(class, message and ``witness``) must be the same.
"""

import warnings

import numpy as np
import pytest

from qlprop.model import build_qm_model, m_qbit, m_qutrit
from qlprop.pragmatic import check_preservation
from qlprop.quantum import check_tq_equalities

from helpers import (
    join_open,
    mo2_qubit,
    non_injective_qubit,
    reference_preservation,
    reference_tq_equalities,
)


def _ortho_open() -> object:
    """A qubit with two oblique rays and no complements: every atom but
    E0 and EI has a state outside its proposition whose Q-truth needs
    the missing complement."""
    r = np.sqrt(0.5)
    return build_qm_model(
        2, {"A+": [1, 0], "B+": [r, r]},
        {"E0": [], "Ea": [[1, 0]], "Eb": [[r, r]], "EI": [[1, 0], [0, 1]]})


def _meet_open() -> object:
    """Two planes of C^3 with their complements but not their meet line."""
    r = np.sqrt(0.5)
    return build_qm_model(
        3, {"S1": [1, 0, 0], "S2": [0, 1, 0], "S3": [0, 0, 1], "S4": [r, r, 0]},
        {"E0": [], "P12": [[1, 0, 0], [0, 1, 0]], "P3": [[0, 0, 1]],
         "P23": [[0, 1, 0], [0, 0, 1]], "P1": [[1, 0, 0]],
         "EI": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})


def _no_zero() -> object:
    """A qubit without the zero subspace: EI has no complement, but EI
    is certain at every state, so no Q-truth query needs one."""
    return build_qm_model(
        2, {"A+": [1, 0], "A-": [0, 1]},
        {"Ea": [[1, 0]], "Ea-": [[0, 1]], "EI": [[1, 0], [0, 1]]})


CASES = [
    ("m_qbit", m_qbit, 2),
    ("m_qutrit", m_qutrit, 2),
    ("mo2-1", lambda: mo2_qubit(1), 3),
    ("mo2-2", lambda: mo2_qubit(2), 3),
    ("mo2-5", lambda: mo2_qubit(5), 3),
    ("ortho-open-d1", _ortho_open, 1),
    ("ortho-open-d2", _ortho_open, 2),
    ("meet-open-d1", _meet_open, 1),
    ("meet-open-d2", _meet_open, 2),
    ("join-open-d1", join_open, 1),
    ("join-open-d2", join_open, 2),
    ("no-zero-d1", _no_zero, 1),
    ("no-zero-d2", _no_zero, 2),
    ("non-injective-d1", non_injective_qubit, 1),
    ("non-injective-d2", non_injective_qubit, 2),
]


def _outcome(fn, *args):
    """The result, or the raised error's class, message and witness."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return "raised", type(exc), str(exc), getattr(exc, "witness", None)


def _preservation(m, depth):
    rep = check_preservation(m, depth)
    return rep.formulas, rep.classes, rep.counterexamples


@pytest.mark.parametrize("name, build, depth", CASES,
                         ids=[c[0] for c in CASES])
def test_tq_equalities_match_the_reference(name, build, depth):
    got = _outcome(check_tq_equalities, build(), depth)
    assert got == _outcome(reference_tq_equalities, build(), depth)


@pytest.mark.parametrize("name, build, depth", CASES,
                         ids=[c[0] for c in CASES])
def test_preservation_matches_the_reference(name, build, depth):
    got = _outcome(_preservation, build(), depth)
    assert got == _outcome(reference_preservation, build(), depth)


def test_open_models_raise_only_where_a_query_needs_the_missing_operation():
    # the reference reads Q-truth through the same QProposition, so this
    # pins on its own where the complement is looked up
    kind, cls, _, witness = _outcome(_preservation, _ortho_open(), 1)
    assert (kind, cls.__name__, witness) == ("raised", "NotOperationClosed",
                                             ("Ea", "ortho"))
    kind, cls, _, witness = _outcome(_preservation, _meet_open(), 2)
    assert (kind, cls.__name__, witness) == ("raised", "NotOperationClosed",
                                             ("P12", "P23", "meet"))
    assert _outcome(_preservation, _no_zero(), 1) == ("returned", (3, 3, []))


def test_non_injective_model_reports_violations():
    # the one case whose violation lists are not empty: Ex+ and Ex- share
    # E0's empty certain-state set, so neither their orthogonal states nor
    # the joins through them are the lattice's answers for that set
    kind, out = _outcome(check_tq_equalities, non_injective_qubit(), 2)
    assert kind == "returned"
    assert out["negation"] == ["Ex+(x)", "Ex-(x)"]
    assert out["conjunction"] == []
    assert len(out["join"]) == 10
    assert out["join"][0] == ("Ez+(x)", "Ex+(x)")
    assert out["join_strict_witness"] == ("Ez+(x)", "Ex+(x)")
