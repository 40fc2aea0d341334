"""Quantum language semantics over Hilbert-annotated models.

Every quantum formula reduces, through the model's subspace operations,
to a single declared property: atoms are their own witness, quantum
negation takes the orthocomplement, conjunction the subspace meet.  The
physical proposition of a formula is then the certain-state set of its
witness, and no classical extension is consulted along the way.

Each reduction step and each certain-state set is a lookup in the
annotation's :class:`~qlprop.hilbert.PropertyTable`: the subspace
operation behind an entry runs at most once per annotation, on the
first formula that needs it, and its result is matched to a declared
property by the ``Subspace.__eq__`` rule (mutual containment within
tolerance).  The optional ``cache`` arguments only memoise the walk
from formula to witness.

Q-truth is three-valued: a formula is Q-true at a state lying in its
proposition, Q-false at a state lying in the proposition's
*orthocomplement* (taken in the state lattice, not the set complement),
and Q-indeterminate elsewhere.  The classical route reaches the same
trichotomy for testable classical formulas through their witness
property.
"""

from __future__ import annotations

import enum
import warnings

from .errors import (
    NoHilbertAnnotation,
    SchemaError,
    UnknownProperty,
    WitnessMismatchWarning,
)
from .hilbert import certain_states, state_lattice
from .lattice import OrthoLattice
from .model import Interpretation, Model
from .semantics import (
    enumerate_tq_formulas,
    is_true,
    physical_proposition,
    testable_witness,
)
from .syntax import And, Atom, Formula, QNot, TQFormula, format_tq, sasaki_formula

__all__ = [
    "QTruth", "witness_property", "tq_is_true", "tq_physical_proposition",
    "sasaki_hook", "q_truth", "q_truth_classical", "check_tq_equalities",
    "enumerate_tq_formulas",
]


class QTruth(enum.Enum):
    TRUE = "QTrue"
    FALSE = "QFalse"
    INDETERMINATE = "QIndeterminate"

    def __str__(self) -> str:
        return self.value


def _hilbert(m: Model):
    if m.hilbert is None:
        raise NoHilbertAnnotation("model carries no Hilbert annotation")
    return m.hilbert


def witness_property(m: Model, f: TQFormula,
                     cache: dict | None = None) -> str:
    """The declared property realising ``f`` through the subspace map.

    Recursion: an atom is its own witness; quantum negation looks up the
    property carrying the orthocomplement subspace; conjunction looks up
    the meet, both in the annotation's property table.  Raises
    :class:`NotOperationClosed` when the model's properties do not
    contain the required subspace.
    """
    ann = _hilbert(m)
    if cache is not None and f in cache:
        return cache[f]
    if isinstance(f, Atom):
        if f.prop not in m.properties:
            raise UnknownProperty(f"model declares no property {f.prop!r}")
        out = f.prop
    elif isinstance(f, QNot):
        out = ann.table.ortho(witness_property(m, f.inner, cache))
    elif isinstance(f, And):
        out = ann.table.meet(witness_property(m, f.left, cache),
                             witness_property(m, f.right, cache))
    else:
        raise TypeError(f"not a quantum formula node: {f!r}")
    if cache is not None:
        cache[f] = out
    return out


def tq_is_true(m: Model, interp: Interpretation, state: str,
               f: TQFormula, cache: dict | None = None) -> bool:
    """Truth of a quantum formula: classical truth of its witness atom.

    On conjunctive trees without quantum negation this agrees with the
    classical assignment at states where all atoms are determinate;
    at indeterminate states the two can differ because fabricated proper
    extensions carry no quantum information.
    """
    return is_true(m, interp, state, Atom(witness_property(m, f, cache)))


def tq_physical_proposition(m: Model, f: TQFormula,
                            cache: dict | None = None) -> frozenset[str]:
    """States where the formula is certain: the certain-state set of its
    witness property."""
    return certain_states(m, witness_property(m, f, cache))


def sasaki_hook(m: Model, a: TQFormula, b: TQFormula):
    """The Sasaki arrow from ``a`` to ``b``: its expanded formula and its
    physical proposition."""
    f = sasaki_formula(a, b)
    return f, tq_physical_proposition(m, f)


def q_truth(m: Model, state: str, f: TQFormula,
            cache: dict | None = None) -> QTruth:
    """Three-valued truth at a state; see the module docstring."""
    if state not in m.extensions:
        raise SchemaError(f"unknown state {state!r}")
    pos = tq_physical_proposition(m, f, cache)
    if state in pos:
        return QTruth.TRUE
    neg = tq_physical_proposition(m, QNot(f), cache)
    if state in neg:
        return QTruth.FALSE
    return QTruth.INDETERMINATE


def q_truth_classical(m: Model, state: str, f: Formula) -> QTruth | None:
    """Q-truth of a *classical* formula via its testable witness.

    Returns None for untestable formulas.  The positive part is the
    classical physical proposition; the negative part needs the witness
    property's orthocomplement, hence a Hilbert annotation.  If the
    classical proposition disagrees with the witness's certain-state set
    a :class:`WitnessMismatchWarning` is emitted and the classical set
    is used.
    """
    w = testable_witness(m, f)
    if w is None:
        return None
    ann = _hilbert(m)
    if state not in m.extensions:
        raise SchemaError(f"unknown state {state!r}")
    pos = physical_proposition(m, f)
    theta_pos = certain_states(m, w)
    if pos != theta_pos:
        warnings.warn(
            f"classical proposition of {w!r}-equivalent formula differs "
            f"from the witness's certain-state set", WitnessMismatchWarning)
    if state in pos:
        return QTruth.TRUE
    if state in certain_states(m, ann.table.ortho(w)):
        return QTruth.FALSE
    return QTruth.INDETERMINATE


def check_tq_equalities(m: Model, depth: int, depth_cap: int = 4,
                        lat: OrthoLattice | None = None) -> dict:
    """Compare formula propositions against state-lattice operations.

    For all quantum formulas to ``depth`` (deduplicated by witness
    property): the proposition of a negation must be the lattice
    orthocomplement, of a conjunction the lattice meet, and of a derived
    disjunction the lattice join of the operand propositions.  The
    lattice side is computed order-theoretically (validated glb/lub
    tables), so the two routes are independent.

    Returns a dict with violation lists per law, the number of formulas
    checked, and a witness pair for strictness of the join inclusion
    (the join proposition strictly containing the union) when one exists.
    ``lat`` is ``state_lattice(m)``, built here when not given.
    """
    from .syntax import quantum_join

    if lat is None:
        lat = state_lattice(m)
    cache: dict = {}
    formulas = enumerate_tq_formulas(m.properties, depth, depth_cap)
    reps: dict[str, TQFormula] = {}
    for f in formulas:
        w = witness_property(m, f, cache)
        reps.setdefault(w, f)

    def idx(f) -> int:
        return lat.poset.index_of(tq_physical_proposition(m, f, cache))

    neg_bad, conj_bad, join_bad = [], [], []
    for f in formulas:
        if idx(QNot(f)) != lat.ortho[idx(f)]:
            neg_bad.append(format_tq(f))
    rep_list = list(reps.values())
    strict = None
    for a in rep_list:
        ia = idx(a)
        for b in rep_list:
            ib = idx(b)
            if idx(And(a, b)) != lat.meet[ia, ib]:
                conj_bad.append((format_tq(a), format_tq(b)))
            jf = quantum_join(a, b)
            if idx(jf) != lat.join[ia, ib]:
                join_bad.append((format_tq(a), format_tq(b)))
            union = (tq_physical_proposition(m, a, cache)
                     | tq_physical_proposition(m, b, cache))
            joined = tq_physical_proposition(m, jf, cache)
            if not union <= joined:
                join_bad.append((format_tq(a), format_tq(b), "union not below"))
            elif strict is None and union < joined:
                strict = (format_tq(a), format_tq(b))
    return {
        "formulas": len(formulas),
        "classes": len(reps),
        "negation": neg_bad,
        "conjunction": conj_bad,
        "join": join_bad,
        "join_strict_witness": strict,
    }
