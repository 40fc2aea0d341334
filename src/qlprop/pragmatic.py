"""Assertive translation of quantum formulas and justification values.

The translation maps quantum formulas to assertive ones: atoms become
assertions, conjunction becomes ``K``, quantum negation becomes ``N`` --
except that a negation matching the derived-disjunction pattern
``~q (~q a & ~q b)`` is recognised *first* and rendered as ``A``.  With
that priority the translation is injective, and its image (assertions
applied to atoms only, combined by N/K/A) is the decidable fragment:
exactly the assertive formulas whose justification conditions are fixed
by the quantum semantics.

An assertive formula is justified at a state iff its quantum preimage is
Q-true there.  Because justification is defined through the preimage,
the translation preserves the physical preorder and equivalence.

The translation and the preimage are each written once, as a one-node
step (:func:`_assertive_step`, :func:`_preimage_step`) that the
recursive public functions pass themselves to.  Since
:func:`_preimage_step` inverts :func:`_assertive_step` node by node, the
round trip gives every formula back by induction; the unit tests check
the two steps on each node shape.

:func:`check_preservation` counts the formulas per witness class, as the
quantum checker does.  The preimage of a formula's translation is the
formula, so its justification set is the proposition of its witness:
the checker compares, per class, Q-truth with that set state by state
(which reads the complement of the witness where the formula is not
Q-true), and, per pair of classes, the two propositions' inclusion with
the two justification sets' inclusion.  Both comparisons hold on every
model on which they run; an evaluation of the assertive connectives that
does not go through the preimage is not written yet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import NotPDecidable, SchemaError
from .model import Model
from .quantum import (
    QProposition,
    QTruth,
    _witness_classes,
    tq_physical_proposition,
)
from .syntax import (
    A,
    And,
    Assert,
    AssertiveFormula,
    Atom,
    K,
    N,
    QNot,
    TQFormula,
    format_prag,
    format_tq,
)

__all__ = [
    "Justification", "to_assertive", "assertive_preimage", "justified",
    "PreservationReport", "check_preservation",
]


class Justification(enum.Enum):
    JUSTIFIED = "Justified"
    UNJUSTIFIED = "Unjustified"

    def __str__(self) -> str:
        return self.value


def _assertive_step(f: TQFormula, sub) -> AssertiveFormula:
    """Translate the top node of ``f``; ``sub`` translates a subformula.

    :func:`to_assertive` passes itself.  A test can apply the step to
    one node with any ``sub``, or replace the step to inject a fault
    into every translation; :func:`check_preservation` translates no
    formula.
    """
    if isinstance(f, Atom):
        return Assert(f)
    if isinstance(f, QNot):
        g = f.inner
        # the derived-disjunction pattern takes priority over plain N
        if (isinstance(g, And) and isinstance(g.left, QNot)
                and isinstance(g.right, QNot)):
            return A(sub(g.left.inner), sub(g.right.inner))
        return N(sub(g))
    if isinstance(f, And):
        return K(sub(f.left), sub(f.right))
    raise TypeError(f"not a quantum formula node: {f!r}")


def to_assertive(f: TQFormula) -> AssertiveFormula:
    """Translate a quantum formula into the assertive language."""
    return _assertive_step(f, to_assertive)


def _preimage_step(af: AssertiveFormula, sub) -> TQFormula:
    """The quantum node that the top node of ``af`` translates; ``sub``
    gives an assertive subformula's preimage."""
    if isinstance(af, Assert):
        if not isinstance(af.inner, Atom):
            raise NotPDecidable(
                f"assertion of a compound formula "
                f"({format_tq(af.inner)!r}) is outside the decidable "
                "fragment")
        return af.inner
    if isinstance(af, N):
        return QNot(sub(af.inner))
    if isinstance(af, K):
        return And(sub(af.left), sub(af.right))
    if isinstance(af, A):
        return QNot(And(QNot(sub(af.left)), QNot(sub(af.right))))
    raise TypeError(f"not an assertive formula node: {af!r}")


def _preimage(af: AssertiveFormula) -> TQFormula:
    return _preimage_step(af, _preimage)


def assertive_preimage(af: AssertiveFormula) -> TQFormula:
    """The unique quantum formula translating to ``af``.

    Raises :class:`NotPDecidable` if ``af`` is not in the image of
    :func:`to_assertive` (e.g. it asserts a compound formula, or spells
    the disjunction pattern with N and K instead of A).
    """
    f = _preimage(af)
    if to_assertive(f) != af:
        raise NotPDecidable(
            f"{format_prag(af)!r} is not in the image of the assertive "
            "translation")
    return f


def justified(m: Model, state: str, af: AssertiveFormula) -> Justification:
    """Justified iff the quantum preimage is Q-true at the state, that
    is, iff the state lies in the preimage's physical proposition.

    Only that proposition is needed: where a formula is not Q-true, it
    does not matter whether it is Q-false, so the orthocomplement of its
    witness is not looked up.
    """
    f = assertive_preimage(af)
    if state not in m.extensions:
        raise SchemaError(f"unknown state {state!r}")
    return (Justification.JUSTIFIED if state in tq_physical_proposition(m, f)
            else Justification.UNJUSTIFIED)


@dataclass
class PreservationReport:
    formulas: int
    classes: int
    counterexamples: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def check_preservation(m: Model, depth: int) -> PreservationReport:
    """Compare Q-truth with justification, and the physical preorder with
    the justification preorder, over the quantum formulas up to
    ``depth``.

    The formulas are counted per witness class
    (:func:`~qlprop.quantum._witness_classes`); ``formulas`` is the sum
    of the counts.  Justification is read through the preimage, which is
    the formula itself, so a class's justification set is its witness's
    proposition.  Per class and state, the check compares "Q-true" (which
    looks up the witness's complement at a state outside the
    proposition) with "justified"; per pair of classes, it compares
    inclusion of propositions with inclusion of justification sets.  A
    counterexample names the first formula of its class.
    """
    classes = _witness_classes(m, depth)
    report = PreservationReport(
        formulas=sum(n for n, _ in classes.values()), classes=len(classes))
    reps = []
    for w, (_, f) in classes.items():
        p = QProposition(m, Atom(w))
        just = p.states
        for s in m.states:
            qt = p.truth(s)
            if (qt is QTruth.TRUE) != (s in just):
                j = (Justification.JUSTIFIED if s in just
                     else Justification.UNJUSTIFIED)
                report.counterexamples.append(
                    ("truth", format_tq(f), s, str(qt), str(j)))
        reps.append((format_tq(f), p.states, just))
    for a, pa, ja in reps:
        for b, pb, jb in reps:
            phys = pa <= pb
            af_leq = ja <= jb
            if phys != af_leq:
                report.counterexamples.append(
                    ("preorder", a, b, phys, af_leq))
    return report
