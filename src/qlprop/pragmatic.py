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
the translation preserves the physical preorder and equivalence; the
preservation checker verifies this exhaustively on enumerated formulas.

The translation and the preimage are each written once, as a one-node
step (:func:`_assertive_step`, :func:`_preimage_step`) that the
recursive public functions and the checker share.  The checker fills
each enumerated formula's facts in enumeration order from its operands'
entries: its witness (one property-table lookup), its translation (one
step from the operands' translations) and its round trip (one step from
the preimages already given back, then a comparison with the formula
that is one node deep, since the preimage's operands are the formula's
own operand objects).  The preimage is the formula, so its
justification set is the proposition of the formula's witness; the
states where Q-truth and justification disagree are found once per
witness class and reported per formula, and per pair of classes the
checker compares two propositions and two justification sets.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import NotPDecidable, SchemaError
from .model import Model
from .quantum import QTruth, _witness_classes, tq_physical_proposition
from .semantics import enumerate_tq_formulas
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

    :func:`to_assertive` passes itself; :func:`check_preservation` reads
    the translations it has already built.
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


def _outside_image(af: AssertiveFormula) -> NotPDecidable:
    return NotPDecidable(
        f"{format_prag(af)!r} is not in the image of the assertive "
        "translation")


def assertive_preimage(af: AssertiveFormula) -> TQFormula:
    """The unique quantum formula translating to ``af``.

    Raises :class:`NotPDecidable` if ``af`` is not in the image of
    :func:`to_assertive` (e.g. it asserts a compound formula, or spells
    the disjunction pattern with N and K instead of A).
    """
    f = _preimage(af)
    if to_assertive(f) != af:
        raise _outside_image(af)
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


def _translations(formulas) -> Iterator[AssertiveFormula]:
    """Yield the translation of each enumerated formula, in order, once
    its round trip has given the formula back.

    ``formulas`` is an :class:`~qlprop.semantics.Enumeration`, so every
    subformula comes before the formulas built on it.  A translation is
    one :func:`_assertive_step` from its subformulas' translations, and
    the preimage one :func:`_preimage_step` from the preimages already
    given back, which are the formula's own subformula objects.  The
    preimage is then compared with the formula: a new node over the
    same operand objects, so the comparison is one node deep (a
    dataclass compares its fields as a tuple, and tuple comparison
    passes identical items without comparing them).  An atom's
    preimage is the atom itself, so there is nothing to compare.  A
    preimage that differs raises :class:`NotPDecidable`, as
    :func:`assertive_preimage` would.
    """
    translation: dict[int, AssertiveFormula] = {}  # by id of the formula
    preimage: dict[int, TQFormula] = {}  # by id of the translation

    def translated(g: TQFormula) -> AssertiveFormula:
        return translation[id(g)]

    def given_back(ag: AssertiveFormula) -> TQFormula:
        return preimage[id(ag)]

    # only an operand's entries are read again (the A pattern reads an
    # operand of an operand).  The operands are exactly the formulas below
    # the last level: an operand lies in an earlier level than its node,
    # and every formula below the last level is an operand in the next
    operands = formulas.levels[-1][0]
    for i, f in enumerate(formulas):
        af = _assertive_step(f, translated)
        pre = _preimage_step(af, given_back)
        if pre is not f and pre != f:
            raise _outside_image(af)
        if i < operands:
            translation[id(f)] = af
            preimage[id(af)] = f
        yield af


@dataclass
class PreservationReport:
    formulas: int
    classes: int
    counterexamples: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def check_preservation(m: Model, depth: int) -> PreservationReport:
    """Verify that the assertive translation respects the quantum
    semantics on all formulas up to ``depth``.

    Checks, for every enumerated formula and state, that Q-truth and
    justification coincide; and, for every pair of witness-property
    classes, that the physical preorder between formulas matches the
    state-wise justification implication between their translations.
    """
    formulas = enumerate_tq_formulas(m.properties, depth)
    witnesses, first, props = _witness_classes(m, formulas)
    report = PreservationReport(formulas=len(formulas), classes=len(props))

    # Q-truth and justification depend on the witness only: the preimage
    # is the formula, so its justification set, the states where it is
    # Q-true, is the proposition of the formula's witness.  The states
    # where the two disagree are found once per class and reported per
    # formula.
    justified_at: dict[str, frozenset[str]] = {}
    mismatches: dict[str, list[tuple[str, str, str]]] = {}
    # each formula's round trip runs as the loop reaches the formula
    for f, e, _ in zip(formulas, witnesses, _translations(formulas)):
        bad = mismatches.get(e)
        if bad is None:
            p = props[e]
            just = justified_at[e] = p.states
            bad = mismatches[e] = []
            for s in m.states:
                qt = p.truth(s)
                if (qt is QTruth.TRUE) != (s in just):
                    j = (Justification.JUSTIFIED if s in just
                         else Justification.UNJUSTIFIED)
                    bad.append((s, str(qt), str(j)))
        report.counterexamples.extend(
            ("truth", format_tq(f), *b) for b in bad)

    for a, ia in first.items():
        for b, ib in first.items():
            phys = props[a].states <= props[b].states
            af_leq = justified_at[a] <= justified_at[b]
            if phys != af_leq:
                report.counterexamples.append(
                    ("preorder", format_tq(formulas[ia]),
                     format_tq(formulas[ib]), phys, af_leq))
    return report
