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

The checker computes each enumerated formula's facts once: its
:class:`~qlprop.quantum.QProposition` (witness, proposition, and the
orthocomplement's proposition when a state outside it is reached), its
translation, one :func:`assertive_preimage` round trip, and the
justification set, the proposition of that preimage.  Per state it then
tests set membership, and per pair of witness classes it compares two
propositions and two justification sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import NotPDecidable
from .model import Model
from .quantum import QProposition, QTruth, q_truth
from .semantics import DEFAULT_DEPTH_CAP, enumerate_tq_formulas
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


def to_assertive(f: TQFormula) -> AssertiveFormula:
    """Translate a quantum formula into the assertive language."""
    if isinstance(f, Atom):
        return Assert(f)
    if isinstance(f, QNot):
        g = f.inner
        # the derived-disjunction pattern takes priority over plain N
        if (isinstance(g, And) and isinstance(g.left, QNot)
                and isinstance(g.right, QNot)):
            return A(to_assertive(g.left.inner), to_assertive(g.right.inner))
        return N(to_assertive(g))
    if isinstance(f, And):
        return K(to_assertive(f.left), to_assertive(f.right))
    raise TypeError(f"not a quantum formula node: {f!r}")


def _preimage(af: AssertiveFormula) -> TQFormula:
    if isinstance(af, Assert):
        if not isinstance(af.inner, Atom):
            raise NotPDecidable(
                f"assertion of a compound formula "
                f"({format_tq(af.inner)!r}) is outside the decidable "
                "fragment")
        return af.inner
    if isinstance(af, N):
        return QNot(_preimage(af.inner))
    if isinstance(af, K):
        return And(_preimage(af.left), _preimage(af.right))
    if isinstance(af, A):
        return QNot(And(QNot(_preimage(af.left)),
                        QNot(_preimage(af.right))))
    raise TypeError(f"not an assertive formula node: {af!r}")


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


def justified(m: Model, state: str, af: AssertiveFormula,
              cache: dict | None = None) -> Justification:
    """Justified iff the quantum preimage is Q-true at the state."""
    f = assertive_preimage(af)
    if q_truth(m, state, f, cache) is QTruth.TRUE:
        return Justification.JUSTIFIED
    return Justification.UNJUSTIFIED


@dataclass
class PreservationReport:
    formulas: int
    classes: int
    counterexamples: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def check_preservation(m: Model, depth: int,
                       depth_cap: int = DEFAULT_DEPTH_CAP
                       ) -> PreservationReport:
    """Verify that the assertive translation respects the quantum
    semantics on all formulas up to ``depth``.

    Checks, for every enumerated formula and state, that Q-truth and
    justification coincide; and, for every pair of witness-property
    classes, that the physical preorder between formulas matches the
    state-wise justification implication between their translations.
    """
    cache: dict = {}
    formulas = enumerate_tq_formulas(m.properties, depth, depth_cap)
    report = PreservationReport(formulas=len(formulas), classes=0)
    props = [QProposition(m, f, cache) for f in formulas]
    reps: dict[str, int] = {}
    for i, p in enumerate(props):
        reps.setdefault(p.witness, i)
    report.classes = len(reps)

    # where each formula's translation is justified: the states where its
    # preimage is Q-true, which is the preimage's proposition
    justified_at: list[frozenset[str]] = []
    for f, p in zip(formulas, props):
        # one round trip per formula; to_assertive is injective, so the
        # preimage is f again and the round trip never raises
        pre = assertive_preimage(to_assertive(f))
        just = QProposition(m, pre, cache).states
        justified_at.append(just)
        for s in m.states:
            qt = p.truth(s)
            if (qt is QTruth.TRUE) != (s in just):
                j = (Justification.JUSTIFIED if s in just
                     else Justification.UNJUSTIFIED)
                report.counterexamples.append(
                    ("truth", format_tq(f), s, str(qt), str(j)))

    for a in reps.values():
        for b in reps.values():
            phys = props[a].states <= props[b].states
            af_leq = justified_at[a] <= justified_at[b]
            if phys != af_leq:
                report.counterexamples.append(
                    ("preorder", format_tq(formulas[a]),
                     format_tq(formulas[b]), phys, af_leq))
    return report
