"""Classical truth, propositions and preorders over finite models.

Truth is Tarskian: an interpretation picks one object per state, and a
formula holds at a state when the chosen object belongs to the formula's
extension there.  Two proposition notions fall out:

* the individual proposition of a formula under one interpretation is
  the set of states where it holds;
* the physical proposition is the set of states where it holds under
  *every* interpretation, which for one free variable reduces per state
  to "the extension is the whole universe".

The logical preorder compares extensions state by state; the physical
preorder compares physical propositions.  The first implies the second
and the converses fail on small fixtures.  Testability ties formulas
back to declared properties with identical extension profiles, and the
Lindenbaum-Tarski construction quotients the (depth-bounded) formula
algebra by profile equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DepthCapExceeded,
    ForallMismatch,
    SchemaError,
    UnknownProperty,
)
from .lattice import FinitePoset, build_poset, set_label
from .model import Interpretation, Model, enumerate_interpretations
from .syntax import And, Atom, Formula, Not, Or, QNot, format_lx

__all__ = [
    "DEFAULT_DEPTH_CAP",
    "extension_of", "is_true", "individual_proposition",
    "physical_proposition", "profile_proposition", "certainly_true",
    "extension_profile",
    "logical_leq", "logical_equiv", "physical_leq", "physical_equiv",
    "testable_witness", "testable_proposition_poset", "forall_proposition",
    "enumerate_formulas", "LTClass", "LTAlgebra", "lindenbaum_tarski",
]

DEFAULT_DEPTH_CAP = 4


def extension_of(m: Model, state: str, f: Formula) -> frozenset[str]:
    """The set of objects satisfying ``f`` in ``state``."""
    if state not in m.extensions:
        raise SchemaError(f"unknown state {state!r}")
    if isinstance(f, Atom):
        if f.prop not in m.properties:
            raise UnknownProperty(f"model declares no property {f.prop!r}")
        return m.extensions[state][f.prop]
    if isinstance(f, Not):
        return frozenset(m.universes[state]) - extension_of(m, state, f.inner)
    if isinstance(f, And):
        return extension_of(m, state, f.left) & extension_of(m, state, f.right)
    if isinstance(f, Or):
        return extension_of(m, state, f.left) | extension_of(m, state, f.right)
    raise TypeError(f"not a classical formula node: {f!r}")


def is_true(m: Model, interp: Interpretation, state: str, f: Formula) -> bool:
    """Truth of ``f`` at ``state`` under an interpretation."""
    return interp[state] in extension_of(m, state, f)


def individual_proposition(m: Model, interp: Interpretation,
                           f: Formula) -> frozenset[str]:
    """States where ``f`` holds under this interpretation."""
    return frozenset(s for s in m.states if is_true(m, interp, s, f))


def physical_proposition(m: Model, f: Formula) -> frozenset[str]:
    """States where ``f`` holds under every interpretation.

    Computed per state as "extension equals the whole universe"; the
    brute-force intersection over all interpretations gives the same set
    (see :func:`forall_proposition`).
    """
    return profile_proposition(m, extension_profile(m, f))


def profile_proposition(m: Model, profile) -> frozenset[str]:
    """States whose extension in ``profile`` is the whole universe.

    ``profile`` holds one extension per state, in state order, each a
    subset of its state's universe: an :func:`extension_profile`, or one
    made from such profiles by pointwise complement, intersection and
    union.
    """
    return frozenset(s for s, ext in zip(m.states, profile)
                     if len(ext) == len(m.universes[s]))


def certainly_true(m: Model, state: str, f: Formula) -> bool:
    """True iff ``f`` holds at ``state`` no matter the interpretation."""
    if state not in m.extensions:
        raise SchemaError(f"unknown state {state!r}")
    return extension_of(m, state, f) == frozenset(m.universes[state])


def extension_profile(m: Model, f) -> tuple[frozenset[str], ...]:
    """Per-state extensions in state order; the canonical semantic key."""
    return tuple(extension_of(m, s, f) for s in m.states)


# ---------------------------------------------------------------------------
# Preorders


def logical_leq(m: Model, a: Formula, b: Formula) -> bool:
    """Truth of ``a`` implies truth of ``b`` under every interpretation
    at every state (equivalently: state-wise extension inclusion)."""
    return all(extension_of(m, s, a) <= extension_of(m, s, b)
               for s in m.states)


def logical_equiv(m: Model, a: Formula, b: Formula) -> bool:
    return logical_leq(m, a, b) and logical_leq(m, b, a)


def physical_leq(m: Model, a: Formula, b: Formula) -> bool:
    """Inclusion of physical propositions (weaker than ``logical_leq``)."""
    return physical_proposition(m, a) <= physical_proposition(m, b)


def physical_equiv(m: Model, a: Formula, b: Formula) -> bool:
    return physical_proposition(m, a) == physical_proposition(m, b)


# ---------------------------------------------------------------------------
# Testability


def testable_witness(m: Model, f) -> str | None:
    """The first declared property logically equivalent to ``f``, if any.

    A formula is testable exactly when some property has the same
    extension profile; the witness makes the formula's truth an
    empirical matter of that single property.
    """
    prof = extension_profile(m, f)
    for e in m.properties:
        if extension_profile(m, Atom(e)) == prof:
            return e
    return None


# ---------------------------------------------------------------------------
# Formula enumeration (canonical order: atoms, negations, conjunctions,
# disjunctions, pairs lexicographic by first appearance)


def _enumerate(properties, depth: int, depth_cap: int, unary, binary):
    if depth > depth_cap:
        raise DepthCapExceeded(
            f"depth {depth} exceeds the cap {depth_cap}")
    items: list = []
    depths: list[int] = []
    if depth >= 1:
        for p in properties:
            items.append(Atom(p))
            depths.append(1)
    for d in range(2, depth + 1):
        prev_end = len(items)
        for ctor in unary:
            for i in range(prev_end):
                if depths[i] == d - 1:
                    items.append(ctor(items[i]))
                    depths.append(d)
        for ctor in binary:
            for i in range(prev_end):
                for j in range(prev_end):
                    if max(depths[i], depths[j]) == d - 1:
                        items.append(ctor(items[i], items[j]))
                        depths.append(d)
    return items


def enumerate_formulas(properties, depth: int,
                       depth_cap: int = DEFAULT_DEPTH_CAP) -> list[Formula]:
    """All classical formulas over ``properties`` up to AST depth."""
    return _enumerate(properties, depth, depth_cap, [Not], [And, Or])


def enumerate_tq_formulas(properties, depth: int,
                          depth_cap: int = DEFAULT_DEPTH_CAP) -> list:
    """All quantum formulas (atoms, quantum negation, conjunction)."""
    return _enumerate(properties, depth, depth_cap, [QNot], [And])


# ---------------------------------------------------------------------------
# Poset of testable propositions


def testable_proposition_poset(m: Model, depth: int,
                               depth_cap: int = DEFAULT_DEPTH_CAP) -> FinitePoset:
    """Distinct physical propositions of testable formulas up to depth,
    ordered by inclusion."""
    seen: dict[frozenset, None] = {}
    for f in enumerate_formulas(m.properties, depth, depth_cap):
        if testable_witness(m, f) is not None:
            seen.setdefault(physical_proposition(m, f))
    props = list(seen)
    return build_poset(props, lambda x, y: x <= y,
                       [set_label(p, m.states) for p in props])


def forall_proposition(m: Model, f: Formula, cap: int | None = None) -> frozenset[str]:
    """Brute-force intersection of individual propositions over all
    interpretations; checked against :func:`physical_proposition`."""
    kwargs = {} if cap is None else {"cap": cap}
    acc = frozenset(m.states)
    for interp in enumerate_interpretations(m, **kwargs):
        acc &= individual_proposition(m, interp, f)
        if not acc:
            break
    expected = physical_proposition(m, f)
    if acc != expected:
        raise ForallMismatch(
            f"universally quantified proposition {sorted(acc)} disagrees "
            f"with the per-state form {sorted(expected)}")
    return acc


# ---------------------------------------------------------------------------
# Lindenbaum-Tarski quotient


@dataclass(frozen=True)
class LTClass:
    representative: Formula
    profile: tuple[frozenset[str], ...]
    size: int  # enumerated members; 0 for classes added by closure


@dataclass
class LTAlgebra:
    """Quotient of the depth-bounded formula algebra by logical
    equivalence, ordered by the logical preorder.

    ``closed()`` extends the carrier with every profile reachable by the
    pointwise operations (complement, intersection, union per state).
    The closure is the full quotient algebra of the model: it no longer
    depends on the depth bound, and on it every meet and join exists, so
    lattice law checkers can run without truncation artifacts.
    """

    model: Model
    depth: int
    classes: tuple[LTClass, ...]
    poset: FinitePoset
    is_closed: bool

    def closed(self) -> "LTAlgebra":
        m = self.model
        univ = [frozenset(m.universes[s]) for s in m.states]
        reps: dict[tuple, Formula] = {c.profile: c.representative
                                      for c in self.classes}
        sizes: dict[tuple, int] = {c.profile: c.size for c in self.classes}
        order: list[tuple] = [c.profile for c in self.classes]

        def note(prof: tuple, rep: Formula):
            if prof not in reps:
                reps[prof] = rep
                sizes[prof] = 0
                order.append(prof)

        changed = True
        while changed:
            size = len(order)
            for p in list(order):
                note(tuple(u - x for u, x in zip(univ, p)), Not(reps[p]))
            snapshot = list(order)
            for p in snapshot:
                for q in snapshot:
                    note(tuple(x & y for x, y in zip(p, q)),
                         And(reps[p], reps[q]))
                    note(tuple(x | y for x, y in zip(p, q)),
                         Or(reps[p], reps[q]))
            changed = len(order) != size
        classes = tuple(LTClass(reps[p], p, sizes[p]) for p in order)
        return LTAlgebra(m, self.depth, classes, _lt_poset(classes), True)


def _profile_leq(p: tuple, q: tuple) -> bool:
    return all(x <= y for x, y in zip(p, q))


def _lt_poset(classes: tuple[LTClass, ...]) -> FinitePoset:
    profs = [c.profile for c in classes]
    return build_poset(profs, _profile_leq,
                       [format_lx(c.representative) for c in classes])


def lindenbaum_tarski(m: Model, depth: int,
                      depth_cap: int = DEFAULT_DEPTH_CAP) -> LTAlgebra:
    """Quotient the formulas of depth <= ``depth`` by logical equivalence.

    Classes are keyed by extension profile; representatives are the first
    members in canonical enumeration order.
    """
    reps: dict[tuple, Formula] = {}
    counts: dict[tuple, int] = {}
    order: list[tuple] = []
    for f in enumerate_formulas(m.properties, depth, depth_cap):
        prof = extension_profile(m, f)
        if prof not in reps:
            reps[prof] = f
            counts[prof] = 0
            order.append(prof)
        counts[prof] += 1
    classes = tuple(LTClass(reps[p], p, counts[p]) for p in order)
    return LTAlgebra(m, depth, classes, _lt_poset(classes), False)
