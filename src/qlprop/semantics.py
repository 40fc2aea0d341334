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

Every classical evaluation runs on one integer-bitset kernel
(:class:`ProfileKernel`, cached on the model as ``Model.kernel``).  The
model is laid out as (state, object) slots, states in declaration order
and each state's objects in universe order, so a state owns one
contiguous block of bits and a formula's extension profile is a single
``int``.  An atom's profile is built from the extension data on its
first use; ``Not`` is XOR with the all-slots mask, ``And`` and ``Or``
are ``&`` and ``|``.  A state belongs to the physical proposition when
its block is full, which the kernel memoises by profile value.  An
interpretation picks one slot per state, and the individual proposition
is the set of states whose picked slot lies in the profile.
The public functions keep their frozenset signatures and decode at this
boundary; there is no second evaluator beside the kernel (the bit
tricks are those of Knuth, *TAOCP* 4A, section 7.1.3).

One level loop, :func:`_levels`, walks the formulas up to a depth in
canonical order and groups them by a key: per depth it maps each key to
its number of formulas and its first one, built from the entries of the
shallower depths, so the work grows with the keys, not with the
formulas.  Its callers differ only in the key.  :func:`lindenbaum_tarski`,
the one classical quotient, keys by kernel profile; the quantum checkers
key by witness property (:func:`qlprop.quantum._witness_classes`); and
the enumerators (:func:`enumerate_formulas`,
:func:`enumerate_tq_formulas`) key each formula by a fresh index, so
every formula is its own class, and return the formulas as a list.

:func:`lindenbaum_tarski` returns an :class:`LTAlgebra`, which keeps
each class's kernel profile (``bits``), in order of the class's first
formula, and builds the poset over the classes on the first read of
``poset``.  A class's per-state profile and its label are made from its
int and its representative on their first read, so a check that reads
only the order pays for neither.  Every classical verdict depends on a
formula's profile only, so the classical suites of the command line read
the classes, not the formulas.  A testable formula's profile is an
atom's, so the testable-proposition poset reads the atoms alone, at
every depth.  The closure of the quotient at any depth from 1 up is the
Boolean algebra that the atoms' cells generate, the same set of
profiles with other representatives, so the cm suite closes the depth-2
classes it already holds.

:meth:`LTAlgebra.closed` runs the closure semi-naively (Bancilhon 1986;
Abiteboul, Hull & Vianu, *Foundations of Databases*, ch. 13).  A round
complements only the members not complemented before, and combines only
the pairs with at least one member added since the previous round's
snapshot, in the same row-major order as a naive round.  Every skipped
operation was applied in an earlier round, so its result is already a
member: the naive and the semi-naive rounds add the same new profiles in
the same order, with the same representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DepthCapExceeded,
    ForallMismatch,
    InvalidDepth,
    SchemaError,
    UnknownProperty,
)
from .lattice import FinitePoset, _Lazy, _inclusion, _set_poset
from .model import Interpretation, Model, enumerate_interpretations
from .syntax import And, Atom, Formula, Not, Or, QNot, format_lx

__all__ = [
    "DEPTH_CAP", "check_depth",
    "extension_of", "is_true", "individual_proposition",
    "physical_proposition", "certainly_true",
    "extension_profile",
    "logical_leq", "logical_equiv", "physical_leq", "physical_equiv",
    "testable_witness", "testable_proposition_poset", "forall_proposition",
    "enumerate_formulas", "enumerate_tq_formulas", "LTClass", "LTAlgebra",
    "lindenbaum_tarski",
]

# the deepest formula enumeration any function runs: over one classical
# property, depth 4 is 2,776 formulas and depth 5 would be 15,415,129
DEPTH_CAP = 4


# ---------------------------------------------------------------------------
# The profile kernel


class ProfileKernel:
    """One model compiled into (state, object) slots.

    Object ``i`` of the ``k``-th state sits at bit ``offset_k + i``,
    where ``offset_k`` is the total universe size of the states before
    it.  A profile is the ``int`` of the slots a formula's extensions
    cover; ``universe`` has every slot set.  Atom profiles and full-block
    masks are computed on first use and kept; a physical proposition is
    read from its full-block mask on every call, since no caller asks one
    kernel for the same proposition twice.

    :meth:`witness` decides testability: it maps each atom profile to the
    first declared property that has it, a map built from every atom on
    its first use.  A formula is testable exactly when its profile is in
    the map, and that property is its testable witness.
    """

    def __init__(self, m: Model):
        # the model's parts, not the model: the model holds this kernel,
        # and a cycle would leave both to the cyclic garbage collector
        self._properties = m.properties
        self._extensions = m.extensions
        slots: dict[str, dict[str, int]] = {}
        blocks: dict[str, int] = {}
        offset = 0
        for s in m.states:
            u = m.universes[s]
            slots[s] = {o: 1 << (offset + i) for i, o in enumerate(u)}
            blocks[s] = ((1 << len(u)) - 1) << offset
            offset += len(u)
        self.universe = (1 << offset) - 1
        self._slots = slots
        self._blocks = blocks
        self._atoms: dict[str, int] = {}
        self._witnesses: dict[int, str] | None = None
        self._full: dict[int, int] = {}

    def slots(self, state: str) -> dict[str, int]:
        """The bit of each object of ``state``, in universe order."""
        try:
            return self._slots[state]
        except KeyError:
            raise SchemaError(f"unknown state {state!r}") from None

    def block(self, state: str) -> int:
        """The mask of ``state``'s slots."""
        try:
            return self._blocks[state]
        except KeyError:
            raise SchemaError(f"unknown state {state!r}") from None

    def atom(self, prop: str) -> int:
        """The profile of a declared property, built on its first use."""
        v = self._atoms.get(prop)
        if v is None:
            if prop not in self._properties:
                raise UnknownProperty(f"model declares no property {prop!r}")
            v = 0
            for s, slots in self._slots.items():
                for o in self._extensions[s][prop]:
                    v |= slots[o]
            self._atoms[prop] = v
        return v

    def witness(self, v: int) -> str | None:
        """The first declared property whose profile is ``v``, or None."""
        if self._witnesses is None:
            self._witnesses = {}
            for e in self._properties:
                self._witnesses.setdefault(self.atom(e), e)
        return self._witnesses.get(v)

    def profile(self, f: Formula) -> int:
        """The slots of the objects satisfying ``f``, over all states."""
        if isinstance(f, Atom):
            return self.atom(f.prop)
        if isinstance(f, Not):
            return self.universe ^ self.profile(f.inner)
        if isinstance(f, And):
            return self.profile(f.left) & self.profile(f.right)
        if isinstance(f, Or):
            return self.profile(f.left) | self.profile(f.right)
        raise TypeError(f"not a classical formula node: {f!r}")

    def full(self, v: int) -> int:
        """The union of the state blocks that ``v`` covers entirely."""
        out = self._full.get(v)
        if out is None:
            out = 0
            for mask in self._blocks.values():
                if v & mask == mask:
                    out |= mask
            self._full[v] = out
        return out

    def proposition(self, v: int) -> frozenset[str]:
        """States whose block ``v`` covers: the physical proposition."""
        fb = self.full(v)
        return frozenset(s for s, mask in self._blocks.items() if fb & mask)

    def holds(self, v: int, interp: Interpretation) -> frozenset[str]:
        """States whose chosen object ``v`` covers: the individual
        proposition."""
        try:
            return frozenset(s for s, slots in self._slots.items()
                             if v & slots.get(interp[s], 0))
        except KeyError as exc:  # interp[s], the one lookup that can miss
            raise SchemaError(f"interpretation omits state {exc}") from None

    def decode(self, v: int) -> tuple[frozenset[str], ...]:
        """Per-state extensions, in state order."""
        return tuple(frozenset(o for o, bit in slots.items() if v & bit)
                     for slots in self._slots.values())


# ---------------------------------------------------------------------------
# Truth and propositions


def extension_of(m: Model, state: str, f: Formula) -> frozenset[str]:
    """The set of objects satisfying ``f`` in ``state``."""
    k = m.kernel
    slots = k.slots(state)
    v = k.profile(f)
    return frozenset(o for o, bit in slots.items() if v & bit)


def is_true(m: Model, interp: Interpretation, state: str, f: Formula) -> bool:
    """Truth of ``f`` at ``state`` under an interpretation.

    An object outside the state's universe satisfies nothing.
    """
    k = m.kernel
    slots = k.slots(state)
    if state not in interp:
        raise SchemaError(f"interpretation omits state {state!r}")
    return bool(k.profile(f) & slots.get(interp[state], 0))


def individual_proposition(m: Model, interp: Interpretation,
                           f: Formula) -> frozenset[str]:
    """States where ``f`` holds under this interpretation."""
    k = m.kernel
    return k.holds(k.profile(f), interp)


def physical_proposition(m: Model, f: Formula) -> frozenset[str]:
    """States where ``f`` holds under every interpretation.

    Computed per state as "extension equals the whole universe"; the
    brute-force intersection over all interpretations gives the same set
    (see :func:`forall_proposition`).
    """
    k = m.kernel
    return k.proposition(k.profile(f))


def certainly_true(m: Model, state: str, f: Formula) -> bool:
    """True iff ``f`` holds at ``state`` no matter the interpretation."""
    k = m.kernel
    mask = k.block(state)
    return k.profile(f) & mask == mask


def extension_profile(m: Model, f) -> tuple[frozenset[str], ...]:
    """Per-state extensions in state order; the canonical semantic key."""
    k = m.kernel
    return k.decode(k.profile(f))


# ---------------------------------------------------------------------------
# Preorders


def logical_leq(m: Model, a: Formula, b: Formula) -> bool:
    """Truth of ``a`` implies truth of ``b`` under every interpretation
    at every state (equivalently: state-wise extension inclusion)."""
    k = m.kernel
    va = k.profile(a)
    vb = k.profile(b)
    return va | vb == vb


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
    empirical matter of that single property.  It is read from the
    kernel's map (:meth:`ProfileKernel.witness`).
    """
    k = m.kernel
    return k.witness(k.profile(f))


# ---------------------------------------------------------------------------
# Formula enumeration (canonical order: atoms, negations, conjunctions,
# disjunctions, pairs lexicographic by first appearance)


def check_depth(depth: int) -> None:
    """Refuse a formula depth below 1 with :class:`InvalidDepth`."""
    if depth < 1:
        raise InvalidDepth(f"depth {depth} is below 1; atoms have depth 1")


def _check_cap(depth: int) -> None:
    """Refuse a depth below 1 or above :data:`DEPTH_CAP`."""
    check_depth(depth)
    if depth > DEPTH_CAP:
        raise DepthCapExceeded(f"depth {depth} exceeds the cap {DEPTH_CAP}")


def _levels(atoms, depth: int, unary, binary, keys) -> dict:
    """Count the formulas of depth <= ``depth`` by key, without building
    every one: each key maps to ``[count, first formula]``.

    ``atoms`` gives each atom's ``(key, formula)``; ``unary`` and
    ``binary`` are the constructors.  Level 1 maps each atom's key to its
    entry.  Level d is made in canonical order: each unary constructor
    over level d - 1, then, per binary constructor, the pairs of entries
    whose first member lies below level d - 1 and second in it, then
    those whose first member lies in it.  ``keys`` maps one level's
    ``(constructor, key_a, key_b)`` list (``key_b`` None for a unary
    node) to its keys in one call.  A pair of entries stands for every
    pair of their formulas, so counts multiply, and its first formula
    pair is the pair of the entries' first formulas.  The entries come in
    order of their first formulas, so a key's first insertion into a
    level is its first formula there.  The levels are merged in order of
    first appearance.  The work grows with the pairs of entries, at most
    the square of a level's key count, not with the formulas (counting
    trees by height: Flajolet & Sedgewick, *Analytic Combinatorics*,
    2009, section III).
    """
    _check_cap(depth)
    atom_level: dict = {}
    for key, f in atoms:
        atom_level.setdefault(key, [0, f])[0] += 1
    levels = [atom_level]
    for _ in range(2, depth + 1):
        prev = list(levels[-1].items())
        below = [e for lv in levels[:-1] for e in lv.items()]
        nodes = [(c, a, None) for c in unary for a in prev]
        for c in binary:
            nodes += [(c, a, b) for a in below for b in prev]
            nodes += [(c, a, b) for a in prev for b in below + prev]
        made = keys([(c, a[0], None if b is None else b[0])
                     for c, a, b in nodes])
        level: dict = {}
        for key, (c, (_, (na, fa)), b) in zip(made, nodes):
            n = na if b is None else na * b[1][0]
            entry = level.get(key)
            if entry is None:  # the first formula is built only here
                level[key] = [n, c(fa) if b is None else c(fa, b[1][1])]
            else:
                entry[0] += n
        levels.append(level)
    total: dict = {}
    for lv in levels:
        for key, (n, f) in lv.items():
            total.setdefault(key, [0, f])[0] += n
    return total


def _all_formulas(properties, depth: int, unary, binary) -> list:
    """Every formula up to ``depth`` in canonical order: each node is keyed
    by a fresh index, so every count is 1."""
    fresh = itertools.count()
    return [f for _, f in _levels(
        zip(fresh, map(Atom, properties)), depth, unary, binary,
        lambda ops: itertools.islice(fresh, len(ops))).values()]


def enumerate_formulas(properties, depth: int) -> list[Formula]:
    """All classical formulas over ``properties`` up to AST depth, in
    canonical order."""
    return _all_formulas(properties, depth, [Not], [And, Or])


def enumerate_tq_formulas(properties, depth: int) -> list[Formula]:
    """All quantum formulas (atoms, quantum negation, conjunction) up to
    AST depth, in canonical order."""
    return _all_formulas(properties, depth, [QNot], [And])


# ---------------------------------------------------------------------------
# Poset of testable propositions


def testable_proposition_poset(m: Model, depth: int) -> FinitePoset:
    """Distinct physical propositions of testable formulas up to depth,
    ordered by inclusion.

    A formula is testable when its profile is some declared property's,
    so the testable formulas' propositions are the atoms' at every depth.
    The atoms come first in canonical order, and a deeper testable
    formula shares an atom's profile, so the propositions come in order
    of their first testable formula.  ``depth`` is only validated.
    """
    _check_cap(depth)
    k = m.kernel
    return _set_poset(dict.fromkeys(k.proposition(k.atom(e))
                                    for e in m.properties), m.states)


def forall_proposition(m: Model, f: Formula, cap: int | None = None) -> frozenset[str]:
    """Brute-force intersection of individual propositions over all
    interpretations; checked against :func:`physical_proposition`."""
    kwargs = {} if cap is None else {"cap": cap}
    interps = enumerate_interpretations(m, **kwargs)
    k = m.kernel
    v = k.profile(f)
    acc = frozenset(m.states)
    for interp in interps:
        acc &= k.holds(v, interp)
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
    """One class of the quotient: its first formula, its kernel profile
    ``bits`` and its number of formulas.

    ``profile``, the per-state extensions in state order, is decoded from
    ``bits`` on its first read and kept.  Equality, hashing and the repr
    read the fields alone (the kernel is neither compared nor shown), so
    none of them depends on whether ``profile`` has been read.
    """

    representative: Formula
    bits: int
    size: int  # formulas up to the depth; 0 for classes added by closure
    _kernel: ProfileKernel = field(compare=False, repr=False)

    @cached_property
    def profile(self) -> tuple[frozenset[str], ...]:
        return self._kernel.decode(self.bits)


@dataclass
class LTAlgebra:
    """Quotient of the depth-bounded formula algebra by logical
    equivalence, ordered by the logical preorder.

    ``bits`` holds each class's kernel profile, in class order; the
    poset over the classes is built from them on the first read of
    ``poset`` and kept.  Its elements are the classes' profiles and its
    labels their representatives' ``format_lx`` text, each decoded or
    formatted on its first read, so a law check that passes reads
    neither.  ``closed()`` extends the carrier with every
    profile reachable by the pointwise operations (complement,
    intersection, union per state).  The closure is the full quotient
    algebra of the model: it no longer depends on the depth bound, and
    on it every meet and join exists, so lattice law checkers can run
    without truncation artifacts.
    """

    model: Model
    depth: int
    classes: tuple[LTClass, ...]
    bits: tuple[int, ...]
    is_closed: bool

    @cached_property
    def poset(self) -> FinitePoset:
        """The classes ordered by slot inclusion of their profiles."""
        classes, n = self.classes, len(self.classes)
        return _inclusion(
            _Lazy(n, lambda i: classes[i].profile), self.bits,
            self.model.kernel.universe.bit_length(),
            _Lazy(n, lambda i: format_lx(classes[i].representative)))

    def closed(self) -> "LTAlgebra":
        m = self.model
        k = m.kernel
        top = k.universe
        order = list(self.bits)
        reps = {v: c.representative for v, c in zip(order, self.classes)}
        _close(order, reps, top, [k.atom(e) for e in m.properties])
        n = len(self.classes)
        classes = self.classes + tuple(
            LTClass(reps[v], v, 0, k) for v in order[n:])
        return LTAlgebra(m, self.depth, classes, tuple(order), True)


def _close(order: list[int], reps: dict[int, Formula], top: int,
           atoms: list[int]) -> None:
    """Extend ``order`` and ``reps`` with every profile that complements
    (against ``top``), intersections and unions reach from ``order``, in
    rounds: each round complements the members it starts with, then
    combines every pair of the members it then holds.

    Every profile is a Boolean combination of the ``atoms``' profiles, so
    the closure lies in the Boolean algebra they generate, which has 2**a
    members for the a cells they cut ``top``'s slots into.  The closure
    fills it whenever ``order`` holds the atoms (at depth 1 and up), and
    the rounds stop as soon as ``order`` holds that many members: nothing
    new can appear after that.
    """
    cells = [top]
    for p in atoms:
        cells = [c for x in cells for c in (x & p, x & ~p) if c]
    full = 1 << len(cells)
    # members [0, negated) are complemented; pairs within [0, paired)
    # were combined by the previous round
    negated = paired = 0
    while len(order) < full:
        size = len(order)
        for p in order[negated:size]:
            w = top ^ p
            if w not in reps:
                reps[w] = Not(reps[p])
                order.append(w)
                if len(order) == full:
                    return
        negated = size
        snapshot = len(order)
        for i in range(snapshot):
            p = order[i]
            rp = reps[p]
            for q in order[paired if i < paired else 0:snapshot]:
                w = p & q
                if w not in reps:
                    reps[w] = And(rp, reps[q])
                    order.append(w)
                    if len(order) == full:
                        return
                w = p | q
                if w not in reps:
                    reps[w] = Or(rp, reps[q])
                    order.append(w)
                    if len(order) == full:
                        return
        paired = snapshot
        if len(order) == size:
            return


def lindenbaum_tarski(m: Model, depth: int) -> LTAlgebra:
    """Quotient the formulas of depth <= ``depth`` by logical equivalence.

    Classes are keyed by extension profile, in order of their first
    member in canonical enumeration order, which is their representative.

    The formulas are counted, not enumerated (:func:`_levels`, keyed by
    kernel profile), so the work grows with the pairs of classes per
    level, not with the formulas.
    """
    k = m.kernel
    top = k.universe

    def profiles(ops) -> list[int]:
        return [top ^ a if b is None else a & b if c is And else a | b
                for c, a, b in ops]

    total = _levels(((k.atom(p), Atom(p)) for p in m.properties), depth,
                    [Not], [And, Or], profiles)
    classes = tuple(LTClass(f, v, n, k) for v, (n, f) in total.items())
    return LTAlgebra(m, depth, classes, tuple(total), False)
