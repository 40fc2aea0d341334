"""Finite posets, ortholattices and law checkers.

Posets hold opaque element payloads with display labels; all relations
are stored index-based as boolean numpy matrices.  Law checkers return a
:class:`LawReport` of named pass/fail results with witnesses instead of
raising, so that expected failures (distributivity in quantum lattices,
orthomodularity in the hexagon fixture) can be inspected.

Meet and join tables are computed from the order alone (never from the
payloads), so callers can compare them with operations computed
elsewhere.  Tables and covers are derived once per poset: a
:class:`FinitePoset` computes its meet and join tables and its cover
matrix on first use and caches them, and every checker reads that copy.
A table is built from the down-sets packed into 64-bit words, the
bit-vector encoding of the order of Ait-Kaci, Boyer, Lincoln & Nasr
("Efficient implementation of lattice operations", ACM TOPLAS 11(1),
1989).  With the elements ordered by down-set size, largest first, a
pair's only candidate glb is the first set bit of the AND of their
words, and it is the glb exactly when its down-set is as large as the
pair's count of common lower bounds, which one float32 product of the
order gives for all pairs: O(n^2 * ceil(n/64)) word operations, done by
numpy in bands of rows.  Law checks are numpy row slabs of at most
n x n entries, so memory stays O(n^2); laws over pairs cost O(n^2)
work.  Only the laws over triples (the modular law, and the distributive
laws' witness scan) cost O(n^3): each is evaluated for one value of its
first variable at a time over all n x n values of the others, in n
slabs.  Distributivity is decided before that, by the
fact that a finite lattice is distributive exactly when every
join-irreducible element is join-prime (Birkhoff, "Rings of sets", Duke
Math. J. 1937; Davey & Priestley, *Introduction to Lattices and Order*,
2nd ed. 2002, ch. 5): once the lower covers are known, O(n^2 * |J|)
work for the |J| join-irreducibles.  Only a lattice that is not
distributive falls back to the O(n^3) slabs, which find the witnesses.
Witnesses are the lexicographically first violating tuple, the order a
nested scan would meet them in.  See Freese, Jezek & Nation, *Free
Lattices* (AMS 1995) for the finite lattice algorithms.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    MeetJoinMissing,
    NotAPartialOrder,
    QlpropError,
    SearchCapExceeded,
)

__all__ = [
    "FinitePoset", "build_poset",
    "LawCheck", "LawReport", "check_boolean",
    "OrthoLattice", "check_ortho_modular",
    "order_isomorphic", "export_dot", "set_label", "powerset_lattice",
    "hexagon",
]


@dataclass
class FinitePoset:
    """A finite partial order over opaque payloads.

    The order fixes the meet and join tables and the cover matrix; each
    is derived on first use, cached on the instance and returned
    read-only.  ``leq`` must not be mutated after construction.
    ``elements`` and ``labels`` are tuples, or :class:`_Lazy` sequences
    that make each item on its first read.
    """

    elements: Sequence
    labels: Sequence[str]
    leq: np.ndarray  # boolean (n, n); leq[i, j] means elements[i] <= elements[j]

    @property
    def n(self) -> int:
        return len(self.elements)

    def index_of(self, element) -> int:
        """Index of a payload, located by equality (works for unhashables)."""
        for i, e in enumerate(self.elements):
            if e == element:
                return i
        raise KeyError(f"element not in poset: {element!r}")

    def bottom_index(self) -> int | None:
        hits = np.flatnonzero(self.leq.all(axis=1))
        return int(hits[0]) if hits.size else None

    def top_index(self) -> int | None:
        hits = np.flatnonzero(self.leq.all(axis=0))
        return int(hits[0]) if hits.size else None

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, tuple | None]:
        meet, has_meet = _glb_table(self.leq)
        join, has_join = _glb_table(self.leq.T)
        meet.flags.writeable = join.flags.writeable = False
        hit = _first(~(has_meet & has_join))
        missing = None if hit is None else (
            "join" if has_meet[hit] else "meet", *hit)
        return meet, join, missing

    def meet_join_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Meet and join index tables of the poset, from the order alone.

        Raises :class:`MeetJoinMissing` at the first pair (i, j) in
        row-major order that lacks a meet or a join, naming the meet when
        both are missing.
        """
        meet, join, missing = self._tables
        if missing is not None:
            what, i, j = missing
            raise MeetJoinMissing(
                f"no {what} for {self.labels[i]!r} and {self.labels[j]!r}",
                witness=(i, j))
        return meet, join

    @cached_property
    def _covers(self) -> np.ndarray:
        cm = _cover_matrix(self.leq)
        cm.flags.writeable = False
        return cm

    def cover_matrix(self) -> np.ndarray:
        """Boolean (n, n) matrix: ``[i, j]`` when j covers i."""
        return self._covers

    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram edges as (lower, upper) index pairs."""
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self._covers))]

    def atom_indices(self) -> list[int]:
        """Elements covering the bottom (requires a bottom)."""
        b = self.bottom_index()
        if b is None:
            return []
        return [int(j) for j in np.flatnonzero(self._covers[b, :])]


_UNREAD = object()


class _Lazy(Sequence):
    """A read-only sequence of ``n`` items whose item i is ``make(i)``,
    made on its first read and kept.

    :func:`build_poset` keeps such a sequence as it is, so a poset's
    elements and labels cost nothing until something reads them.
    """

    def __init__(self, n: int, make: Callable[[int], object]):
        self._make = make
        self._items = [_UNREAD] * n

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        # a range indexes as a tuple does: negatives, slices, IndexError
        i = range(len(self._items))[i]
        if isinstance(i, range):
            return tuple(self[j] for j in i)
        v = self._items[i]
        if v is _UNREAD:
            v = self._items[i] = self._make(i)
        return v


def set_label(members, order: Sequence) -> str:
    """``{a, b}``: the members of a set, listed in ``order``."""
    return "{" + ", ".join(str(x) for x in order if x in members) + "}"


def build_poset(elements: Sequence, leq: Callable | np.ndarray,
                labels: Sequence[str] | None = None) -> FinitePoset:
    """Build and validate a poset from payloads and an order predicate
    (or a precomputed boolean matrix).

    The payloads and labels are copied into tuples, except a
    :class:`_Lazy` sequence, which is kept uncopied.  Every order is
    checked for reflexivity, antisymmetry and transitivity; a label is
    read only to name a failure.
    """
    els = elements if isinstance(elements, _Lazy) else tuple(elements)
    n = len(els)
    if callable(leq):
        mat = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                mat[i, j] = bool(leq(els[i], els[j]))
    else:
        mat = np.asarray(leq, dtype=bool)
        if mat.shape != (n, n):
            raise NotAPartialOrder(f"matrix shape {mat.shape} for {n} elements")
    if labels is None:
        labels = tuple(str(e) for e in els)
    elif not isinstance(labels, _Lazy):
        labels = tuple(labels)
    if len(labels) != n:
        raise NotAPartialOrder(f"{len(labels)} labels for {n} elements")

    hit = _first(~mat.diagonal())
    if hit is not None:
        i, = hit
        raise NotAPartialOrder(f"not reflexive at {labels[i]!r}",
                               witness=(els[i],))
    both = mat & mat.T & ~np.eye(n, dtype=bool)
    if both.any():
        i, j = map(int, next(zip(*np.nonzero(both))))
        raise NotAPartialOrder(
            f"antisymmetry fails between {labels[i]!r} and {labels[j]!r}",
            witness=(els[i], els[j]))
    # counts paths of length two with a BLAS product; each count is at
    # most n, so exact in float32
    f = mat.astype(np.float32)
    gap = ((f @ f) > 0) & ~mat
    if gap.any():
        i, j = map(int, next(zip(*np.nonzero(gap))))
        k = int(np.nonzero(mat[i] & mat[:, j])[0][0])
        raise NotAPartialOrder(
            f"transitivity fails from {labels[i]!r} via {labels[k]!r} "
            f"to {labels[j]!r}", witness=(els[i], els[k], els[j]))
    return FinitePoset(els, labels, mat)


def _inclusion(bits: Sequence[int], width: int) -> np.ndarray:
    """The inclusion order of sets given as bitmasks of at most ``width``
    bits: ``leq[i, j]`` when every bit of ``bits[i]`` is set in
    ``bits[j]``.

    Row i of ``b`` holds the bits of set i, so ``(b @ (1 - b).T)[i, j]``
    counts the bits of i missing from j; a count is at most ``width``,
    below 2**24, so the float32 product is exact.
    """
    nbytes = (width + 7) // 8
    raw = b"".join(v.to_bytes(nbytes, "little") for v in bits)
    rows = np.frombuffer(raw, np.uint8).reshape(len(bits), nbytes)
    b = np.unpackbits(rows, axis=1, count=width,
                      bitorder="little").astype(np.float32)
    return (b @ (1 - b).T) == 0


# ---------------------------------------------------------------------------
# Law reports


@dataclass(frozen=True)
class LawCheck:
    law: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class LawReport:
    checks: tuple[LawCheck, ...]

    def __getitem__(self, law: str) -> LawCheck:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    def passed(self, law: str) -> bool:
        return self[law].passed

    def all_passed(self, exclude: Sequence[str] = ()) -> bool:
        return all(c.passed for c in self.checks if c.law not in exclude)


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true entry of ``bad`` in row-major order."""
    if not bad.size:
        return None
    k = int(bad.argmax())
    if not bad.flat[k]:
        return None
    return tuple(int(i) for i in np.unravel_index(k, bad.shape))


def _first_slab(n: int, slab: Callable[[int], np.ndarray]
                ) -> tuple[int, ...] | None:
    """Lexicographically first ``(x, *rest)`` with ``slab(x)[rest]`` true.

    ``slab(x)`` evaluates a law for one value of its first variable over
    all values of the others, so only n slabs are built, one at a time.
    """
    for x in range(n):
        hit = _first(slab(x))
        if hit is not None:
            return (x, *hit)
    return None


def _join_prime(p: FinitePoset, join: np.ndarray) -> bool:
    """Whether every join-irreducible element of the lattice is join-prime.

    The join-irreducibles are the elements with exactly one lower cover;
    j is join-prime when j <= a v b forces j <= a or j <= b.  Only pairs
    with both a and b outside the up-set of j can break that, so each j
    costs one slab over those pairs.
    """
    for up in p.leq[p.cover_matrix().sum(axis=0) == 1]:
        out = np.flatnonzero(~up)
        if up[join[np.ix_(out, out)]].any():
            return False
    return True


# Rows of the glb table computed at once: each word pass forms a few
# (_BAND, n) temporaries, so they stay O(n) however large the order.
_BAND = 32


def _glb_table(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greatest-lower-bound table of a partial order and the mask of the
    pairs that have one.

    Order: the elements are sorted by down-set size, largest first (a
    stable argsort), so m < m' puts m after m'.  Candidate: each
    down-set is packed into uint64 words in that order, and the
    candidate glb of (i, j) is their first common lower bound, the
    lowest set bit of the first nonzero word of down(i) & down(j).  The
    words are read last to first; the lowest set bit of a word x is the
    power of two x & -x, whose exponent ``np.frexp`` reads exactly.
    Check: the candidate c is the glb exactly when |down(c)| equals
    |L(i, j)|, the number of common lower bounds, which the float32
    product ``leq.T @ leq`` counts exactly (each count is at most n,
    below 2**24); its diagonal holds the down-set sizes.  Proof: c is in
    L(i, j), so down(c) is a subset of L(i, j), and equal sizes make them
    equal.  Conversely the glb m has down(m) = L(i, j), so every other
    member of L(i, j) has a smaller down-set and comes after m.  A pair
    without common lower bounds has a count of 0, below every down-set
    size, so it fails the check whatever its candidate.

    Cost: O(n^2 * ceil(n/64)) word operations plus one float32 product,
    in bands of ``_BAND`` rows over the pairs i <= j (the glb is
    symmetric); memory is O(n^2) for the result and the count, plus
    band-sized temporaries.  Pairs without a glb hold 0.  Run on
    ``leq.T`` the same kernel gives least upper bounds.
    """
    n = leq.shape[0]
    f = leq.astype(np.float32)
    count = f.T @ f
    order = np.argsort(-count.diagonal(), kind="stable")
    size = count.diagonal()[order]
    words = -(-n // 64)
    bits = np.zeros((n, 64 * words), dtype=bool)
    bits[:, :n] = leq[order].T
    # down[w, j]: word w of the down-set of element j, bit p for position p
    down = np.packbits(bits, axis=1, bitorder="little").view("<u8").T.copy()
    table = np.empty((n, n), dtype=int)
    has = np.empty((n, n), dtype=bool)
    for r in range(0, n, _BAND):
        band = slice(r, r + _BAND)
        pos = None
        for w in reversed(range(words)):
            x = down[w, band, None] & down[w, r:]
            e = np.frexp(x & -x)[1]
            at = e + (64 * w - 1)
            # e is 0 on a zero word: a pair whose words are all zero keeps
            # the last word's placeholder and fails the check (count 0)
            pos = at if pos is None else np.where(e, at, pos)
        ok = size.take(pos) == count[band, r:]
        found = np.where(ok, order.take(pos), 0)
        has[band, r:], has[r:, band] = ok, ok.T
        table[band, r:], table[r:, band] = found, found.T
    return table, has


def _cover_matrix(leq: np.ndarray) -> np.ndarray:
    """Cover relation of a partial order: i < j with nothing in between."""
    less = leq & ~np.eye(leq.shape[0], dtype=bool)
    # counts paths of length two with a BLAS product; each count is at
    # most n, so exact in float32
    f = less.astype(np.float32)
    return less & ~((f @ f) > 0)


def _labels(p: FinitePoset, hit: tuple[int, ...] | None) -> tuple | None:
    return None if hit is None else tuple(p.labels[i] for i in hit)


def check_boolean(p: FinitePoset) -> LawReport:
    """Check the Boolean lattice laws on a finite poset.

    Requires every binary meet and join to exist (raises
    :class:`MeetJoinMissing` otherwise).  Laws checked: boundedness, both
    distributivity directions, existence and uniqueness of complements.

    Cost: the meet and join tables, built once per poset, take
    O(n^2 * ceil(n/64)) word operations on packed down-sets plus one
    float32 product of the order each, and O(n^2) memory; the complement
    count takes O(n^2) numpy work.  Both distributive laws hold exactly
    when every join-irreducible element is join-prime (Birkhoff 1937;
    Davey & Priestley 2002, ch. 5), which costs one matrix product for
    the lower covers (also built once per poset) and O(n^2 * |J|) for
    the |J| join-irreducibles.  Only when that fails are the laws
    evaluated cell by cell, O(n^3) work in n row slabs of n x n entries
    (one per first variable), to find the witnesses.  A failed law's
    witness is the lexicographically first violating tuple of element
    labels.
    """
    meet, join = p.meet_join_tables()
    checks: list[LawCheck] = []
    bot, top = p.bottom_index(), p.top_index()
    checks.append(LawCheck("bounded", bot is not None and top is not None))

    if _join_prime(p, join):
        checks.append(LawCheck("distributive_meet_over_join", True))
        checks.append(LawCheck("distributive_join_over_meet", True))
    else:
        # x ^ (y v z) == (x ^ y) v (x ^ z), over all (y, z) for one x
        w = _labels(p, _first_slab(p.n, lambda x: meet[x].take(join)
                                   != join.take(meet[x], 0).take(meet[x], 1)))
        checks.append(LawCheck("distributive_meet_over_join", w is None, w))
        w = _labels(p, _first_slab(p.n, lambda x: join[x].take(meet)
                                   != meet.take(join[x], 0).take(join[x], 1)))
        checks.append(LawCheck("distributive_join_over_meet", w is None, w))

    if bot is not None and top is not None:
        comps = ((meet == bot) & (join == top)).sum(axis=1)
        hit = _first(comps != 1)
        bad = None if hit is None else (p.labels[hit[0]], int(comps[hit[0]]))
        checks.append(LawCheck("unique_complement", bad is None, bad))
    else:
        checks.append(LawCheck("unique_complement", False, None))
    return LawReport(tuple(checks))


# ---------------------------------------------------------------------------
# Ortholattices


@dataclass
class OrthoLattice:
    """A bounded lattice with an orthocomplementation.

    ``ortho`` maps each element index to its orthocomplement's index.
    ``meet`` and ``join`` are the poset's glb/lub index tables, read from
    :meth:`FinitePoset.meet_join_tables`, so they have one source, the
    order.  Construction raises :class:`MeetJoinMissing` at the first
    pair without a meet or a join, then when top or bottom is missing,
    and :class:`QlpropError` when ``ortho`` is not a permutation; the
    orthocomplementation laws themselves are examined by
    :func:`check_ortho_modular`.
    """

    poset: FinitePoset
    ortho: np.ndarray
    meet: np.ndarray = field(init=False)
    join: np.ndarray = field(init=False)
    bottom: int = field(init=False)
    top: int = field(init=False)

    def __post_init__(self):
        p = self.poset
        self.meet, self.join = p.meet_join_tables()
        bot, top = p.bottom_index(), p.top_index()
        if bot is None or top is None:
            raise MeetJoinMissing("ortholattice must be bounded")
        self.bottom, self.top = bot, top
        self.ortho = np.asarray(self.ortho, dtype=int)
        if sorted(self.ortho.tolist()) != list(range(p.n)):
            raise QlpropError("ortho table is not a permutation")

    @property
    def n(self) -> int:
        return self.poset.n


def check_ortho_modular(l: OrthoLattice) -> LawReport:
    """Pass/fail report for ortholattice axioms on a finite structure.

    Checked: involution, order reversal and complementation of the
    orthomap; the orthomodular law; atomicity and atomisticity; the
    covering law; and plain modularity.  Modularity is informational only
    (quantum state lattices need not be modular), so callers should
    exclude it when asserting.

    Cost: the modular law is O(n^3) numpy work in n row slabs of n x n
    entries; every other law is O(n^2).  Memory stays O(n^2).  A failed
    law's witness is the lexicographically first violating tuple of
    element labels (the covering law orders its pairs atom first and
    reports them as (element, atom)).
    """
    p, n = l.poset, l.n
    leq, meet, join = p.leq, l.meet, l.join
    o = np.asarray(l.ortho)
    idx = np.arange(n)
    checks: list[LawCheck] = []

    w = _labels(p, _first(o[o] != idx))
    checks.append(LawCheck("ortho_involution", w is None, w))

    # i <= j must give j' <= i'
    w = _labels(p, _first(leq & ~leq[np.ix_(o, o)].T))
    checks.append(LawCheck("ortho_order_reversal", w is None, w))

    w = _labels(p, _first((meet[idx, o] != l.bottom)
                          | (join[idx, o] != l.top)))
    checks.append(LawCheck("ortho_complement", w is None, w))

    # i <= j must give i v (i' ^ j) == j
    w = _labels(p, _first(leq & (np.take_along_axis(join, meet[o], axis=1)
                                 != idx)))
    checks.append(LawCheck("orthomodular", w is None, w))

    atoms = np.asarray(p.atom_indices(), dtype=int)
    w = _labels(p, _first((idx != l.bottom) & ~leq[atoms].any(axis=0)))
    checks.append(LawCheck("atomic", w is None, w))

    # join of the atoms below each element, folded in atom order
    acc = np.full(n, l.bottom)
    for a in atoms:
        acc = np.where(leq[a], join[acc, a], acc)
    w = _labels(p, _first(acc != idx))
    checks.append(LawCheck("atomistic", w is None, w))

    # row k, column i: atom a = atoms[k] with i ^ a = 0 must have i v a cover i
    up = join[:, atoms].T
    hit = _first((meet[:, atoms].T == l.bottom) & (up != idx)
                 & ~p.cover_matrix()[idx, up])
    w = None if hit is None else (p.labels[hit[1]], p.labels[atoms[hit[0]]])
    checks.append(LawCheck("covering", w is None, w))

    # a <= c must give a v (b ^ c) == (a v b) ^ c, over all (b, c) for one a
    w = _labels(p, _first_slab(n, lambda a: leq[a] & (
        join[a].take(meet) != meet.take(join[a], 0))))
    checks.append(LawCheck("modular", w is None, w))
    return LawReport(tuple(checks))


# ---------------------------------------------------------------------------
# Isomorphism and export


def order_isomorphic(a: FinitePoset, b: FinitePoset,
                     cap: int = 12) -> dict[int, int] | None:
    """Backtracking search for an order isomorphism; None if there is none.

    Capped by element count (default 12) to keep the search bounded;
    raises :class:`SearchCapExceeded` beyond the cap.
    """
    if a.n != b.n:
        return None
    if a.n > cap:
        raise SearchCapExceeded(
            f"isomorphism search capped at {cap} elements, got {a.n}")
    n = a.n

    def signature(p: FinitePoset, i: int) -> tuple:
        return (int(p.leq[i, :].sum()), int(p.leq[:, i].sum()))

    sig_a = [signature(a, i) for i in range(n)]
    sig_b = [signature(b, i) for i in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return None
    mapping: dict[int, int] = {}
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or sig_a[i] != sig_b[j]:
                continue
            ok = True
            for k, jk in mapping.items():
                if (a.leq[i, k] != b.leq[j, jk]
                        or a.leq[k, i] != b.leq[jk, j]):
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                del mapping[i]
                used[j] = False
        return False

    return dict(mapping) if extend(0) else None


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(p: FinitePoset) -> str:
    """Hasse diagram in DOT syntax, edges pointing upward."""
    lines = ["digraph {", "  rankdir=BT;"]
    for lab in p.labels:
        lines.append(f"  {_dot_quote(lab)};")
    for i, j in p.covers():
        lines.append(f"  {_dot_quote(p.labels[i])} -> {_dot_quote(p.labels[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fixtures


def powerset_lattice(items: Sequence) -> FinitePoset:
    """The lattice of all subsets of ``items``, ordered by inclusion."""
    base = list(items)
    subsets = [frozenset(c) for r in range(len(base) + 1)
               for c in itertools.combinations(base, r)]
    bit = {x: 1 << i for i, x in enumerate(base)}
    return build_poset(
        subsets, _inclusion([sum(map(bit.get, s)) for s in subsets], len(base)),
        [set_label(s, base) for s in subsets])


def hexagon() -> OrthoLattice:
    """The six-element benzene-ring ortholattice.

    An ortholattice that is *not* orthomodular: with the two chains
    0 < a < b < 1 and 0 < c < d < 1 and complements a' = d, b' = c, the
    pair a <= b violates b = a v (a' ^ b).  Useful as the negative
    fixture for the orthomodularity checker.
    """
    labels = ["0", "a", "b", "c", "d", "1"]
    n = 6
    leq = np.eye(n, dtype=bool)
    order = {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
             (1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)}
    for i, j in order:
        leq[i, j] = True
    p = build_poset(labels, leq, labels)
    return OrthoLattice(p, [5, 4, 3, 2, 1, 0])
