"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check.  The universal-proposition oracle (which imports nothing from
``qlprop.semantics``) evaluates formulas with its own set algebra and
intersects over every interpretation instead of testing extensions for
fullness; the closure oracle enumerates formulas itself and closes their
quotient round by round with the same set algebra.  The subspace oracle
works on projector matrices instead of basis rows, as does the
orthogonality oracle, the subspace-closure reference adds its results
one at a time after a pairwise containment scan of its own (only the
subspace kernels are shared), the witness oracles
(which import nothing from ``qlprop.hilbert`` or ``qlprop.quantum``)
reduce quantum formulas with projectors and SVD null spaces or
eigenvalues, node by node, and the
lattice oracle (which imports nothing from ``qlprop.lattice``) finds
bounds and law violations by explicit scans over nested lists, and the
glb-table oracle is the one dict lookup per pair of down-set bitmasks
that the packed-word table kernel replaced.  The
tokenizer oracle is the hand-written character loop that the syntax
module's compiled token tables replaced.

The reference checkers are the exception: they are the quantum and
assertive checkers written as per-(class, state) and per-pair loops
over the public single-query functions (``q_truth``, ``justified``,
``tq_physical_proposition``), with the classes found by grouping
:func:`oracle_tq_formulas` by ``witness_property``.  They pin the
checkers, which count the formulas per witness class without building
them.  The sec3 reference loops over every pair of
formulas with the set-algebra evaluator; the cm reference loops over
every formula with it, and reads its quotient-algebra law lines from the
lattice oracle over the closure oracle's profiles.  They pin the suites,
which loop over the Lindenbaum-Tarski classes instead.  The
testable-poset reference also loops over every formula; it pins the
testable poset, which reads the declared properties alone.  The quotient
oracle groups every formula by its set-algebra profile; it pins
``lindenbaum_tarski``, which counts the classes per depth without
building the formulas.
"""

from __future__ import annotations

import itertools
import random
import re

import numpy as np

from qlprop.errors import (
    ClassicalConnectiveInTQ,
    ClosureCapExceeded,
    NoHilbertAnnotation,
    NotOperationClosed,
    ParseError,
    UnknownConnective,
    UnknownProperty,
)
from qlprop.model import Model, build_qm_model, m_qbit, make_model
from qlprop.syntax import A, And, Assert, Atom, K, N, Not, Or, QNot

# ---------------------------------------------------------------------------
# oracles


def _set_extension(m: Model, state: str, f) -> frozenset:
    """Objects satisfying a classical formula in a state, by set algebra on
    the model's extension data."""
    if isinstance(f, Atom):
        return m.extensions[state][f.prop]
    if isinstance(f, Not):
        return frozenset(m.universes[state]) - _set_extension(m, state, f.inner)
    left = _set_extension(m, state, f.left)
    right = _set_extension(m, state, f.right)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    raise TypeError(f"not a classical formula node: {f!r}")


def brute_force_physical(m: Model, f) -> frozenset:
    """States where f holds under every interpretation, by enumerating
    every choice of one object per state."""
    ext = {s: _set_extension(m, s, f) for s in m.states}
    out = frozenset(m.states)
    for combo in itertools.product(*(m.universes[s] for s in m.states)):
        out &= frozenset(s for s, o in zip(m.states, combo) if o in ext[s])
        if not out:
            break
    return out


def oracle_individual(m: Model, interp, f) -> frozenset:
    """States where f holds under one interpretation, by the set algebra
    of :func:`_set_extension`."""
    return frozenset(s for s in m.states
                     if interp[s] in _set_extension(m, s, f))


def oracle_formulas(props, depth: int, unary=(Not,),
                    binary=(And, Or)) -> list:
    """Formulas up to AST depth in the canonical order: the atoms, then per
    depth d each unary constructor over the formulas of depth d - 1, then
    each binary constructor over the pairs of earlier formulas whose
    deepest member has depth d - 1 (pairs in row-major order).  The
    default constructors give the classical language; ``(QNot,)`` and
    ``(And,)`` the quantum one."""
    items = [Atom(p) for p in props] if depth >= 1 else []
    depths = [1] * len(items)
    for d in range(2, depth + 1):
        prev = list(zip(items, depths))
        fresh = [c(f) for c in unary for f, df in prev if df == d - 1]
        for ctor in binary:
            fresh += [ctor(f, g) for f, df in prev for g, dg in prev
                      if max(df, dg) == d - 1]
        items += fresh
        depths += [d] * len(fresh)
    return items


def oracle_tq_formulas(props, depth: int) -> list:
    """Quantum formulas up to AST depth in the canonical order."""
    return oracle_formulas(props, depth, (QNot,), (And,))


def reference_sec3_lines(m: Model, depth: int) -> list[str]:
    """The lines of ``check --suite sec3``, by a loop over every pair of
    formulas from :func:`oracle_formulas`, with extensions from the set
    algebra of :func:`_set_extension` and a state's proposition holding
    where the extension is the whole universe."""
    from qlprop.syntax import format_lx

    formulas = oracle_formulas(m.properties, depth)
    exts = [[_set_extension(m, s, f) for s in m.states] for f in formulas]
    univ = [frozenset(m.universes[s]) for s in m.states]

    def prop(ext) -> frozenset:
        return frozenset(s for s, x, u in zip(m.states, ext, univ) if x == u)

    props = [prop(e) for e in exts]
    everything = frozenset(m.states)
    lines = []
    neg_ok, neg_strict = True, None
    for f, e, p in zip(formulas, exts, props):
        pn = prop([u - x for u, x in zip(univ, e)])
        if pn & p:
            neg_ok = False
        elif neg_strict is None and pn != everything - p:
            neg_strict = format_lx(f)
    lines.append(f"{'PASS' if neg_ok else 'FAIL'} negation proposition below "
                 "set complement")
    if neg_strict:
        lines.append(f"REPORT strict negation inclusion at {neg_strict!r}")
    conj_ok, disj_ok, strict = True, True, None
    for a, ea, pa in zip(formulas, exts, props):
        for b, eb, pb in zip(formulas, exts, props):
            if prop([x & y for x, y in zip(ea, eb)]) != pa & pb:
                conj_ok = False
            por = prop([x | y for x, y in zip(ea, eb)])
            if (pa | pb) - por:
                disj_ok = False
            elif strict is None and pa | pb != por:
                strict = (format_lx(a), format_lx(b))
    lines.append(f"{'PASS' if conj_ok else 'FAIL'} conjunction proposition "
                 "equals intersection")
    lines.append(f"{'PASS' if disj_ok else 'FAIL'} disjunction proposition "
                 "above union")
    if strict:
        lines.append(f"REPORT strict disjunction inclusion at {strict!r}")
    return lines


def _profile(m: Model, f) -> tuple:
    return tuple(_set_extension(m, s, f) for s in m.states)


def _full_states(m: Model, profile) -> frozenset:
    """States whose extension in ``profile`` is the whole universe."""
    return frozenset(s for s, x in zip(m.states, profile)
                     if x == frozenset(m.universes[s]))


def _atom_profiles(m: Model) -> set:
    """The profiles of the declared properties: a formula is testable
    exactly when its profile is one of them."""
    return {_profile(m, Atom(e)) for e in m.properties}


def reference_cm_lines(m: Model, depth: int, assume_cmt: bool) -> list[str]:
    """The lines of ``check --suite cm``.  Those before the
    quotient-algebra laws come from loops over every formula up to depth
    2 from :func:`oracle_formulas` and over every interpretation, with
    extensions from the set algebra of :func:`_set_extension`; the law
    lines from the lattice oracles, run on the profiles of
    :func:`naive_closure` at ``depth`` ordered by pointwise inclusion and
    labelled by their representatives."""
    from qlprop.syntax import format_lx

    def passfail(ok: bool, what: str, extra: str = "") -> str:
        return f"{'PASS' if ok else 'FAIL'} {what}" + (
            f": {extra}" if extra else "")

    witness = next(((s, e) for s in m.states for e in m.properties
                    if m.extensions[s][e]
                    and set(m.extensions[s][e]) != set(m.universes[s])), None)
    lines = [passfail(witness is None, "every extension full or empty",
                      f"witness {witness}" if witness else "")]
    formulas = oracle_formulas(m.properties, min(depth, 2))
    profiles = [_profile(m, f) for f in formulas]
    lines.append(passfail(
        all(x in (frozenset(), frozenset(m.universes[s]))
            for p in profiles for s, x in zip(m.states, p)),
        "truth independent of the interpretation"))
    interps = list(itertools.product(*(m.universes[s] for s in m.states)))
    if len(interps) <= 10 ** 4:
        lines.append(passfail(
            all(oracle_individual(m, dict(zip(m.states, combo)), f)
                == _full_states(m, p)
                for combo in interps for f, p in zip(formulas, profiles)),
            "individual propositions collapse to physical"))
    atoms = _atom_profiles(m)
    untestable = [f for f, p in zip(formulas, profiles) if p not in atoms]
    if assume_cmt:
        lines.append(passfail(
            not untestable, "every formula testable",
            f"{len(untestable)} formulas lack a witness, first "
            f"{format_lx(untestable[0])!r}" if untestable else ""))
    elif untestable:
        lines.append(f"REPORT {len(untestable)} of {len(formulas)} formulas "
                     "lack a testable witness")
    closure = naive_closure(m, depth)
    labels = [format_lx(rep) for rep, _, _ in closure]
    leq = [[all(x <= y for x, y in zip(p, q)) for _, q, _ in closure]
           for _, p, _ in closure]
    meet, join, missing = oracle_tables(leq)
    assert missing is None, missing
    n = len(leq)
    laws = {"bounded": (any(all(row) for row in leq)
                        and any(all(row[k] for row in leq)
                                for k in range(n)), None)}
    for law, hit in oracle_boolean_witnesses(meet, join).items():
        laws[law] = (hit is None,
                     None if hit is None else tuple(labels[i] for i in hit))
    bad = oracle_complement_witness(leq, meet, join)
    laws["unique_complement"] = (bad is None, None if bad is None
                                 else (labels[bad[0]], bad[1]))
    for law, (ok, witness) in laws.items():
        lines.append(passfail(ok, f"quotient algebra law {law}",
                              "" if ok else f"witness {witness}"))
    return lines


def reference_lindenbaum(m: Model, depth: int) -> list[tuple]:
    """The quotient of the formulas up to ``depth`` by profile, as
    ``(representative, profile, size)`` triples: the formulas from
    :func:`oracle_formulas` grouped by their set-algebra profile, in
    order of each class's first formula, which is its representative."""
    reps: dict = {}
    sizes: dict = {}
    for f in oracle_formulas(m.properties, depth):
        p = _profile(m, f)
        reps.setdefault(p, f)
        sizes[p] = sizes.get(p, 0) + 1
    return [(reps[p], p, sizes[p]) for p in reps]


def reference_testable_labels(m: Model, depth: int) -> list[str]:
    """The element labels of the testable-proposition poset: the physical
    proposition of each formula from :func:`oracle_formulas` whose
    profile is some declared property's, in order of its first such
    formula, with states listed in declaration order."""
    atoms = _atom_profiles(m)
    profiles = [_profile(m, f) for f in oracle_formulas(m.properties, depth)]
    props = dict.fromkeys(_full_states(m, p) for p in profiles if p in atoms)
    return ["{" + ", ".join(s for s in m.states if s in p) + "}"
            for p in props]


def naive_closure(m: Model, depth: int) -> list[tuple]:
    """The closed quotient of the formulas up to ``depth``, as
    ``(representative, profile, size)`` triples in class order.

    Classes are keyed by frozenset profiles in first-enumeration order,
    then closed by :func:`naive_close`.
    """
    classes: dict = {}
    for f in oracle_formulas(m.properties, depth):
        prof = tuple(_set_extension(m, s, f) for s in m.states)
        rep, size = classes.get(prof, (f, 0))
        classes[prof] = (rep, size + 1)
    return naive_close(m, [(rep, prof, size)
                           for prof, (rep, size) in classes.items()])


def naive_close(m: Model, start) -> list[tuple]:
    """``start``, a list of ``(representative, profile, size)`` triples
    with pairwise different frozenset profiles, closed under the pointwise
    operations and returned as such triples in class order; added
    classes have size 0.

    Each round complements every member, then applies And and Or to
    every pair of the round's snapshot, until a round adds nothing.
    """
    reps = {prof: rep for rep, prof, _ in start}
    sizes = {prof: size for _, prof, size in start}
    order = [prof for _, prof, _ in start]
    univ = [frozenset(m.universes[s]) for s in m.states]

    def note(prof, rep):
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
                note(tuple(x & y for x, y in zip(p, q)), And(reps[p], reps[q]))
                note(tuple(x | y for x, y in zip(p, q)), Or(reps[p], reps[q]))
        changed = len(order) != size
    return [(reps[p], p, sizes[p]) for p in order]


def oracle_covers(profiles) -> list[tuple[int, int]]:
    """Hasse edges ``(i, j)`` of pointwise profile inclusion, row-major."""
    n = len(profiles)
    lt = np.array([[i != j and all(x <= y for x, y in zip(p, q))
                    for j, q in enumerate(profiles)]
                   for i, p in enumerate(profiles)], dtype=bool).reshape(n, n)
    between = (lt.astype(np.int64) @ lt.astype(np.int64)) > 0
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(lt & ~between))]


def projector_join(pa: np.ndarray, pb: np.ndarray, thresh=1e-6) -> np.ndarray:
    """Projector onto the span of two projector ranges.

    Eigenvectors of pa + pb with nonzero eigenvalue span the joint
    range; the threshold separates them from numerical zeros.
    """
    w, v = np.linalg.eigh(pa + pb)
    cols = v[:, w > thresh]
    return cols @ cols.conj().T


def projector_meet(pa: np.ndarray, pb: np.ndarray, thresh=1e-6) -> np.ndarray:
    """Projector onto the intersection of two projector ranges.

    A unit vector lies in both ranges exactly when its pa + pb
    eigenvalue is 2.
    """
    w, v = np.linalg.eigh(pa + pb)
    cols = v[:, np.abs(w - 2.0) < thresh]
    return cols @ cols.conj().T


# ---------------------------------------------------------------------------
# witness oracle: quantum formulas reduced with projector matrices


def span_projector(rows, dim: int, thresh=1e-6) -> np.ndarray:
    """Projector onto the span of the given vectors, from their SVD.

    With the vectors as rows of V = U S Vh, the span is spanned by the
    (orthonormal) transposed rows of Vh with nonzero singular value.
    """
    v = np.asarray(rows, dtype=complex).reshape(-1, dim)
    if v.shape[0] == 0:
        return np.zeros((dim, dim), dtype=complex)
    _, sv, vh = np.linalg.svd(v, full_matrices=False)
    w = vh[sv > thresh].T
    return w @ w.conj().T


def null_space_meet(pa: np.ndarray, pb: np.ndarray,
                    thresh=1e-6) -> np.ndarray:
    """Projector onto the intersection of two ranges: the null space of
    the stacked matrix [I - pa; I - pb]."""
    eye = np.eye(pa.shape[0])
    _, sv, vh = np.linalg.svd(np.vstack([eye - pa, eye - pb]))
    n = vh[sv < thresh].conj().T
    return n @ n.conj().T


def projector_equal(rows_a, rows_b, tol: float) -> bool | None:
    """Mutual containment of two row-orthonormal bases, with no rank test.

    Each row of one basis must leave a residual of at most ``tol``
    against the other's projector (the sum of its rows' outer products).
    Returns None when some residual lies so close to ``tol`` that
    rounding could decide it.
    """
    def residuals(rows, other):
        p = other.T @ other.conj()
        return [np.linalg.norm(v - p @ v) for v in rows]

    a = np.asarray(rows_a, dtype=complex)
    b = np.asarray(rows_b, dtype=complex)
    res = residuals(b, a) + residuals(a, b)
    if any(abs(r - tol) < 1e-14 + 1e-9 * tol for r in res):
        return None
    return all(r <= tol for r in res)


def reference_closure(dim: int, generators, cap: int) -> list:
    """The subspace closure in full rounds with a pairwise scan: the
    closure as it was before its rounds became semi-naive.

    Every round complements every element it starts with, then takes
    meet before join for every pair i < j in row-major order, and adds
    each result in that order unless it equals an element already held.
    Equality is mutual containment at equal rank, at the larger of the
    two tolerances, with the residual norms computed here in the
    arithmetic of one 2-D residual; ``Subspace.__eq__`` is not called.
    Only the kernels come from ``qlprop.hilbert`` (``_operate``), called
    at the generators' largest tolerance, which every result carries.
    """
    from qlprop.hilbert import _operate

    def inside(a, b):  # every row of b lies in a
        r = b.basis.dot(a.basis.conj().T).dot(a.basis)
        x = (b.basis - r).view(float)
        return not any(n > max(a.tol, b.tol)
                       for n in np.sqrt((x * x).sum(-1)).tolist())

    if cap < len(generators):
        raise ClosureCapExceeded(
            f"cap {cap} is smaller than the {len(generators)} generators")
    elems: list = []

    def add(s):
        if any(e.rank == s.rank and inside(e, s) and inside(s, e)
               for e in elems):
            return
        if len(elems) + 1 > cap:
            raise ClosureCapExceeded(f"closure exceeds cap {cap}")
        elems.append(s)

    for g in generators:
        assert g.dim == dim
        add(g)
    tol = max((g.tol for g in generators), default=None)
    changed = True
    while changed:
        size = len(elems)
        ops = [("ortho", x, None) for x in elems]
        ops += [(op, elems[i], elems[j]) for i in range(size)
                for j in range(i + 1, size) for op in ("meet", "join")]
        for s in _operate(ops, tol):
            add(s)
        changed = len(elems) != size
    return elems


def oracle_certain(m: Model) -> dict[str, frozenset]:
    """For each property, the states whose ray ``psi`` has a residual
    ``psi - P psi`` of norm at most the larger of the two tolerances,
    with ``P`` the property's :func:`span_projector`."""
    ann = m.hilbert
    out = {}
    for e in m.properties:
        sub = ann.property_subspaces[e]
        p = span_projector(sub.basis, ann.dim)
        out[e] = frozenset(
            s for s in m.states
            if np.linalg.norm((np.eye(ann.dim) - p)
                              @ ann.state_rays[s].basis[0])
            <= max(sub.tol, ann.state_rays[s].tol))
    return out


def oracle_orthogonal(m: Model) -> dict[str, frozenset]:
    """For each property, the states whose ray ``psi`` has ``P psi`` of
    norm at most the larger of the two tolerances, with ``P`` the
    property's :func:`span_projector`."""
    ann = m.hilbert
    out = {}
    for e in m.properties:
        sub = ann.property_subspaces[e]
        p = span_projector(sub.basis, ann.dim)
        out[e] = frozenset(
            s for s in m.states
            if np.linalg.norm(p @ ann.state_rays[s].basis[0])
            <= max(sub.tol, ann.state_rays[s].tol))
    return out


class WitnessOracle:
    """Witnesses, certain-state sets and Q-truth of quantum formulas.

    A property's projector comes from its basis vectors through
    :func:`span_projector`; the complement of P is I - P and a meet is
    :func:`null_space_meet`.  An operation result is matched to the
    first property in declaration order with the same projector.  When
    no property matches, :meth:`witness` returns the missing operation
    as ``(e, "ortho")`` or ``(e, f, "meet")`` instead of a name.
    """

    def __init__(self, m: Model, atol=1e-6):
        ann = m.hilbert
        self.m = m
        self.atol = atol
        self.proj = {e: span_projector(ann.property_subspaces[e].basis, ann.dim)
                     for e in m.properties}
        self.rays = {s: ann.state_rays[s].basis[0] for s in m.states}

    def _match(self, p: np.ndarray) -> str | None:
        for e in self.m.properties:
            if np.allclose(self.proj[e], p, atol=self.atol):
                return e
        return None

    def witness(self, f):
        """Property name, or the missing operation as a tuple."""
        if isinstance(f, Atom):
            return f.prop
        if isinstance(f, QNot):
            inner = self.witness(f.inner)
            if isinstance(inner, tuple):
                return inner
            out = self._match(np.eye(len(self.proj[inner])) - self.proj[inner])
            return (inner, "ortho") if out is None else out
        left = self.witness(f.left)
        if isinstance(left, tuple):
            return left
        right = self.witness(f.right)
        if isinstance(right, tuple):
            return right
        out = self._match(null_space_meet(self.proj[left], self.proj[right]))
        return (left, right, "meet") if out is None else out

    def certain(self, e: str) -> frozenset:
        p = self.proj[e]
        return frozenset(s for s, psi in self.rays.items()
                         if np.linalg.norm(psi - p @ psi) < self.atol)

    def proposition(self, f):
        w = self.witness(f)
        return w if isinstance(w, tuple) else self.certain(w)

    def q_truth(self, state: str, f):
        """QTrue, QFalse or QIndeterminate as a string, or the missing
        operation."""
        pos = self.proposition(f)
        if isinstance(pos, tuple):
            return pos
        if state in pos:
            return "QTrue"
        neg = self.proposition(QNot(f))
        if isinstance(neg, tuple):
            return neg
        return "QFalse" if state in neg else "QIndeterminate"


def decided_by_ranks(ann, key) -> bool:
    """Whether the property table names the complement or meet ``key``
    from its operands' ranks alone: a complement of 0 or of the whole
    space, a meet with 0 or with the whole space, and a meet of a
    property with itself."""
    ranks = [ann.property_subspaces[e].rank for e in key[:-1]]
    if key[-1] == "ortho":
        return ranks[0] in (0, ann.dim)
    return 0 in ranks or ann.dim in ranks or key[0] == key[1]


def oracle_witness(m: Model, f) -> str:
    """The witness of a quantum formula, node by node with projectors.

    An atom's projector is the :func:`span_projector` of its property's
    basis, a complement is I - P and a meet :func:`projector_meet`.  Each
    result is matched to the first declared property whose basis spans
    the same range by :func:`projector_equal` at the property's
    tolerance (a near tie counts as unequal).  The errors are raised
    where the recursion first meets them, in post-order: a missing
    annotation before anything, then an undeclared atom
    (``UnknownProperty``), a node that is neither an atom, ``~q`` nor
    ``&`` (``TypeError``), or an operation without a matching property
    (``NotOperationClosed`` with the operation's key as its witness).
    """
    if m.hilbert is None:
        raise NoHilbertAnnotation("model carries no Hilbert annotation")
    return _projector_witness(m, f)[0]


def _projector_witness(m: Model, f) -> tuple[str, np.ndarray]:
    """:func:`oracle_witness` of ``f`` and its property's projector."""
    ann = m.hilbert
    subs = ann.property_subspaces
    if isinstance(f, Atom):
        if f.prop not in m.properties:
            raise UnknownProperty(f"oracle: no property {f.prop!r}")
        return f.prop, span_projector(subs[f.prop].basis, ann.dim)
    if isinstance(f, QNot):
        e, p = _projector_witness(m, f.inner)
        key, p = (e, "ortho"), np.eye(ann.dim) - p
    elif isinstance(f, And):
        (e, pa), (g, pb) = (_projector_witness(m, f.left),
                            _projector_witness(m, f.right))
        key, p = (e, g, "meet"), projector_meet(pa, pb)
    else:
        raise TypeError(f"oracle: not a quantum formula node: {f!r}")
    w, v = np.linalg.eigh(p)
    rows = v[:, w > 0.5].T  # an orthonormal basis of the range
    for name in m.properties:
        if projector_equal(subs[name].basis, rows, subs[name].tol):
            return name, span_projector(subs[name].basis, ann.dim)
    raise NotOperationClosed(f"oracle: no property realises {key}",
                             witness=key)


# ---------------------------------------------------------------------------
# reference checkers: one public query per (formula, state) and per pair


def reference_tq_equalities(m: Model, depth: int) -> dict:
    """``quantum.check_tq_equalities`` as one proposition query per
    formula's witness, per class's negation and per pair of classes; a
    violation is named by its class's first formula."""
    from qlprop.hilbert import state_lattice
    from qlprop.quantum import tq_physical_proposition, witness_property
    from qlprop.syntax import format_tq, quantum_join

    lat = state_lattice(m)
    formulas = oracle_tq_formulas(m.properties, depth)
    reps: dict = {}
    for f in formulas:
        reps.setdefault(witness_property(m, f), f)

    def idx(f) -> int:
        return lat.poset.index_of(tq_physical_proposition(m, f))

    neg_bad, conj_bad, join_bad = [], [], []
    for f in reps.values():
        if idx(QNot(f)) != lat.ortho[idx(f)]:
            neg_bad.append(format_tq(f))
    strict = None
    for a in reps.values():
        ia = idx(a)
        for b in reps.values():
            ib = idx(b)
            if idx(And(a, b)) != lat.meet[ia, ib]:
                conj_bad.append((format_tq(a), format_tq(b)))
            jf = quantum_join(a, b)
            if idx(jf) != lat.join[ia, ib]:
                join_bad.append((format_tq(a), format_tq(b)))
            union = (tq_physical_proposition(m, a)
                     | tq_physical_proposition(m, b))
            joined = tq_physical_proposition(m, jf)
            if not union <= joined:
                join_bad.append((format_tq(a), format_tq(b), "union not below"))
            elif strict is None and union < joined:
                strict = (format_tq(a), format_tq(b))
    return {"formulas": len(formulas), "classes": len(reps),
            "negation": neg_bad, "conjunction": conj_bad, "join": join_bad,
            "join_strict_witness": strict}


def reference_preservation(m: Model, depth: int) -> tuple:
    """``pragmatic.check_preservation`` as one ``q_truth`` and one
    ``justified`` call per (class, state), and per state of each pair of
    classes: ``(formulas, classes, counterexamples)``, a counterexample
    named by its class's first formula."""
    from qlprop.pragmatic import Justification, justified, to_assertive
    from qlprop.quantum import (
        QTruth,
        q_truth,
        tq_physical_proposition,
        witness_property,
    )
    from qlprop.syntax import format_tq

    formulas = oracle_tq_formulas(m.properties, depth)
    reps: dict = {}
    for f in formulas:
        reps.setdefault(witness_property(m, f), f)
    bad = []
    for f in reps.values():
        af = to_assertive(f)
        for s in m.states:
            qt = q_truth(m, s, f)
            j = justified(m, s, af)
            if (qt is QTruth.TRUE) != (j is Justification.JUSTIFIED):
                bad.append(("truth", format_tq(f), s, str(qt), str(j)))
    for a in reps.values():
        pa = tq_physical_proposition(m, a)
        ta = to_assertive(a)
        for b in reps.values():
            pb = tq_physical_proposition(m, b)
            tb = to_assertive(b)
            phys = pa <= pb
            af_leq = all(
                justified(m, s, tb) is Justification.JUSTIFIED
                for s in m.states
                if justified(m, s, ta) is Justification.JUSTIFIED)
            if phys != af_leq:
                bad.append(("preorder", format_tq(a), format_tq(b),
                            phys, af_leq))
    return len(formulas), len(reps), bad


# ---------------------------------------------------------------------------
# lattice oracle: leq is a nested list of bools, leq[i][j] meaning i <= j


def oracle_glb(leq, i: int, j: int) -> int | None:
    """The lower bound of i and j above every other lower bound, if any."""
    lows = [k for k in range(len(leq)) if leq[k][i] and leq[k][j]]
    best = [k for k in lows if all(leq[m][k] for m in lows)]
    return best[0] if best else None


def oracle_lub(leq, i: int, j: int) -> int | None:
    """The upper bound of i and j below every other upper bound, if any."""
    ups = [k for k in range(len(leq)) if leq[i][k] and leq[j][k]]
    best = [k for k in ups if all(leq[k][m] for m in ups)]
    return best[0] if best else None


def oracle_tables(leq):
    """``(meet, join, None)`` as nested lists, or ``(None, None, missing)``
    where ``missing`` is ``("meet" | "join", i, j)`` at the first pair in
    row-major order lacking a bound (the meet is checked first)."""
    n = len(leq)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        for kind, table, bound in (("meet", meet, oracle_glb),
                                   ("join", join, oracle_lub)):
            k = bound(leq, i, j)
            if k is None:
                return None, None, (kind, i, j)
            table[i][j] = k
    return meet, join, None


def oracle_glb_table(leq) -> tuple[np.ndarray, np.ndarray]:
    """``(table, has)`` as ``lattice._glb_table`` returns them, from one
    dict lookup per pair.

    (i, j) has a glb exactly when its common lower bounds are the
    down-set of one element m, and then m is the glb.  Each down-set is
    one int bitmask, and different elements have different down-sets, so
    the glb of (i, j) is the element whose down-set is the AND of
    theirs.  Pairs without a glb hold 0.  Run on ``leq.T`` it gives
    least upper bounds.
    """
    leq = np.asarray(leq, dtype=bool)
    n = leq.shape[0]
    down = [int.from_bytes(row.tobytes(), "little") for row in
            np.packbits(leq.T, axis=1, bitorder="little")]
    element = {d: k for k, d in enumerate(down)}
    table = np.zeros((n, n), dtype=int)
    has = np.zeros((n, n), dtype=bool)
    for i, j in itertools.product(range(n), repeat=2):
        k = element.get(down[i] & down[j])
        if k is not None:
            table[i, j], has[i, j] = k, True
    return table, has


def first_violation(n: int, arity: int, holds) -> tuple | None:
    """First index tuple in lexicographic order where ``holds`` is false."""
    for t in itertools.product(range(n), repeat=arity):
        if not holds(*t):
            return t
    return None


def oracle_boolean_witnesses(meet, join) -> dict:
    """First violations of both distributive laws, as index triples."""
    n = len(meet)
    return {
        "distributive_meet_over_join": first_violation(
            n, 3, lambda x, y, z:
            meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]),
        "distributive_join_over_meet": first_violation(
            n, 3, lambda x, y, z:
            join[x][meet[y][z]] == meet[join[x][y]][join[x][z]]),
    }


def oracle_complement_witness(leq, meet, join) -> tuple | None:
    """First element without exactly one complement, with that count."""
    n = len(leq)
    bot = next(k for k in range(n) if all(leq[k]))
    top = next(k for k in range(n) if all(row[k] for row in leq))
    for x in range(n):
        count = sum(meet[x][y] == bot and join[x][y] == top
                    for y in range(n))
        if count != 1:
            return x, count
    return None


def oracle_ortho_witnesses(leq, meet, join, ortho) -> dict:
    """First violations of every law ``check_ortho_modular`` reports, as
    index tuples; covering is scanned atom first and reported as
    (element, atom)."""
    n = len(leq)
    bot = next(k for k in range(n) if all(leq[k]))
    top = next(k for k in range(n) if all(row[k] for row in leq))

    def covers(x, y):
        return (x != y and leq[x][y]
                and not any(z not in (x, y) and leq[x][z] and leq[z][y]
                            for z in range(n)))

    atoms = [a for a in range(n) if covers(bot, a)]

    def atom_join(i):
        acc = bot
        for a in atoms:
            if leq[a][i]:
                acc = join[acc][a]
        return acc

    covering = first_violation(
        n, 2, lambda k, i: k >= len(atoms)
        or meet[i][atoms[k]] != bot or join[i][atoms[k]] == i
        or covers(i, join[i][atoms[k]]))
    return {
        "ortho_involution": first_violation(
            n, 1, lambda i: ortho[ortho[i]] == i),
        "ortho_order_reversal": first_violation(
            n, 2, lambda i, j: not leq[i][j] or leq[ortho[j]][ortho[i]]),
        "ortho_complement": first_violation(
            n, 1, lambda i: meet[i][ortho[i]] == bot
            and join[i][ortho[i]] == top),
        "orthomodular": first_violation(
            n, 2, lambda i, j:
            not leq[i][j] or join[i][meet[ortho[i]][j]] == j),
        "atomic": first_violation(
            n, 1, lambda i: i == bot or any(leq[a][i] for a in atoms)),
        "atomistic": first_violation(n, 1, lambda i: atom_join(i) == i),
        "covering": None if covering is None
        else (covering[1], atoms[covering[0]]),
        "modular": first_violation(
            n, 3, lambda a, b, c:
            not leq[a][c] or join[a][meet[b][c]] == meet[join[a][b]][c]),
    }


# ---------------------------------------------------------------------------
# tokenizer oracle: the hand-written character loop the token tables
# replaced, kept frozen; it uses nothing from qlprop.syntax


_ORACLE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_+\-]*")
_ORACLE_IDENT_CHAR_RE = re.compile(r"[A-Za-z0-9_+\-]")


def _oracle_is_ident_char(s: str) -> bool:
    return bool(s) and bool(_ORACLE_IDENT_CHAR_RE.match(s))


def oracle_tokenize(text: str, mode: str) -> list[tuple[str, str, int]]:
    """``(kind, text, pos)`` tokens of ``text`` in the language ``mode``
    (``"lx"``, ``"ltq"`` or ``"prag"``), ending in ``("EOF", "", len(text))``;
    raises the tokenizer's error for a rejected or unexpected character."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            toks.append(("LPAREN", "(", i))
            i += 1
            continue
        if c == ")":
            toks.append(("RPAREN", ")", i))
            i += 1
            continue
        m = _ORACLE_IDENT_RE.match(text, i)
        if m:
            name = m.group()
            kind = "IDENT"
            if mode == "prag" and name in ("N", "K", "A"):
                kind = name
            toks.append((kind, name, i))
            i = m.end()
            continue
        if c == "&":
            toks.append(("AND", "&", i))
            i += 1
            continue
        if c == "!":
            if mode == "lx":
                toks.append(("NOT", "!", i))
                i += 1
                continue
            raise ClassicalConnectiveInTQ(
                "classical negation '!' is not part of the quantum language", i)
        if c == "~":
            if mode == "lx":
                toks.append(("NOT", "~", i))
                i += 1
                continue
            if text[i + 1:i + 2] == "q":
                toks.append(("QNOT", "~q", i))
                i += 2
                continue
            raise ClassicalConnectiveInTQ(
                "classical negation '~' is not part of the quantum language "
                "(write '~q')", i)
        if c == "|":
            nxt = text[i + 1:i + 2]
            if mode == "prag" and nxt == "-":
                toks.append(("ASSERT", "|-", i))
                i += 2
                continue
            if mode == "lx":
                toks.append(("OR", "|", i))
                i += 1
                continue
            if nxt == "q":
                toks.append(("QOR", "|q", i))
                i += 2
                continue
            raise ClassicalConnectiveInTQ(
                "classical disjunction '|' is not part of the quantum "
                "language (write '|q')", i)
        if (text[i:i + 3] == "->q"
                and not _oracle_is_ident_char(text[i + 3:i + 4])):
            if mode == "lx":
                raise UnknownConnective(
                    "quantum connective '->q' is not part of the classical "
                    "language", i)
            toks.append(("SASAKI", "->q", i))
            i += 3
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("EOF", "", n))
    return toks


# ---------------------------------------------------------------------------
# random structure generators (plain `random.Random`, always seeded)


def random_model(rng: random.Random, max_states=4, max_objects=3,
                 max_props=3, cms=False) -> Model:
    states = [f"S{i + 1}" for i in range(rng.randint(1, max_states))]
    props = [f"E{i + 1}" for i in range(rng.randint(1, max_props))]
    universes = {}
    extensions = {}
    for s in states:
        objs = [f"{s.lower()}o{j + 1}"
                for j in range(rng.randint(1, max_objects))]
        universes[s] = objs
        row = {}
        for e in props:
            if cms:
                row[e] = list(objs) if rng.random() < 0.5 else []
            else:
                row[e] = [o for o in objs if rng.random() < 0.5]
        extensions[s] = row
    return make_model(states, universes, props, extensions)


def random_check_case(seed: int) -> tuple[Model, int]:
    """A small random model and a check depth: 3 over one property, else
    1 or 2, so that every pair loop of a reference checker stays small."""
    rng = random.Random(seed)
    m = random_model(rng, max_states=4, max_objects=3, max_props=3,
                     cms=seed % 4 == 0)
    return m, 3 if len(m.properties) == 1 else rng.choice([1, 2])


def random_formula(rng: random.Random, props, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(props))
    r = rng.random()
    if r < 1 / 3:
        return Not(random_formula(rng, props, depth - 1))
    ctor = And if r < 2 / 3 else Or
    return ctor(random_formula(rng, props, depth - 1),
                random_formula(rng, props, depth - 1))


def random_tq_formula(rng: random.Random, props, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(props))
    if rng.random() < 0.5:
        return QNot(random_tq_formula(rng, props, depth - 1))
    return And(random_tq_formula(rng, props, depth - 1),
               random_tq_formula(rng, props, depth - 1))


def random_prag_formula(rng: random.Random, props, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Assert(Atom(rng.choice(props)))
    r = rng.random()
    if r < 1 / 3:
        return N(random_prag_formula(rng, props, depth - 1))
    ctor = K if r < 2 / 3 else A
    return ctor(random_prag_formula(rng, props, depth - 1),
                random_prag_formula(rng, props, depth - 1))


def random_unit(rng: random.Random, dim: int) -> np.ndarray:
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                  for _ in range(dim)])
    return v / np.linalg.norm(v)


def random_subspace_vectors(rng: random.Random, dim: int, rank: int):
    """`rank` generic vectors; generic means full rank with prob. 1."""
    return [random_unit(rng, dim) for _ in range(rank)]


def mo2_qubit(seed: int) -> Model:
    """A qubit model with two random orthogonal ray pairs plus 0 and I,
    whose six properties form MO2; the states are the four rays."""
    rng = random.Random(seed)
    a, b = random_unit(rng, 2), random_unit(rng, 2)
    a_perp = np.array([-a[1].conjugate(), a[0].conjugate()])
    b_perp = np.array([-b[1].conjugate(), b[0].conjugate()])
    rays = {"A+": a, "A-": a_perp, "B+": b, "B-": b_perp}
    subspaces = {"E0": [], "Ea+": [a], "Ea-": [a_perp], "Eb+": [b],
                 "Eb-": [b_perp], "EI": [[1, 0], [0, 1]]}
    return build_qm_model(2, rays, subspaces, universe_size=2, seed=seed)


def non_injective_qubit() -> Model:
    """m_qbit's six subspaces with only the two z rays as states: E0, Ex+
    and Ex- then share the empty certain-state set, and the qm suite's
    negation and join laws fail."""
    subspaces = {e: sub.basis
                 for e, sub in m_qbit().hilbert.property_subspaces.items()}
    return build_qm_model(2, {"Sz+": [1, 0], "Sz-": [0, 1]}, subspaces)


def join_open() -> Model:
    """A qutrit model closed under complement: the line P1, the line V in
    the plane of the first two axes, and their complements.  In
    ``state_lattice``'s order (complements, then meet before join per
    pair) its first missing operation is the join of P1 and V, a plane no
    property holds; in the witness fill's it is the meet of P23 and Vp."""
    r = 0.5 ** 0.5
    return build_qm_model(
        3, {"S1": [1, 0, 0], "S4": [r, r, 0]},
        {"E0": [], "P1": [[1, 0, 0]], "P23": [[0, 1, 0], [0, 0, 1]],
         "V": [[r, r, 0]], "Vp": [[r, -r, 0], [0, 0, 1]],
         "EI": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
