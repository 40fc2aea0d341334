"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check: the universal-proposition oracle (which imports nothing from
``qlprop.semantics``) evaluates formulas with its own set algebra and
intersects over every interpretation instead of testing extensions for
fullness, the subspace oracle works on projector matrices instead of
basis rows, the witness oracle (which imports nothing from
``qlprop.hilbert`` or ``qlprop.quantum``) reduces quantum formulas with
projectors and SVD null spaces, and the lattice oracle (which imports
nothing from ``qlprop.lattice``) finds bounds and law violations by
explicit scans over nested lists.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from qlprop.model import Model, build_qm_model, make_model
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
