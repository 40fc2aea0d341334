"""Finite-dimensional complex subspace algebra and the Hilbert side of a
model.

Subspaces are held as row-orthonormal bases, and one rule decides
whether a direction lies in a subspace: a unit vector does when its
residual against it (the vector minus its projection) has norm at most
``tol``.  ``contains(a, b)`` applies it to each basis row of ``b``.
``meet(a, b)`` applies it to all unit vectors of ``a`` at once: with
the bases as the rows of A and B, their residuals against ``b`` are the
singular values of R = A - (A B^H) B, and the left singular vectors with
singular value at most ``tol``, mapped back through A, span the meet
(principal angles; Bjorck & Golub, Math. Comp. 1973).  ``Subspace.span``
(and ``join``, the span of both bases) is modified Gram-Schmidt, which
keeps a vector ``v`` when its residual against the rows kept so far
exceeds ``tol * max(1, |v|)``.  ``ortho(a)`` takes the trailing rows of
one full SVD of ``a``'s basis, so its rank is ``dim - rank(a)`` exactly.

``span`` keeps the order of its vectors: each row is the next vector
with its part along the earlier rows removed.  Declared vectors thus
come back as basis rows, and a dumped model loads and dumps again to
the same bytes; an SVD would rotate the rows on every round trip.

A :class:`HilbertAnnotation` gives each state a ray and each property a
subspace.  Its :attr:`~HilbertAnnotation.table` (a :class:`PropertyTable`)
holds the facts the model-level maps need: which declared property
realises the complement, meet or join of others, and which states are
certain for each property.  The table is created on first use and filled
lazily, so every fact is computed at most once per annotation and only
when something asks for it; loading or building a model computes none.
A subspace result maps to the first declared property equal to it under
``Subspace.__eq__``.  :func:`certain_states`, :func:`state_lattice` and
the quantum-language semantics all read the same table.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    InvalidTolerance,
    NoHilbertAnnotation,
    NonOrthonormalBasis,
    NotOperationClosed,
    QlpropError,
    RankError,
    ThetaNotInjectiveWarning,
    UnknownProperty,
)

if TYPE_CHECKING:  # pragma: no cover
    from .lattice import OrthoLattice
    from .model import Model

__all__ = [
    "DEFAULT_TOL", "MIN_TOL", "MAX_TOL", "check_tol",
    "Subspace", "contains", "ortho", "meet", "join",
    "HilbertAnnotation", "PropertyTable",
    "certain_states", "state_lattice", "closure_generate",
]

DEFAULT_TOL = 1e-9
MIN_TOL, MAX_TOL = 1e-12, 1e-3


def check_tol(tol, name: str = "tolerance") -> float:
    """Validate a containment tolerance and return it as a float.

    Accepted are finite values with ``MIN_TOL <= tol <= MAX_TOL``.  Below
    the range, rounding noise of the subspace operations exceeds the
    tolerance and closed property sets stop closing (m_qutrit fails at
    1e-17); above it, and for NaN, infinite or negative values, rank
    decisions no longer mean anything.  ``name`` says where the value
    came from in the error message.
    """
    try:
        value = float(tol)
    except (TypeError, ValueError):
        raise InvalidTolerance(f"{name} {tol!r} is not a number") from None
    if not MIN_TOL <= value <= MAX_TOL:  # also false for NaN
        raise InvalidTolerance(
            f"{name} {tol!r} is outside [{MIN_TOL:g}, {MAX_TOL:g}]")
    return value


class Subspace:
    """A closed subspace of C^dim, held as a row-orthonormal basis."""

    __slots__ = ("dim", "basis", "tol")

    def __init__(self, dim: int, basis=None, tol: float = DEFAULT_TOL):
        if dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {dim}")
        if basis is None:
            mat = np.zeros((0, dim), dtype=complex)
        else:
            mat = np.asarray(basis, dtype=complex)
            if mat.size == 0:
                mat = mat.reshape(0, dim)
            if mat.ndim != 2 or mat.shape[1] != dim:
                raise DimensionMismatch(
                    f"basis shape {mat.shape} does not fit dimension {dim}")
        gram = mat @ mat.conj().T
        if gram.shape[0] and np.max(np.abs(gram - np.eye(mat.shape[0]))) > max(tol, 1e-12):
            raise NonOrthonormalBasis(
                "basis rows are not orthonormal within tolerance")
        self.dim = dim
        self.basis = mat
        self.tol = tol

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_rows(cls, rows: np.ndarray, tol: float) -> "Subspace":
        """A subspace on rows this module made orthonormal: no Gram check."""
        out = cls.__new__(cls)
        out.dim = rows.shape[1]
        out.basis = rows
        out.tol = tol
        return out

    @classmethod
    def span(cls, vectors, dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        """Span of arbitrary vectors, in their order, by modified
        Gram-Schmidt with one re-orthogonalization pass.

        A vector whose squared norm overflows is first scaled by the power
        of two that brings its largest real or imaginary part below 1.
        That scaling is exact, so rows and decisions are those the vector
        would give if its norms were finite.
        """
        rows: list[np.ndarray] = []
        for v in vectors:
            w = np.asarray(v, dtype=complex).reshape(-1)
            if w.shape != (dim,):
                raise DimensionMismatch(
                    f"vector of length {w.shape[0]} in dimension {dim}")
            unit = 1.0
            square = np.vdot(w, w).real  # inf or nan on overflow, no warning
            if not square < math.inf:
                largest = max(np.max(np.abs(w.real)), np.max(np.abs(w.imag)))
                unit = 2.0 ** -math.frexp(largest)[1]
                w = w * unit
                square = np.vdot(w, w).real
            if square == 0.0:
                continue
            for _ in range(2):
                for b in rows:
                    w = w - (b.conj() @ w) * b
            nrm = np.linalg.norm(w)
            if nrm > tol * max(unit, math.sqrt(square)):  # tol*max(1, |v|)
                rows.append(w / nrm)
        return cls._of_rows(
            np.array(rows, dtype=complex).reshape(len(rows), dim), tol)

    @classmethod
    def zero(cls, dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        return cls(dim, None, tol)

    @classmethod
    def full(cls, dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        return cls(dim, np.eye(dim, dtype=complex), tol)

    @classmethod
    def ray(cls, vector, dim: int | None = None,
            tol: float = DEFAULT_TOL) -> "Subspace":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        d = dim if dim is not None else v.shape[0]
        s = cls.span([v], d, tol)
        if s.rank != 1:
            raise RankError("a ray needs one nonzero vector")
        return s

    # -- structure ----------------------------------------------------

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def project(self, v) -> np.ndarray:
        """Orthogonal projection of a vector onto this subspace."""
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape != (self.dim,):
            raise DimensionMismatch(
                f"vector of length {v.shape[0]} in dimension {self.dim}")
        if self.rank == 0:
            return np.zeros(self.dim, dtype=complex)
        return self.basis.T @ (self.basis.conj() @ v)

    def projector(self) -> np.ndarray:
        """The dim x dim orthogonal projection matrix."""
        return self.basis.T @ self.basis.conj()

    def __eq__(self, other) -> bool:
        """Mutual containment within tolerance, tested only at equal rank.

        Unequal ranks compare unequal without a containment test, and
        this is what mutual containment would decide anyway.  Let the
        orthonormal rows of ``b`` outnumber those of ``a``.  Their squared
        residuals against ``a`` sum to trace((I - P_a) P_b) >= rank(b) -
        rank(a) >= 1, so some row leaves a residual of at least
        1/sqrt(dim).  That exceeds ``MAX_TOL`` for every dim below 10**6,
        so ``contains(a, b)`` is false at any tolerance :func:`check_tol`
        accepts.
        """
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.dim == other.dim and self.rank == other.rank
                and contains(self, other) and contains(other, self))

    __hash__ = None  # tolerance-based equality cannot hash consistently

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def _check_dims(a: Subspace, b: Subspace):
    if a.dim != b.dim:
        raise DimensionMismatch(
            f"subspaces live in dimensions {a.dim} and {b.dim}")


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff every basis vector of ``b`` projects into ``a`` within tol."""
    _check_dims(a, b)
    tol = max(a.tol, b.tol)
    for v in b.basis:
        r = v - a.project(v)
        if np.linalg.norm(r) > tol:
            return False
    return True


def ortho(a: Subspace) -> Subspace:
    """Orthogonal complement, of rank exactly ``dim - rank(a)``."""
    _, _, vh = np.linalg.svd(a.basis)
    return Subspace._of_rows(vh[a.rank:], a.tol)


def join(a: Subspace, b: Subspace) -> Subspace:
    """Closed span of the union."""
    _check_dims(a, b)
    return Subspace.span(np.vstack([a.basis, b.basis]), a.dim,
                         max(a.tol, b.tol))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection: the directions U^H A of ``a`` whose residuals against
    ``b``, the singular values of R = A - (A B^H) B = U S V^H, are <= tol."""
    _check_dims(a, b)
    tol = max(a.tol, b.tol)
    resid = a.basis - (a.basis @ b.basis.conj().T) @ b.basis
    u, sv, _ = np.linalg.svd(resid, full_matrices=False)
    return Subspace._of_rows(u[:, sv <= tol].conj().T @ a.basis, tol)


# ---------------------------------------------------------------------------
# Model-facing operations


@dataclass(frozen=True)
class HilbertAnnotation:
    """A ray per state and a closed subspace per property.

    ``make_model`` stores both dicts in the model's declaration order,
    which is the order :class:`PropertyTable` searches properties in.
    """

    dim: int
    state_rays: dict[str, Subspace]
    property_subspaces: dict[str, Subspace]

    @cached_property
    def table(self) -> "PropertyTable":
        """This annotation's property table, created on first access."""
        return PropertyTable(self)


class PropertyTable:
    """Lazily filled subspace facts of one annotation's properties.

    ``ortho(e)``, ``meet(e, f)`` and ``join(e, f)`` name the declared
    property realising the operation on the operands' subspaces;
    ``certain(e)`` is the set of states whose ray lies in ``e``'s
    subspace.  Every entry is computed on its first lookup and kept,
    including a missing operation result: that lookup and every later
    one raise the same :class:`NotOperationClosed`.  Operands must be
    declared properties.
    """

    def __init__(self, ann: HilbertAnnotation):
        self._ann = ann
        # keyed by the NotOperationClosed witness: (e, "ortho") or (e, f, op)
        self._realised: dict[tuple, str | None] = {}
        self._certain: dict[str, frozenset[str]] = {}

    def _property_of(self, target: Subspace) -> str | None:
        """The first declared property whose subspace equals ``target``."""
        for name, sub in self._ann.property_subspaces.items():
            if sub == target:
                return name
        return None

    def _realise(self, key: tuple,
                 compute: Callable[[dict[str, Subspace]], Subspace]) -> str:
        try:
            name = self._realised[key]
        except KeyError:
            name = self._property_of(compute(self._ann.property_subspaces))
            self._realised[key] = name
        if name is None:
            *operands, op = key
            what = "complement" if op == "ortho" else op
            raise NotOperationClosed(
                f"no property realises the {what} of "
                + " and ".join(map(repr, operands)), witness=key)
        return name

    def ortho(self, e: str) -> str:
        return self._realise((e, "ortho"), lambda subs: ortho(subs[e]))

    def meet(self, e: str, f: str) -> str:
        return self._realise((e, f, "meet"), lambda subs: meet(subs[e], subs[f]))

    def join(self, e: str, f: str) -> str:
        return self._realise((e, f, "join"), lambda subs: join(subs[e], subs[f]))

    def certain(self, e: str) -> frozenset[str]:
        try:
            return self._certain[e]
        except KeyError:
            sub = self._ann.property_subspaces[e]
            out = frozenset(s for s, ray in self._ann.state_rays.items()
                            if contains(sub, ray))
            self._certain[e] = out
            return out


def certain_states(model: "Model", prop: str) -> frozenset[str]:
    """States whose ray lies inside the property's subspace.

    This is the map sending each property to the set of states where it
    is certain; its image, ordered by inclusion, is the lattice of
    physical propositions of the quantum model.  Read from the
    annotation's :class:`PropertyTable`.
    """
    ann = model.hilbert
    if ann is None:
        raise NoHilbertAnnotation("model carries no Hilbert annotation")
    if prop not in ann.property_subspaces:
        raise UnknownProperty(f"no subspace for property {prop!r}")
    return ann.table.certain(prop)


def state_lattice(model: "Model") -> "OrthoLattice":
    """Ortholattice of certain-state sets of a quantum model.

    Requires the declared property subspaces to be closed under
    complement, meet and join; the lattice operations are induced through
    the annotation's property table and then validated against the
    order.  If two properties share a certain-state set the lattice is
    still built, with a warning, using the first property per set in
    declaration order.  Only the table is kept: the poset is rebuilt, and
    the warnings are issued, on every call.
    """
    from .lattice import FinitePoset, OrthoLattice, build_poset, set_label

    ann = model.hilbert
    if ann is None:
        raise NoHilbertAnnotation("model carries no Hilbert annotation")
    props = list(model.properties)
    table = ann.table

    # all complements first, then meet before join per pair: this order
    # decides which NotOperationClosed is raised first
    ortho_prop = {e: table.ortho(e) for e in props}
    meet_prop: dict[tuple[str, str], str] = {}
    join_prop: dict[tuple[str, str], str] = {}
    for e in props:
        for f in props:
            meet_prop[e, f] = table.meet(e, f)
            join_prop[e, f] = table.join(e, f)

    images = {e: table.certain(e) for e in props}
    rep_for_image: dict[frozenset, str] = {}
    reps: list[str] = []
    for e in props:
        if images[e] not in rep_for_image:
            rep_for_image[images[e]] = e
            reps.append(e)
        else:
            warnings.warn(
                f"properties {rep_for_image[images[e]]!r} and {e!r} share "
                f"the certain-state set; using the first",
                ThetaNotInjectiveWarning)

    elements = [images[e] for e in reps]
    poset: FinitePoset = build_poset(
        elements, leq=lambda x, y: x <= y,
        labels=[set_label(s, model.states) for s in elements])

    idx = {images[e]: poset.index_of(images[e]) for e in reps}
    n = len(elements)
    meet_t = np.zeros((n, n), dtype=int)
    join_t = np.zeros((n, n), dtype=int)
    ortho_t = np.zeros(n, dtype=int)
    for i, e in enumerate(reps):
        ortho_t[i] = idx[images[ortho_prop[e]]]
        for j, f in enumerate(reps):
            mi = idx[images[meet_prop[e, f]]]
            meet_t[i, j] = mi
            join_t[i, j] = idx[images[join_prop[e, f]]]
            # the meet of certain-state sets is plain intersection
            if elements[mi] != (elements[i] & elements[j]):
                raise QlpropError(
                    f"meet of {e!r} and {f!r} is not the set intersection")
    return OrthoLattice(poset, meet_t, join_t, ortho_t)


def closure_generate(dim: int, generators: Sequence[Subspace], cap: int,
                     tol: float = DEFAULT_TOL) -> list[Subspace]:
    """Smallest set of subspaces containing the generators and closed
    under complement, meet and join.

    Elements are deduplicated by mutual containment and returned in a
    deterministic generation order.  Raises :class:`ClosureCapExceeded`
    if the closure would grow past ``cap`` (some generator configurations
    have infinite closures).
    """
    if cap < len(generators):
        raise ClosureCapExceeded(
            f"cap {cap} is smaller than the {len(generators)} generators")
    elems: list[Subspace] = []

    def add(s: Subspace):
        for e in elems:
            if e == s:
                return
        if len(elems) + 1 > cap:
            raise ClosureCapExceeded(f"closure exceeds cap {cap}")
        elems.append(s)

    for g in generators:
        if g.dim != dim:
            raise DimensionMismatch(
                f"generator of dimension {g.dim} in closure of dimension {dim}")
        add(g)
    changed = True
    while changed:
        size = len(elems)
        for i in range(size):
            add(ortho(elems[i]))
        for i in range(size):
            for j in range(i + 1, size):
                add(meet(elems[i], elems[j]))
                add(join(elems[i], elems[j]))
        changed = len(elems) != size
    return elems
