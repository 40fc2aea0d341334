"""Finite-dimensional complex subspace algebra and the Hilbert side of a
model.

Subspaces are held as row-orthonormal bases, and one rule decides
whether a direction lies in a subspace: a unit vector does when its
residual against it (the vector minus its projection) has norm at most
``tol`` (a NaN residual counts as inside).  Its dual decides whether a
direction is orthogonal to a subspace: a unit vector is when its
projection onto it, the rows of B A^H below, has norm at most ``tol``.
That is the residual rule against the orthocomplement, decided without
computing the complement.  The rule is applied to many
rows at once: with a basis as the rows of A and the unit vectors as the
rows of B, the residuals are the rows of R = B - (B A^H) A, and stacking
bases and row sets along leading axes decides many pairs in one
product.  One function, :func:`_outside_matrix`, decides it for stacks
of bases against stacks of bases, and every containment and equality
test between subspaces goes through it: ``contains(a, b)`` applies it
to the basis rows of ``b``, ``a == b`` holds when both directions do at
equal rank, and the property table, ``make_model``'s distinctness check
and the closure decide many pairs of one rank in one
:func:`_equal_matrix` (the property table's ray tests read the norms
themselves).
``meet(a, b)`` applies the rule to all unit vectors of ``a`` at once: with
the bases as the rows of A and B, their residuals against ``b`` are the
singular values of R = A - (A B^H) B, and the left singular vectors with
singular value at most ``tol``, mapped back through A, span the meet
(principal angles; Bjorck & Golub, Math. Comp. 1973).  ``join(a, b)`` is
its dual: ``a``'s rows, then the right singular vectors of R = B -
(B A^H) A with singular value above ``tol``, re-orthogonalised against
``a`` (Golub & Van Loan, Matrix Computations, 4th ed., section 6.4).
Both count the principal angles of the pair, so ``join(a, b)`` and
``join(b, a)`` have one rank, and ``contains(b, a)`` gives ``join(a, b)
== b`` wherever the angles lie clear of ``tol``.  ``ortho(a)`` takes the
trailing rows of one full SVD of ``a``'s basis, so its rank is ``dim -
rank(a)`` exactly.  Each of the three is written once, as a kernel over
stacked bases (k, r, dim); :func:`ortho`, :func:`meet` and :func:`join`
call it with a stack of one, :func:`closure_generate` with all the
operations of a round at once (only those with an element the previous
round kept), and the property table with the complements and meets it
needs at once (it computes no join).  A stacked call decides all its
operations at one tolerance, which each result carries: ``ortho(a)`` at
``a``'s, ``meet`` and ``join`` at the larger of their operands', and the
closure and the table at the one tolerance their subspaces share.

``Subspace.span`` is modified Gram-Schmidt, which keeps a vector ``v``
when its residual against the rows kept so far exceeds ``tol * max(1,
|v|)``.  It keeps the order of its vectors: each row is the next vector
with its part along the earlier rows removed.  Declared vectors thus
come back as basis rows, and a dumped model loads and dumps again to
the same bytes; an SVD would rotate the rows on every round trip.

A :class:`HilbertAnnotation` gives each state a ray and each property a
subspace.  Its :attr:`~HilbertAnnotation.table` (a :class:`PropertyTable`)
holds the facts the model-level maps need: which declared property
realises the complement, meet or join of others, and which states are
certain for, or orthogonal to, each property.  The table is created on
first use and filled lazily, so every fact is computed at most once per
annotation and only when something asks for it; loading a model computes
none, and ``build_qm_model`` computes the certain and orthogonal states
it derives the extensions from.
A subspace result maps to the first declared property equal to it, by
mutual containment at the table's tolerance.  :meth:`PropertyTable.names`
answers a list of operation keys in order: it computes the missing ones
at once, stacking
their operations by kind and operand ranks, then groups the results by
rank and decides each group against the declared subspaces of that rank
in one mutual containment matrix of the result x declared pairs: one
residual of the results' rows against the declared bases and one of the
declared rows against the results' bases (:func:`_equal_matrix`, which
also finds a model's first equal pair of declared subspaces, there in
one residual of a rank group against itself, read both ways by
transposition).  It raises at the first key, in order, that no property
realises.  It is the table's one read path: ``ortho``, ``meet`` and
``join`` are one-key calls of it, and only its private fill reads the
stored entries.  The table runs two kernels, complement and meet, and
only for keys that the operands' ranks leave open: before it stacks
anything it names the complement of the zero or of the whole space,
every meet with the zero or the whole space and every meet of a
property with itself, from ranks alone (see :class:`PropertyTable`).
Every model's annotation has one tolerance for all its rays and
subspaces, as ``make_model`` requires, and the table decides all its
residuals at it.  It reads a join E v F as ~(~E & ~F), the complement
of the meet of the operands' complements, from its own entries.  The
operands' complements join the first batch of missing keys; the meet
and its complement follow, each in one batch, only where the table does
not hold them.  A join is missing when an operand has no declared
complement, or when the meet of the complements, or that meet's
complement, matches no property.  In finite dimension the identity holds
exactly, so where the complements are declared this is the direct join's
property.
``certain`` tests all state rays in one residual, and ``orthogonal`` in
one projection, neither reading the table's complements.
:func:`certain_states`, :func:`state_lattice` and the quantum-language
semantics all read the same table.  :func:`state_lattice` takes from it
only the certain-state sets and each element's complement: its meet and
join are the glb and lub of the certain-state sets' inclusion order, so
the quantum suite can compare the table's meets and joins with them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    InvalidTolerance,
    NoHilbertAnnotation,
    NonOrthonormalBasis,
    NotOperationClosed,
    RankError,
    SchemaError,
    ThetaNotInjectiveWarning,
    UnknownProperty,
)
from .lattice import OrthoLattice, _set_poset

if TYPE_CHECKING:  # pragma: no cover
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
        tol = check_tol(tol)
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
        # a NaN, infinite or huge entry makes the Gram matrix NaN or
        # infinite, which fails the test below without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            gram = mat @ mat.conj().T
        # a fixed rounding bound, not tol: rows off orthonormal by more
        # than rounding break the kernels' rank decisions
        if gram.shape[0] and not np.max(
                np.abs(gram - np.eye(mat.shape[0]))) <= MIN_TOL:
            raise NonOrthonormalBasis(
                f"basis rows are not orthonormal within {MIN_TOL:g}")
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
        would give if its norms were finite.  A vector with a NaN or
        infinite entry raises :class:`SchemaError`.
        """
        tol = check_tol(tol)
        rows: list[np.ndarray] = []
        for i, v in enumerate(vectors):
            w = np.asarray(v, dtype=complex).reshape(-1)
            if w.shape != (dim,):
                raise DimensionMismatch(
                    f"vector of length {w.shape[0]} in dimension {dim}")
            unit = 1.0
            square = np.vdot(w, w).real  # inf or nan on overflow, no warning
            if not square < math.inf:
                if not np.isfinite(w).all():
                    raise SchemaError(
                        f"vector {i} has a NaN or infinite entry")
                largest = max(np.max(np.abs(w.real)), np.max(np.abs(w.imag)))
                unit = 2.0 ** -math.frexp(largest)[1]
                w = w * unit
                square = np.vdot(w, w).real
            if square == 0.0:
                continue
            for _ in range(2):
                for b in rows:
                    w = w - np.vdot(b, w) * b  # the arithmetic of b.conj() @ w
            # the arithmetic of np.linalg.norm on a complex vector
            nrm = math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))
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
        """Mutual containment within the larger tolerance, tested only at
        equal rank, by :func:`_equal_matrix` on a stack of one each.

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
        if self.dim != other.dim or self.rank != other.rank:
            return False
        return bool(_equal_matrix(self.basis[None], max(self.tol, other.tol),
                                  other.basis[None])[0, 0])

    __hash__ = None  # tolerance-based equality cannot hash consistently

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def _check_dims(a: Subspace, b: Subspace):
    if a.dim != b.dim:
        raise DimensionMismatch(
            f"subspaces live in dimensions {a.dim} and {b.dim}")


# At most about this many complex entries of R are formed at once when
# many subspaces are compared pairwise, so memory stays small.  Each rank
# of a full property table (m_qutrit: 79 rank-2 results against 5
# properties, 2,370 entries) fits in one block.
_BLOCK = 1 << 12


def _residual_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Norms of the rows of R = B - (B A^H) A: the residuals of the rows of
    ``b`` against the orthonormal rows of ``a``.

    ``a`` is (r, dim) or a stack of n bases (n, r, dim), and ``b`` is (m,
    dim); the result is (m,) or (n, m).  A row lies inside when its norm
    is not above the tolerance.
    """
    if a.ndim == 2:  # ndarray.dot: the same product, called faster
        r = b.dot(a.conj().T).dot(a)
    else:
        # every row's coefficients on every basis row in one 2-D product
        n, k, dim = a.shape
        r = b.dot(a.reshape(n * k, dim).conj().T).reshape(
            len(b), n, k).swapaxes(0, 1) @ a
    # in place, so that one (m, dim) or (n, m, dim) array is held at a time
    x = np.subtract(b, r, out=r).view(float)
    x *= x
    return np.sqrt(x.sum(-1))


def _projection_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Norms of the rows of B A^H: the projections of the rows of ``b``
    onto the orthonormal rows of ``a``, both 2-D.  A row is orthogonal to
    ``a`` when its norm is not above the tolerance.
    """
    return np.linalg.norm(b.dot(a.conj().T), axis=1)


def _outside_matrix(bases: np.ndarray, others: np.ndarray,
                    tol: float) -> np.ndarray:
    """Whether some row of each of the stacked bases ``others`` (m, rank,
    dim) lies outside each of ``bases`` (n, r, dim) at ``tol``: the (n, m)
    matrix.  A NaN residual is not outside.

    It is decided in one batched residual, all of ``others``' rows against
    each basis, in blocks of about ``_BLOCK`` entries.
    """
    n = len(bases)
    m, rank, dim = others.shape
    rows = others.reshape(m * rank, dim)
    step = max(1, _BLOCK // max(1, rows.size))
    parts = []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        norms = _residual_norms(bases[lo:hi], rows).reshape(hi - lo, m, rank)
        parts.append((norms > tol).any(-1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _equal_matrix(bases: np.ndarray, tol: float,
                  others: np.ndarray | None = None) -> np.ndarray:
    """Which of the stacked same-rank bases ``bases`` (n, rank, dim) span
    the same subspace as which of ``others`` (m, rank, dim): the (n, m)
    matrix of mutual containment at ``tol``.

    Without ``others``, ``bases`` are compared with themselves in one
    :func:`_outside_matrix`, read both ways by transposition.  With them,
    one residual tests ``others``' rows against ``bases`` and one the
    rows of ``bases`` against ``others``, so that only the n x m pairs
    are decided.
    """
    if others is None:
        outside = _outside_matrix(bases, bases, tol)
        return ~(outside | outside.T)
    return ~(_outside_matrix(bases, others, tol)
             | _outside_matrix(others, bases, tol).T)


def _rank_groups(subspaces: Sequence[Subspace],
                 tol: float) -> list[tuple[list[int], np.ndarray]]:
    """The indices of each rank's subspaces, in order, with the group's
    :func:`_equal_matrix` at ``tol``.  All live in one dimension; a group
    of one is equal to itself without a residual."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(subspaces):
        groups.setdefault(s.rank, []).append(i)
    return [(idx, _equal_matrix(np.array([subspaces[i].basis for i in idx]), tol)
             if len(idx) > 1 else np.ones((1, 1), bool))
            for idx in groups.values()]


def _first_equal_pair(subspaces: Sequence[Subspace],
                      tol: float) -> tuple[int, int] | None:
    """The first pair ``(i, j)`` in ``itertools.combinations`` order whose
    subspaces are equal at ``tol``, or None: the least over the rank
    groups of :func:`_rank_groups`, whose indices keep the given order.
    """
    return min(((idx[i], idx[j]) for idx, equal in _rank_groups(subspaces, tol)
                for i, row in enumerate(equal.tolist())
                for j in range(i + 1, len(row)) if row[j]), default=None)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff every basis vector of ``b`` projects into ``a`` within tol."""
    _check_dims(a, b)
    return not _outside_matrix(a.basis[None], b.basis[None],
                               max(a.tol, b.tol))[0, 0]


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Equal-shape arrays stacked along a new first axis (one is viewed,
    not copied)."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


# Each kernel below computes one operation on a stack of k bases (k, r,
# dim) and returns candidate rows (k, c, dim) with the bounds lo and hi of
# the rows that span each result.  Singular values come sorted in
# descending order, so the rows a rule keeps are always contiguous.


def _ortho_rows(a: np.ndarray) -> tuple[np.ndarray, list, list]:
    """Orthocomplements: the trailing ``dim - r`` right singular vectors
    of each basis."""
    _, _, vh = np.linalg.svd(a)
    k, r, dim = a.shape
    return vh, [r] * k, [dim] * k


def _meet_rows(a: np.ndarray, b: np.ndarray,
               tol: float) -> tuple[np.ndarray, list, list]:
    """Meets of the pairs ``a`` (k, ra, dim) and ``b`` (k, rb, dim) at
    ``tol``: the rows U^H A whose singular value of R = A - (A B^H) B = U
    S V^H is at most tol."""
    resid = a - (a @ b.conj().swapaxes(-1, -2)) @ b
    u, sv, _ = np.linalg.svd(resid, full_matrices=False)
    ra = a.shape[1]
    lo = [ra - sum(map(tol.__ge__, row)) for row in sv.tolist()]
    return u.conj().swapaxes(-1, -2) @ a, lo, [ra] * len(a)


def _join_rows(a: np.ndarray, b: np.ndarray,
               tol: float) -> tuple[np.ndarray, list, list]:
    """Joins of the pairs ``a`` (k, ra, dim) and ``b`` (k, rb, dim) at
    ``tol``: ``a``'s rows, then the right singular vectors V^H of R = B -
    (B A^H) A = U S V^H whose singular value exceeds tol.

    A vector of V^H with singular value s keeps a part of about eps/s
    along ``a``, so the kept ones are re-orthogonalised against ``a``, W
    = V^H - (V^H A^H) A, and the others zeroed.  That leaves W off
    orthonormal by E = W W^H - I, of order (eps/tol)^2, and W - E W / 2
    = (3 W - W W^H W) / 2 takes out its first order.
    """
    ah = a.conj().swapaxes(-1, -2)
    _, sv, vh = np.linalg.svd(b - (b @ ah) @ a, full_matrices=False)
    keep = sv > tol
    w = (vh - (vh @ ah) @ a) * keep[..., None]
    w = 1.5 * w - 0.5 * (w @ w.conj().swapaxes(-1, -2)) @ w
    ra = a.shape[1]
    return (np.concatenate([a, w], -2), [0] * len(a),
            [ra + sum(row) for row in keep.tolist()])


def _operate(ops: Sequence[tuple], tol: float) -> list[Subspace]:
    """The results of ``ops`` at ``tol``, in order: each op is
    ``("ortho", a, None)``, ``("meet", a, b)`` or ``("join", a, b)``, and
    the ops of one kind on operands of the same shapes share one stacked
    kernel call.  Every result carries ``tol``."""
    groups: dict[tuple, list[int]] = {}
    for i, (op, a, b) in enumerate(ops):
        shapes = (op, a.basis.shape, b is not None and b.basis.shape)
        groups.setdefault(shapes, []).append(i)
    out: list[Subspace] = [None] * len(ops)  # type: ignore[list-item]
    for (op, _, _), idx in groups.items():
        a = _stack([ops[i][1].basis for i in idx])
        if op == "ortho":
            rows, lo, hi = _ortho_rows(a)
        else:
            b = _stack([ops[i][2].basis for i in idx])
            kernel = _meet_rows if op == "meet" else _join_rows
            rows, lo, hi = kernel(a, b, tol)
        for i, r, start, stop in zip(idx, rows, lo, hi):
            out[i] = Subspace._of_rows(r[start:stop], tol)
    return out


def ortho(a: Subspace) -> Subspace:
    """Orthogonal complement, of rank exactly ``dim - rank(a)``."""
    return _operate([("ortho", a, None)], a.tol)[0]


def join(a: Subspace, b: Subspace) -> Subspace:
    """Closed span of the union: ``a``'s rows, then the directions of
    ``b`` whose residuals against ``a`` exceed tol."""
    _check_dims(a, b)
    return _operate([("join", a, b)], max(a.tol, b.tol))[0]


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection: the directions of ``a`` whose residuals against
    ``b`` are at most tol."""
    _check_dims(a, b)
    return _operate([("meet", a, b)], max(a.tol, b.tol))[0]


# ---------------------------------------------------------------------------
# Model-facing operations


@dataclass(frozen=True)
class HilbertAnnotation:
    """A ray per state and a closed subspace per property.

    ``make_model`` stores both dicts in the model's declaration order,
    which is the order :class:`PropertyTable` searches properties in, and
    refuses an annotation whose rays and subspaces do not share one
    tolerance, or in which two rays or two subspaces are equal at it.
    """

    dim: int
    state_rays: dict[str, Subspace]
    property_subspaces: dict[str, Subspace]

    @cached_property
    def table(self) -> "PropertyTable":
        """This annotation's property table, created on first access."""
        return PropertyTable(self)


# what PropertyTable._by_ranks returns for a key that ranks do not decide
_OPEN = object()


class PropertyTable:
    """Lazily filled subspace facts of one annotation's properties.

    An operation is named by its key, ``(e, "ortho")``, ``(e, f, "meet")``
    or ``(e, f, "join")``, whose operands are declared properties.
    :meth:`names` gives, for a list of keys, the declared property that
    realises each operation on the operands' subspaces; ``ortho(e)``,
    ``meet(e, f)`` and ``join(e, f)`` are :meth:`names` calls of one key
    each, which keep the key format inside the table.  A join key is
    read as ``ortho`` of the ``meet`` of the operands' ``ortho`` entries,
    and is missing when one of those three lookups is.  ``certain(e)`` is
    the set of states whose ray lies in ``e``'s subspace, and
    ``orthogonal(e)`` the set of those whose ray is orthogonal to it;
    both read one row per state, each ray's basis vector, stacked once.
    Every entry is computed once and kept, including a missing operation
    result: every request for it raises the same
    :class:`NotOperationClosed`, with the key as its witness.  An operand
    the annotation does not declare raises :class:`UnknownProperty` where
    the table would compute with it.

    Keys that the ortholattice identities ~0 = 1, ~1 = 0, a & 0 = 0,
    a & 1 = a and a & a = a decide are named from the operands' ranks,
    without a kernel or a residual:

    - ``(e, "ortho")`` with ``e`` of rank 0 is the first declared
      property of rank ``dim``, and with ``e`` of rank ``dim`` the first
      of rank 0 (None where there is none);
    - ``(e, f, "meet")`` with an operand of rank 0 is the first declared
      property of rank 0;
    - ``(e, f, "meet")`` with an operand of rank ``dim`` is the other
      operand, and ``(e, e, "meet")`` is ``e``.

    These are the kernel's names on bases orthonormal to rounding, as
    :class:`Subspace` requires and :meth:`Subspace.span` makes them: the
    kernels return exactly rank ``dim`` or 0 there, every such basis of
    rank ``dim`` spans the whole space, and a meet with the whole space
    or with itself gives back its operand.  That operand is the first
    declared property equal to it because ``make_model`` gives every
    model one tolerance and no equal pair.  Joins inherit all of this
    through their complement-meet-complement fill.  Every residual the
    table computes is decided at that one tolerance, read from the
    annotation once.
    """

    def __init__(self, ann: HilbertAnnotation):
        # the annotation's fields, not the annotation: the annotation
        # holds this table, and a reference back would make a cycle that
        # only the cyclic garbage collector frees
        self._dim = ann.dim
        self._subspaces = ann.property_subspaces
        self._rays = ann.state_rays
        self._tol = next((sub.tol for sub in self._subspaces.values()),
                         DEFAULT_TOL)
        # key -> name; None where no property realises it
        self._names: dict[tuple, str | None] = {}
        self._certain: dict[str, frozenset[str]] = {}
        self._orthogonal: dict[str, frozenset[str]] = {}
        # rank -> declared names, stacked bases
        self._groups: dict[int, tuple] = {}
        # each state's ray row, in state order
        self._ray_rows: np.ndarray | None = None

    def _group(self, rank: int) -> tuple:
        try:
            return self._groups[rank]
        except KeyError:
            names = [e for e, sub in self._subspaces.items() if sub.rank == rank]
            group = (names, np.array([self._subspaces[e].basis for e in names]))
            self._groups[rank] = group
            return group

    def _property_of(self, targets: Sequence[Subspace]) -> list[str | None]:
        """The first declared property whose subspace equals each target.

        The targets of one rank are decided against that rank's declared
        subspaces in one :func:`_equal_matrix` of the two stacks, at the
        table's tolerance: one residual of the targets' rows against the
        declared bases and one of the declared rows against the targets'
        bases.  Every target of rank 0 equals the first declared property
        of rank 0.
        """
        by_rank: dict[int, list[int]] = {}
        for i, target in enumerate(targets):
            by_rank.setdefault(target.rank, []).append(i)
        out: list[str | None] = [None] * len(targets)
        for rank, idx in by_rank.items():
            names, group = self._group(rank)
            if not names:
                continue
            if not rank:
                for i in idx:
                    out[i] = names[0]
                continue
            equal = _equal_matrix(_stack([targets[i].basis for i in idx]),
                                  self._tol, group)
            for i, row in zip(idx, equal.tolist()):
                if True in row:
                    out[i] = names[row.index(True)]
        return out

    def _subspace(self, e: str) -> Subspace:
        try:
            return self._subspaces[e]
        except KeyError:
            raise UnknownProperty(f"no subspace for property {e!r}") from None

    def _first_of_rank(self, rank: int) -> str | None:
        """The first declared property of ``rank``, or None."""
        names = self._group(rank)[0]
        return names[0] if names else None

    def _by_ranks(self, key: tuple, a: Subspace, b: Subspace | None):
        """The name that the class's rank rules give the complement or
        meet ``key``, whose operands' subspaces are ``a`` and ``b`` (None
        for a complement), or ``_OPEN`` where the ranks leave it open."""
        dim = self._dim
        if b is None:
            return (self._first_of_rank(dim - a.rank) if a.rank in (0, dim)
                    else _OPEN)
        if not (a.rank and b.rank):
            return self._first_of_rank(0)
        if b.rank == dim or key[0] == key[1]:
            return key[0]
        return key[1] if a.rank == dim else _OPEN

    def _fill(self, keys: Sequence[tuple]) -> list[str | None]:
        """The property realising each of ``keys``, in order, and None
        where no property realises it or an operand is None.

        The complement and meet keys not yet in the table, and the
        complements of the join keys' operands, are filled at once.
        Those that the operands' ranks decide are named by the class's
        rank rules; the operations of the others are stacked by kind and
        operand ranks, and their results matched to properties in one
        batch per rank.  A join E v F is then read as ~(~E & ~F), by two
        more fills: the meets of the complements, and the complements of
        those meets.
        """
        known, sub = self._names, self._subspace
        todo = [key for key in keys if key not in known and None not in key]
        if todo:
            joins = [key for key in todo if key[-1] == "join"]
            todo = [key for key in dict.fromkeys(
                todo + [(e, "ortho") for key in joins for e in key[:2]])
                if key[-1] != "join" and key not in known]
            ops: dict[tuple, tuple] = {}
            for key in todo:
                a, b = sub(key[0]), sub(key[1]) if len(key) == 3 else None
                name = self._by_ranks(key, a, b)
                if name is _OPEN:
                    ops[key] = (key[-1], a, b)
                else:
                    known[key] = name
            if ops:
                known.update(zip(ops, self._property_of(
                    _operate(list(ops.values()), self._tol))))
            if joins:
                meets = self._fill([(known[e, "ortho"], known[f, "ortho"], "meet")
                                    for e, f, _ in joins])
                known.update(zip(joins, self._fill([(m, "ortho") for m in meets])))
        return [known.get(key) for key in keys]

    def names(self, keys: Sequence[tuple]) -> list[str]:
        """The property realising each of ``keys``, in order, filled as by
        :meth:`_fill`.  Raises :class:`NotOperationClosed` at the first
        key, in order, that no property realises.
        """
        out = self._fill(keys)
        if None in out:
            *operands, op = key = keys[out.index(None)]
            raise NotOperationClosed(
                f"no property realises the "
                f"{'complement' if op == 'ortho' else op} of "
                + " and ".join(map(repr, operands)), witness=key)
        return out  # type: ignore[return-value]

    def ortho(self, e: str) -> str:
        return self.names([(e, "ortho")])[0]

    def meet(self, e: str, f: str) -> str:
        return self.names([(e, f, "meet")])[0]

    def join(self, e: str, f: str) -> str:
        return self.names([(e, f, "join")])[0]

    def certain(self, e: str) -> frozenset[str]:
        """The states whose ray lies in ``e``'s subspace."""
        out = self._certain.get(e)
        if out is None:
            out = self._certain[e] = self._within(e, _residual_norms)
        return out

    def orthogonal(self, e: str) -> frozenset[str]:
        """The states whose ray is orthogonal to ``e``'s subspace."""
        out = self._orthogonal.get(e)
        if out is None:
            out = self._orthogonal[e] = self._within(e, _projection_norms)
        return out

    def _within(self, e: str, norms) -> frozenset[str]:
        """The states whose ray's row has ``norms(basis, rows)``, against
        ``e``'s basis, not above the table's tolerance; one call decides
        every ray.  Each ray is its basis's one row: ``make_model``
        refuses a ray of any other rank, and :meth:`Subspace.ray`, which
        builds the rays of ``load_model`` and ``build_qm_model``, returns
        rank 1 or raises."""
        sub = self._subspace(e)
        if self._ray_rows is None:
            self._ray_rows = np.array(
                [ray.basis[0] for ray in self._rays.values()],
                dtype=complex).reshape(len(self._rays), sub.dim)
        outside = (norms(sub.basis, self._ray_rows) > self._tol).tolist()
        return frozenset(s for s, out in zip(self._rays, outside) if not out)


def _annotation(model: "Model") -> HilbertAnnotation:
    """The model's Hilbert annotation; raises :class:`NoHilbertAnnotation`
    when it has none."""
    if model.hilbert is None:
        raise NoHilbertAnnotation("model carries no Hilbert annotation")
    return model.hilbert


def certain_states(model: "Model", prop: str) -> frozenset[str]:
    """States whose ray lies inside the property's subspace.

    This is the map sending each property to the set of states where it
    is certain; its image, ordered by inclusion, is the lattice of
    physical propositions of the quantum model.  Read from the
    annotation's :class:`PropertyTable`, which raises
    :class:`UnknownProperty` for a property it does not declare.
    """
    return _annotation(model).table.certain(prop)


def state_lattice(model: "Model") -> OrthoLattice:
    """Ortholattice of certain-state sets of a quantum model.

    The lattice is built from the order: the certain-state sets ordered
    by inclusion, whose glb/lub tables are the lattice meet and join
    (:class:`~qlprop.lattice.OrthoLattice`), and each element's
    complement read from the annotation's property table.  Requires the
    declared property subspaces to be closed under complement, meet and
    join: the table is asked for every complement, meet and join in one
    batch, and raises :class:`NotOperationClosed` at the first that no
    property realises.  If two properties share a certain-state set the
    lattice is still built, with a warning, using the first property per
    set in declaration order.  Only the table is kept: the poset is
    rebuilt, and the warnings are issued, on every call.
    """
    props = list(model.properties)
    table = _annotation(model).table
    # all complements first, then meet before join per pair: this order
    # decides which NotOperationClosed is raised first
    names = table.names([(e, "ortho") for e in props]
                        + [(e, f, op) for e in props for f in props
                           for op in ("meet", "join")])

    # each certain-state set's element index, and the first property of
    # each element
    index: dict[frozenset, int] = {}
    reps: list[int] = []
    for i, e in enumerate(props):
        k = index.setdefault(table.certain(e), len(index))
        if k < len(reps):
            warnings.warn(
                f"properties {props[reps[k]]!r} and {e!r} share "
                f"the certain-state set; using the first",
                ThetaNotInjectiveWarning)
        else:
            reps.append(i)
    return OrthoLattice(_set_poset(index, model.states),
                        [index[table.certain(names[i])] for i in reps])


def closure_generate(dim: int, generators: Sequence[Subspace],
                     cap: int) -> list[Subspace]:
    """Smallest set of subspaces containing the generators and closed
    under complement, meet and join.

    The generators are the first round's results.  Each later round is
    semi-naive: it complements the elements the previous round kept, then
    takes meet before join for each pair (i, j), i < j, in row-major
    order, where j is one of those elements; a pair of older elements was
    combined in an earlier round.  A result is kept, in this order, when
    it equals no element kept before it, those kept earlier in its round
    included; its round decides that by mutual containment in one
    :func:`_equal_matrix` per rank (:func:`_rank_groups`) over the kept
    elements and the round's results.  The generators must share one
    tolerance, which decides every residual, or :class:`InvalidTolerance`
    is raised.  Raises :class:`ClosureCapExceeded` if the closure would
    grow past ``cap`` (some generator configurations have infinite
    closures).
    """
    if cap < len(generators):
        raise ClosureCapExceeded(
            f"cap {cap} is smaller than the {len(generators)} generators")
    tol = generators[0].tol if generators else DEFAULT_TOL
    for g in generators:
        if g.dim != dim:
            raise DimensionMismatch(
                f"generator of dimension {g.dim} in closure of dimension {dim}")
        if g.tol != tol:
            raise InvalidTolerance(f"generators must share one tolerance, got "
                                   f"{tol!r} and {g.tol!r}")
    elems, found = [], list(generators)
    while found:
        start, pool = len(elems), elems + found
        new = []
        for idx, equal in _rank_groups(pool, tol):
            rows = equal.tolist()
            # the group's kept elements come first, as pool lists them
            kept = [k for k, i in enumerate(idx) if i < start]
            for k in range(len(kept), len(idx)):
                if not any(rows[k][j] for j in kept):
                    kept.append(k)
                    new.append(idx[k])
        elems += [pool[i] for i in sorted(new)]
        if len(elems) > cap:
            raise ClosureCapExceeded(f"closure exceeds cap {cap}")
        size = len(elems)
        found = _operate([("ortho", x, None) for x in elems[start:]]
                         + [(op, elems[i], elems[j]) for i in range(size)
                            for j in range(max(i + 1, start), size)
                            for op in ("meet", "join")], tol)
    return elems
