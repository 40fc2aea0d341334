"""Subspace geometry tests.

The oracle route works on projector matrices: eigenvectors of
P_a + P_b with eigenvalue near 2 span the intersection, those with
nonzero eigenvalue span the joint range.  The implementation under
test works on orthonormal basis rows instead, so agreement is
meaningful.
"""

import functools
import gc
import itertools
import random
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qlprop.hilbert as hilbert

from qlprop.errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    NoHilbertAnnotation,
    NonOrthonormalBasis,
    NotOperationClosed,
    RankError,
    SchemaError,
    ThetaNotInjectiveWarning,
    UnknownProperty,
)
from qlprop.hilbert import (
    DEFAULT_TOL,
    MAX_TOL,
    MIN_TOL,
    Subspace,
    certain_states,
    closure_generate,
    contains,
    join,
    meet,
    ortho,
    state_lattice,
)
from qlprop.model import (
    HilbertAnnotation,
    build_qm_model,
    dump_model,
    load_model,
    m_qbit,
    m_qutrit,
    m_sr,
    make_model,
)
from qlprop.quantum import check_tq_equalities

from helpers import (
    join_open,
    mo2_qubit,
    non_injective_qubit,
    null_space_meet,
    oracle_meet_name,
    projector_equal,
    projector_join,
    projector_meet,
    random_subspace_vectors,
    random_unit,
    reference_closure,
    span_projector,
)

# ---------------------------------------------------------------------------
# oracle self-checks on cases solvable by hand


def test_projector_oracle_plane_meet_in_r3():
    # span{e1,e2} meet span{e2,e3} = span{e2}
    pa = np.diag([1.0, 1.0, 0.0]).astype(complex)
    pb = np.diag([0.0, 1.0, 1.0]).astype(complex)
    assert np.allclose(projector_meet(pa, pb), np.diag([0, 1, 0]))
    assert np.allclose(projector_join(pa, pb), np.eye(3))


def test_projector_oracle_disjoint_rays():
    pa = np.diag([1.0, 0.0]).astype(complex)
    pb = np.diag([0.0, 1.0]).astype(complex)
    assert np.allclose(projector_meet(pa, pb), np.zeros((2, 2)))
    assert np.allclose(projector_join(pa, pb), np.eye(2))


# ---------------------------------------------------------------------------
# construction and validation


def test_span_drops_dependent_vectors():
    s = Subspace.span([[1, 0, 0], [2, 0, 0], [0, 1, 0]], dim=3)
    assert s.rank == 2


def test_span_near_duplicate_collapses():
    v = np.array([1.0, 0.0])
    w = v + 1e-12 * np.array([0.0, 1.0])
    assert Subspace.span([v, w], dim=2).rank == 1


def test_ray_of_zero_vector_rejected():
    with pytest.raises(RankError):
        Subspace.ray([0.0, 0.0])


def test_direct_constructor_validates_orthonormality():
    with pytest.raises(NonOrthonormalBasis):
        Subspace(2, np.array([[1.0, 1.0]], dtype=complex))
    with pytest.raises(NonOrthonormalBasis):
        Subspace(2, np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))


def test_constructor_refuses_rows_off_orthonormal_beyond_rounding():
    # a basis of C^3 whose Gram matrix has off-diagonal entries 0.9e-3:
    # within tol 1e-3 of the identity, but on it the meet kernel gives
    # meet(F, F) rank 2, so it is refused at every tolerance
    gram = np.full((3, 3), 0.9e-3) + (1 - 0.9e-3) * np.eye(3)
    w, v = np.linalg.eigh(gram)
    rows = (v * np.sqrt(w)) @ v.T  # the symmetric square root of gram
    assert np.allclose(rows @ rows.T, gram)
    for tol in (MIN_TOL, DEFAULT_TOL, MAX_TOL):
        with pytest.raises(NonOrthonormalBasis) as exc:
            Subspace(3, rows, tol)
        assert str(exc.value) == "basis rows are not orthonormal within 1e-12"


@st.composite
def _span_inputs(draw):
    """Vectors for ``Subspace.span`` in C^dim (dim 1..4): random ones,
    zeros, and combinations of earlier ones moved off their span by 0.5
    to 10 times tol, at a tolerance from ``MIN_TOL`` to ``MAX_TOL``."""
    dim = draw(st.integers(1, 4))
    tol = 10.0 ** draw(st.floats(-12, -3))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    vectors: list[np.ndarray] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "near"]))
        if kind == "zero":
            vectors.append(np.zeros(dim, dtype=complex))
        elif kind == "near" and vectors:
            v = sum(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * u
                    for u in vectors)
            scale = tol * draw(st.sampled_from([0.5, 0.99, 1.01, 1.5, 10.0]))
            vectors.append(v + scale * max(1.0, np.linalg.norm(v))
                           * random_unit(rng, dim))
        else:
            vectors.append(random_unit(rng, dim)
                           * draw(st.sampled_from([1e-3, 1.0, 1e3])))
    return dim, vectors, tol


@given(_span_inputs())
@settings(max_examples=300, deadline=None)
def test_span_rows_pass_the_constructor_check(inputs):
    # the constructor's fixed rounding bound refuses no basis span makes
    dim, vectors, tol = inputs
    rows = Subspace.span(vectors, dim, tol).basis
    assert Subspace(dim, rows, tol).rank == len(rows)


def test_dim_mismatch():
    a = Subspace.ray([1, 0])
    b = Subspace.ray([1, 0, 0])
    with pytest.raises(DimensionMismatch):
        join(a, b)


def test_zero_and_full():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.rank == 0 and f.rank == 3
    assert contains(f, z) and not contains(z, f)
    assert ortho(z) == f and ortho(f) == z


# ---------------------------------------------------------------------------
# frozen complex fixture


def test_complex_ray_orthocomplement():
    s = Subspace.ray([1, 1j])
    t = ortho(s)
    assert t == Subspace.ray([1j, 1])
    assert abs(np.vdot(s.basis[0], t.basis[0])) < 1e-12


def test_projection_values():
    s = Subspace.ray([1, 1j])  # normalized internally
    v = np.array([1.0, 0.0], dtype=complex)
    p = s.project(v)
    # <(1,i)/sqrt2, (1,0)> = 1/sqrt2, so the projection has norm 1/sqrt2
    assert abs(np.linalg.norm(p) - 1 / np.sqrt(2)) < 1e-12
    assert np.allclose(s.project(p), p)


def test_projector_matrix_is_hermitian_idempotent():
    s = Subspace.span([[1, 1j, 0], [0, 1, 1]], dim=3)
    p = s.projector()
    assert np.allclose(p, p.conj().T)
    assert np.allclose(p @ p, p)
    assert abs(np.trace(p).real - s.rank) < 1e-9


# ---------------------------------------------------------------------------
# meet/join against the projector oracle (the dual route)


def test_meet_join_match_projector_oracle_randomized():
    rng = random.Random(23)
    for trial in range(200):
        dim = rng.randint(1, 5)
        a = Subspace.span([random_unit(rng, dim)
                           for _ in range(rng.randint(0, dim))], dim)
        b = Subspace.span([random_unit(rng, dim)
                           for _ in range(rng.randint(0, dim))], dim)
        ja = join(a, b).projector()
        jo = projector_join(a.projector(), b.projector())
        assert np.max(np.abs(ja - jo)) < 1e-8, trial
        ma = meet(a, b).projector()
        mo = projector_meet(a.projector(), b.projector())
        assert np.max(np.abs(ma - mo)) < 1e-8, trial


def _closure_model(seed: int, axes: bool):
    """A model on a closure of random rays of C^3, with those rays as its
    states: two random rays, or the three axes and a random ray in the
    plane of the first two.  Either closure has 12 elements."""
    rng = random.Random(seed)
    if axes:
        v = random_unit(rng, 2)
        rays = [*np.eye(3), [v[0], v[1], 0]]
    else:
        rays = [random_unit(rng, 3) for _ in range(2)]
    closure = closure_generate(3, [Subspace.ray(v) for v in rays], cap=64)
    return build_qm_model(
        3, {f"S{i}": v for i, v in enumerate(rays)},
        {f"P{i}": sub.basis for i, sub in enumerate(closure)})


@pytest.mark.parametrize("name, build", [
    ("m_qutrit", m_qutrit),
    *((f"mo2-{seed}", functools.partial(mo2_qubit, seed))
      for seed in range(40)),
    *((f"closure-{kind}-{seed}", functools.partial(_closure_model, seed, axes))
      for kind, axes in (("rays", False), ("axes", True))
      for seed in range(5))])
def test_de_morgan_joins_match_the_projector_oracle(name, build):
    # the table reads E v F as ~(~E & ~F); the oracle takes the range of
    # P_E + P_F, with the projectors formed here from the basis rows
    m = build()
    subs, table = m.hilbert.property_subspaces, m.hilbert.table
    proj = {e: s.basis.T @ s.basis.conj() for e, s in subs.items()}
    for e, f in itertools.product(subs, repeat=2):
        got = table.join(e, f)
        assert np.max(np.abs(
            proj[got] - projector_join(proj[e], proj[f]))) < 1e-8, (e, f)
        # and the property the direct join's subspace matches
        direct = join(subs[e], subs[f])
        assert got == next(p for p, s in subs.items() if s == direct), (e, f)


def test_meet_of_overlapping_planes():
    a = Subspace.span([[1, 0, 0], [0, 1, 0]], dim=3)
    b = Subspace.span([[0, 1, 0], [0, 0, 1]], dim=3)
    assert meet(a, b) == Subspace.ray([0, 1, 0], dim=3)
    assert join(a, b) == Subspace.full(3)


def test_meet_of_skew_rays_is_zero():
    a = Subspace.ray([1, 1])
    b = Subspace.ray([1, -1])
    assert meet(a, b).rank == 0


# ---------------------------------------------------------------------------
# algebraic laws


def test_lattice_laws_randomized():
    rng = random.Random(5)
    for _ in range(100):
        dim = rng.randint(1, 4)
        a = Subspace.span([random_unit(rng, dim)
                           for _ in range(rng.randint(0, dim))], dim)
        b = Subspace.span([random_unit(rng, dim)
                           for _ in range(rng.randint(0, dim))], dim)
        assert ortho(ortho(a)) == a
        assert a.rank + ortho(a).rank == dim
        assert contains(join(a, b), a) and contains(join(a, b), b)
        assert contains(a, meet(a, b)) and contains(b, meet(a, b))
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)
        # absorption
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a
        # De Morgan against the oracle route
        assert ortho(join(a, b)) == meet(ortho(a), ortho(b))


def test_containment_is_a_partial_order():
    a = Subspace.span([[1, 0, 0]], dim=3)
    b = Subspace.span([[1, 0, 0], [0, 1, 0]], dim=3)
    assert contains(b, a)
    assert not contains(a, b)
    assert contains(a, a)
    # antisymmetry via __eq__
    c = Subspace.span([[2, 0, 0], [0, 3, 0]], dim=3)
    assert contains(b, c) and contains(c, b) and b == c


@st.composite
def _subspace_pairs(draw):
    """A random span ``a`` of rank 0..dim in dimension 1..4, a partner
    ``b`` and a tolerance.  ``b`` spans ``a`` again with every vector
    tilted, or spans a sub- or superspace of ``a`` whose extra vectors
    lie near ``a``, or is an unrelated span.  Tilts run from a thousandth
    of the tolerance to a thousand times it, so near-equal pairs fall on
    both sides of the containment test."""
    dim = draw(st.integers(1, 4))
    tol = draw(st.sampled_from([MIN_TOL, DEFAULT_TOL, MAX_TOL]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    a = Subspace.span(random_subspace_vectors(rng, dim, draw(st.integers(0, dim))),
                      dim, tol)
    eps = tol * 10.0 ** draw(st.integers(-3, 3))

    def near_a():
        coeffs = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                           for _ in range(a.rank)])
        return coeffs @ a.basis + eps * random_unit(rng, dim)

    kind = draw(st.sampled_from(["tilted", "nested", "unrelated"]))
    rank = a.rank if kind == "tilted" else draw(st.integers(0, dim))
    if kind == "unrelated":
        vectors = random_subspace_vectors(rng, dim, rank)
    elif rank <= a.rank:
        vectors = [near_a() for _ in range(rank)]
    else:
        vectors = list(a.basis) + [near_a() for _ in range(rank - a.rank)]
    return a, Subspace.span(vectors, dim, tol), tol


@given(_subspace_pairs())
@settings(max_examples=500, deadline=None)
def test_equality_matches_projector_mutual_containment(pair):
    a, b, tol = pair
    expected = projector_equal(a.basis, b.basis, tol)
    assume(expected is not None)  # a residual within rounding of tol
    assert (a == b) is expected and (b == a) is expected


@st.composite
def _tilted_pairs(draw, dims=st.integers(1, 4),
                  tols=st.sampled_from([MIN_TOL, DEFAULT_TOL, MAX_TOL])):
    """Subspaces ``a`` and ``b`` of C^dim (dim drawn from ``dims``, ranks
    0..dim), a tolerance drawn from ``tols`` (by default one of the three
    tolerance ends), and the smallest tilt above tol (1.0 if none).

    With q_1..q_dim the rows of a random unitary, ``a`` spans its first
    rank(a) rows.  Each vector of ``b`` is an unused row of ``a``, an
    unused row outside ``a``, or an unused row of ``a`` tilted towards
    an unused row outside by an angle at most tol/10 or at least 10 tol.
    Those vectors are the principal vectors of the pair, so every residual
    of a unit vector of one against the other lies clearly on one side
    of tol."""
    dim = draw(dims)
    tol = draw(tols)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    q = q.T
    rank = draw(st.integers(0, dim))
    inside, outside = list(q[:rank]), list(q[rank:])
    vectors, gap = [], 1.0
    for _ in range(draw(st.integers(0, dim))):
        kinds = [k for k, ok in (("row", inside), ("outside", outside),
                                 ("tilted", inside and outside)) if ok]
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "row":
            vectors.append(inside.pop())
        elif kind == "outside":
            vectors.append(outside.pop())
        else:
            angle = tol * 10.0 ** draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            vectors.append(np.cos(angle) * inside.pop()
                           + np.sin(angle) * outside.pop())
            if angle > tol:
                gap = min(gap, angle)
    a = Subspace.span(q[:rank], dim, tol)
    return a, Subspace.span(vectors, dim, tol), tol, gap


@given(_tilted_pairs())
@settings(max_examples=400, deadline=None)
def test_residual_rule_meet_ortho_join(pair):
    a, b, tol, gap = pair
    # rounding moves a computed subspace by about 1e-16 over the gap
    # separating it from its neighbours
    slack = 10 * tol + 1e-13 / gap
    dim = a.dim
    for x in (a, b):
        assert ortho(x).rank == dim - x.rank
    m = meet(a, b)
    assert (m == a) is contains(b, a)
    assert contains(a, m) and contains(b, m)
    oracle_meet = null_space_meet(a.projector(), b.projector(), thresh=tol)
    assert m.rank == round(np.trace(oracle_meet).real)
    assert np.max(np.abs(m.projector() - oracle_meet)) < slack
    j = join(a, b)
    oracle_join = span_projector(np.vstack([a.basis, b.basis]), dim, thresh=tol)
    assert j.rank == round(np.trace(oracle_join).real)
    assert np.max(np.abs(j.projector() - oracle_join)) < slack


def test_join_near_tol_is_order_independent():
    # b's two vectors both lie within 1e-7 of a = span(e1); their
    # difference spans a second direction.  A rule that decides one vector
    # at a time (Gram-Schmidt over a's rows, then b's) keeps a third,
    # noise-level direction for join(a, b) but not for join(b, a).
    tol = 1e-9
    a = Subspace.span([[1, 0, 0]], 3, tol)
    b = Subspace.span([[1, 1e-7, 0], [1, -1e-7, 1e-10]], 3, tol)
    assert contains(b, a)
    assert join(a, b).rank == join(b, a).rank == 2
    assert join(a, b) == join(b, a) == b


@st.composite
def _near_pairs(draw):
    """Subspaces ``a`` (rank 1..dim of C^dim, dim 2..4) and ``b``, the span
    of vectors that each lie near ``a``: a random combination of a's rows
    plus a random unit vector scaled by tol * 10**k, k in -3..3.  Two such
    vectors can span a direction far from ``a`` (their difference) while
    ``a`` stays within tol of ``b``, the shape of the case in
    :func:`test_join_near_tol_is_order_independent`."""
    dim = draw(st.integers(2, 4))
    tol = draw(st.sampled_from([MIN_TOL, DEFAULT_TOL, MAX_TOL]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(1, dim))
    a = Subspace.span(random_subspace_vectors(rng, dim, rank), dim, tol)
    vectors = []
    for _ in range(draw(st.integers(1, dim))):
        coeffs = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                           for _ in range(a.rank)])
        eps = tol * 10.0 ** draw(st.integers(-3, 3))
        vectors.append(coeffs @ a.basis + eps * random_unit(rng, dim))
    return a, Subspace.span(vectors, dim, tol), tol, None


def _principal_sines(a, b):
    """Sines of the principal angles between ``a`` and ``b``, from both
    sides, as the singular values of (I - P) Q on projector matrices."""
    eye = np.eye(a.dim)
    return [s for x, y in ((a, b), (b, a)) if y.rank
            for s in np.linalg.svd((eye - x.projector()) @ y.basis.T,
                                   compute_uv=False)]


@given(st.one_of(_tilted_pairs(), _near_pairs()))
@settings(max_examples=400, deadline=None)
def test_join_is_commutative_and_absorbs_a_contained_operand(pair):
    a, b, tol, _ = pair
    # every principal angle clearly inside tol or clearly outside it, also
    # for a row that shares it with the others of a rank-dim basis
    sines = _principal_sines(a, b)
    assume(all(s < tol / 2 or s > 2 * np.sqrt(a.dim) * tol for s in sines))
    ab, ba = join(a, b), join(b, a)
    assert ab.rank == ba.rank
    if contains(b, a):
        assert ab.rank == b.rank
    if contains(a, b):
        assert ab.rank == a.rank
    # a direction at angle s from a carries rounding of about eps / s, so
    # the results agree to that, and within tol where it is far below tol
    above = [s for s in sines if s > tol]
    slack = 10 * tol + 1e-13 / min(above, default=1.0)
    assert np.max(np.abs(ab.projector() - ba.projector())) < slack
    if slack < 11 * tol:
        assert ab == ba
        if contains(b, a):
            assert ab == b
        if contains(a, b):
            assert ab == a


def _oracle_projector(op, a, b=None):
    """The projector onto ``op`` of ``a`` and ``b`` by the projector
    oracle, at tolerance max(tol_a, tol_b)."""
    if op == "ortho":
        return np.eye(a.dim) - a.projector()
    tol = max(a.tol, b.tol)
    if op == "meet":
        return null_space_meet(a.projector(), b.projector(), thresh=tol)
    return span_projector(np.vstack([a.basis, b.basis]), a.dim, thresh=tol)


@st.composite
def _stacks(draw):
    """Two to eight pairs from :func:`_tilted_pairs` in one dimension and
    at one tolerance end, so that operations on equal operand ranks share
    a stack, which decides them all at that tolerance."""
    dim = draw(st.integers(1, 4))
    tol = draw(st.sampled_from([MIN_TOL, DEFAULT_TOL, MAX_TOL]))
    return draw(st.lists(_tilted_pairs(st.just(dim), st.just(tol)),
                         min_size=2, max_size=8))


def _ops(pairs):
    ops = []
    for a, b, _, _ in pairs:
        ops += [("ortho", a, None), ("ortho", b, None), ("meet", a, b),
                ("meet", b, a), ("join", a, b), ("join", b, a)]
    return ops


@given(_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_kernels_match_the_projector_oracle(pairs):
    slack = max(10 * tol + 1e-13 / gap for _, _, tol, gap in pairs)
    ops = _ops(pairs)
    for (op, a, b), got in zip(ops, hilbert._operate(ops, pairs[0][2])):
        want = _oracle_projector(op, a, b)
        assert got.rank == round(np.trace(want).real)
        assert np.max(np.abs(got.projector() - want)) < slack
        gram = got.basis @ got.basis.conj().T
        assert np.max(np.abs(gram - np.eye(got.rank)), initial=0) < 1e-13


@given(_stacks())
@settings(max_examples=200, deadline=None)
def test_a_stack_of_operations_gives_the_single_calls_results(pairs):
    ops = _ops(pairs)
    single = {"ortho": lambda a, _: ortho(a), "meet": meet, "join": join}
    for (op, a, b), got in zip(ops, hilbert._operate(ops, pairs[0][2])):
        want = single[op](a, b)
        assert np.array_equal(got.basis, want.basis) and got.tol == want.tol


def test_span_scales_huge_vectors_without_overflow():
    s = Subspace.span([[1e308, 1e308], [1e308, 1e308]], 2)
    assert s.rank == 1 and s == Subspace.ray([1, 1])
    s = Subspace.span([[1.5e308 + 1.5e308j, 0], [0, 1e-5]], 2)
    assert s == Subspace.full(2)
    # the threshold tol * max(1, |v|) stays in the vector's own units
    assert Subspace.span([[1e300, 0], [1e300, 1e288]], 2).rank == 1
    assert Subspace.span([[1e300, 0], [1e300, 1e295]], 2).rank == 2
    assert Subspace.span([[1e-10, 0], [0, 2e-9]], 2).rank == 1


def test_meet_and_ortho_are_one_svd_each(monkeypatch):
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    a = Subspace.span([[1, 0, 0], [0, 1, 0]], dim=3)
    b = Subspace.span([[0, 1, 0], [0, 0, 1]], dim=3)
    assert ortho(a) == Subspace.ray([0, 0, 1], dim=3) and len(calls) == 1
    assert meet(a, b) == Subspace.ray([0, 1, 0], dim=3) and len(calls) == 2


@st.composite
def _families(draw):
    """A family of subspaces of C^dim (dim 1..4) with ranks 0..dim, and
    the tolerance they are built with.

    Members are fresh spans of random vectors, duplicates of earlier
    members (the same object, or a span of its rows in reverse order),
    or earlier members with one row tilted towards their complement by
    0.5, 1.25 or 2 times the member's tol.  Where the member has another
    row, the two are then mixed at 45 degrees: the tilt leaves a residual
    of 1/sqrt(2) of it on each mixed row against the member, while the
    member's row keeps the whole tilt against the result, so at 1.25 tol
    the tilted member lies inside the member but not the other way round.
    Every member has the family's one tol, as every model's subspaces do.
    Tilts of tilted members compose, so a residual can land on its
    threshold; :func:`_assume_clear` skips those examples.  Dimensions 3
    and 4 come first: only there can a tilted member of rank 2 or more
    lie inside its member one way only.
    """
    dim = draw(st.sampled_from([3, 4, 2, 1]))
    tol = draw(st.sampled_from([MIN_TOL, DEFAULT_TOL, MAX_TOL]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    family: list[Subspace] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "tilted"]))
        tiltable = [x for x in family if 0 < x.rank < dim]
        if kind == "duplicate" and family:
            x = draw(st.sampled_from(family))
            family.append(draw(st.sampled_from(
                [x, Subspace.span(x.basis[::-1], dim, tol)])))
        elif kind == "tilted" and tiltable:
            x = draw(st.sampled_from(tiltable))
            angle = x.tol * draw(st.sampled_from([0.5, 1.25, 2.0]))
            rows = x.basis.copy()
            i = draw(st.integers(0, x.rank - 1))
            rows[i] = np.cos(angle) * rows[i] + np.sin(angle) * ortho(x).basis[0]
            if x.rank > 1:
                k = (i + 1) % x.rank
                rows[i], rows[k] = ((rows[i] + rows[k]) / np.sqrt(2),
                                    (rows[i] - rows[k]) / np.sqrt(2))
            family.append(Subspace.span(rows, dim, tol))
        else:
            rank = draw(st.integers(0, dim))
            family.append(Subspace.span(
                random_subspace_vectors(rng, dim, rank), dim, tol))
    return family, tol


def _assume_clear(subspaces):
    """Skip an example in which some row's residual against some other
    subspace lies within rounding of its threshold: there the batched and
    the pairwise products may round to different sides of it."""
    for a in subspaces:
        for b in subspaces:
            if a.dim == b.dim and b.rank:
                tol = max(a.tol, b.tol)
                r = b.basis - (b.basis @ a.basis.conj().T) @ a.basis
                gap = np.abs(np.linalg.norm(r, axis=1) - tol)
                assume(gap.min() > max(1e-3 * tol, 1e-14))


def _first_equal_pair_by_loop(family):
    return next(((i, j) for i, j in itertools.combinations(range(len(family)), 2)
                 if family[i] == family[j]), None)


@given(_families())
@settings(max_examples=300, deadline=None)
def test_batched_distinctness_matches_the_pairwise_loop(fam):
    family, tol = fam
    _assume_clear(family)
    pair = _first_equal_pair_by_loop(family)
    assert hilbert._first_equal_pair(family, tol) == pair
    # make_model names the same first pair
    dim = family[0].dim
    names = [f"P{i}" for i in range(len(family))]
    ann = HilbertAnnotation(dim, {"S": Subspace.ray(np.eye(dim)[0], dim, tol)},
                            dict(zip(names, family)))

    def build():
        return make_model(["S"], {"S": ["a"]}, names,
                          {"S": {e: [] for e in names}}, hilbert=ann)

    if pair is None:
        build()
    else:
        with pytest.raises(SchemaError) as exc:
            build()
        assert str(exc.value) == (f"properties 'P{pair[0]}' and "
                                  f"'P{pair[1]}' map to the same subspace")


@given(_families(), st.data())
@settings(max_examples=300, deadline=None)
def test_property_table_matches_the_pairwise_loops(fam, data):
    family, tol = fam
    dim = family[0].dim
    subs = {f"P{i}": x for i, x in enumerate(family)}
    # rays: rows of members, rows tilted off them, and random directions
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    rays = {}
    for i, x in enumerate(family):
        for j, row in enumerate(x.basis):
            if x.rank < dim and data.draw(st.booleans()):
                angle = tol * data.draw(st.sampled_from([0.5, 0.75, 1.5, 2.0]))
                row = np.cos(angle) * row + np.sin(angle) * ortho(x).basis[0]
            rays[f"S{i}.{j}"] = Subspace.ray(row, dim, tol)
    rays["R"] = Subspace.ray(random_unit(rng, dim), dim, tol)
    targets = family + [ortho(x) for x in family]
    # a pool for one long call: the targets, 0 and the whole space, and
    # each target of a proper rank with a row tilted by 0.5 to 2 tol
    pool = targets + [Subspace.zero(dim, tol), Subspace.full(dim, tol)]
    for x in targets:
        if 0 < x.rank < dim:
            angle = x.tol * data.draw(st.sampled_from([0.5, 0.75, 1.5, 2.0]))
            rows = x.basis.copy()
            rows[0] = np.cos(angle) * rows[0] + np.sin(angle) * ortho(x).basis[0]
            pool.append(Subspace.span(rows, dim, x.tol))
    _assume_clear(pool + list(rays.values()))
    table = hilbert.PropertyTable(HilbertAnnotation(dim, rays, subs))
    for e, x in subs.items():
        assert table.certain(e) == frozenset(
            s for s, ray in rays.items() if contains(x, ray))
    # every member and its complement, twice: the second lookup reads
    # the rank groups the first one built
    for target in targets + targets:
        assert table._property_of([target]) == [next(
            (e for e, x in subs.items() if x == target), None)]
    # and stacked: every target, of mixed ranks, in one call
    assert table._property_of(targets) == [next(
        (e for e, x in subs.items() if x == target), None)
        for target in targets]
    # and 40 to 60 targets of all ranks in one call
    many = rng.choices(pool, k=data.draw(st.integers(40, 60)))
    assert table._property_of(many) == [next(
        (e for e, x in subs.items() if x == target), None)
        for target in many]


def _assert_meets_commute(ann):
    """The table names every ordered meet as the ordered-meet oracle
    names that pair in both orders: in one fill of every key, and one key
    at a time on fresh tables, the reversed order asked first."""
    names = list(ann.property_subspaces)
    keys = [(e, f, "meet") for e in names for f in names]
    expected = {(e, f): oracle_meet_name(ann, e, f) for e, f, _ in keys}
    filled = hilbert.PropertyTable(ann)._fill(keys)
    for (e, f, _), name in zip(keys, filled):
        assert name == expected[e, f] == expected[f, e], (e, f)
        table = hilbert.PropertyTable(ann)
        assert table._fill([(f, e, "meet"), (e, f, "meet")]) == [name, name]


@pytest.mark.parametrize("build", [
    m_qbit, m_qutrit, join_open, non_injective_qubit,
    *(functools.partial(mo2_qubit, seed) for seed in range(40))])
def test_meet_names_commute_on_the_fixtures(build):
    _assert_meets_commute(build().hilbert)


@given(_families())
@settings(max_examples=300, deadline=None)
def test_meet_names_commute_on_tilted_families(fam):
    # the rank rules hold where no two properties are equal, as in every
    # model: a member equal to an earlier one is left out.  At a residual
    # within rounding of tol the kernel's two orders can name different
    # properties, so those examples are skipped.
    family, tol = fam
    members: list[Subspace] = []
    for x in family:
        if all(x != y for y in members):
            members.append(x)
    _assume_clear(members)
    dim = family[0].dim
    _assert_meets_commute(HilbertAnnotation(
        dim, {"S": Subspace.ray(np.eye(dim)[0], dim, tol)},
        {f"P{i}": x for i, x in enumerate(members)}))


@st.composite
def _rank_annotations(draw):
    """A model's annotation, through ``make_model``, whose properties
    include the zero and the whole space, pairwise unequal at one
    tolerance drawn from three.  Members are spans of rows of one random
    frame, so that their meets and complements are often members too,
    random generic spans, or members with a row tilted by 1.25 or 2 tol,
    just unequal to them.  Two variants that ``make_model`` refuses are
    checked on the way: one member at another tolerance, and one to three
    members repeated on other basis rows."""
    dim = draw(st.sampled_from([3, 4, 2, 1]))
    tols = [MIN_TOL, DEFAULT_TOL, 1e-6]
    tol = draw(st.sampled_from(tols))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    frame = Subspace.span(random_subspace_vectors(rng, dim, dim), dim).basis
    family = [Subspace.zero(dim, tol), Subspace.full(dim, tol)]
    for _ in range(draw(st.integers(1, 5))):
        how = draw(st.sampled_from(["frame", "generic", "tilted"]))
        tiltable = [x for x in family if 0 < x.rank < dim]
        if how == "tilted" and tiltable:
            x = draw(st.sampled_from(tiltable))
            angle = tol * draw(st.sampled_from([1.25, 2.0]))
            rows = x.basis.copy()
            rows[0] = np.cos(angle) * rows[0] + np.sin(angle) * ortho(x).basis[0]
            family.append(Subspace.span(rows, dim, tol))
            continue
        rank = draw(st.integers(0, dim))
        rows = (frame[sorted(rng.sample(range(dim), rank))] if how == "frame"
                else random_subspace_vectors(rng, dim, rank))
        family.append(Subspace.span(rows, dim, tol))
    members: list[Subspace] = []
    for x in family:
        if all(x != y for y in members):
            members.append(x)
    members = draw(st.permutations(members))
    _assume_clear(members)
    ray = Subspace.ray(frame[0], dim, tol)

    def build(members):
        subs = {f"P{i}": x for i, x in enumerate(members)}
        return make_model(["S"], {"S": ["a"]}, list(subs),
                          {"S": {e: [] for e in subs}},
                          hilbert=HilbertAnnotation(dim, {"S": ray}, subs))

    # one member at another tolerance
    i = draw(st.integers(0, len(members) - 1))
    other = draw(st.sampled_from([t for t in tols if t != tol]))
    with pytest.raises(SchemaError) as exc:
        build(members[:i] + [Subspace._of_rows(members[i].basis, other)]
              + members[i + 1:])
    assert str(exc.value) == (f"rays and subspaces must share one tolerance, "
                              f"got {tol!r} and {other!r}")
    # the same subspaces on their rows mixed by a random unitary
    duplicates = list(members)
    for x in draw(st.lists(st.sampled_from(members), min_size=1, max_size=3)):
        mix = Subspace.span(random_subspace_vectors(rng, x.rank, x.rank),
                            x.rank).basis if x.rank else np.zeros((0, 0))
        duplicates.append(Subspace.span(mix @ x.basis, dim, tol))
    duplicates = draw(st.permutations(duplicates))
    _assume_clear(duplicates)
    with pytest.raises(SchemaError) as exc:
        build(duplicates)
    a, b = _first_equal_pair_by_loop(duplicates)
    assert str(exc.value) == (f"properties 'P{a}' and 'P{b}' map to the "
                              f"same subspace")
    return build(members).hilbert


def _kernel_names(ann: HilbertAnnotation, keys) -> list:
    """The name the kernel route gives each key: the result of its
    operation, computed by ``_operate`` alone, matched by
    ``_property_of``; a join E v F read as ~(~E & ~F) from those, as the
    table reads it, so None where a complement or the meet is."""
    table, subs, memo = hilbert.PropertyTable(ann), ann.property_subspaces, {}

    def name(key):
        if key not in memo:
            if key[-1] == "join":
                e, f, _ = key
                ce, cf = name((e, "ortho")), name((f, "ortho"))
                m = None if None in (ce, cf) else name((ce, cf, "meet"))
                memo[key] = None if m is None else name((m, "ortho"))
            else:
                b = subs[key[1]] if key[-1] == "meet" else None
                memo[key] = table._property_of(hilbert._operate(
                    [(key[-1], subs[key[0]], b)], subs[key[0]].tol))[0]
        return memo[key]

    return [name(key) for key in keys]


@given(_rank_annotations())
@settings(max_examples=200, deadline=None)
def test_rank_decided_keys_get_the_kernel_route_names(ann):
    names = list(ann.property_subspaces)
    keys = [(e, "ortho") for e in names] + [
        (e, f, op) for e in names for f in names for op in ("meet", "join")]
    expected = _kernel_names(ann, keys)
    # all keys in one fill
    assert hilbert.PropertyTable(ann)._fill(keys) == expected
    # and one key at a time through names, which raises for a None
    table = hilbert.PropertyTable(ann)
    for key, name in zip(keys, expected):
        if name is None:
            with pytest.raises(NotOperationClosed) as exc:
                table.names([key])
            assert exc.value.witness == key
        else:
            assert table.names([key]) == [name]


def test_containment_one_way_only_is_not_equality():
    # b is a with one row tilted by 1.25 tol and mixed with the other: each
    # row of b leaves 1.25/sqrt(2) tol against a, a's first row 1.25 tol
    tol = DEFAULT_TOL
    a = Subspace.span([[1, 0, 0], [0, 1, 0]], 3, tol)
    angle = 1.25 * tol
    tilted = [np.cos(angle), 0, np.sin(angle)]
    b = Subspace.span([np.add(tilted, [0, 1, 0]) / np.sqrt(2),
                       np.subtract(tilted, [0, 1, 0]) / np.sqrt(2)], 3, tol)
    assert contains(a, b) and not contains(b, a) and a != b
    assert hilbert._first_equal_pair([a, b], tol) is None
    for subs in ({"A": a, "B": b}, {"B": b, "A": a}):
        table = hilbert.PropertyTable(HilbertAnnotation(
            3, {"S": Subspace.ray([0, 0, 1], 3)}, subs))
        assert table._property_of([a, b]) == ["A", "B"]
    # a free pair decides with the larger tolerance: at 3 tol both
    # directions hold
    b3 = Subspace._of_rows(b.basis, 3 * tol)
    assert a == b3 and hilbert._first_equal_pair([a, b], 3 * tol) == (0, 1)


def test_first_equal_pair_is_the_least_over_the_rank_groups():
    # the rank-1 group (indices 0, 3, 4) is met first and its pair (3, 4)
    # is found first by rank order too, but the rank-2 pair (1, 2) comes
    # first in combinations order
    r = 0.5 ** 0.5
    family = [Subspace.ray([1, 0, 0]),
              Subspace.span([[1, 0, 0], [0, 1, 0]], 3),
              Subspace.span([[r, r, 0], [r, -r, 0]], 3),
              Subspace.ray([0, 1, 0]), Subspace.ray([0, 1j, 0])]
    assert hilbert._first_equal_pair(family, DEFAULT_TOL) == (1, 2)
    assert hilbert._first_equal_pair(family[:2] + family[3:], DEFAULT_TOL) == (2, 3)
    names = [f"P{i}" for i in range(len(family))]
    with pytest.raises(SchemaError) as exc:
        make_model(["S"], {"S": ["a"]}, names, {"S": {e: [] for e in names}},
                   hilbert=HilbertAnnotation(
                       3, {"S": Subspace.ray([0, 0, 1])},
                       dict(zip(names, family))))
    assert str(exc.value) == "properties 'P1' and 'P2' map to the same subspace"


def test_loading_a_model_compares_only_subspaces_of_equal_rank(monkeypatch):
    text = dump_model(m_qutrit())
    ann = load_model(text).hilbert
    declared = [*ann.state_rays.values(), *ann.property_subspaces.values()]
    calls = []
    real = hilbert._residual_norms
    monkeypatch.setattr(hilbert, "_residual_norms",
                        lambda a, b, *pair: calls.append((a, b))
                        or real(a, b, *pair))
    load_model(text)
    # one residual per group of two or more: the rays (rank 1), and the
    # properties of rank 1 and of rank 2; ranks 0 and 3 have one each
    assert len(calls) == 3
    for a, b in calls:
        rank = a.shape[-2]
        bases = [s.basis for s in declared if s.rank == rank]
        # every basis, and every block of rank rows tested against it, is
        # the basis of a declared subspace of that same rank
        for block in (*a.reshape(-1, rank, ann.dim),
                      *b.reshape(-1, rank, ann.dim)):
            assert any(np.array_equal(block, x) for x in bases)


def test_state_lattice_matches_each_rank_in_two_residuals(monkeypatch):
    m = m_qutrit()
    calls, matches = [], []
    real = hilbert._residual_norms
    monkeypatch.setattr(hilbert, "_residual_norms",
                        lambda *args: calls.append(1) or real(*args))
    property_of = hilbert.PropertyTable._property_of

    def counting(self, targets):
        before = len(calls)
        out = property_of(self, targets)
        matches.append(({t.rank for t in targets}, len(targets),
                        len(calls) - before))
        return out

    monkeypatch.setattr(hilbert.PropertyTable, "_property_of", counting)
    state_lattice(m)
    # one match of every complement and meet result that ranks leave open
    # (those of the ten properties of rank 1 or 2, and the meet of each
    # unordered pair of two different ones), the joins being read from
    # those: both ways in one residual call per rank, none for rank 0
    [(ranks, n, count)] = matches
    assert ranks == {0, 1, 2} and n == 10 + 10 * 9 // 2
    assert count == len(ranks - {0})


# ---------------------------------------------------------------------------
# model-level maps


def test_certain_states_qbit_frozen():
    m = m_qbit()
    assert certain_states(m, "E0") == frozenset()
    assert certain_states(m, "Ez+") == frozenset({"Sz+"})
    assert certain_states(m, "Ez-") == frozenset({"Sz-"})
    assert certain_states(m, "Ex+") == frozenset({"Sx+"})
    assert certain_states(m, "Ex-") == frozenset({"Sx-"})
    assert certain_states(m, "EI") == frozenset(m.states)


def test_certain_states_errors():
    with pytest.raises(NoHilbertAnnotation):
        certain_states(m_sr(), "E")
    with pytest.raises(UnknownProperty):
        certain_states(m_qbit(), "nope")


@pytest.mark.parametrize("method, args", [
    ("ortho", ("Nope",)), ("meet", ("Ez+", "Nope")), ("meet", ("Nope", "Ez+")),
    ("join", ("Ez+", "Nope")), ("join", ("Nope", "Ez+")),
    ("certain", ("Nope",)), ("orthogonal", ("Nope",))])
def test_property_table_refuses_an_undeclared_property(method, args):
    table = m_qbit().hilbert.table
    with pytest.raises(UnknownProperty) as exc:
        getattr(table, method)(*args)
    assert str(exc.value) == "no subspace for property 'Nope'"
    # also once the declared operand's entries are in the table
    table.names([("Ez+", "ortho"), ("Ez+", "Ez+", "join")])
    with pytest.raises(UnknownProperty):
        getattr(table, method)(*args)


def test_state_lattice_qbit_shape():
    lat = state_lattice(m_qbit())
    assert lat.poset.n == 6
    assert len(lat.poset.covers()) == 8
    # bottom is the empty set, top is all four states
    assert lat.poset.elements[lat.bottom] == frozenset()
    assert lat.poset.elements[lat.top] == frozenset(m_qbit().states)


def test_state_lattice_meet_is_intersection():
    lat = state_lattice(m_qbit())
    els = lat.poset.elements
    for i in range(lat.poset.n):
        for j in range(lat.poset.n):
            k = lat.meet[i][j]
            assert els[k] == els[i] & els[j]


def test_state_lattice_join_exceeds_union_somewhere():
    lat = state_lattice(m_qbit())
    els = lat.poset.elements
    strict = [(i, j) for i in range(lat.poset.n) for j in range(lat.poset.n)
              if els[lat.join[i][j]] > (els[i] | els[j])]
    assert strict, "expected at least one strictly-larger join"


def test_state_lattice_requires_closure():
    # two non-orthogonal rays with no meet/ortho properties present
    ann = HilbertAnnotation(
        dim=2,
        state_rays={"S1": Subspace.ray([1, 0]), "S2": Subspace.ray([1, 1])},
        property_subspaces={"P": Subspace.ray([1, 0]),
                            "Q": Subspace.ray([1, 1])})
    m = make_model(
        ["S1", "S2"], {"S1": ["a"], "S2": ["a"]}, ["P", "Q"],
        {"S1": {"P": ["a"], "Q": []}, "S2": {"P": [], "Q": ["a"]}},
        hilbert=ann)
    with pytest.raises(NotOperationClosed):
        state_lattice(m)


def test_state_lattice_refuses_a_join_that_is_not_the_lub(monkeypatch,
                                                          run_check):
    # a property table whose join names the left operand: bottom v x is
    # then bottom, where the order's lub is x; the lattice takes its join
    # from the order, so the qm suite's join law reports the fault
    m = m_qbit()
    real = hilbert.PropertyTable.names
    monkeypatch.setattr(
        hilbert.PropertyTable, "names",
        lambda self, keys: [key[0] if key[-1] == "join" else name
                            for key, name in zip(keys, real(self, keys))])
    code, lines = run_check(m, "--suite", "qm")
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL disjunction proposition is the lattice join: "
        "first ('E0(x)', 'Ez+(x)')"]


def test_property_table_is_per_annotation_and_lazy(monkeypatch):
    text = dump_model(m_qutrit())
    a, b = load_model(text), load_model(text)
    # loading fills nothing: the table does not exist before first use
    assert "table" not in vars(a.hilbert) and "table" not in vars(b.hilbert)
    assert a.hilbert.table is a.hilbert.table
    assert a.hilbert.table is not b.hilbert.table

    calls = []
    real = hilbert._residual_norms
    monkeypatch.setattr(hilbert, "_residual_norms",
                        lambda *args: calls.append(1) or real(*args))
    first = certain_states(a, "P1")
    assert calls
    del calls[:]
    assert certain_states(a, "P1") == first and calls == []
    # the other model's table is still empty and computes its own entry
    assert certain_states(b, "P1") == first and calls


def test_state_lattice_realises_its_table_in_one_batch(monkeypatch):
    m = m_qutrit()
    n = len(m.properties)
    calls, svds = [], []
    real, svd = hilbert._operate, np.linalg.svd
    monkeypatch.setattr(hilbert, "_operate", lambda ops, tol: (
        calls.append(len(ops)) or real(ops, tol)))
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: (
        svds.append(args[0].shape[1:]) or svd(*args, **kw)))
    state_lattice(m)
    # every complement and meet that ranks leave open, in one stacked
    # call: ranks name the complements of the zero P8 and the whole space
    # P10, every meet with either, and each property's meet with itself;
    # meet commutes, so each open pair is one operation for both orders;
    # each join is read from them as ~(~E & ~F), so it needs no operation
    # of its own
    meets = n * n - (2 * n - 1) - (2 * (n - 1) - 1) - (n - 2)
    assert calls == [(n - 2) + meets // 2] == [55]
    # one SVD per stacked group, of the rows of its first operands: the
    # complements of lines and of planes, and the meets of two lines, of
    # a line and a plane, and of two planes; the lower rank goes first,
    # so there is no group of a plane and a line
    assert sorted(svds) == [(1, 3)] * 3 + [(2, 3)] * 2
    # a second lattice of the same model computes nothing
    state_lattice(m)
    assert calls == [55]


def test_property_table_runs_no_join_kernel(monkeypatch):
    # the table computes complements and meets only, and reads each join
    # from them; the join kernel serves join and closure_generate
    def refuse(*args):
        raise AssertionError("the property table ran the join kernel")

    m = load_model(dump_model(m_qutrit()))
    monkeypatch.setattr(hilbert, "_join_rows", refuse)
    check_tq_equalities(m, 2, lat=state_lattice(m))
    with pytest.raises(NotOperationClosed):
        join_open().hilbert.table.join("P1", "V")
    with pytest.raises(AssertionError):
        join(Subspace.ray([1, 0]), Subspace.ray([0, 1]))


def test_batched_and_single_lookups_name_the_same_properties():
    text = dump_model(m_qutrit())
    m = load_model(text)
    props = m.properties
    keys = [(e, "ortho") for e in props] + [
        (e, f, op) for e in props for f in props for op in ("meet", "join")]
    batched = m.hilbert.table.names(keys)
    for key, name in zip(keys, batched):
        single = load_model(text).hilbert.table  # fresh: one-key misses
        assert name == getattr(single, key[-1])(*key[:-1])


def test_names_answers_in_key_order_and_raises_at_the_first_missing_key(
        monkeypatch):
    # two planes of C^3 with their complements but not their meet line,
    # nor the plane P1 v P3
    subs = {e: Subspace.span(rows, 3) for e, rows in {
        "E0": [], "P12": [[1, 0, 0], [0, 1, 0]], "P3": [[0, 0, 1]],
        "P23": [[0, 1, 0], [0, 0, 1]], "P1": [[1, 0, 0]],
        "EI": np.eye(3)}.items()}
    ann = HilbertAnnotation(3, {"S": Subspace.ray([1, 0, 0])}, subs)
    table = hilbert.PropertyTable(ann)
    calls = []
    real = hilbert._operate
    monkeypatch.setattr(hilbert, "_operate", lambda ops, tol: (
        calls.append(len(ops)) or real(ops, tol)))

    # duplicates come back in order; the distinct keys and the join's
    # operand complements take one call, then the join reads ~(~P12 &
    # ~P3) in one call for the meet P3 & P12, which is the zero E0, so
    # that ranks name its complement EI without a call
    keys = [("P12", "ortho"), ("P12", "P3", "join"), ("P12", "ortho"),
            ("P1", "P12", "meet"), ("P12", "P3", "join")]
    assert table.names(keys) == ["P3", "EI", "P3", "P1", "EI"]
    assert calls == [3, 1]

    def first_missing(call):
        with pytest.raises(NotOperationClosed) as exc:
            call()
        return str(exc.value), exc.value.witness

    meet_missing = ("no property realises the meet of 'P12' and 'P23'",
                    ("P12", "P23", "meet"))
    join_missing = ("no property realises the join of 'P1' and 'P3'",
                    ("P1", "P3", "join"))
    # the first missing key in key order raises, whatever its kind, also
    # with present keys after it in the same batch
    keys = [("P3", "ortho"), ("P12", "P23", "meet"), ("P23", "ortho"),
            ("P1", "P3", "join"), ("P12", "ortho")]
    del calls[:]
    assert first_missing(lambda: table.names(keys)) == meet_missing
    # the meet, P23's complement and P1's; then the meet of the
    # complements P23 & P12, which is the missing P12 & P23 in the other
    # order, so the join is missing without another call
    assert calls == [3]
    assert first_missing(lambda: table.names(keys[::-1])) == join_missing
    # which is the key that one lookup at a time reaches first
    fresh = hilbert.PropertyTable(ann)
    assert first_missing(lambda: [getattr(fresh, key[-1])(*key[:-1])
                                  for key in keys]) == meet_missing

    # a repeat computes nothing: hits and stored misses alike
    del calls[:]
    assert first_missing(lambda: table.names(keys)) == meet_missing
    assert first_missing(lambda: table.meet("P12", "P23")) == meet_missing
    assert table.names(keys[:1] + keys[2:3]) == ["P12", "P1"]
    assert table.ortho("P23") == "P1"
    assert calls == []


def test_model_with_a_filled_table_is_freed_without_the_cyclic_collector():
    # the table once pointed back at its annotation, so a model that had
    # answered one query lived on until the cyclic collector ran
    from qlprop.quantum import q_truth
    from qlprop.syntax import Atom

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        m = m_qbit()
        q_truth(m, m.states[0], Atom(m.properties[1]))
        ann = weakref.ref(m.hilbert)
        table = weakref.ref(m.hilbert.table)
        del m
        assert ann() is None
        assert table() is None
    finally:
        if was_enabled:
            gc.enable()


def test_state_lattice_warns_on_every_call():
    # the ray of S lies in neither coordinate axis, so E0, P and Pp all
    # have the empty certain-state set
    ann = HilbertAnnotation(
        2, {"S": Subspace.ray([0.6, 0.8])},
        {"E0": Subspace.zero(2), "P": Subspace.ray([1, 0]),
         "Pp": Subspace.ray([0, 1]), "EI": Subspace.full(2)})
    m = make_model(["S"], {"S": ["a", "b"]}, ["E0", "P", "Pp", "EI"],
                   {"S": {"E0": [], "P": ["a"], "Pp": ["b"], "EI": ["a", "b"]}},
                   hilbert=ann)
    for _ in range(3):
        with pytest.warns(ThetaNotInjectiveWarning) as rec:
            lat = state_lattice(m)
        assert [str(w.message) for w in rec] == [
            "properties 'E0' and 'P' share the certain-state set; using the first",
            "properties 'E0' and 'Pp' share the certain-state set; using the first",
        ]
        assert lat.poset.n == 2


# ---------------------------------------------------------------------------
# closure generation


def test_closure_qutrit_has_twelve_elements():
    e = np.eye(3)
    gens = [Subspace.ray(e[0]), Subspace.ray(e[1]), Subspace.ray(e[2]),
            Subspace.ray([1, 1, 0])]
    out = closure_generate(3, gens, cap=64)
    assert len(out) == 12
    ranks = sorted(s.rank for s in out)
    assert ranks == [0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3]


def test_closure_cap():
    e = np.eye(3)
    gens = [Subspace.ray(e[0]), Subspace.ray(e[1]), Subspace.ray(e[2]),
            Subspace.ray([1, 1, 0])]
    with pytest.raises(ClosureCapExceeded):
        closure_generate(3, gens, cap=5)


def _closure_bytes(build, dim, gens, cap):
    """Each element's rank and basis bytes, in order, or the text of the
    cap's refusal."""
    try:
        return [(s.rank, s.basis.tobytes()) for s in build(dim, gens, cap)]
    except ClosureCapExceeded as exc:
        return str(exc)


def _closure_case(kind, n):
    """Dimension, generators and cap: demo 03's four rays with cap ``n``,
    or, drawn from seed ``n``, the two random rays of ``mo2_qubit(n)`` or
    one to four Gaussian-integer rays in C^2 to C^4."""
    rng = random.Random(n)
    if kind == "demo":
        r = 0.5 ** 0.5
        return 3, [Subspace.ray(v, 3) for v in np.eye(3)] + [
            Subspace.ray([r, r, 0], 3)], n
    if kind == "mo2":
        return 2, [Subspace.ray(random_unit(rng, 2)) for _ in range(2)], 8
    dim, count, rays = rng.randint(2, 4), rng.randint(1, 4), []
    while len(rays) < count:
        v = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(dim)]
        if any(v):
            rays.append(Subspace.ray(v))
    return dim, rays, 24


_CLOSURE_CASES = [("demo", 32), ("demo", 11),
                  *(("mo2", seed) for seed in range(40)),
                  *(("gaussian-integer", seed) for seed in range(150))]


@pytest.mark.parametrize("kind, seed", _CLOSURE_CASES,
                         ids=[f"{k}-{s}" for k, s in _CLOSURE_CASES])
def test_closure_matches_the_full_round_pairwise_reference(kind, seed):
    # the reference recomputes every pair each round and adds results one
    # at a time after its own pairwise containment scan
    case = _closure_case(kind, seed)
    assert (_closure_bytes(closure_generate, *case)
            == _closure_bytes(reference_closure, *case))


def test_closure_reference_cases_include_refusals_and_closures():
    out = [_closure_bytes(closure_generate, *_closure_case(k, s))
           for k, s in _CLOSURE_CASES]
    refused = [o for o in out if isinstance(o, str)]
    assert refused[0] == "closure exceeds cap 11"
    assert len(refused) >= 20 and len(out) - len(refused) >= 100


def test_closure_compares_results_with_kept_elements_only():
    # r1 lies within tol of k and of r2, and r2 lies 1.5 tol from k: r1
    # is dropped as equal to k, and r2 is kept, though it equals the
    # dropped r1
    k, r1, r2 = (Subspace.ray([np.cos(t * DEFAULT_TOL), np.sin(t * DEFAULT_TOL)])
                 for t in (0, 0.75, 1.5))
    case = 2, [k, r1, r2], 8
    out = _closure_bytes(closure_generate, *case)
    assert out[:2] == [(1, k.basis.tobytes()), (1, r2.basis.tobytes())]
    assert len(out) == 6 and out == _closure_bytes(reference_closure, *case)


def test_closure_decides_without_pairwise_equality(monkeypatch):
    # every equality the closure and make_model decide is batched; only
    # library callers read Subspace.__eq__
    expected = dump_model(m_qutrit())

    def refuse(self, other):
        raise AssertionError("Subspace.__eq__ called")

    monkeypatch.setattr(Subspace, "__eq__", refuse)
    assert len(closure_generate(*_closure_case("demo", 32))) == 12
    assert dump_model(m_qutrit()) == expected


def test_closure_keeps_its_generators_one_tolerance():
    # generators at two tolerances are refused (tests/test_input_checks.py)
    gens = [Subspace.ray(v, tol=1e-6) for v in ([1, 0], [1, 1])]
    assert [s.tol for s in closure_generate(2, gens, cap=8)] == [1e-6] * 6


def test_qutrit_model_states_cover_rays():
    m = m_qutrit()
    assert len(m.states) == 5
    lat = state_lattice(m)
    assert lat.poset.n == 12
