"""Subspace geometry tests.

The oracle route works on projector matrices: eigenvectors of
P_a + P_b with eigenvalue near 2 span the intersection, those with
nonzero eigenvalue span the joint range.  The implementation under
test works on orthonormal basis rows instead, so agreement is
meaningful.
"""

import random

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
    dump_model,
    load_model,
    m_qbit,
    m_qutrit,
    m_sr,
    make_model,
)

from helpers import (
    null_space_meet,
    projector_equal,
    projector_join,
    projector_meet,
    random_subspace_vectors,
    random_unit,
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
def _tilted_pairs(draw):
    """Subspaces ``a`` and ``b`` of C^dim (dim 1..4, ranks 0..dim), one of
    the three tolerance ends, and the smallest tilt above tol (1.0 if
    none).

    With q_1..q_dim the rows of a random unitary, ``a`` spans its first
    rank(a) rows.  Each vector of ``b`` is an unused row of ``a``, an
    unused row outside ``a``, or an unused row of ``a`` tilted towards
    an unused row outside by an angle at most tol/10 or at least 10 tol.
    Those vectors are the principal vectors of the pair, so every residual
    of a unit vector of one against the other lies clearly on one side
    of tol."""
    dim = draw(st.integers(1, 4))
    tol = draw(st.sampled_from([MIN_TOL, DEFAULT_TOL, MAX_TOL]))
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


def test_loading_a_model_compares_only_subspaces_of_equal_rank(monkeypatch):
    text = dump_model(m_qutrit())
    ranks = []
    real = contains
    monkeypatch.setattr(hilbert, "contains",
                        lambda x, y: ranks.append((x.rank, y.rank)) or real(x, y))
    load_model(text)
    assert ranks and all(rx == ry for rx, ry in ranks)


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


def test_property_table_is_per_annotation_and_lazy(monkeypatch):
    text = dump_model(m_qutrit())
    a, b = load_model(text), load_model(text)
    # loading fills nothing: the table does not exist before first use
    assert "table" not in vars(a.hilbert) and "table" not in vars(b.hilbert)
    assert a.hilbert.table is a.hilbert.table
    assert a.hilbert.table is not b.hilbert.table

    calls = []
    real = contains
    monkeypatch.setattr(hilbert, "contains",
                        lambda x, y: calls.append(1) or real(x, y))
    first = certain_states(a, "P1")
    assert calls
    del calls[:]
    assert certain_states(a, "P1") == first and calls == []
    # the other model's table is still empty and computes its own entry
    assert certain_states(b, "P1") == first and calls


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


def test_qutrit_model_states_cover_rays():
    m = m_qutrit()
    assert len(m.states) == 5
    lat = state_lattice(m)
    assert lat.poset.n == 12
