"""Truth, propositions, preorders, testability, and the quotient algebra.

The oracle for the physical proposition is the interpretation-
enumeration intersection in helpers; the per-state implementation must
agree with it exactly.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import qlprop.semantics as semantics
from qlprop.errors import (
    DepthCapExceeded,
    EnumerationCapExceeded,
    ForallMismatch,
    InvalidDepth,
    MeetJoinMissing,
    SchemaError,
    UnknownProperty,
)
from qlprop.lattice import (
    LawReport,
    build_poset,
    check_boolean,
    order_isomorphic,
    powerset_lattice,
)
from qlprop.model import (
    canonical_models,
    dump_model,
    enumerate_interpretations,
    load_model,
    m_cm,
    m_qbit,
    m_sr,
    make_model,
)
from qlprop.semantics import (
    certainly_true,
    enumerate_formulas,
    enumerate_tq_formulas,
    extension_of,
    extension_profile,
    forall_proposition,
    individual_proposition,
    is_true,
    lindenbaum_tarski,
    logical_equiv,
    logical_leq,
    physical_equiv,
    physical_leq,
    physical_proposition,
    testable_proposition_poset,
    testable_witness,
)
from qlprop.syntax import And, Atom, Not, Or, QNot, format_lx, parse_lx

from helpers import (
    brute_force_physical,
    naive_close,
    naive_closure,
    oracle_covers,
    oracle_individual,
    random_check_case,
    random_formula,
    random_model,
    reference_lindenbaum,
)

# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def model_and_formula(draw, cms=False, depth=3):
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    m = random_model(rng, cms=cms)
    f = random_formula(rng, list(m.properties), depth)
    return m, f


# ---------------------------------------------------------------------------
# the oracle route: per-state evaluation vs interpretation enumeration


@given(model_and_formula(depth=4))
@settings(max_examples=150, deadline=None)
def test_physical_equals_brute_force(mf):
    m, f = mf
    assert physical_proposition(m, f) == brute_force_physical(m, f)


def test_physical_equals_brute_force_seeded():
    rng = random.Random(99)
    for _ in range(100):
        m = random_model(rng)
        f = random_formula(rng, list(m.properties), 4)
        assert physical_proposition(m, f) == brute_force_physical(m, f)


@given(model_and_formula())
@settings(max_examples=100, deadline=None)
def test_truth_factorizes_through_extensions(mf):
    m, f = mf
    for interp in enumerate_interpretations(m):
        for s in m.states:
            assert is_true(m, interp, s, f) \
                == (interp[s] in extension_of(m, s, f))


@given(model_and_formula(depth=2))
@settings(max_examples=100, deadline=None)
def test_individual_proposition_homomorphisms(mf):
    # for a fixed interpretation: not -> complement, and -> meet, or -> join
    m, f = mf
    rng = random.Random(3)
    g = random_formula(rng, list(m.properties), 2)
    allstates = frozenset(m.states)
    for interp in enumerate_interpretations(m):
        pf = individual_proposition(m, interp, f)
        pg = individual_proposition(m, interp, g)
        assert individual_proposition(m, interp, Not(f)) == allstates - pf
        assert individual_proposition(m, interp, And(f, g)) == pf & pg
        assert individual_proposition(m, interp, Or(f, g)) == pf | pg


# ---------------------------------------------------------------------------
# frozen two-state values


def test_extension_of_frozen():
    m = m_sr()
    assert extension_of(m, "S1", parse_lx("!E(x)")) == frozenset({"u2"})
    assert extension_of(m, "S1", parse_lx("E(x) | F(x)")) \
        == frozenset({"u1", "u2"})
    assert extension_of(m, "S1", parse_lx("E(x) & !E(x)")) == frozenset()
    assert extension_of(m, "S2", parse_lx("E(x) & !E(x)")) == frozenset()


def test_is_true_frozen():
    m = m_sr()
    e = parse_lx("E(x)")
    assert is_true(m, {"S1": "u1", "S2": "v1"}, "S1", e)
    assert not is_true(m, {"S1": "u2", "S2": "v1"}, "S1", e)
    for interp in enumerate_interpretations(m):
        assert is_true(m, interp, "S2", e)


def test_individual_proposition_frozen():
    m = m_sr()
    e = parse_lx("E(x)")
    assert individual_proposition(m, {"S1": "u1", "S2": "v1"}, e) \
        == frozenset({"S1", "S2"})
    assert individual_proposition(m, {"S1": "u2", "S2": "v1"}, e) \
        == frozenset({"S2"})
    taut = parse_lx("E(x) | !E(x)")
    for interp in enumerate_interpretations(m):
        assert individual_proposition(m, interp, taut) == frozenset(m.states)


def test_physical_proposition_frozen():
    m = m_sr()
    assert physical_proposition(m, parse_lx("E(x)")) == frozenset({"S2"})
    assert physical_proposition(m, parse_lx("!E(x)")) == frozenset()
    assert physical_proposition(m, parse_lx("E(x) | F(x)")) \
        == frozenset({"S1", "S2"})


def test_certainly_true_frozen():
    from qlprop.semantics import certainly_true
    m = m_sr()
    assert certainly_true(m, "S2", parse_lx("E(x)"))
    assert not certainly_true(m, "S1", parse_lx("E(x)"))
    assert certainly_true(m, "S1", parse_lx("E(x) | !E(x)"))


# ---------------------------------------------------------------------------
# the three physical-proposition statements


def test_negation_inclusion_strict_on_m_sr():
    m = m_sr()
    s = frozenset(m.states)
    p = physical_proposition(m, parse_lx("E(x)"))
    pn = physical_proposition(m, parse_lx("!E(x)"))
    assert pn <= s - p
    assert pn < s - p  # empty vs {S1}
    assert pn == frozenset() and s - p == frozenset({"S1"})


def test_conjunction_equality_exhaustive_on_m_sr():
    m = m_sr()
    for a in enumerate_formulas(m.properties, 2):
        for b in enumerate_formulas(m.properties, 2):
            assert physical_proposition(m, And(a, b)) \
                == physical_proposition(m, a) & physical_proposition(m, b)


def test_disjunction_inclusion_strict_on_m_sr():
    m = m_sr()
    pe = physical_proposition(m, parse_lx("E(x)"))
    pf = physical_proposition(m, parse_lx("F(x)"))
    por = physical_proposition(m, parse_lx("E(x) | F(x)"))
    assert pe | pf <= por
    assert pe | pf == frozenset({"S2"})
    assert por == frozenset({"S1", "S2"})


@given(model_and_formula(depth=2))
@settings(max_examples=100, deadline=None)
def test_three_statements_random(mf):
    m, f = mf
    rng = random.Random(7)
    g = random_formula(rng, list(m.properties), 2)
    s = frozenset(m.states)
    assert physical_proposition(m, Not(f)) <= s - physical_proposition(m, f)
    assert physical_proposition(m, And(f, g)) \
        == physical_proposition(m, f) & physical_proposition(m, g)
    assert physical_proposition(m, Or(f, g)) \
        >= physical_proposition(m, f) | physical_proposition(m, g)


# ---------------------------------------------------------------------------
# preorders


def test_logical_leq_frozen():
    m = m_sr()
    assert logical_leq(m, parse_lx("E(x) & F(x)"), parse_lx("E(x)"))
    assert not logical_leq(m, parse_lx("E(x)"), parse_lx("F(x)"))
    f = parse_lx("E(x) & F(x)")
    assert logical_equiv(m, f, Not(Not(f)))


def test_physical_weaker_than_logical_witness():
    # F below E physically (empty vs {S2}) but not state-wise
    m = m_sr()
    e, f = parse_lx("E(x)"), parse_lx("F(x)")
    assert physical_leq(m, f, e)
    assert not logical_leq(m, f, e)
    assert physical_equiv(m, e, e)


def test_not_e_versus_f_on_m_sr():
    # !E and F happen to have identical extension profiles here, so both
    # orders hold for that pair
    m = m_sr()
    ne, f = parse_lx("!E(x)"), parse_lx("F(x)")
    assert physical_leq(m, ne, f)
    assert logical_leq(m, ne, f)
    assert logical_equiv(m, ne, f)


@given(model_and_formula(depth=2))
@settings(max_examples=100, deadline=None)
def test_logical_implies_physical(mf):
    m, f = mf
    rng = random.Random(13)
    g = random_formula(rng, list(m.properties), 2)
    if logical_leq(m, f, g):
        assert physical_leq(m, f, g)
    if logical_equiv(m, f, g):
        assert physical_equiv(m, f, g)


def test_preorders_coincide_under_cms():
    rng = random.Random(41)
    for _ in range(40):
        m = random_model(rng, cms=True)
        f = random_formula(rng, list(m.properties), 3)
        g = random_formula(rng, list(m.properties), 3)
        assert logical_leq(m, f, g) == physical_leq(m, f, g)


# ---------------------------------------------------------------------------
# testability


def test_testable_witness_frozen():
    m = m_sr()
    assert testable_witness(m, parse_lx("E(x)")) == "E"
    assert testable_witness(m, parse_lx("!E(x)")) == "F"
    assert testable_witness(m, parse_lx("E(x) | F(x)")) is None
    q = m_qbit()
    assert testable_witness(q, parse_lx("Ez+(x)")) == "Ez+"
    # the Born extensions make Ez+ and Ez- overlap at the Sx states, so
    # the conjunction is not equivalent to the empty property
    assert testable_witness(q, parse_lx("Ez+(x) & Ez-(x)")) is None
    c = m_cm()
    assert testable_witness(c, parse_lx("!E(x)")) is None


def test_testable_witness_is_the_first_property_with_the_profile():
    # E and G have one profile, and the complement of F has it too
    m = make_model(["S"], {"S": ["a", "b"]}, ["E", "F", "G"],
                   {"S": {"E": ["a"], "F": ["b"], "G": ["a"]}})
    assert testable_witness(m, parse_lx("G(x)")) == "E"
    assert testable_witness(m, parse_lx("!F(x)")) == "E"
    assert testable_witness(m, parse_lx("!E(x)")) == "F"


def test_testable_poset_m_sr_depth1_is_chain():
    p = testable_proposition_poset(m_sr(), 1)
    assert p.n == 2
    els = set(p.elements)
    assert els == {frozenset(), frozenset({"S2"})}
    i = p.index_of(frozenset())
    j = p.index_of(frozenset({"S2"}))
    assert p.leq[i][j] and not p.leq[j][i]


def test_testable_poset_m_qbit_depth1_shape():
    p = testable_proposition_poset(m_qbit(), 1)
    assert p.n == 6
    sizes = sorted(len(e) for e in p.elements)
    assert sizes == [0, 1, 1, 1, 1, 4]


def test_testable_poset_m_cm_depth2_is_antichain():
    p = testable_proposition_poset(m_cm(), 2)
    assert p.n == 2
    assert set(p.elements) == {frozenset({"S1", "S2"}),
                               frozenset({"S2", "S3"})}
    i, j = 0, 1
    assert not p.leq[i][j] and not p.leq[j][i]


# ---------------------------------------------------------------------------
# brute-force universal quantification


def test_forall_frozen():
    m = m_sr()
    assert forall_proposition(m, parse_lx("E(x)")) == frozenset({"S2"})
    assert forall_proposition(m, parse_lx("E(x) | F(x)")) \
        == frozenset({"S1", "S2"})
    assert forall_proposition(m_cm(), parse_lx("E(x)")) \
        == frozenset({"S1", "S2"})


def test_forall_equals_physical_random():
    rng = random.Random(4)
    for _ in range(60):
        m = random_model(rng)
        f = random_formula(rng, list(m.properties), 3)
        assert forall_proposition(m, f) == physical_proposition(m, f)


def test_forall_respects_cap():
    m = make_model(
        [f"S{i}" for i in range(8)],
        {f"S{i}": [f"o{j}" for j in range(10)] for i in range(8)},
        ["E"],
        {f"S{i}": {"E": [f"o{j}" for j in range(10)]} for i in range(8)})
    with pytest.raises(EnumerationCapExceeded):
        forall_proposition(m, parse_lx("E(x)"), cap=1000)


def test_forall_disagreement_is_typed(monkeypatch):
    # force the per-state form to disagree with the brute-force one
    monkeypatch.setattr("qlprop.semantics.physical_proposition",
                        lambda m, f: frozenset({"S1"}))
    with pytest.raises(ForallMismatch) as exc:
        forall_proposition(m_sr(), parse_lx("E(x)"))
    assert str(exc.value) == ("universally quantified proposition ['S2'] "
                              "disagrees with the per-state form ['S1']")


# ---------------------------------------------------------------------------
# formula enumeration


def _formula_counts(nprops: int, depth: int) -> list[int]:
    """``cum[d]``, the number of formulas up to depth d, by an independent
    recurrence: atoms at depth 1; new at depth d are one unary ctor over
    depth d-1 plus two binary ctors over pairs whose max depth is
    exactly d-1."""
    cum = [0, nprops]
    new = [0, nprops]
    for d in range(2, depth + 1):
        fresh = new[d - 1] + 2 * (cum[d - 1] ** 2 - cum[d - 2] ** 2)
        new.append(fresh)
        cum.append(cum[d - 1] + fresh)
    return cum


def test_enumeration_counts_match_recurrence():
    for nprops in (1, 2, 3):
        props = [f"E{i}" for i in range(nprops)]
        cum = _formula_counts(nprops, 3)
        for d in (1, 2, 3):
            assert len(enumerate_formulas(props, d)) == cum[d], (nprops, d)


def test_enumeration_counts_frozen():
    assert len(enumerate_formulas(["E", "F"], 1)) == 2
    assert len(enumerate_formulas(["E", "F"], 2)) == 12
    assert len(enumerate_formulas(["E", "F"], 3)) == 302
    assert len(enumerate_tq_formulas(["E"] * 0 + ["E1", "E2", "E3",
                                                  "E4", "E5", "E6"], 2)) == 48
    assert len(enumerate_tq_formulas(["E1", "E2", "E3", "E4", "E5", "E6"],
                                     3)) == 2358


def test_enumeration_no_duplicates_and_depth_cap():
    fs = enumerate_formulas(["E", "F"], 3)
    assert len(set(fs)) == len(fs)
    with pytest.raises(DepthCapExceeded):
        enumerate_formulas(["E"], 5)


@pytest.mark.parametrize("depth", [0, -1])
def test_enumeration_refuses_depth_below_one(depth):
    # an empty enumeration made every check over it pass or fail vacuously
    for enum in (enumerate_formulas, enumerate_tq_formulas):
        with pytest.raises(InvalidDepth, match=f"depth {depth} is below 1"):
            enum(["E", "F"], depth)
    with pytest.raises(InvalidDepth):
        lindenbaum_tarski(m_sr(), depth)
    with pytest.raises(InvalidDepth):
        testable_proposition_poset(m_sr(), depth)


# ---------------------------------------------------------------------------
# the quotient algebra


def test_lt_m_sr_depth3_is_four_element_boolean():
    alg = lindenbaum_tarski(m_sr(), 3)
    assert len(alg.classes) == 4
    rep = check_boolean(alg.poset)
    assert rep.all_passed()
    assert order_isomorphic(alg.poset, powerset_lattice(["a", "b"]))


def test_lt_m_cm_depth3_is_eight_element_boolean():
    alg = lindenbaum_tarski(m_cm(), 3)
    assert len(alg.classes) == 8
    rep = check_boolean(alg.poset)
    assert rep.all_passed()
    assert order_isomorphic(alg.poset, powerset_lattice(["a", "b", "c"]))


def test_lt_class_bookkeeping():
    alg = lindenbaum_tarski(m_sr(), 2)
    total = sum(c.size for c in alg.classes)
    assert total == len(enumerate_formulas(m_sr().properties, 2))
    for c in alg.classes:
        assert extension_profile(m_sr(), c.representative) == c.profile


def test_lt_sizes_sum_to_the_recurrence():
    # the classes are counted, not enumerated, so depth 4 over three
    # properties (2,781,264 formulas) is summed without building them
    for nprops in (1, 2, 3):
        props = [f"E{i}" for i in range(nprops)]
        exts = [["a"], ["b"], ["a", "b"]]
        m = make_model(["S1", "S2"], {"S1": ["a", "b"], "S2": ["c"]}, props,
                       {"S1": {e: exts[i] for i, e in enumerate(props)},
                        "S2": {e: ["c"] * (i % 2) for i, e in enumerate(props)}})
        cum = _formula_counts(nprops, 4)
        for d in (1, 2, 3, 4):
            assert sum(c.size for c in lindenbaum_tarski(m, d).classes) \
                == cum[d], (nprops, d)


def _quotient(alg) -> list[tuple]:
    return [(format_lx(c.representative), c.profile, c.size)
            for c in alg.classes]


def _reference_quotient(m, depth) -> list[tuple]:
    return [(format_lx(f), p, n) for f, p, n in reference_lindenbaum(m, depth)]


@pytest.mark.parametrize("seed", range(60))
def test_lt_matches_the_oracle_on_random_cases(seed):
    m, _ = random_check_case(seed)
    for depth in (1, 2, 3):
        assert _quotient(lindenbaum_tarski(m, depth)) \
            == _reference_quotient(m, depth), depth


@pytest.mark.parametrize("name, depth", [("m_sr", 3), ("m_cm", 3),
                                         ("m_qbit", 3), ("m_qutrit", 2)])
def test_lt_matches_the_oracle_on_fixtures(name, depth):
    m = canonical_models()[name]
    assert _quotient(lindenbaum_tarski(m, depth)) \
        == _reference_quotient(m, depth)


def test_lt_closed_is_idempotent_and_boolean():
    alg = lindenbaum_tarski(m_sr(), 2).closed()
    again = alg.closed()
    assert len(alg.classes) == len(again.classes) == 4
    assert check_boolean(alg.poset).all_passed()
    rng = random.Random(77)
    for _ in range(20):
        m = random_model(rng, max_states=3, max_props=2)
        closed = lindenbaum_tarski(m, 2).closed()
        assert check_boolean(closed.poset).all_passed()
        assert closed.is_closed


def test_lt_poset_is_built_once_when_read(monkeypatch):
    calls = []
    inclusion = semantics._inclusion

    def counting(*a, **k):
        calls.append(1)
        return inclusion(*a, **k)

    monkeypatch.setattr(semantics, "_inclusion", counting)
    alg = lindenbaum_tarski(m_cm(), 3)
    closed = alg.closed()
    assert calls == []
    poset = closed.poset
    assert closed.poset is poset
    assert len(calls) == 1
    assert alg.poset.n == 8 and len(calls) == 2


def _boolean_outcome(p):
    try:
        return check_boolean(p)
    except MeetJoinMissing as e:
        return str(e), e.witness


def test_lt_poset_failures_name_the_eager_labels():
    # the poset's labels are formatted on first read; a failed law or a
    # missing meet or join must name the same labels as a poset built
    # from eager tuples
    seen = set()
    for seed in range(60):
        m, _ = random_check_case(seed)
        for depth in (1, 2):
            alg = lindenbaum_tarski(m, depth)
            eager = build_poset(
                tuple(c.profile for c in alg.classes), alg.poset.leq,
                tuple(format_lx(c.representative) for c in alg.classes))
            got = _boolean_outcome(alg.poset)
            assert got == _boolean_outcome(eager), (seed, depth)
            seen.add("missing" if not isinstance(got, LawReport)
                     else "passed" if got.all_passed() else "failed")
    assert seen == {"passed", "failed", "missing"}


@pytest.mark.parametrize("seed", range(60))
def test_lt_class_profile_is_decoded_on_first_read(seed):
    m, depth = random_check_case(seed)
    # the same classes over a second copy of the model, with its own kernel
    twin = load_model(dump_model(m))
    lt, twin_lt = lindenbaum_tarski(m, depth), lindenbaum_tarski(twin, depth)
    for alg, again in ((lt, twin_lt), (lt.closed(), twin_lt.closed())):
        before = [(repr(c), hash(c)) for c in alg.classes]
        assert before == [(repr(c), hash(c)) for c in again.classes]
        assert alg.classes == again.classes
        for c in alg.classes:
            assert c.profile == m.kernel.decode(c.bits)
            assert "profile" not in repr(c) and "kernel" not in repr(c)
        # equality, hashing and the repr ignore whether profile was read
        assert [(repr(c), hash(c)) for c in alg.classes] == before
        assert alg.classes == again.classes
        assert alg.poset.elements[:] == tuple(c.profile for c in alg.classes)


@pytest.mark.parametrize("seed", range(60))
def test_lt_order_is_slot_inclusion_on_random_models(seed):
    m, depth = random_check_case(seed)
    lt = lindenbaum_tarski(m, depth)
    for alg in (lt, lt.closed()):
        bits = alg.bits
        assert len(bits) == len(alg.classes)
        assert alg.poset.leq.tolist() \
            == [[p | q == q for q in bits] for p in bits]


# ---------------------------------------------------------------------------
# the CM collapse


def test_cms_collapse_random():
    rng = random.Random(2)
    for _ in range(40):
        m = random_model(rng, cms=True)
        f = random_formula(rng, list(m.properties), 3)
        target = physical_proposition(m, f)
        for interp in enumerate_interpretations(m):
            assert individual_proposition(m, interp, f) == target


def test_cms_means_every_profile_entry_full_or_empty():
    rng = random.Random(21)
    for _ in range(30):
        m = random_model(rng, cms=True)
        f = random_formula(rng, list(m.properties), 3)
        for s, ext in zip(m.states, extension_profile(m, f)):
            assert ext in (frozenset(), frozenset(m.universe(s)))


# ---------------------------------------------------------------------------
# the closure against the round-by-round frozenset oracle


def _slot_bits(m, profile) -> int:
    """A profile's slots as an int: object i of the k-th state at bit
    i plus the universe sizes of the states before it."""
    v = offset = 0
    for s, ext in zip(m.states, profile):
        u = m.universes[s]
        v |= sum(1 << (offset + i) for i, o in enumerate(u) if o in ext)
        offset += len(u)
    return v


def _assert_closed_as(m, alg, want):
    """``alg`` holds ``want``'s classes, as ``naive_close`` returns
    them, in their order: profiles, slot bits, representatives, sizes."""
    assert alg.is_closed
    assert [c.profile for c in alg.classes] == [p for _, p, _ in want]
    assert list(alg.bits) == [_slot_bits(m, p) for _, p, _ in want]
    assert [format_lx(c.representative) for c in alg.classes] \
        == [format_lx(r) for r, _, _ in want]
    assert [c.size for c in alg.classes] == [n for _, _, n in want]


def _assert_closure_matches_oracle(m, depth):
    alg = lindenbaum_tarski(m, depth).closed()
    want = naive_closure(m, depth)
    _assert_closed_as(m, alg, want)
    assert alg.poset.covers() == oracle_covers([p for _, p, _ in want])


@pytest.mark.parametrize("name", ["m_sr", "m_cm", "m_qbit", "m_qutrit"])
def test_closure_matches_naive_oracle_on_fixtures(name):
    _assert_closure_matches_oracle(canonical_models()[name], 2)


def test_closure_matches_naive_oracle_on_random_models():
    rng = random.Random(808)
    for i in range(30):
        m = random_model(rng, max_states=3, max_objects=3, max_props=3)
        _assert_closure_matches_oracle(m, 1 + i % 3)


# depth 2 is test_closure_matches_naive_oracle_on_fixtures
@pytest.mark.parametrize("depth", [1, 3, 4])
@pytest.mark.parametrize("name", ["m_sr", "m_cm", "m_qbit", "m_qutrit"])
def test_closure_matches_naive_rounds_on_fixtures(name, depth):
    m = canonical_models()[name]
    lt = lindenbaum_tarski(m, depth)
    if sum(c.size for c in lt.classes) <= 20_000:
        want = naive_closure(m, depth)
    else:
        # too many formulas to enumerate (182,712 to 76 billion): the
        # naive rounds start from the quotient's classes, which
        # test_lt_matches_the_oracle_on_fixtures checks at lower depths
        want = naive_close(m, [(c.representative, c.profile, c.size)
                               for c in lt.classes])
    _assert_closed_as(m, lt.closed(), want)


def _bench_seed5_models() -> dict:
    """The three models of the classical benchmark at seed 5: seven
    distinct property types over seven objects (a 128-class closure),
    proper extensions in two-object states, and four full-or-empty
    state types over eight objects per state."""
    cm128 = make_model(
        ["S1", "S2", "S3"],
        {"S1": ["a1", "a2", "a3"], "S2": ["b1", "b2"], "S3": ["c1", "c2"]},
        ["E1", "E2", "E3"],
        {"S1": {"E1": ["a1", "a2", "a3"], "E2": ["a2", "a3"],
                "E3": ["a1", "a3"]},
         "S2": {"E1": ["b2"], "E2": [], "E3": ["b1"]},
         "S3": {"E1": [], "E2": ["c1"], "E3": ["c1"]}})
    sec3 = make_model(
        ["S1", "S2", "S3"],
        {"S1": ["u1", "u2"], "S2": ["v1", "v2"], "S3": ["w1"]},
        ["E1", "E2"],
        {"S1": {"E1": ["u2"], "E2": ["u1"]},
         "S2": {"E1": ["v2"], "E2": ["v1"]},
         "S3": {"E1": [], "E2": ["w1"]}})
    states = ["S1", "S2", "S3", "S4"]
    universes = {s: [f"{s.lower()}o{j}" for j in range(1, 9)] for s in states}
    types = {"S1": "E2", "S2": "E1 E3", "S3": "", "S4": "E1 E2"}
    collapse = make_model(
        states, universes, ["E1", "E2", "E3"],
        {s: {e: universes[s] if e in types[s].split() else []
             for e in ("E1", "E2", "E3")} for s in states})
    return {"cm128": cm128, "sec3": sec3, "collapse": collapse}


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", ["cm128", "sec3", "collapse"])
def test_closure_matches_naive_oracle_on_bench_models(name, depth):
    _assert_closure_matches_oracle(_bench_seed5_models()[name], depth)


class _CountingInt(int):
    """A profile that counts the complements (``top ^ self``) and
    unions taken of it: every closure round takes both."""

    ops = 0

    def __rxor__(self, other):
        _CountingInt.ops += 1
        return int.__rxor__(self, other)

    def __or__(self, other):
        _CountingInt.ops += 1
        return int.__or__(self, other)


@pytest.mark.parametrize("m, depth, whole", [
    (m_sr(), 2, True), (_bench_seed5_models()["sec3"], 3, True),
    (m_sr(), 1, False), (m_qbit(), 2, False)])
def test_closure_runs_no_round_when_it_starts_whole(m, depth, whole):
    lt = lindenbaum_tarski(m, depth)
    counted = dataclasses.replace(
        lt, bits=tuple(map(_CountingInt, lt.bits)))
    _CountingInt.ops = 0
    closed = counted.closed()
    assert closed.bits == lt.closed().bits
    assert (len(closed.classes) == len(lt.classes)) == whole
    assert (_CountingInt.ops == 0) == whole


def _cell_count(m) -> int:
    """The cells the atoms cut the (state, object) slots into: one per
    distinct set of properties an object has."""
    return len({frozenset(e for e in m.properties if o in m.extensions[s][e])
                for s in m.states for o in m.universes[s]})


@pytest.mark.parametrize("case", [*range(60), *canonical_models()])
def test_closure_is_the_same_at_every_depth(case):
    # the closure is the Boolean algebra the atoms' cells generate, which
    # every depth from 1 up reaches; only the representatives differ
    m = (canonical_models()[case] if isinstance(case, str)
         else random_check_case(case)[0])
    want = set(lindenbaum_tarski(m, 1).closed().bits)
    assert len(want) == 2 ** _cell_count(m)
    for depth in range(2, semantics.DEPTH_CAP + 1):
        assert set(lindenbaum_tarski(m, depth).closed().bits) == want


# ---------------------------------------------------------------------------
# kernel propositions against the helpers' own evaluator


def test_forall_equals_brute_force_oracle_random():
    rng = random.Random(88)
    for _ in range(60):
        m = random_model(rng)
        f = random_formula(rng, list(m.properties), 3)
        assert forall_proposition(m, f) == brute_force_physical(m, f)


@given(model_and_formula(depth=4))
@settings(max_examples=100, deadline=None)
def test_individual_proposition_equals_oracle(mf):
    m, f = mf
    for interp in enumerate_interpretations(m):
        assert individual_proposition(m, interp, f) \
            == oracle_individual(m, interp, f)


# ---------------------------------------------------------------------------
# errors keep their kind and their order


def test_unknown_state_is_a_schema_error_before_the_formula():
    m = m_sr()
    bad = Atom("Z")  # undeclared too: the state is reported first
    with pytest.raises(SchemaError):
        extension_of(m, "S9", bad)
    with pytest.raises(SchemaError):
        certainly_true(m, "S9", bad)
    with pytest.raises(SchemaError):
        is_true(m, {"S1": "u1", "S2": "v1", "S9": "u1"}, "S9", bad)


def test_undeclared_atom_is_unknown_property():
    m = m_sr()
    f = parse_lx("E(x) & Z(x)")
    for call in (lambda: extension_of(m, "S1", f),
                 lambda: physical_proposition(m, f),
                 lambda: is_true(m, {"S1": "u1", "S2": "v1"}, "S1", f),
                 lambda: extension_profile(m, f),
                 lambda: testable_witness(m, f)):
        with pytest.raises(UnknownProperty):
            call()


def test_quantum_node_in_a_classical_call_is_a_type_error():
    m = m_sr()
    q = QNot(Atom("E"))
    for call in (lambda: extension_of(m, "S1", q),
                 lambda: physical_proposition(m, Not(q)),
                 lambda: individual_proposition(m, {"S1": "u1", "S2": "v1"},
                                                q),
                 lambda: logical_leq(m, Atom("E"), q)):
        with pytest.raises(TypeError):
            call()
    # operands are visited left to right
    with pytest.raises(TypeError):
        physical_proposition(m, And(q, Atom("Z")))
    with pytest.raises(UnknownProperty):
        physical_proposition(m, And(Atom("Z"), q))


def test_object_outside_the_universe_satisfies_nothing():
    m = m_sr()
    interp = {"S1": "zz", "S2": "v1"}
    taut = parse_lx("E(x) | !E(x)")
    assert not is_true(m, interp, "S1", taut)
    assert is_true(m, interp, "S2", taut)
    assert individual_proposition(m, interp, taut) == frozenset({"S2"})
