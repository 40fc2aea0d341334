"""Assertive translation, justification, and preservation checks."""

import random

import pytest

from qlprop import pragmatic
from qlprop.errors import NotOperationClosed, NotPDecidable, SchemaError
from qlprop.hilbert import Subspace
from qlprop.model import HilbertAnnotation, build_qm_model, m_qbit, make_model
from qlprop.pragmatic import (
    Justification,
    assertive_preimage,
    check_preservation,
    justified,
    to_assertive,
)
from qlprop.quantum import QTruth, q_truth
from qlprop.semantics import enumerate_tq_formulas
from qlprop.syntax import (
    A,
    And,
    Assert,
    Atom,
    K,
    N,
    QNot,
    parse_prag,
    parse_tq,
    quantum_join,
)

from helpers import random_tq_formula

# ---------------------------------------------------------------------------
# the translation table


def test_tau_atom():
    assert to_assertive(Atom("E")) == Assert(Atom("E"))


def test_tau_negation():
    assert to_assertive(QNot(Atom("E"))) == N(Assert(Atom("E")))


def test_tau_conjunction():
    assert to_assertive(And(Atom("E"), Atom("F"))) \
        == K(Assert(Atom("E")), Assert(Atom("F")))


def test_tau_join_pattern_beats_generic_negation():
    f = parse_tq("E(x) |q F(x)")
    assert to_assertive(f) == A(Assert(Atom("E")), Assert(Atom("F")))
    # a negation that is not a join pattern stays an N
    g = QNot(And(Atom("E"), Atom("F")))
    assert to_assertive(g) == N(K(Assert(Atom("E")), Assert(Atom("F"))))
    # partial pattern (only one side negated) is also a plain N
    h = QNot(And(QNot(Atom("E")), Atom("F")))
    assert to_assertive(h) == N(K(N(Assert(Atom("E"))), Assert(Atom("F"))))


def test_tau_nested_join():
    f = quantum_join(quantum_join(Atom("E"), Atom("F")), Atom("G"))
    assert to_assertive(f) == A(A(Assert(Atom("E")), Assert(Atom("F"))),
                                Assert(Atom("G")))


# ---------------------------------------------------------------------------
# preimage


def test_preimage_elementary():
    assert assertive_preimage(Assert(Atom("E"))) == Atom("E")


def test_preimage_inverts_tau_frozen():
    for text in ["E(x)", "~q E(x)", "E(x) & F(x)", "E(x) |q F(x)",
                 "~q (E(x) & ~q F(x))", "E(x) ->q F(x)"]:
        f = parse_tq(text)
        assert assertive_preimage(to_assertive(f)) == f


def test_preimage_inverts_tau_random():
    rng = random.Random(31)
    for _ in range(300):
        f = random_tq_formula(rng, ["E", "F", "G"], 4)
        assert assertive_preimage(to_assertive(f)) == f


# the round trip of the one-node steps: each step reads its operands'
# translations or preimages through the recursive functions
ROUND_TRIP = {
    "atom": "E(x)",
    "negation": "~q E(x)",
    "conjunction": "E(x) & F(x)",
    "A pattern": "~q (~q E(x) & ~q F(x))",
    "negated conjunction": "~q (E(x) & F(x))",
    "half pattern": "~q (~q E(x) & F(x))",
    "double negation": "~q ~q E(x)",
    "A of A": "(E(x) |q F(x)) |q G(x)",
    "conjunction of patterns": "(E(x) |q F(x)) & ~q (G(x) & E(x))",
    "negated A": "~q (E(x) |q ~q (F(x) & ~q G(x)))",
}


@pytest.mark.parametrize("text", list(ROUND_TRIP.values()),
                         ids=list(ROUND_TRIP))
def test_preimage_step_inverts_the_assertive_step(text):
    f = parse_tq(text)
    af = pragmatic._assertive_step(f, to_assertive)
    assert af == to_assertive(f)
    assert pragmatic._preimage_step(af, assertive_preimage) == f


def test_round_trip_catches_a_preimage_step_that_swaps_k(monkeypatch):
    step = pragmatic._preimage_step

    def swapped(af, sub):
        if isinstance(af, K):
            af = K(af.right, af.left)
        return step(af, sub)

    monkeypatch.setattr(pragmatic, "_preimage_step", swapped)
    with pytest.raises(NotPDecidable, match="not in the image"):
        assertive_preimage(to_assertive(parse_tq("E(x) & F(x)")))
    with pytest.raises(NotPDecidable, match="not in the image"):
        assertive_preimage(to_assertive(parse_tq("~q (E(x) & ~q F(x))")))
    # a conjunction of one formula with itself reads the same swapped
    f = parse_tq("E(x) & E(x)")
    assert assertive_preimage(to_assertive(f)) == f


def test_preimage_of_a_is_the_join():
    af = parse_prag("|- E(x) A |- F(x)")
    assert assertive_preimage(af) == quantum_join(Atom("E"), Atom("F"))


def test_non_elementary_assert_is_not_p_decidable():
    with pytest.raises(NotPDecidable):
        assertive_preimage(Assert(And(Atom("E"), Atom("F"))))
    with pytest.raises(NotPDecidable):
        assertive_preimage(Assert(QNot(Atom("E"))))
    with pytest.raises(NotPDecidable):
        assertive_preimage(K(Assert(Atom("E")),
                             Assert(And(Atom("E"), Atom("F")))))


def test_justified_refuses_non_p_decidable():
    m = m_qbit()
    with pytest.raises(NotPDecidable):
        justified(m, "Sz+", parse_prag("|- Ez+(x) & Ez-(x)"))


# ---------------------------------------------------------------------------
# justification values


def test_justified_frozen():
    m = m_qbit()
    assert justified(m, "Sz+", parse_prag("|- Ez+(x)")) \
        is Justification.JUSTIFIED
    assert justified(m, "Sx+", parse_prag("|- Ez+(x)")) \
        is Justification.UNJUSTIFIED
    assert justified(m, "Sz-", parse_prag("N |- Ez+(x)")) \
        is Justification.JUSTIFIED


def test_justified_string_values():
    assert str(Justification.JUSTIFIED) == "Justified"
    assert str(Justification.UNJUSTIFIED) == "Unjustified"


def test_justification_reads_the_proposition_only():
    # two oblique rays: no declared property realises the complement of
    # P, so P's Q-truth outside its certain set is undefined, but
    # justifying |- P(x) needs only that certain set
    ann = HilbertAnnotation(
        2,
        {"S1": Subspace.ray([1, 0]), "S2": Subspace.ray([1, 1])},
        {"P": Subspace.ray([1, 0]), "Q": Subspace.ray([1, 1])})
    m = make_model(
        ["S1", "S2"], {"S1": ["a"], "S2": ["a"]}, ["P", "Q"],
        {"S1": {"P": ["a"], "Q": []}, "S2": {"P": [], "Q": ["a"]}},
        hilbert=ann)
    assert justified(m, "S1", parse_prag("|- P(x)")) \
        is Justification.JUSTIFIED
    assert justified(m, "S2", parse_prag("|- P(x)")) \
        is Justification.UNJUSTIFIED
    with pytest.raises(NotOperationClosed):
        q_truth(m, "S2", Atom("P"))
    # N needs the complement itself, and an unknown state is refused
    # before any witness is looked up
    with pytest.raises(NotOperationClosed):
        justified(m, "S1", parse_prag("N |- P(x)"))
    with pytest.raises(SchemaError):
        justified(m, "S3", parse_prag("N |- P(x)"))


def test_justified_iff_q_true_exhaustive():
    m = m_qbit()
    for f in enumerate_tq_formulas(m.properties, 2):
        af = to_assertive(f)
        for s in m.states:
            want = q_truth(m, s, f) is QTruth.TRUE
            got = justified(m, s, af) is Justification.JUSTIFIED
            assert want == got, (s, f)


def test_k_justification_is_conjunction_of_justifications():
    m = m_qbit()
    formulas = enumerate_tq_formulas(m.properties, 2)
    rng = random.Random(6)
    for _ in range(200):
        a = rng.choice(formulas)
        b = rng.choice(formulas)
        af = K(to_assertive(a), to_assertive(b))
        for s in m.states:
            want = (justified(m, s, to_assertive(a))
                    is Justification.JUSTIFIED) \
                and (justified(m, s, to_assertive(b))
                     is Justification.JUSTIFIED)
            got = justified(m, s, af) is Justification.JUSTIFIED
            assert want == got


# ---------------------------------------------------------------------------
# preservation


def test_preservation_qbit_depth1():
    rep = check_preservation(m_qbit(), 1)
    assert rep.ok
    assert rep.counterexamples == []
    assert rep.formulas == 6


def test_preservation_qbit_depth2():
    rep = check_preservation(m_qbit(), 2)
    assert rep.ok
    assert rep.classes == 6


def test_preservation_degenerate_model():
    m = build_qm_model(dim=1, rays={"S": [1.0]}, subspaces={"E": [[1.0]]},
                       universe_size=1)
    rep = check_preservation(m, 1)
    assert rep.ok
    assert rep.formulas == 1
