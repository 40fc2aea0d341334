"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every line is printed and appended to the conftest collector before its
assertion fires, so a red criterion still announces itself in the
terminal summary.  Oracles come from helpers (interpretation
enumeration, projector arithmetic); the checked routes never share code
with them.
"""

from __future__ import annotations

import random
import time

import numpy as np

from conftest import acceptance_lines
from helpers import (
    brute_force_physical,
    projector_join,
    projector_meet,
    random_formula,
    random_model,
    random_prag_formula,
    random_subspace_vectors,
    random_tq_formula,
)
from qlprop import (
    And,
    Atom,
    Not,
    Or,
    ParseError,
    QNot,
    QTruth,
    Subspace,
    build_qm_model,
    certain_states,
    check_boolean,
    check_cms,
    check_ortho_modular,
    check_preservation,
    check_tq_equalities,
    closure_generate,
    enumerate_formulas,
    enumerate_interpretations,
    enumerate_tq_formulas,
    forall_proposition,
    format_lx,
    format_prag,
    format_tq,
    individual_proposition,
    join,
    lindenbaum_tarski,
    m_qbit,
    m_qutrit,
    m_sr,
    meet,
    parse_lx,
    parse_prag,
    parse_tq,
    physical_proposition,
    q_truth,
    q_truth_classical,
    state_lattice,
    tq_physical_proposition,
)


def _report(num: int, ok: bool, desc: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    acceptance_lines.append(line)
    assert ok, line


_CASES: list | None = None


def _shared_cases():
    """200 seeded random models with five depth-4 formulas each; criteria
    1, 2 and 8 must see the identical population."""
    global _CASES
    if _CASES is None:
        rng = random.Random(101)
        cases = []
        for _ in range(200):
            m = random_model(rng)
            fs = [random_formula(rng, m.properties, 4) for _ in range(5)]
            cases.append((m, fs))
        _CASES = cases
    return _CASES


def test_criterion_1_physical_equals_brute_force():
    t0 = time.monotonic()
    bad = checked = 0
    for m, fs in _shared_cases():
        for f in fs:
            checked += 1
            if physical_proposition(m, f) != brute_force_physical(m, f):
                bad += 1
    dt = time.monotonic() - t0
    _report(1, bad == 0 and dt < 60.0,
            f"per-state physical proposition equals the intersection over "
            f"all interpretations on 200 random models, {checked} formulas "
            f"in {dt:.1f}s, {bad} mismatches")


def test_criterion_2_connective_proposition_laws():
    viol: list[tuple] = []

    def run(m, formulas):
        states = frozenset(m.states)
        phys = {f: physical_proposition(m, f) for f in formulas}
        for f in formulas:
            if not physical_proposition(m, Not(f)) <= states - phys[f]:
                viol.append(("negation", format_lx(f)))
        for a in formulas:
            for b in formulas:
                if physical_proposition(m, And(a, b)) != phys[a] & phys[b]:
                    viol.append(("conjunction", format_lx(a), format_lx(b)))
                if not physical_proposition(m, Or(a, b)) >= phys[a] | phys[b]:
                    viol.append(("disjunction", format_lx(a), format_lx(b)))

    msr = m_sr()
    run(msr, enumerate_formulas(msr.properties, 2))
    for m, fs in _shared_cases()[:100]:
        run(m, fs)

    e, f = Atom("E"), Atom("F")
    neg_prop = physical_proposition(msr, Not(e))
    neg_bound = frozenset(msr.states) - physical_proposition(msr, e)
    strict_neg = neg_prop == frozenset() and neg_bound == frozenset({"S1"})
    disj_prop = physical_proposition(msr, Or(e, f))
    disj_union = physical_proposition(msr, e) | physical_proposition(msr, f)
    strict_disj = (disj_union == frozenset({"S2"})
                   and disj_prop == frozenset({"S1", "S2"}))
    _report(2, not viol and strict_neg and strict_disj,
            f"conjunction proposition exact, negation/disjunction "
            f"inclusions on all tested pairs ({len(viol)} violations), "
            f"strict witnesses produced on the two-state fixture")


def test_criterion_3_classical_collapse():
    rng = random.Random(303)
    viol = 0
    models = 0
    for _ in range(60):
        m = random_model(rng, cms=True)
        ok, _ = check_cms(m)
        assert ok
        models += 1
        interps = list(enumerate_interpretations(m))
        tested = enumerate_formulas(m.properties, 2)
        tested += [random_formula(rng, m.properties, 3) for _ in range(8)]
        for f in tested:
            phys = physical_proposition(m, f)
            for interp in interps:
                if individual_proposition(m, interp, f) != phys:
                    viol += 1
        # the truncated class set can miss a join (four realized cells
        # over two generators put the needed union at depth 4), so the
        # laws are checked on the algebra the depth-3 classes generate
        rep = check_boolean(lindenbaum_tarski(m, 3).closed().poset)
        if not rep.all_passed():
            viol += 1
    _report(3, viol == 0 and models == 60,
            f"on {models} random full-or-empty models every individual "
            f"proposition equals the physical one under every "
            f"interpretation and the depth-3 quotient satisfies all "
            f"Boolean laws ({viol} violations)")


def test_criterion_4_state_lattices_and_subspace_oracle():
    mq = m_qbit()
    lq = state_lattice(mq)
    lt = state_lattice(m_qutrit())
    need = ("ortho_involution", "ortho_order_reversal", "ortho_complement",
            "orthomodular", "atomic", "atomistic", "covering")
    laws_ok = all(check_ortho_modular(lat).passed(law)
                  for lat in (lq, lt) for law in need)

    a = lq.poset.index_of(certain_states(mq, "Ex+"))
    b = lq.poset.index_of(certain_states(mq, "Ez+"))
    c = lq.poset.index_of(certain_states(mq, "Ez-"))
    lhs = lq.meet[a, lq.join[b, c]]
    rhs = lq.join[lq.meet[a, b], lq.meet[a, c]]
    dist_fails = (lhs != rhs
                  and not check_boolean(lq.poset).passed(
                      "distributive_meet_over_join"))

    rng = random.Random(404)
    worst = 0.0
    for _ in range(1000):
        dim = rng.randint(1, 5)
        sa = Subspace.span(
            random_subspace_vectors(rng, dim, rng.randint(0, dim)), dim)
        sb = Subspace.span(
            random_subspace_vectors(rng, dim, rng.randint(0, dim)), dim)
        pa, pb = sa.projector(), sb.projector()
        dj = np.max(np.abs(join(sa, sb).projector() - projector_join(pa, pb)))
        dm = np.max(np.abs(meet(sa, sb).projector() - projector_meet(pa, pb)))
        worst = max(worst, float(dj), float(dm))
    _report(4, laws_ok and dist_fails and worst < 1e-8,
            f"state lattices of both Hilbert fixtures satisfy the "
            f"ortholattice laws, distributivity fails at the recorded "
            f"triple, subspace ops within {worst:.2e} of the projector "
            f"oracle over 1000 pairs")


def test_criterion_5_quantum_connectives_match_lattice_ops():
    res = check_tq_equalities(m_qbit(), 3)
    ok = (res["formulas"] == 2358 and not res["negation"]
          and not res["conjunction"] and not res["join"]
          and res["join_strict_witness"] is not None)
    _report(5, ok,
            f"negation/conjunction/join propositions equal the lattice "
            f"operations on all {res['formulas']} depth-3 quantum formulas "
            f"({res['classes']} witness classes), join strictness witnessed")


def _classical_counterpart(f):
    if isinstance(f, Atom):
        return f
    if isinstance(f, QNot):
        return Not(_classical_counterpart(f.inner))
    return And(_classical_counterpart(f.left), _classical_counterpart(f.right))


def _determinate_fixtures():
    """Hilbert models whose rays all lie inside or orthogonal to every
    property subspace, so no extension is fabricated."""
    two = build_qm_model(
        2,
        rays={"Sz+": [1.0, 0.0], "Sz-": [0.0, 1.0]},
        subspaces={"E0": [], "Ez+": [[1.0, 0.0]], "Ez-": [[0.0, 1.0]],
                   "EI": [[1.0, 0.0], [0.0, 1.0]]})
    gens = [Subspace.ray([1.0, 0.0, 0.0], 3),
            Subspace.ray([0.0, 1.0, 0.0], 3),
            Subspace.ray([0.0, 0.0, 1.0], 3)]
    closure = closure_generate(3, gens, cap=16)
    three = build_qm_model(
        3,
        rays={f"T{i + 1}": list(g.basis[0]) for i, g in enumerate(gens)},
        subspaces={f"P{i}": [list(v) for v in sub.basis]
                   for i, sub in enumerate(closure)})
    return two, three


def test_criterion_6_trichotomy():
    viol: list[tuple] = []
    for m in (m_qbit(), m_qutrit()):
        for f in enumerate_tq_formulas(m.properties, 2):
            pos = tq_physical_proposition(m, f)
            neg = tq_physical_proposition(m, QNot(f))
            if pos & neg:
                viol.append(("overlap", format_tq(f)))
            for s in m.states:
                want = (QTruth.TRUE if s in pos
                        else QTruth.FALSE if s in neg
                        else QTruth.INDETERMINATE)
                if q_truth(m, s, f) is not want:
                    viol.append(("value", format_tq(f), s))
    for m in _determinate_fixtures():
        for f in enumerate_tq_formulas(m.properties, 2):
            certain = physical_proposition(m, _classical_counterpart(f))
            for s in m.states:
                if (q_truth(m, s, f) is QTruth.TRUE) != (s in certain):
                    viol.append(("determinate", format_tq(f), s))
    mq = m_qbit()
    witness = (q_truth(mq, "Sx+", Atom("Ez+")) is QTruth.INDETERMINATE
               and q_truth_classical(mq, "Sx+", Atom("Ez+"))
               is QTruth.INDETERMINATE)
    _report(6, not viol and witness,
            f"three truth regions partition the states for every tested "
            f"formula, truth reduces to certainty on determinate fixtures "
            f"({len(viol)} violations), oblique-state witness indeterminate")


def test_criterion_7_pragmatic_preservation():
    rep = check_preservation(m_qbit(), 3)
    _report(7, rep.ok and rep.formulas == 2358,
            f"justification coincides with Q-truth and the physical "
            f"preorder on {rep.formulas} depth-3 formulas "
            f"({len(rep.counterexamples)} counterexamples)")


def test_criterion_8_universal_quantifier_identity():
    bad = checked = 0
    for m, fs in _shared_cases():
        for f in fs:
            checked += 1
            try:
                if forall_proposition(m, f) != physical_proposition(m, f):
                    bad += 1
            except AssertionError:
                bad += 1
    _report(8, bad == 0,
            f"universally quantified proposition equals the per-state "
            f"physical form on all 200 shared models, {checked} formulas, "
            f"{bad} mismatches")


def test_criterion_9_parser_round_trip():
    rng = random.Random(909)
    props = ["E", "F", "Ez+", "Sx-", "G1"]
    bad = 0
    for build, fmt, parse in (
            (random_formula, format_lx, parse_lx),
            (random_tq_formula, format_tq, parse_tq),
            (random_prag_formula, format_prag, parse_prag)):
        for _ in range(1000):
            f = build(rng, props, rng.randint(0, 5))
            if parse(fmt(f)) != f:
                bad += 1
    rejected = 0
    foreign = [
        (parse_lx, ("~q E(x)", "E(x) |q F(x)", "E(x) ->q F(x)", "|- E(x)")),
        (parse_tq, ("!E(x)", "E(x) | F(x)", "E(x) -> F(x)", "|- E(x)")),
        (parse_prag, ("E(x)", "|- ~E(x)", "!E(x)")),
    ]
    total = sum(len(ts) for _, ts in foreign)
    for parse, texts in foreign:
        for text in texts:
            try:
                parse(text)
            except ParseError:
                rejected += 1
    _report(9, bad == 0 and rejected == total,
            f"3000 random trees round-trip through their printers "
            f"({bad} failures), {rejected}/{total} cross-language "
            f"strings rejected")
