"""Quantum-language semantics: witnesses, trichotomy, lattice equalities.

Two independent routes everywhere: formula propositions come from the
witness recursion over subspaces, the comparison side from the state
lattice's order-derived meet/join/ortho tables.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlprop.cli as cli
import qlprop.hilbert as hilbert
import qlprop.quantum as quantum

from qlprop.errors import (
    NoHilbertAnnotation,
    NotOperationClosed,
    UnknownProperty,
    WitnessMismatchWarning,
)
from qlprop.hilbert import Subspace
from qlprop.model import (
    HilbertAnnotation,
    build_qm_model,
    default_interpretation,
    dump_model,
    load_model,
    m_qbit,
    m_qutrit,
    m_sr,
    make_model,
)
from qlprop.quantum import (
    QTruth,
    _witness_classes,
    check_tq_equalities,
    q_truth,
    q_truth_classical,
    sasaki_hook,
    tq_is_true,
    tq_physical_proposition,
    witness_property,
)
from qlprop.semantics import enumerate_tq_formulas
from qlprop.syntax import And, Atom, Not, Or, QNot, parse_lx, parse_tq

from helpers import (
    WitnessOracle,
    decided_by_ranks,
    join_open,
    mo2_qubit,
    non_injective_qubit,
    oracle_certain,
    oracle_orthogonal,
    oracle_witness,
    random_tq_formula,
)

# ---------------------------------------------------------------------------
# witness recursion, frozen on the qubit fixture


def test_witness_atoms():
    m = m_qbit()
    for e in m.properties:
        assert witness_property(m, Atom(e)) == e


def test_witness_negation():
    m = m_qbit()
    assert witness_property(m, parse_tq("~q Ez+(x)")) == "Ez-"
    assert witness_property(m, parse_tq("~q Ex-(x)")) == "Ex+"
    assert witness_property(m, parse_tq("~q E0(x)")) == "EI"
    assert witness_property(m, parse_tq("~q ~q Ez+(x)")) == "Ez+"


def test_witness_conjunction():
    m = m_qbit()
    assert witness_property(m, parse_tq("Ez+(x) & Ex+(x)")) == "E0"
    assert witness_property(m, parse_tq("Ez+(x) & EI(x)")) == "Ez+"
    assert witness_property(m, parse_tq("Ez+(x) & Ez+(x)")) == "Ez+"


def test_witness_join_and_sasaki():
    m = m_qbit()
    assert witness_property(m, parse_tq("Ez+(x) |q Ez-(x)")) == "EI"
    f, prop = sasaki_hook(m, parse_tq("Ex+(x)"), parse_tq("Ez+(x)"))
    assert witness_property(m, f) == "Ex-"
    assert prop == frozenset({"Sx-"})


def test_witness_errors():
    with pytest.raises(NoHilbertAnnotation):
        witness_property(m_sr(), Atom("E"))
    with pytest.raises(UnknownProperty):
        witness_property(m_qbit(), Atom("nope"))


def test_witness_requires_closure():
    ann = HilbertAnnotation(
        2,
        {"S1": Subspace.ray([1, 0]), "S2": Subspace.ray([1, 1])},
        {"P": Subspace.ray([1, 0]), "Q": Subspace.ray([1, 1])})
    m = make_model(
        ["S1", "S2"], {"S1": ["a"], "S2": ["a"]}, ["P", "Q"],
        {"S1": {"P": ["a"], "Q": []}, "S2": {"P": [], "Q": ["a"]}},
        hilbert=ann)
    with pytest.raises(NotOperationClosed) as exc:
        witness_property(m, parse_tq("~q P(x)"))
    assert exc.value.witness == ("P", "ortho")
    with pytest.raises(NotOperationClosed) as exc:
        witness_property(m, parse_tq("P(x) & Q(x)"))
    assert exc.value.witness == ("P", "Q", "meet")


# ---------------------------------------------------------------------------
# the property table against the projector oracle


@functools.lru_cache(maxsize=None)
def _oracle_model(name: str):
    m = {"m_qbit": m_qbit, "m_qutrit": m_qutrit,
         "mo2": lambda: mo2_qubit(20)}[name]()
    return m, WitnessOracle(m)


def _tq_formulas(props):
    return st.recursive(
        st.sampled_from(props).map(Atom),
        lambda sub: st.one_of(sub.map(QNot),
                              st.tuples(sub, sub).map(lambda t: And(*t))),
        max_leaves=8)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_table_lookups_match_projector_oracle(data):
    shared, oracle = _oracle_model(
        data.draw(st.sampled_from(["m_qbit", "m_qutrit", "mo2"])))
    # a shared model has a warm table; a reloaded copy starts empty
    m = shared if data.draw(st.booleans()) else load_model(dump_model(shared))
    f = data.draw(_tq_formulas(list(m.properties)))
    w = oracle.witness(f)
    assert witness_property(m, f) == w
    assert tq_physical_proposition(m, f) == oracle.certain(w)
    for s in m.states:
        assert str(q_truth(m, s, f)) == oracle.q_truth(s, f)


def test_oracle_knows_the_qubit_fixture():
    m, oracle = _oracle_model("m_qbit")
    assert oracle.witness(parse_tq("~q Ez+(x)")) == "Ez-"
    assert oracle.witness(parse_tq("Ez+(x) & Ex+(x)")) == "E0"
    assert oracle.certain("Ex-") == frozenset({"Sx-"})
    assert oracle.q_truth("Sx+", parse_tq("Ez+(x)")) == "QIndeterminate"


def _oblique_pair_model():
    """Two oblique rays P and Q and nothing else: no complement, no meet
    of P and Q, no join of P and Q is declared."""
    ann = HilbertAnnotation(
        2,
        {"S1": Subspace.ray([1, 0]), "S2": Subspace.ray([1, 1])},
        {"P": Subspace.ray([1, 0]), "Q": Subspace.ray([1, 1])})
    return make_model(
        ["S1", "S2"], {"S1": ["a"], "S2": ["a"]}, ["P", "Q"],
        {"S1": {"P": ["a"], "Q": []}, "S2": {"P": [], "Q": ["a"]}},
        hilbert=ann)


def test_non_closed_model_evaluates_what_it_can(monkeypatch):
    m = _oblique_pair_model()
    f = parse_tq("(P(x) & P(x)) & P(x)")
    assert witness_property(m, f) == "P"
    assert tq_physical_proposition(m, f) == frozenset({"S1"})
    assert q_truth(m, "S1", f) is QTruth.TRUE

    calls = []
    residual_norms = hilbert._residual_norms
    monkeypatch.setattr(hilbert, "_residual_norms",
                        lambda a, b: calls.append(1) or residual_norms(a, b))
    cases = [
        (lambda: witness_property(m, parse_tq("~q P(x)")),
         "no property realises the complement of 'P'", ("P", "ortho")),
        (lambda: witness_property(m, parse_tq("P(x) & Q(x)")),
         "no property realises the meet of 'P' and 'Q'", ("P", "Q", "meet")),
        # Q-falsity at S2 needs the complement of P
        (lambda: q_truth(m, "S2", f),
         "no property realises the complement of 'P'", ("P", "ortho")),
        (lambda: m.hilbert.table.join("P", "Q"),
         "no property realises the join of 'P' and 'Q'", ("P", "Q", "join")),
    ]
    for call, message, witness in cases:
        for attempt in range(2):
            del calls[:]
            with pytest.raises(NotOperationClosed) as exc:
                call()
            assert str(exc.value) == message
            assert exc.value.witness == witness
            if attempt:  # the missing result was stored, not recomputed
                assert calls == []


# ---------------------------------------------------------------------------
# reduction by height: the error of the first failing node in post-order


def _outcome(m, f, witness=witness_property):
    """The witness of ``f``, or the type and ``.witness`` of its error."""
    try:
        return witness(m, f)
    except Exception as exc:  # the type is what is compared
        return type(exc), getattr(exc, "witness", None)


@pytest.mark.parametrize("f,expected", [
    # the left negation fails at height 1 and precedes the unknown atom
    (parse_tq("~q P(x) & Zzz(x)"), (NotOperationClosed, ("P", "ortho"))),
    (parse_tq("Zzz(x) & ~q P(x)"), (UnknownProperty, None)),
    # the left chain's first negation and the right meet both fail at
    # height 1; the negation comes first in post-order
    (parse_tq("~q ~q ~q P(x) & (P(x) & Q(x))"),
     (NotOperationClosed, ("P", "ortho"))),
    # the left subtree fails at height 2, after the right one's height 1
    (parse_tq("~q (P(x) & P(x)) & (P(x) & Q(x))"),
     (NotOperationClosed, ("P", "ortho"))),
    (parse_tq("(P(x) & P(x)) & (P(x) & Q(x))"),
     (NotOperationClosed, ("P", "Q", "meet"))),
    (And(QNot(Atom("P")), Not(Atom("P"))),
     (NotOperationClosed, ("P", "ortho"))),
    (And(Not(Atom("P")), QNot(Atom("P"))), (TypeError, None)),
    (parse_tq("(P(x) & P(x)) & P(x)"), "P"),
], ids=str)
def test_witness_raises_at_the_first_failing_node_in_post_order(f, expected):
    m = _oblique_pair_model()
    assert _outcome(m, f, oracle_witness) == expected
    assert _outcome(m, f) == expected
    assert _outcome(m, f) == expected  # the same from the filled table


def test_witness_error_text_is_the_recursions():
    m = _oblique_pair_model()
    with pytest.raises(NotOperationClosed,
                       match=r"^no property realises the complement of 'P'$"):
        witness_property(m, parse_tq("~q P(x) & Zzz(x)"))
    with pytest.raises(UnknownProperty,
                       match=r"^model declares no property 'Zzz'$"):
        witness_property(m, parse_tq("Zzz(x) & ~q P(x)"))
    with pytest.raises(TypeError, match=r"^not a quantum formula node: "):
        witness_property(m, And(Not(Atom("P")), QNot(Atom("P"))))


_DIFFERENTIAL_MODELS = {
    "m_qbit": m_qbit,
    "m_qutrit": m_qutrit,
    "mo2": lambda: mo2_qubit(7),
    "non-closed": _oblique_pair_model,
    "join-open": join_open,
    "non-injective": non_injective_qubit,
}


def _full_outcome(m, f, witness=witness_property):
    """The witness of ``f``, or the type, text and ``.witness`` of its
    error."""
    try:
        return witness(m, f)
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc), getattr(exc, "witness", None)


def _in_library_words(outcome):
    """An oracle outcome with its error text worded as the library's: the
    oracle prefixes "oracle: ", and names a missing operation by its key."""
    if isinstance(outcome, str):
        return outcome
    kind, text, key = outcome
    text = text.removeprefix("oracle: ")
    if kind is UnknownProperty:
        text = "model declares no property " + text.removeprefix("no property ")
    elif kind is NotOperationClosed:
        *operands, op = key
        text = (f"no property realises the "
                f"{'complement' if op == 'ortho' else op} of "
                + " and ".join(map(repr, operands)))
    return kind, text, key


def _with_foreign_leaves(rng, f, props):
    """``f`` with about one leaf in 16 replaced by a classical ``Not`` or
    ``Or`` node, which the quantum reduction refuses."""
    if isinstance(f, QNot):
        return QNot(_with_foreign_leaves(rng, f.inner, props))
    if isinstance(f, And):
        return And(_with_foreign_leaves(rng, f.left, props),
                   _with_foreign_leaves(rng, f.right, props))
    if rng.random() >= 1 / 16:
        return f
    return Not(f) if rng.random() < 0.5 else Or(f, Atom(rng.choice(props)))


def _table_answers(m) -> list:
    """Every complement and meet key over the declared properties, looked
    up one at a time: the name, or the error's type and ``.witness``."""
    table, props = m.hilbert.table, m.properties
    keys = [(e, "ortho") for e in props]
    keys += [(e, g, "meet") for e in props for g in props]
    out = []
    for key in keys:
        try:
            out.append(table.names([key])[0])
        except NotOperationClosed as exc:
            out.append((NotOperationClosed, exc.witness))
    return out


@pytest.mark.parametrize("name", list(_DIFFERENTIAL_MODELS))
def test_witness_matches_the_projector_oracle(name):
    build = _DIFFERENTIAL_MODELS[name]
    shared = build()
    # every complement and meet on a freshly loaded copy of the model
    reference = _table_answers(load_model(dump_model(build())))
    # an undeclared atom now and then, so that UnknownProperty competes
    # with the missing operations and the classical leaves for the first
    # failing node
    props = list(shared.properties) + ["Zzz"]
    for seed in range(120):
        rng = random.Random(seed)
        f = _with_foreign_leaves(
            rng, random_tq_formula(rng, props, rng.randint(1, 6)), props)
        expected = _in_library_words(
            _full_outcome(shared, f, oracle_witness))
        # a shared model's table is warm; every third formula it is new
        if seed % 3 == 0:
            shared = build()
        for m in (build(), shared):
            assert _full_outcome(m, f) == expected, f
            if not isinstance(expected, str):
                # the entries a failing reduction leaves in the table,
                # those after the failure included, are the fresh ones
                assert _table_answers(m) == reference, f


def test_witness_runs_one_batch_per_height_with_a_miss(monkeypatch):
    f = parse_tq("~q ~q ~q (P1(x) & P5(x)) & (~q P2(x) & (P3(x) & ~q P7(x)))")
    m = m_qutrit()
    # each height's table keys, from the oracle's witnesses of the operands
    keys: dict[int, set] = {}

    def height(g) -> int:
        if isinstance(g, Atom):
            return 0
        if isinstance(g, QNot):
            h = height(g.inner) + 1
            key = (oracle_witness(m, g.inner), "ortho")
        else:
            h = max(height(g.left), height(g.right)) + 1
            key = (oracle_witness(m, g.left), oracle_witness(m, g.right),
                   "meet")
        keys.setdefault(h, set()).add(key)
        return h

    # each height runs one batch of the keys that no lower height missed
    # and that the operands' ranks leave open
    expected, seen = [], set()
    for h in range(1, height(f) + 1):
        missed = {key for key in keys[h] - seen
                  if not decided_by_ranks(m.hilbert, key)}
        if missed:
            expected.append(len(missed))
        seen |= keys[h]
    # five heights: ranks decide all of height 2 (P3 & P3, and ~P8 of
    # the zero P8), ~P10 of the whole space P10 at height 3, and all of
    # height 5 (P10 & P3); height 4 repeats ~P8
    assert len(keys) == 5 and expected == [3, 1]
    calls = []
    real = hilbert._operate
    monkeypatch.setattr(hilbert, "_operate", lambda ops, tol: (
        calls.append(len(ops)) or real(ops, tol)))
    assert witness_property(m, f) == oracle_witness(m, f)
    assert calls == expected
    del calls[:]
    assert witness_property(m, f) == oracle_witness(m, f)
    assert calls == []


_R = 0.5 ** 0.5

# models missing operation results, each with the first missing operation
# in the order state_lattice and the witness fill read their lookups:
# all complements, then meet before join per pair; and formula by formula
OPEN_MODELS = {
    # two oblique rays of a qubit, no complements
    "ortho-open": (
        lambda: build_qm_model(
            2, {"A+": [1, 0], "B+": [_R, _R]},
            {"E0": [], "Ea": [[1, 0]], "Eb": [[_R, _R]],
             "EI": [[1, 0], [0, 1]]}),
        ("Ea", "ortho"), ("Ea", "ortho")),
    # two planes of C^3 with their complements but not their meet line
    "meet-open": (
        lambda: build_qm_model(
            3, {"S1": [1, 0, 0], "S2": [0, 1, 0], "S3": [0, 0, 1],
                "S4": [_R, _R, 0]},
            {"E0": [], "P12": [[1, 0, 0], [0, 1, 0]], "P3": [[0, 0, 1]],
             "P23": [[0, 1, 0], [0, 0, 1]], "P1": [[1, 0, 0]],
             "EI": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        ("P12", "P23", "meet"), ("P12", "P23", "meet")),
    # closed under complement; the first pair that misses misses its join
    "join-open": (join_open, ("P1", "V", "join"), ("P23", "Vp", "meet")),
    # two planes of C^4 sharing a line: their meet and join both missing
    "meet-and-join-open": (
        lambda: build_qm_model(
            4, {f"S{i}": row for i, row in enumerate(np.eye(4).tolist())},
            {"E0": [], "P": [[1, 0, 0, 0], [0, 1, 0, 0]],
             "Q": [[0, 1, 0, 0], [0, 0, 1, 0]],
             "Pp": [[0, 0, 1, 0], [0, 0, 0, 1]],
             "Qp": [[1, 0, 0, 0], [0, 0, 0, 1]], "EI": np.eye(4).tolist()}),
        ("P", "Q", "meet"), ("P", "Q", "meet")),
}


def _first_missing(call):
    with pytest.raises(NotOperationClosed) as exc:
        call()
    return exc.value.witness


@pytest.mark.parametrize("name", list(OPEN_MODELS))
def test_batched_fills_raise_the_first_missing_operation(name):
    build, lattice_witness, formula_witness = OPEN_MODELS[name]
    assert _first_missing(lambda: hilbert.state_lattice(build())) \
        == lattice_witness
    # the same order, one lookup at a time on a fresh table
    m = build()
    table, props = m.hilbert.table, m.properties

    def one_at_a_time():
        for e in props:
            table.ortho(e)
        for e in props:
            for f in props:
                table.meet(e, f)
                table.join(e, f)

    assert _first_missing(one_at_a_time) == lattice_witness
    for depth in (2, 3):
        m = build()
        assert _first_missing(lambda: _witness_classes(m, depth)) \
            == formula_witness
        # the recursion, formula by formula in enumeration order
        m = build()
        formulas = enumerate_tq_formulas(m.properties, depth)
        assert _first_missing(lambda: [witness_property(m, f)
                                       for f in formulas]) == formula_witness
    m = build()
    assert list(_witness_classes(m, 1)) == list(m.properties)


def test_witness_fill_realises_one_batch_per_level(monkeypatch):
    m, fresh = m_qutrit(), m_qutrit()
    calls = []
    real = hilbert._operate
    monkeypatch.setattr(hilbert, "_operate", lambda ops, tol: (
        calls.append(len(ops)) or real(ops, tol)))
    classes = _witness_classes(m, 3)
    # the atoms need no lookup; depth 2 misses every complement and
    # meet of the closed property set in one call, depth 3 none; the
    # call holds those that ranks leave open: the complements of the ten
    # properties of rank 1 or 2, and the meets of two different ones
    props = m.properties
    open_keys = [key for key in [(e, "ortho") for e in props]
                 + [(e, f, "meet") for e in props for f in props]
                 if not decided_by_ranks(m.hilbert, key)]
    assert len(open_keys) == 10 + 10 * 9
    assert calls == [len(open_keys)]
    assert all(witness_property(fresh, f) == w
               for w, (_, f) in classes.items())


# ---------------------------------------------------------------------------
# propositions and truth


def test_tq_physical_proposition_frozen():
    m = m_qbit()
    assert tq_physical_proposition(m, parse_tq("Ez+(x)")) \
        == frozenset({"Sz+"})
    assert tq_physical_proposition(m, parse_tq("Ez+(x) |q Ez-(x)")) \
        == frozenset(m.states)
    assert tq_physical_proposition(m, parse_tq("Ez+(x) & Ez-(x)")) \
        == frozenset()


def test_tq_is_true_uses_witness_extension():
    m = m_qbit()
    interp = default_interpretation(m)  # o1 everywhere
    # witness of the join is EI whose extension is full everywhere
    assert tq_is_true(m, interp, "Sx+", parse_tq("Ez+(x) |q Ez-(x)"))
    # witness of the conjunction is E0, empty everywhere
    assert not tq_is_true(m, interp, "Sz+", parse_tq("Ez+(x) & Ez-(x)"))


def test_q_truth_trichotomy_frozen():
    m = m_qbit()
    f = parse_tq("Ez+(x)")
    assert q_truth(m, "Sz+", f) is QTruth.TRUE
    assert q_truth(m, "Sz-", f) is QTruth.FALSE
    assert q_truth(m, "Sx+", f) is QTruth.INDETERMINATE
    assert q_truth(m, "Sx-", f) is QTruth.INDETERMINATE


def test_q_truth_string_values():
    assert str(QTruth.TRUE) == "QTrue"
    assert str(QTruth.FALSE) == "QFalse"
    assert str(QTruth.INDETERMINATE) == "QIndeterminate"


def test_q_false_is_lattice_complement_not_set_complement():
    # Sx+ lies outside the proposition {Sz+} of Ez+, so a set-complement
    # reading would call the formula false there; the lattice reading
    # keeps it indeterminate because Sx+ is not in the proposition of
    # the quantum negation either.
    m = m_qbit()
    f = parse_tq("Ez+(x)")
    pos = tq_physical_proposition(m, f)
    neg = tq_physical_proposition(m, QNot(f))
    assert "Sx+" not in pos and "Sx+" not in neg
    assert q_truth(m, "Sx+", f) is QTruth.INDETERMINATE


def test_q_truth_partition_exhaustive_depth2():
    m = m_qbit()
    for f in enumerate_tq_formulas(m.properties, 2):
        pos = tq_physical_proposition(m, f)
        neg = tq_physical_proposition(m, QNot(f))
        assert not (pos & neg)
        for s in m.states:
            value = q_truth(m, s, f)
            if s in pos:
                assert value is QTruth.TRUE
            elif s in neg:
                assert value is QTruth.FALSE
            else:
                assert value is QTruth.INDETERMINATE


def test_q_truth_matches_certainly_true_on_determinate_states():
    # wherever a formula is Q-true the witness extension is full, so the
    # classical certainly-true notion agrees
    from qlprop.semantics import certainly_true
    m = m_qbit()
    for f in enumerate_tq_formulas(m.properties, 2):
        w = witness_property(m, f)
        for s in m.states:
            if q_truth(m, s, f) is QTruth.TRUE:
                assert certainly_true(m, s, Atom(w))


# ---------------------------------------------------------------------------
# the classical route


def test_q_truth_classical_agrees_on_atoms():
    m = m_qbit()
    for e in m.properties:
        for s in m.states:
            assert q_truth_classical(m, s, parse_lx(f"{e}(x)")) \
                is q_truth(m, s, parse_tq(f"{e}(x)"))


def test_q_truth_classical_untestable_is_none():
    m = m_qbit()
    assert q_truth_classical(m, "Sz+", parse_lx("Ez+(x) & Ez-(x)")) is None


def test_q_truth_classical_needs_annotation():
    with pytest.raises(NoHilbertAnnotation):
        q_truth_classical(m_sr(), "S1", parse_lx("E(x)"))


def test_q_truth_classical_warns_on_witness_mismatch():
    # hand-built model: extension says E is certain at S1 but the
    # geometry says the ray lies in the complement
    ann = HilbertAnnotation(
        2,
        {"S1": Subspace.ray([1, 0]), "S2": Subspace.ray([0, 1])},
        {"E": Subspace.ray([0, 1]), "F": Subspace.ray([1, 0])})
    m = make_model(
        ["S1", "S2"], {"S1": ["a"], "S2": ["a"]}, ["E", "F"],
        {"S1": {"E": ["a"], "F": []}, "S2": {"E": [], "F": ["a"]}},
        hilbert=ann)
    with pytest.warns(WitnessMismatchWarning):
        value = q_truth_classical(m, "S1", parse_lx("E(x)"))
    assert value is QTruth.TRUE  # classical proposition wins


# ---------------------------------------------------------------------------
# the three lattice equalities


@pytest.mark.parametrize("fixture", [m_qbit, m_qutrit])
def test_tq_equalities_hold(fixture):
    m = fixture()
    out = check_tq_equalities(m, 2)
    assert out["negation"] == []
    assert out["conjunction"] == []
    assert out["join"] == []
    assert out["classes"] == len(m.properties)


def test_tq_join_strictly_above_union_on_qbit():
    out = check_tq_equalities(m_qbit(), 2)
    assert out["join_strict_witness"] is not None
    a, b = out["join_strict_witness"]
    m = m_qbit()
    pa = tq_physical_proposition(m, parse_tq(a))
    pb = tq_physical_proposition(m, parse_tq(b))
    joined = tq_physical_proposition(
        m, parse_tq(f"({a}) |q ({b})"))
    assert pa | pb < joined


def _swap_complements(m, e, f):
    """Make the property table answer the complements of ``e`` and ``f``
    with each other's complement."""
    table = m.hilbert.table
    ce, cf = table.ortho(e), table.ortho(f)
    table._names[e, "ortho"], table._names[f, "ortho"] = cf, ce


def _joins(m):
    props = m.properties
    return m.hilbert.table.names([(e, f, "join") for e in props for f in props])


def test_negation_law_catches_swapped_complements():
    # swapping the answers of a complementary pair makes each of the two
    # its own complement; every join ~(~a & ~b) read through the swapped
    # answers is still the join, so the lattice is built and only a
    # negation read from the subspaces sees the swap
    m = m_qbit()
    _swap_complements(m, "Ez+", "Ez-")
    assert _joins(m) == _joins(m_qbit())
    assert check_tq_equalities(m, 2)["negation"] == ["Ez+(x)", "Ez-(x)"]
    # Ez+ and Ex+ are rank-1; with the joins read before the swap, the
    # lattice is built from the swapped complements and the intact joins
    m = m_qbit()
    _joins(m)
    _swap_complements(m, "Ez+", "Ex+")
    out = check_tq_equalities(m, 2)
    assert out["negation"] == ["Ez+(x)", "Ex+(x)"]


def test_swapped_complements_fail_the_lattice_validation(monkeypatch,
                                                        run_check):
    # read after the swap, the joins go wrong with the complements: Ez+ v
    # E0 is read as ~(Ex- & EI) = Ex+, where the order's lub is Ez+.  The
    # lattice takes its meet and join from the order, so the qm suite
    # reports the swap in the involution law and the negation and join laws
    load = cli.load_model

    def load_swapped(*args, **kwargs):
        m = load(*args, **kwargs)
        _swap_complements(m, "Ez+", "Ex+")
        return m

    monkeypatch.setattr(cli, "load_model", load_swapped)
    code, lines = run_check(m_qbit(), "--suite", "qm")
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL state lattice law ortho_involution: witness ('{Sz+}',)",
        "FAIL negation proposition is the lattice orthocomplement: "
        "first 'Ez+(x)'",
        "FAIL disjunction proposition is the lattice join: "
        "first ('E0(x)', 'Ez+(x)')"]


@pytest.mark.parametrize("name, build", [
    ("m_qbit", m_qbit), ("m_qutrit", m_qutrit),
    *((f"mo2-{seed}", functools.partial(mo2_qubit, seed))
      for seed in range(40))])
def test_orthogonal_states_are_the_certain_states_of_the_complement(
        name, build):
    # a loaded copy, whose table has decided nothing yet
    m = load_model(dump_model(build()))
    table = m.hilbert.table
    orthogonal = {e: table.orthogonal(e) for e in m.properties}
    assert orthogonal \
        == {e: table.certain(table.ortho(e)) for e in m.properties}
    assert orthogonal == oracle_orthogonal(m)
    assert {e: table.certain(e) for e in m.properties} == oracle_certain(m)


def test_orthogonal_reads_no_complement_or_property_matching(monkeypatch):
    def refuse(*args):
        raise AssertionError("orthogonal read a complement or matched one")

    m = load_model(dump_model(m_qutrit()))
    table = m.hilbert.table
    monkeypatch.setattr(hilbert, "_ortho_rows", refuse)
    monkeypatch.setattr(hilbert.PropertyTable, "_property_of", refuse)
    out = {e: table.orthogonal(e) for e in m.properties}
    assert table._names == {}
    monkeypatch.undo()
    assert out == {e: table.certain(table.ortho(e)) for e in m.properties}


def test_tq_equalities_formula_count():
    out = check_tq_equalities(m_qbit(), 2)
    assert out["formulas"] == len(enumerate_tq_formulas(m_qbit().properties, 2))


def test_tq_equalities_read_the_table_in_one_call_per_batch(monkeypatch):
    # one names call per witness level and one for the pairs' meets and
    # joins
    m = m_qutrit()
    lat = hilbert.state_lattice(m)
    want = check_tq_equalities(m_qutrit(), 2)
    calls = {}

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)

    for name in ("names", "ortho", "meet", "join"):
        spy(hilbert.PropertyTable, name)
    spy(hilbert, "certain_states")
    spy(quantum, "certain_states")
    out = check_tq_equalities(m, 2, lat=lat)
    monkeypatch.undo()
    assert calls == {"names": 2}
    assert out == want


# ---------------------------------------------------------------------------
# interaction with the conjunctive fragment of the classical language


def test_conjunction_witness_agrees_classically_at_determinate_states():
    # on fully determinate states (the ray inside or orthogonal to every
    # conjunct) the quantum and classical readings coincide
    m = m_qbit()
    interp = default_interpretation(m)
    from qlprop.semantics import is_true
    for f in enumerate_tq_formulas(m.properties, 2):
        if any(isinstance(g, QNot) for g in _walk(f)):
            continue
        for s in m.states:
            exts = [m.extension(s, p) for p in _atom_props(f)]
            determinate = all(
                e in (frozenset(), frozenset(m.universe(s))) for e in exts)
            if determinate:
                assert tq_is_true(m, interp, s, f) \
                    == is_true(m, interp, s, f)


def _walk(f):
    yield f
    if isinstance(f, QNot):
        yield from _walk(f.inner)
    elif isinstance(f, And):
        yield from _walk(f.left)
        yield from _walk(f.right)


def _atom_props(f):
    for g in _walk(f):
        if isinstance(g, Atom):
            yield g.prop
