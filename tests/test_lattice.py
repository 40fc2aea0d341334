"""Order-theoretic machinery: posets, law checkers, isomorphism, DOT.

Oracles: the powerset lattice (all laws must pass) and the six-element
benzene-ring ortholattice (orthomodularity must fail at a documented
pair).  Meets and joins from the table builder are re-derived here with
an independent nested scan, and the brute-force lattice oracle of
``helpers`` checks tables, missing bounds and law witnesses on random
closure systems, random posets and the fixed fixtures.
"""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlprop.errors import (
    MeetJoinMissing,
    NotAPartialOrder,
    SearchCapExceeded,
)
from qlprop.lattice import (
    LawCheck,
    OrthoLattice,
    build_poset,
    check_boolean,
    check_ortho_modular,
    export_dot,
    hexagon,
    order_isomorphic,
    powerset_lattice,
)
import qlprop.lattice as lattice
from qlprop.lattice import _inclusion, _join_prime
from qlprop.model import m_qutrit
from qlprop.semantics import lindenbaum_tarski

from helpers import (
    oracle_boolean_witnesses,
    oracle_complement_witness,
    oracle_glb_table,
    oracle_ortho_witnesses,
    oracle_tables,
)

# ---------------------------------------------------------------------------
# construction and validation


def test_build_poset_from_predicate():
    p = build_poset([1, 2, 3, 6], lambda a, b: b % a == 0)
    assert p.n == 4
    assert p.bottom_index() == p.index_of(1)
    assert p.top_index() == p.index_of(6)
    meet, join = p.meet_join_tables()
    assert meet[p.index_of(2), p.index_of(3)] == p.index_of(1)
    assert join[p.index_of(2), p.index_of(3)] == p.index_of(6)


@pytest.mark.parametrize("seed", range(4))
def test_inclusion_is_the_subset_order(seed):
    # widths 1..70 cross the byte and 64-bit boundaries; each family has
    # 0..40 distinct sets, at mixed densities so that inclusions occur
    rng = random.Random(seed)
    for width in range(1, 71):
        n = min(rng.choice([0, 1, 40, rng.randint(0, 40)]), 2 ** width)
        bits: dict[int, None] = {}
        while len(bits) < n:
            p = rng.random()
            bits[sum(1 << i for i in range(width) if rng.random() < p)] = None
        sets = [frozenset(i for i in range(width) if v >> i & 1) for v in bits]
        want = build_poset(sets, lambda x, y: x <= y).leq
        got = _inclusion(list(bits), width)
        assert got.dtype == bool and np.array_equal(got, want), (width, n)


def test_build_poset_rejects_missing_reflexivity():
    with pytest.raises(NotAPartialOrder) as exc:
        build_poset([1, 2], lambda a, b: a < b)
    assert exc.value.witness == (1,)


def test_build_poset_rejects_cycle():
    with pytest.raises(NotAPartialOrder) as exc:
        build_poset(["a", "b"], lambda a, b: True)
    assert exc.value.witness == ("a", "b")


def test_build_poset_rejects_intransitivity():
    mat = np.array([[1, 1, 0],
                    [0, 1, 1],
                    [0, 0, 1]], dtype=bool)
    with pytest.raises(NotAPartialOrder) as exc:
        build_poset(["x", "y", "z"], mat)
    assert exc.value.witness == ("x", "y", "z")


def _lazy(items, made):
    return lattice._Lazy(len(items), lambda i: made.append(i) or items[i])


def test_lazy_sequence_indexes_as_a_tuple_and_makes_each_item_once():
    items = ("a", "b", "c", "d")
    made = []
    seq = _lazy(items, made)
    assert len(seq) == 4 and made == []
    assert seq[2] == "c" and seq[-1] == "d" and seq[2] == "c"
    assert made == [2, 3]
    assert seq[1:3] == ("b", "c") and seq[::-2] == ("d", "b")
    assert list(seq) == list(items) and "b" in seq and seq.index("d") == 3
    assert sorted(made) == [0, 1, 2, 3]
    with pytest.raises(IndexError):
        seq[4]
    with pytest.raises(IndexError):
        seq[-5]


def test_build_poset_keeps_lazy_sequences_and_reads_labels_only_to_fail():
    leq = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
    made_els, made_labels = [], []
    els = _lazy(("x", "y", "z"), made_els)
    labels = _lazy(("X", "Y", "Z"), made_labels)
    p = build_poset(els, leq, labels)
    assert p.elements is els and p.labels is labels
    assert made_els == made_labels == []
    # an intransitive order is refused, naming the three labels of the
    # first gap and making no other
    leq[0, 2] = False
    made_els.clear()
    made_labels.clear()
    with pytest.raises(NotAPartialOrder) as exc:
        build_poset(_lazy(("x", "y", "z"), made_els), leq,
                    _lazy(("X", "Y", "Z"), made_labels))
    assert str(exc.value) == "transitivity fails from 'X' via 'Y' to 'Z'"
    assert exc.value.witness == ("x", "y", "z")
    assert sorted(made_labels) == [0, 1, 2]
    with pytest.raises(NotAPartialOrder, match="2 labels for 3 elements"):
        build_poset(("x", "y", "z"), np.eye(3, dtype=bool),
                    _lazy(("X", "Y"), made_labels))


def test_build_poset_copies_other_sequences_into_tuples():
    p = build_poset(["x", "y"], np.eye(2, dtype=bool), ["X", "Y"])
    assert p.elements == ("x", "y") and p.labels == ("X", "Y")


def test_antichain_has_no_bounds():
    p = build_poset([frozenset({1}), frozenset({2})], lambda a, b: a <= b)
    assert p.bottom_index() is None
    assert p.top_index() is None
    with pytest.raises(MeetJoinMissing) as exc:
        p.meet_join_tables()
    assert exc.value.witness == (0, 1)
    assert str(exc.value) == (f"no meet for {p.labels[0]!r} "
                              f"and {p.labels[1]!r}")
    # with a bottom added the meet exists and the join is still missing
    p = build_poset([frozenset(), frozenset({1}), frozenset({2})],
                    lambda a, b: a <= b, labels=["{}", "{1}", "{2}"])
    with pytest.raises(MeetJoinMissing) as exc:
        p.meet_join_tables()
    assert exc.value.witness == (1, 2)
    assert str(exc.value) == "no join for '{1}' and '{2}'"


# ---------------------------------------------------------------------------
# covers and DOT export


def test_covers_reconstruct_order():
    p = powerset_lattice(["a", "b", "c"])
    covers = p.covers()
    assert len(covers) == 12  # 3 * 2^2 edges in the cube
    # transitive-reflexive closure of covers must rebuild leq
    n = p.n
    reach = np.eye(n, dtype=bool)
    for i, j in covers:
        reach[i, j] = True
    for _ in range(n):
        reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
    assert np.array_equal(reach, p.leq)


def test_export_dot_shape():
    p = build_poset([1, 2, 4], lambda a, b: b % a == 0,
                    labels=["one", "two", "four"])
    dot = export_dot(p)
    lines = dot.splitlines()
    assert lines[0] == "digraph {"
    assert lines[1] == "  rankdir=BT;"
    assert dot.rstrip().endswith("}")
    assert '"one";' in dot and '"two";' in dot
    assert '"one" -> "two";' in dot
    assert '"two" -> "four";' in dot
    assert '"one" -> "four";' not in dot  # covers only, no transitive edges


def test_export_dot_quotes_special_labels():
    p = build_poset(["a"], lambda a, b: True and a == b,
                    labels=['say "hi"'])
    dot = export_dot(p)
    assert '"say \\"hi\\"";' in dot


# ---------------------------------------------------------------------------
# law checkers against the two benchmark lattices


def test_powerset_is_boolean():
    rep = check_boolean(powerset_lattice(["a", "b", "c"]))
    assert rep.all_passed()
    for law in ("bounded", "distributive_meet_over_join",
                "distributive_join_over_meet", "unique_complement"):
        assert rep[law].passed


def test_check_boolean_needs_lattice():
    # two incomparable elements with no bounds at all
    p = build_poset([frozenset({1}), frozenset({2})], lambda a, b: a <= b)
    with pytest.raises(MeetJoinMissing):
        check_boolean(p)


def test_diamond_fails_distributivity():
    # 0 < a,b,c < 1 with three incomparable middles
    els = ["bot", "a", "b", "c", "top"]

    def leq(x, y):
        return x == y or x == "bot" or y == "top"

    rep = check_boolean(build_poset(els, leq))
    assert rep["bounded"].passed
    assert not rep["distributive_meet_over_join"].passed
    w = rep["distributive_meet_over_join"].witness
    assert set(w) <= {"a", "b", "c"}


def test_powerset_ortholattice_laws():
    p = powerset_lattice(["a", "b"])
    full = frozenset({"a", "b"})
    ortho = [p.index_of(full - p.elements[i]) for i in range(p.n)]
    lat = OrthoLattice(p, ortho)
    rep = check_ortho_modular(lat)
    assert rep.all_passed()


def test_hexagon_law_fingerprint():
    # orthocomplementation is fine; orthomodularity fails, and with it
    # atomisticity and covering (b sits above the single atom a, and
    # join(a, b') jumps straight to the top)
    lat = hexagon()
    rep = check_ortho_modular(lat)
    assert rep["ortho_involution"].passed
    assert rep["ortho_order_reversal"].passed
    assert rep["ortho_complement"].passed
    assert rep["atomic"].passed
    assert not rep["orthomodular"].passed
    assert rep["orthomodular"].witness == ("a", "b")
    assert not rep["atomistic"].passed
    assert not rep["covering"].passed
    assert not rep["modular"].passed


def test_meet_join_tables_against_nested_scan():
    p = powerset_lattice(["a", "b", "c"])
    meet, _ = p.meet_join_tables()
    for i in range(p.n):
        for j in range(p.n):
            # independent scan: maximal common lower bound
            lows = [k for k in range(p.n) if p.leq[k][i] and p.leq[k][j]]
            best = max(lows, key=lambda k: int(p.leq.astype(int)[:, k].sum()))
            assert meet[i, j] == p.index_of(p.elements[i] & p.elements[j])
            assert p.elements[best] == p.elements[i] & p.elements[j]


# ---------------------------------------------------------------------------
# what the order determines is derived once per poset


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(lattice, name)
    monkeypatch.setattr(lattice, name,
                        lambda *a: calls.append(a) or real(*a))
    return calls


def test_tables_and_covers_are_derived_once(monkeypatch):
    glb = _count_calls(monkeypatch, "_glb_table")
    cov = _count_calls(monkeypatch, "_cover_matrix")
    p = powerset_lattice(["a", "b", "c"])
    full = frozenset("abc")
    lat = OrthoLattice(p, [p.index_of(full - e) for e in p.elements])
    check_ortho_modular(lat)
    check_boolean(p)
    check_boolean(p)
    assert len(p.covers()) == 12 and len(p.atom_indices()) == 3
    assert (len(glb), len(cov)) == (2, 1)
    meet, join = p.meet_join_tables()
    assert meet is lat.meet and join is lat.join
    for table in (meet, join, p.cover_matrix()):
        with pytest.raises(ValueError):
            table[0, 0] = table[0, 1]
    # a missing meet is found once and raised on every request
    q = build_poset(["a", "b"], np.eye(2, dtype=bool))
    for _ in range(2):
        with pytest.raises(MeetJoinMissing):
            check_boolean(q)
    assert len(glb) == 4


def test_hexagon_builds_its_tables_once(monkeypatch):
    glb = _count_calls(monkeypatch, "_glb_table")
    hexagon()
    assert len(glb) == 2


def test_ortho_lattice_raises_missing_meet_before_bounds():
    # an antichain is unbounded as well, but its tables fail first
    p = build_poset(["a", "b"], np.eye(2, dtype=bool))
    with pytest.raises(MeetJoinMissing) as exc:
        OrthoLattice(p, [1, 0])
    assert str(exc.value) == "no meet for 'a' and 'b'"


# ---------------------------------------------------------------------------
# order isomorphism


def test_order_isomorphic_positive():
    a = powerset_lattice(["x", "y"])
    b = build_poset([1, 2, 3, 6], lambda s, t: t % s == 0)
    assert order_isomorphic(a, b)


def test_order_isomorphic_negative():
    square = powerset_lattice(["x", "y"])
    chain = build_poset([1, 2, 4, 8], lambda s, t: t % s == 0)
    assert not order_isomorphic(square, chain)
    assert not order_isomorphic(square, powerset_lattice(["x", "y", "z"]))


def test_order_isomorphic_cap():
    big = powerset_lattice(list("abcdefgh"))
    with pytest.raises(SearchCapExceeded):
        order_isomorphic(big, big, cap=12)


def test_atoms_of_powerset():
    p = powerset_lattice(["a", "b", "c"])
    atoms = {p.elements[i] for i in p.atom_indices()}
    assert atoms == {frozenset({"a"}), frozenset({"b"}), frozenset({"c"})}


# ---------------------------------------------------------------------------
# the vectorised tables and law checkers against the brute-force oracle

# M3 (three atoms) and N5 (the pentagon) as families of subsets of {0, 1, 2}
M3 = [0b000, 0b001, 0b010, 0b100, 0b111]
N5 = [0b000, 0b001, 0b011, 0b100, 0b111]
# the hexagon's order (0 < a < b < 1 and 0 < c < d < 1) on {0, 1, 2, 3}
HEXAGON = [0b0000, 0b0001, 0b0011, 0b0100, 0b1100, 0b1111]


def _subset_order(sets) -> list[list[bool]]:
    return [[a & b == a for b in sets] for a in sets]


@st.composite
def closure_systems(draw, points=(1, 4), sets=(0, 7)) -> list[list[bool]]:
    """Families of subsets of a ground set, closed under intersection and
    holding the full set, in a random order.  The ground set's size and
    the number of random subsets generating the family are drawn from the
    inclusive ranges ``points`` and ``sets``.  Their lattices include
    non-distributive ones such as M3 and N5."""
    k = draw(st.integers(*points))
    full = (1 << k) - 1
    family = {full, *draw(st.lists(st.integers(0, full), min_size=sets[0],
                                   max_size=sets[1]))}
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    return _subset_order(draw(st.permutations(sorted(family))))


@st.composite
def random_posets(draw) -> list[list[bool]]:
    """Transitive closures of random DAGs on at most seven elements; most
    are not lattices."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            leq[order[a]][order[b]] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    return leq


def _poset(leq):
    labels = [f"e{i}" for i in range(len(leq))]
    return build_poset(labels, np.array(leq, dtype=bool), labels)


def _labelled(p, hit):
    return None if hit is None else tuple(p.labels[i] for i in hit)


# two minimal elements below two maximal ones: no meet of the maxima
BOWTIE = [[True, False, True, True],
          [False, True, True, True],
          [False, False, True, False],
          [False, False, False, True]]


@given(st.one_of(closure_systems(), random_posets()))
@example(BOWTIE)
@example(_subset_order(M3))
@example(_subset_order(N5))
@example(_subset_order(HEXAGON))
@example(np.eye(3, dtype=bool).tolist())  # an antichain
@example(_subset_order([0b000, 0b001, 0b011, 0b111]))  # a chain
@example(np.zeros((0, 0), dtype=bool))  # the empty poset
@settings(max_examples=200, deadline=None)
def test_meet_join_tables_match_oracle(leq):
    p = _poset(leq)
    meet, join, missing = oracle_tables(leq)
    if missing is None:
        got_meet, got_join = p.meet_join_tables()
        assert got_meet.tolist() == meet
        assert got_join.tolist() == join
        return
    kind, i, j = missing
    with pytest.raises(MeetJoinMissing) as exc:
        check_boolean(p)
    assert exc.value.witness == (i, j)
    assert str(exc.value) == (f"no {kind} for {p.labels[i]!r} "
                              f"and {p.labels[j]!r}")


@given(st.data(), st.one_of(closure_systems(), random_posets()))
@settings(max_examples=200, deadline=None)
def test_tables_are_symmetric_and_permute_with_the_elements(data, leq):
    # element a of the permuted order is element perm[a] of the original
    leq = np.array(leq, dtype=bool)
    perm = np.array(data.draw(st.permutations(range(len(leq)))), dtype=int)
    inv = np.argsort(perm)
    moved = np.ix_(perm, perm)
    has = {}
    for kind, order in (("meet", leq), ("join", leq.T)):
        table, has[kind] = lattice._glb_table(order)
        assert np.array_equal(table, table.T)
        assert np.array_equal(has[kind], has[kind].T)
        got, got_has = lattice._glb_table(order[moved])
        assert np.array_equal(got_has, has[kind][moved])
        # pairs without a bound hold 0 in both tables
        assert np.array_equal(got, np.where(got_has, inv[table][moved], 0))
    # the first missing pair of the permuted poset lacks the same bound
    # in the original, and the meet is named when both are missing
    p, q = _poset(leq), _poset(leq[moved])
    if has["meet"].all() and has["join"].all():
        p.meet_join_tables()
        q.meet_join_tables()
        return
    with pytest.raises(MeetJoinMissing):
        p.meet_join_tables()
    with pytest.raises(MeetJoinMissing) as exc:
        q.meet_join_tables()
    i, j = perm[list(exc.value.witness)]
    kind = str(exc.value).split()[1]
    assert not has[kind][i, j]
    assert kind == "meet" or has["meet"][i, j]


def test_closed_qutrit_algebra_tables_are_and_and_or_of_profiles():
    # the 512 classes of the closed algebra are profiles, so their order
    # is slot inclusion, and their meet and join are the AND and the OR
    # of the kernel bits
    alg = lindenbaum_tarski(m_qutrit(), 3).closed()
    bits = alg.bits
    index = {b: i for i, b in enumerate(bits)}
    assert len(index) == 512
    assert alg.poset.leq.tolist() == [[a | b == b for b in bits] for a in bits]
    meet, join = alg.poset.meet_join_tables()
    assert meet.tolist() == [[index[a & b] for b in bits] for a in bits]
    assert join.tolist() == [[index[a | b] for b in bits] for a in bits]


# ---------------------------------------------------------------------------
# the packed-word glb kernel across 64-bit word boundaries, against the
# dict-lookup oracle

WORD_SIZES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200]


def _chain(rng, n):
    return np.triu(np.ones((n, n), dtype=bool))


def _antichain(rng, n):
    return np.eye(n, dtype=bool)


def _dag_closure(rng, n):
    """Transitive closure of a random DAG whose edges go up the index
    order, with a random edge density; most are not lattices."""
    leq = np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.3))
    leq |= np.eye(n, dtype=bool)
    for k in range(n):  # Warshall, one pivot at a time
        leq |= leq[:, k, None] & leq[k]
    return leq


def _intersection_closed(rng, n):
    """Inclusion order of a family of exactly n subsets of a 12-point set
    that holds the full set and is closed under intersection.  Random
    sets are added with their intersections with the family until it has
    at least n members; then maximal members below the full set, which
    are never the intersection of two others, are dropped."""
    full = (1 << 12) - 1
    family = {full} if n else set()
    while len(family) < n:
        s = int(rng.integers(0, full + 1))
        family |= {s & a for a in family}
    while len(family) > n:
        below = sorted(family - {full})
        tops = [a for a in below if not any(a & b == a != b for b in below)]
        family.remove(tops[int(rng.integers(len(tops)))])
    sets = sorted(family)
    return np.array([[a & b == a for b in sets] for a in sets],
                    dtype=bool).reshape(n, n)


def _assert_glb_tables_match_oracle(rng, leq):
    perm = rng.permutation(len(leq))
    leq = leq[np.ix_(perm, perm)]
    for order in (leq, leq.T):
        table, has = lattice._glb_table(order)
        want_table, want_has = oracle_glb_table(order)
        assert np.array_equal(has, want_has)
        assert np.array_equal(table, want_table)


@pytest.mark.parametrize("n", WORD_SIZES)
@pytest.mark.parametrize("family", [_chain, _antichain, _dag_closure,
                                    _intersection_closed])
def test_glb_table_matches_oracle_across_words(family, n):
    rng = np.random.default_rng(n)
    leq = family(rng, n)
    assert leq.shape == (n, n)
    _assert_glb_tables_match_oracle(rng, leq)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_glb_table_matches_oracle_on_powersets(k):
    _assert_glb_tables_match_oracle(np.random.default_rng(k),
                                    powerset_lattice(range(k)).leq)


def test_atoms_of_m70_meet_at_the_bottom_in_the_last_word():
    # bottom, 70 atoms, top: every atom has a down-set of 2, and the
    # bottom, with the smallest down-set, is the last of the 72 elements
    # in the kernel's order, in the second 64-bit word
    bot, top, atoms = 0, 71, range(1, 71)
    leq = np.eye(72, dtype=bool)
    leq[bot] = leq[:, top] = True
    p = _poset(leq)
    meet, join = p.meet_join_tables()
    want_meet = np.full((72, 72), bot)
    want_join = np.full((72, 72), top)
    for a in atoms:
        want_meet[a, a] = want_meet[a, top] = want_meet[top, a] = a
        want_join[a, a] = want_join[a, bot] = want_join[bot, a] = a
    want_meet[top, top] = want_join[top, top] = top
    want_join[bot, bot] = bot
    assert np.array_equal(meet, want_meet)
    assert np.array_equal(join, want_join)


def _padded_bowtie():
    """c, d above a, b, between a chain of 40 elements below (z0 < ...)
    and a chain of 40 above (t0 < ...): 84 elements."""
    labels = ["c", "d", *(f"z{k}" for k in range(40)), "a", "b",
              *(f"t{k}" for k in range(40))]
    rank = {"a": 40, "b": 40, "c": 41, "d": 41}
    rank.update({f"z{k}": k for k in range(40)})
    rank.update({f"t{k}": 42 + k for k in range(40)})
    leq = np.array([[x == y or rank[x] < rank[y] for y in labels]
                    for x in labels])
    return labels, leq


def test_padded_bowtie_candidate_is_a_lower_bound_but_not_the_glb():
    # the first common lower bound of c and d in the kernel's order is a
    # or b (equal down-sets of 41), but they have 42 common lower bounds;
    # dually for the upper bounds of a and b
    labels, leq = _padded_bowtie()
    at = {x: labels.index(x) for x in labels}
    for kind, order, (x, y) in (("meet", leq, "cd"), ("join", leq.T, "ab")):
        table, has = lattice._glb_table(order)
        want = np.zeros_like(leq)
        want[at[x], at[y]] = want[at[y], at[x]] = True
        assert np.array_equal(~has, want), kind
        assert not table[~has].any()
    meet, _ = lattice._glb_table(leq)
    assert meet[at["a"], at["b"]] == at["z39"]
    with pytest.raises(MeetJoinMissing) as exc:
        build_poset(labels, leq).meet_join_tables()
    assert exc.value.witness == (0, 1)
    assert str(exc.value) == "no meet for 'c' and 'd'"


def test_chain_of_130_meets_at_the_min():
    p = _poset(np.triu(np.ones((130, 130), dtype=bool)))
    meet, join = p.meet_join_tables()
    index = np.arange(130)
    assert np.array_equal(meet, np.minimum.outer(index, index))
    assert np.array_equal(join, np.maximum.outer(index, index))


# ---------------------------------------------------------------------------
# check_boolean and Birkhoff's join-prime certificate against the oracle


def _assert_boolean_matches_oracle(p):
    leq = p.leq.tolist()
    meet, join, _ = oracle_tables(leq)
    want = oracle_boolean_witnesses(meet, join)
    assert _join_prime(p, np.array(join)) == (set(want.values()) == {None})
    rep = check_boolean(p)
    assert rep["bounded"].passed
    for law, hit in want.items():
        assert rep[law] == LawCheck(law, hit is None, _labelled(p, hit))
    bad = oracle_complement_witness(leq, meet, join)
    assert rep["unique_complement"].witness == (
        None if bad is None else (p.labels[bad[0]], bad[1]))
    return rep


# the second family reaches lattices of up to 32 elements, with more
# join-irreducibles than four points allow
@given(st.one_of(closure_systems(),
                 closure_systems(points=(3, 5), sets=(2, 8))))
@example(_subset_order(M3))
@example(_subset_order(N5))
@settings(max_examples=250, deadline=None)
def test_check_boolean_matches_oracle(leq):
    _assert_boolean_matches_oracle(_poset(leq))


def _grid3():
    cells = list(itertools.product(range(3), repeat=2))
    return build_poset(cells, lambda a, b: a[0] <= b[0] and a[1] <= b[1],
                       [f"{a}{b}" for a, b in cells])


# per lattice: the witnesses of both distributive laws and of
# unique_complement, as the cell-by-cell scans have always reported them
NAMED_LATTICES = {
    "N5": (lambda: _poset(_subset_order(N5)),
           ("e2", "e1", "e3"), ("e1", "e2", "e3"), ("e3", 2)),
    "M3": (lambda: _poset(_subset_order(M3)),
           ("e1", "e2", "e3"), ("e1", "e2", "e3"), ("e1", 2)),
    "hexagon": (lambda: hexagon().poset,
                ("b", "a", "c"), ("a", "b", "c"), ("a", 2)),
    # distributive, but only the four corners have a complement
    "grid3x3": (_grid3, None, None, ("01", 0)),
    "boolean2^7": (lambda: _poset(_subset_order(range(1 << 7))),
                   None, None, None),
}


@pytest.mark.parametrize("name", NAMED_LATTICES)
def test_named_lattices_distributivity(name):
    make, meet_join, join_meet, complement = NAMED_LATTICES[name]
    rep = _assert_boolean_matches_oracle(make())
    assert rep["distributive_meet_over_join"].witness == meet_join
    assert rep["distributive_join_over_meet"].witness == join_meet
    assert rep["unique_complement"].witness == complement


def _assert_ortho_matches_oracle(lat):
    leq = lat.poset.leq.tolist()
    meet, join, _ = oracle_tables(leq)
    rep = check_ortho_modular(lat)
    want = oracle_ortho_witnesses(leq, meet, join, list(lat.ortho))
    assert set(want) == {c.law for c in rep.checks}
    for law, hit in want.items():
        assert rep[law].passed == (hit is None)
        assert rep[law].witness == _labelled(lat.poset, hit)
    return rep


@st.composite
def closure_systems_with_ortho(draw):
    # any permutation is accepted as the ortho map, so the ortho laws
    # fail with many different witnesses
    leq = draw(closure_systems())
    return leq, draw(st.permutations(range(len(leq))))


@given(closure_systems_with_ortho())
@example((_subset_order(N5), [4, 3, 2, 1, 0]))
@settings(max_examples=150, deadline=None)
def test_check_ortho_modular_matches_oracle(case):
    leq, ortho = case
    _assert_ortho_matches_oracle(OrthoLattice(_poset(leq), ortho))


def _mo2():
    labels = ["0", "a", "a'", "b", "b'", "1"]
    leq = np.eye(6, dtype=bool)
    leq[0, :] = True
    leq[:, 5] = True
    p = build_poset(labels, leq, labels)
    return OrthoLattice(p, [5, 2, 1, 4, 3, 0])


def _complemented_powerset(k):
    p = powerset_lattice(list("abcd"[:k]))
    full = frozenset("abcd"[:k])
    return OrthoLattice(p, [p.index_of(full - e) for e in p.elements])


FIXED_ORTHOLATTICES = {
    "hexagon": hexagon,
    "MO2": _mo2,
    **{f"powerset{k}": functools.partial(_complemented_powerset, k)
       for k in range(5)},
}


@pytest.mark.parametrize("name", FIXED_ORTHOLATTICES)
def test_fixed_ortholattices_match_oracle(name):
    lat = FIXED_ORTHOLATTICES[name]()
    rep = _assert_ortho_matches_oracle(lat)
    leq = lat.poset.leq.tolist()
    meet, join, _ = oracle_tables(leq)
    boolean = check_boolean(lat.poset)
    for law, hit in oracle_boolean_witnesses(meet, join).items():
        assert boolean[law].witness == _labelled(lat.poset, hit)
    if name == "MO2":  # orthomodular and modular, but not distributive
        assert rep.all_passed()
        assert not boolean["distributive_meet_over_join"].passed
