"""Counted classes and stepwise translations against their recursive
definitions.

The classical quotient (``lindenbaum_tarski``) and the quantum witness
classes (``quantum._witness_classes``) count the formulas per class,
level by level, without building them: each class comes with its
formula count and its first formula.  Both must equal the oracle's
enumeration grouped by the recursive definition (the kernel profile,
the witness property): the same classes in the same order, the same
first formulas and the same counts, and the counts must sum to the
formula-count recurrence where enumerating would take gigabytes.

The enumerators build each formula from the very objects enumerated
before it, and the assertive translation is one step per node: a
formula's translation is one ``_assertive_step`` from its operands'
translations, and one ``_preimage_step`` gives the formula back.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qlprop.model import canonical_models, m_qbit, m_qutrit
from qlprop.pragmatic import _assertive_step, _preimage_step, to_assertive
from qlprop.quantum import _witness_classes, witness_property
from qlprop.semantics import (
    enumerate_formulas,
    enumerate_tq_formulas,
    lindenbaum_tarski,
)
from qlprop.syntax import format_lx, format_tq

from helpers import (
    mo2_qubit,
    oracle_formulas,
    oracle_tq_formulas,
    random_model,
    reference_lindenbaum,
)

MODELS = {**canonical_models(),
          **{f"mo2-{seed}": mo2_qubit(seed) for seed in (1, 2, 5)}}
HILBERT = {name: m for name, m in MODELS.items() if m.hilbert is not None}


def _operands(f) -> list:
    return [getattr(f, name) for name in ("inner", "left", "right")
            if hasattr(f, name)]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("enumerate_", [enumerate_formulas,
                                        enumerate_tq_formulas],
                         ids=["lx", "ltq"])
def test_children_name_the_operand_objects(enumerate_, depth):
    # every operand is an object the enumeration returned earlier, so the
    # formulas share their subformulas instead of copying them
    items = enumerate_(["E", "F", "G"], depth)
    seen: set[int] = set()
    for f in items:
        assert all(id(g) in seen for g in _operands(f))
        seen.add(id(f))
    assert len(seen) == len(items)


def _classes(alg) -> list[tuple]:
    return [(format_lx(c.representative), c.profile, c.size)
            for c in alg.classes]


def _grouped(formulas, key) -> dict:
    """``{key: [count, first formula]}`` over the formulas, in order of
    first appearance."""
    out: dict = {}
    for f in formulas:
        out.setdefault(key(f), [0, f])[0] += 1
    return out


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_indexed_profiles_match_the_recursion(name, depth):
    # the counted classes against the oracle's enumeration grouped by the
    # recursive profile: first member, profile and member count
    m = MODELS[name]
    k = m.kernel
    want = _grouped(oracle_formulas(m.properties, depth), k.profile)
    alg = lindenbaum_tarski(m, depth)
    assert alg.bits == tuple(want)
    assert _classes(alg) == [(format_lx(f), k.decode(v), n)
                             for v, (n, f) in want.items()]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(HILBERT))
def test_indexed_witnesses_match_the_recursion(name, depth):
    # the counted witness classes against the oracle's enumeration grouped
    # by the recursive witness: order, first formula and count
    m = HILBERT[name]
    want = _grouped(oracle_tq_formulas(m.properties, depth),
                    lambda f: witness_property(m, f))
    got = _witness_classes(m, depth)
    assert [(w, n, format_tq(f)) for w, (n, f) in got.items()] \
        == [(w, n, format_tq(f)) for w, (n, f) in want.items()]


def _tq_counts(nprops: int, depth: int) -> list[int]:
    """``cum[d]``, the number of quantum formulas up to depth d: the new
    formulas of depth d are one negation over depth d - 1 and one
    conjunction over the pairs whose deeper member has depth d - 1,
    n_d = n_{d-1} + T_{d-1}^2 - T_{d-2}^2."""
    cum, new = [0, nprops], [0, nprops]
    for d in range(2, depth + 1):
        new.append(new[d - 1] + cum[d - 1] ** 2 - cum[d - 2] ** 2)
        cum.append(cum[d - 1] + new[d])
    return cum


@pytest.mark.parametrize("fixture, total", [(m_qbit, 5_562_528),
                                            (m_qutrit, 806_815_632)])
def test_witness_counts_sum_to_the_recurrence(fixture, total):
    m = fixture()
    cum = _tq_counts(len(m.properties), 4)
    for depth in (1, 2, 3, 4):
        counts = [n for n, _ in _witness_classes(m, depth).values()]
        assert sum(counts) == cum[depth], depth
    assert cum[4] == total
    assert cum[3] == len(oracle_tq_formulas(m.properties, 3))


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(HILBERT))
def test_indexed_translations_match_the_recursion(name, depth):
    # each translation is one step from its operands' translations, and
    # one preimage step from the operands' preimages gives the formula back
    translation: dict[int, object] = {}
    preimage: dict[int, object] = {}
    for f in enumerate_tq_formulas(HILBERT[name].properties, depth):
        af = _assertive_step(f, lambda g: translation[id(g)])
        assert af == to_assertive(f)
        assert _preimage_step(af, lambda ag: preimage[id(ag)]) == f
        translation[id(f)] = af
        preimage[id(af)] = f


@given(st.integers(0, 10 ** 6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_indexed_profiles_on_drawn_models(seed, depth):
    m = random_model(random.Random(seed))
    assert _classes(lindenbaum_tarski(m, depth)) \
        == [(format_lx(f), p, n) for f, p, n in reference_lindenbaum(m, depth)]
