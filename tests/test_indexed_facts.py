"""Per-formula facts filled by index against their recursive definitions.

The enumeration records each formula's operand indices, and the
checkers fill their per-formula facts in enumeration order, one step
from the operands' entries: the witness property
(``quantum._witness_classes``) and the assertive translation with its
round trip (``pragmatic._translations``).  Each must equal the public
recursive function on every enumerated formula, and the round trip must
still be a check: a preimage step that gets ``K`` wrong is caught.

The classical quotient (``lindenbaum_tarski``) fills its classes level
by level from the entries of the shallower levels, without building the
formulas.  It must equal the enumeration grouped by the recursive
profile, and the set-algebra oracle on drawn models.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qlprop import pragmatic
from qlprop.errors import NotPDecidable
from qlprop.model import canonical_models, m_qbit
from qlprop.pragmatic import _translations, assertive_preimage, to_assertive
from qlprop.quantum import _witness_classes, witness_property
from qlprop.semantics import (
    enumerate_formulas,
    enumerate_tq_formulas,
    lindenbaum_tarski,
)
from qlprop.syntax import K, format_lx

from helpers import mo2_qubit, random_model, reference_lindenbaum

MODELS = {**canonical_models(),
          **{f"mo2-{seed}": mo2_qubit(seed) for seed in (1, 2, 5)}}
HILBERT = {name: m for name, m in MODELS.items() if m.hilbert is not None}


def _operands(f) -> list:
    return [getattr(f, name) for name in ("inner", "left", "right")
            if hasattr(f, name)]


def _assert_children(items) -> None:
    """``items[i]`` is built from the very objects ``items[children[i]]``,
    each enumerated before it."""
    children = items.children
    assert len(children) == len(items)
    assert list(children) == [children[i] for i in range(len(items))]
    for i, (f, kids) in enumerate(zip(items, children)):
        ops = _operands(f)
        assert len(ops) == len(kids)
        for g, c in zip(ops, kids):
            assert 0 <= c < i
            assert g is items[c]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("enumerate_", [enumerate_formulas,
                                        enumerate_tq_formulas],
                         ids=["lx", "ltq"])
def test_children_name_the_operand_objects(enumerate_, depth):
    _assert_children(enumerate_(["E", "F", "G"], depth))


def test_children_are_read_only():
    items = enumerate_formulas(["E", "F"], 2)
    with pytest.raises(AttributeError):
        items.children = []
    with pytest.raises(TypeError):
        items.children[0] = ()
    assert items.children[:3] == [(), (), (0,)]


def _classes(alg) -> list[tuple]:
    return [(format_lx(c.representative), c.profile, c.size)
            for c in alg.classes]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_indexed_profiles_match_the_recursion(name, depth):
    # the counted classes against the enumeration grouped by the
    # recursive profile: first member, profile and member count
    m = MODELS[name]
    k = m.kernel
    formulas = enumerate_formulas(m.properties, depth)
    _assert_children(formulas)
    reps: dict = {}
    sizes: dict = {}
    for f in formulas:
        v = k.profile(f)
        reps.setdefault(v, f)
        sizes[v] = sizes.get(v, 0) + 1
    alg = lindenbaum_tarski(m, depth)
    assert alg.bits == tuple(reps)
    assert _classes(alg) == [(format_lx(f), k.decode(v), sizes[v])
                             for v, f in reps.items()]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(HILBERT))
def test_indexed_witnesses_match_the_recursion(name, depth):
    m = HILBERT[name]
    formulas = enumerate_tq_formulas(m.properties, depth)
    witnesses, first, props = _witness_classes(m, formulas)
    assert witnesses == [witness_property(m, f) for f in formulas]
    assert list(first) == list(props) == list(dict.fromkeys(witnesses))
    assert all(witnesses[i] == e and e not in witnesses[:i]
               for e, i in first.items())
    assert all(p.witness == e for e, p in props.items())


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(HILBERT))
def test_indexed_translations_match_the_recursion(name, depth):
    formulas = enumerate_tq_formulas(HILBERT[name].properties, depth)
    translations = list(_translations(formulas))
    assert translations == [to_assertive(f) for f in formulas]
    assert [assertive_preimage(af) for af in translations] == formulas


@given(st.integers(0, 10 ** 6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_indexed_profiles_on_drawn_models(seed, depth):
    m = random_model(random.Random(seed))
    assert _classes(lindenbaum_tarski(m, depth)) \
        == [(format_lx(f), p, n) for f, p, n in reference_lindenbaum(m, depth)]


def test_round_trip_catches_a_preimage_step_that_swaps_k(monkeypatch):
    step = pragmatic._preimage_step

    def swapped(af, sub):
        if isinstance(af, K):
            af = K(af.right, af.left)
        return step(af, sub)

    monkeypatch.setattr(pragmatic, "_preimage_step", swapped)
    with pytest.raises(NotPDecidable, match="not in the image"):
        pragmatic.check_preservation(m_qbit(), 3)
