"""Parser and printer tests.

The oracle is a deliberately dumb reference parser that accepts only
fully parenthesized input, plus an emitter that always parenthesizes.
Agreement between `parse(minimal form)` and the reference on random
trees is what validates the precedence rules.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qlprop.errors import (
    ClassicalConnectiveInTQ,
    ParseError,
    UnknownConnective,
)
from qlprop import syntax
from qlprop.syntax import (
    MAX_DEPTH,
    MAX_NODES,
    A,
    And,
    Assert,
    Atom,
    K,
    N,
    Not,
    Or,
    QNot,
    atoms_of,
    format_lx,
    format_prag,
    format_tq,
    parse_lx,
    parse_prag,
    parse_tq,
    quantum_join,
    sasaki_formula,
)

from helpers import (
    oracle_tokenize,
    random_formula,
    random_prag_formula,
    random_tq_formula,
)

# ---------------------------------------------------------------------------
# reference oracle: fully parenthesized emitter + matching tiny parser


def paren_lx(f) -> str:
    if isinstance(f, Atom):
        return f"{f.prop}(x)"
    if isinstance(f, Not):
        return f"(!{paren_lx(f.inner)})"
    op = "&" if isinstance(f, And) else "|"
    return f"({paren_lx(f.left)} {op} {paren_lx(f.right)})"


def paren_tq(f) -> str:
    if isinstance(f, Atom):
        return f"{f.prop}(x)"
    if isinstance(f, QNot):
        return f"(~q {paren_tq(f.inner)})"
    return f"({paren_tq(f.left)} & {paren_tq(f.right)})"


def paren_prag(f) -> str:
    if isinstance(f, Assert):
        return f"(|- {paren_tq(f.inner)})"
    if isinstance(f, N):
        return f"(N {paren_prag(f.inner)})"
    op = "K" if isinstance(f, K) else "A"
    return f"({paren_prag(f.left)} {op} {paren_prag(f.right)})"


class _Ref:
    """Parses only the fully parenthesized forms emitted above."""

    def __init__(self, text):
        self.text = text
        self.i = 0

    def skip(self):
        while self.i < len(self.text) and self.text[self.i] == " ":
            self.i += 1

    def eat(self, lit):
        self.skip()
        assert self.text.startswith(lit, self.i), (self.text, self.i, lit)
        self.i += len(lit)

    def ident(self):
        self.skip()
        j = self.i
        while j < len(self.text) and (self.text[j].isalnum()
                                      or self.text[j] in "_+-"):
            j += 1
        name = self.text[self.i:j]
        self.i = j
        return name

    def lx(self):
        self.skip()
        if self.text[self.i] != "(":
            name = self.ident()
            self.eat("(")
            self.eat("x")
            self.eat(")")
            return Atom(name)
        self.eat("(")
        self.skip()
        if self.text[self.i] == "!":
            self.eat("!")
            out = Not(self.lx())
        else:
            left = self.lx()
            self.skip()
            op = self.text[self.i]
            self.eat(op)
            out = (And if op == "&" else Or)(left, self.lx())
        self.eat(")")
        return out

    def tq(self):
        self.skip()
        if self.text[self.i] != "(":
            name = self.ident()
            self.eat("(")
            self.eat("x")
            self.eat(")")
            return Atom(name)
        self.eat("(")
        self.skip()
        if self.text.startswith("~q", self.i):
            self.eat("~q")
            out = QNot(self.tq())
        else:
            left = self.tq()
            self.eat("&")
            out = And(left, self.tq())
        self.eat(")")
        return out

    def prag(self):
        self.eat("(")
        self.skip()
        if self.text.startswith("|-", self.i):
            self.eat("|-")
            out = Assert(self.tq())
        elif self.text.startswith("N", self.i) and self.text[self.i + 1] in " (":
            self.eat("N")
            out = N(self.prag())
        else:
            left = self.prag()
            self.skip()
            op = self.text[self.i]
            self.eat(op)
            out = (K if op == "K" else A)(left, self.prag())
        self.eat(")")
        return out


def test_reference_parser_self_check():
    f = Or(And(Atom("E"), Not(Atom("F"))), Atom("G"))
    assert _Ref(paren_lx(f)).lx() == f
    g = QNot(And(QNot(Atom("E")), Atom("F")))
    assert _Ref(paren_tq(g)).tq() == g
    h = A(K(Assert(Atom("E")), N(Assert(Atom("F")))), Assert(Atom("G")))
    assert _Ref(paren_prag(h)).prag() == h


# ---------------------------------------------------------------------------
# frozen classical examples


def test_parse_lx_atom():
    assert parse_lx("E(x)") == Atom("E")


def test_parse_lx_negated_conjunction():
    assert parse_lx("!(E(x) & F(x))") == Not(And(Atom("E"), Atom("F")))


def test_parse_lx_precedence():
    assert parse_lx("E(x) & F(x) | G(x)") == Or(And(Atom("E"), Atom("F")),
                                                Atom("G"))


def test_parse_lx_left_associative():
    assert parse_lx("E(x) & F(x) & G(x)") == And(And(Atom("E"), Atom("F")),
                                                 Atom("G"))


def test_parse_lx_tilde_negation():
    assert parse_lx("~E(x)") == Not(Atom("E"))


def test_parse_lx_ident_charset():
    assert parse_lx("Ez+(x) & Sx-(x)") == And(Atom("Ez+"), Atom("Sx-"))


def test_parse_lx_whitespace_insensitive():
    assert parse_lx("E(x)&!F(x)") == parse_lx("  E(x) &  ! F(x) ")


def test_format_lx_examples():
    assert format_lx(Atom("E")) == "E(x)"
    assert format_lx(Not(Atom("E"))) == "!E(x)"
    assert format_lx(And(Or(Atom("E"), Atom("F")), Atom("G"))) \
        == "(E(x) | F(x)) & G(x)"


def test_format_lx_right_nesting_parenthesized():
    f = And(Atom("E"), And(Atom("F"), Atom("G")))
    assert format_lx(f) == "E(x) & (F(x) & G(x))"
    assert parse_lx(format_lx(f)) == f


# ---------------------------------------------------------------------------
# frozen quantum examples


def test_parse_tq_qnot():
    assert parse_tq("~q E(x)") == QNot(Atom("E"))


def test_parse_tq_join_expansion():
    assert parse_tq("E(x) |q F(x)") \
        == QNot(And(QNot(Atom("E")), QNot(Atom("F"))))
    assert parse_tq("E(x) |q F(x)") == quantum_join(Atom("E"), Atom("F"))


def test_parse_tq_sasaki_expansion():
    expected = QNot(And(QNot(QNot(Atom("E"))),
                        QNot(And(Atom("E"), Atom("F")))))
    assert parse_tq("E(x) ->q F(x)") == expected
    assert sasaki_formula(Atom("E"), Atom("F")) == expected


def test_parse_tq_core_nodes_only():
    f = parse_tq("~q (E(x) & ~q F(x)) |q G(x) ->q E(x)")

    def walk(g):
        assert isinstance(g, (Atom, And, QNot))
        if isinstance(g, QNot):
            walk(g.inner)
        elif isinstance(g, And):
            walk(g.left)
            walk(g.right)

    walk(f)


# ---------------------------------------------------------------------------
# frozen pragmatic examples


def test_parse_prag_assert():
    assert parse_prag("|- E(x)") == Assert(Atom("E"))


def test_parse_prag_n():
    assert parse_prag("N |- E(x)") == N(Assert(Atom("E")))


def test_parse_prag_k():
    assert parse_prag("|- E(x) K |- F(x)") \
        == K(Assert(Atom("E")), Assert(Atom("F")))


def test_parse_prag_precedence():
    # N binds tighter than K, K tighter than A
    f = parse_prag("N |- E(x) K |- F(x) A |- G(x)")
    assert f == A(K(N(Assert(Atom("E"))), Assert(Atom("F"))),
                  Assert(Atom("G")))


def test_parse_prag_assert_takes_quantum_operand():
    f = parse_prag("|- E(x) & F(x)")
    assert f == Assert(And(Atom("E"), Atom("F")))


# ---------------------------------------------------------------------------
# rejection of cross-language connectives


@pytest.mark.parametrize("text", ["E(x) |q F(x)", "~q E(x)", "E(x) ->q F(x)"])
def test_lx_rejects_quantum_tokens(text):
    with pytest.raises(UnknownConnective):
        parse_lx(text)


def test_lx_tilde_then_q_atom_is_fine():
    # '~q(x)' is classical negation of the property named q
    assert parse_lx("~q(x)") == Not(Atom("q"))


@pytest.mark.parametrize("text", ["!E(x)", "E(x) | F(x)", "~ E(x)", "~E(x)"])
def test_tq_rejects_classical_tokens(text):
    with pytest.raises(ClassicalConnectiveInTQ):
        parse_tq(text)


@pytest.mark.parametrize("glued,spaced", [
    ("~qE(x)", "~q E(x)"),
    ("~q~q~qE(x)", "~q ~q ~q E(x)"),
    ("~qux(x)", "~q ux(x)"),
    ("E(x) |qF(x)", "E(x) |q F(x)"),
    ("E(x)|q~qF(x)", "E(x) |q ~q F(x)"),
    ("~qE(x) & F(x) |qG(x)", "~q E(x) & F(x) |q G(x)"),
])
def test_quantum_connectives_may_touch_what_follows(glued, spaced):
    assert parse_tq(glued) == parse_tq(spaced)
    assert parse_prag("|- " + glued) == parse_prag("|- " + spaced)
    assert (parse_prag(f"N |-{glued} K |- {glued}")
            == parse_prag(f"N |- {spaced} K |- {spaced}"))


@pytest.mark.parametrize("parse", [parse_tq, parse_prag])
def test_glued_sasaki_arrow_is_still_an_error(parse):
    prefix = "|- " if parse is parse_prag else ""
    with pytest.raises(ParseError) as exc:
        parse(prefix + "E(x) ->qF(x)")
    assert exc.value.position == len(prefix) + 5


@pytest.mark.parametrize("text", ["E(x)", "K |- E(x)", "|- "])
def test_prag_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_prag(text)


# ---------------------------------------------------------------------------
# error positions


def test_parse_error_position_dangling_operator():
    with pytest.raises(ParseError) as exc:
        parse_lx("E(x) &")
    assert exc.value.position == 6


def test_parse_error_position_unclosed_paren():
    with pytest.raises(ParseError) as exc:
        parse_lx("(E(x) & F(x)")
    assert exc.value.position == 12


def test_parse_error_missing_variable():
    with pytest.raises(ParseError):
        parse_lx("E()")
    with pytest.raises(ParseError):
        parse_lx("E(y)")


def test_parse_error_empty_input():
    with pytest.raises(ParseError):
        parse_lx("")


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError):
        parse_lx("E(x) F(x)")


def test_deep_nesting():
    text = "!" * 200 + "E(x)"
    f = parse_lx(text)
    for _ in range(200):
        assert isinstance(f, Not)
        f = f.inner
    assert f == Atom("E")


# ---------------------------------------------------------------------------
# atoms_of


def test_atoms_of():
    assert atoms_of(Atom("E")) == {"E"}
    assert atoms_of(And(Atom("E"), Not(Atom("E")))) == {"E"}
    assert atoms_of(parse_lx("E(x) & (F(x) | G(x))")) == {"E", "F", "G"}
    assert atoms_of(parse_prag("|- E(x) K N |- F(x)")) == {"E", "F"}


# ---------------------------------------------------------------------------
# round-trip and precedence-soundness properties

_PROPS = ["E", "F", "G", "Ez+", "Sx-"]


def _lx_trees():
    return st.recursive(
        st.sampled_from(_PROPS).map(Atom),
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p))),
        max_leaves=25)


def _tq_trees():
    return st.recursive(
        st.sampled_from(_PROPS).map(Atom),
        lambda sub: st.one_of(
            sub.map(QNot),
            st.tuples(sub, sub).map(lambda p: And(*p))),
        max_leaves=25)


def _prag_trees():
    return st.recursive(
        st.sampled_from(_PROPS).map(lambda p: Assert(Atom(p))),
        lambda sub: st.one_of(
            sub.map(N),
            st.tuples(sub, sub).map(lambda p: K(*p)),
            st.tuples(sub, sub).map(lambda p: A(*p))),
        max_leaves=25)


@given(_lx_trees())
@settings(max_examples=300, deadline=None)
def test_lx_round_trip(f):
    assert parse_lx(format_lx(f)) == f


@given(_lx_trees())
@settings(max_examples=300, deadline=None)
def test_lx_precedence_against_reference(f):
    assert parse_lx(paren_lx(f)) == f
    assert _Ref(paren_lx(f)).lx() == f


@given(_tq_trees())
@settings(max_examples=300, deadline=None)
def test_tq_round_trip(f):
    assert parse_tq(format_tq(f)) == f
    assert parse_tq(paren_tq(f)) == f


@given(_prag_trees())
@settings(max_examples=300, deadline=None)
def test_prag_round_trip(f):
    assert parse_prag(format_prag(f)) == f
    assert parse_prag(paren_prag(f)) == f


def test_seeded_round_trip_all_languages():
    rng = random.Random(17)
    props = ["E", "F", "G"]
    for _ in range(200):
        f = random_formula(rng, props, 4)
        assert parse_lx(format_lx(f)) == f
        g = random_tq_formula(rng, props, 4)
        assert parse_tq(format_tq(g)) == g
        h = random_prag_formula(rng, props, 3)
        assert parse_prag(format_prag(h)) == h


# ---------------------------------------------------------------------------
# size limits and printer node sets


def _size(f) -> int:
    if isinstance(f, Atom):
        return 1
    if isinstance(f, (Not, QNot, N, Assert)):
        return 1 + _size(f.inner)
    return 1 + _size(f.left) + _size(f.right)


def test_limits_accept_formulas_at_the_bound():
    # the whole formula is the first level, each parenthesis opens one more
    text = "(" * (MAX_DEPTH - 1) + "E(x)" + ")" * (MAX_DEPTH - 1)
    assert parse_lx(text) == Atom("E")
    f = parse_lx("!" * (MAX_DEPTH - 1) + "E(x)")
    assert parse_lx(format_lx(f)) == f
    g = parse_tq(" & ".join(["E(x)"] * MAX_DEPTH))
    assert parse_tq(format_tq(g)) == g


def test_nesting_limit_stops_at_the_crossing_level():
    with pytest.raises(ParseError, match="nested more than") as exc:
        parse_lx("(" * MAX_DEPTH + "E(x)" + ")" * MAX_DEPTH)
    assert exc.value.position == MAX_DEPTH
    # an asserted formula opens a level of its own
    k = MAX_DEPTH - 1
    with pytest.raises(ParseError, match="nested more than") as exc:
        parse_prag("(" * k + "|- E(x)" + ")" * k)
    assert exc.value.position == k + 3
    # a right operand opens a level: the parser's own recursion stays
    # bounded even where every parenthesis sits below three operators
    unit = "E(x) ->q E(x) |q E(x) & ("
    with pytest.raises(ParseError, match="nested more than") as exc:
        parse_tq(unit * 300 + "E(x)" + ")" * 300)
    assert exc.value.position == len(unit) * 64


@pytest.mark.parametrize("text,pos", [
    ("|- |- E(x)", 3),
    ("|- E(x) & |- F(x)", 10),
    ("|- (|- E(x))", 4),
    ("|- ~q |- E(x)", 6),
])
def test_assertion_inside_a_quantum_formula_is_a_parse_error(text, pos):
    with pytest.raises(ParseError, match="expected a formula") as exc:
        parse_prag(text)
    assert exc.value.position == pos


def test_depth_limit_stops_at_the_crossing_operator():
    text = "!" * 300 + "E(x)"
    with pytest.raises(ParseError) as exc:
        parse_lx(text)
    # prefixes apply innermost first; the one at depth MAX_DEPTH + 1 fails
    assert exc.value.position == 300 - MAX_DEPTH
    text = " & ".join(["E(x)"] * 300)
    with pytest.raises(ParseError) as exc:
        parse_lx(text)
    ands = [i for i, c in enumerate(text) if c == "&"]
    assert exc.value.position == ands[MAX_DEPTH - 1]
    with pytest.raises(ParseError) as exc:
        parse_prag("|- " + "~q " * (MAX_DEPTH - 1) + "E(x)")
    assert exc.value.position == 0


def test_node_limit_stops_at_the_crossing_arrow():
    text = " ->q ".join(["E(x)"] * 40)
    with pytest.raises(ParseError) as exc:
        parse_tq(text)
    pos = exc.value.position
    assert text[pos:pos + 3] == "->q"
    # a ->q b expands to 6 + 2 size(a) + size(b) nodes
    head = _size(parse_tq(text[:pos]))
    assert head <= MAX_NODES < 6 + 2 * head + 1


def test_printers_reject_nodes_of_other_languages():
    with pytest.raises(TypeError, match="not a classical formula node"):
        format_lx(And(Atom("E"), QNot(Atom("F"))))
    with pytest.raises(TypeError, match="not a quantum formula node"):
        format_tq(Not(Atom("E")))
    with pytest.raises(TypeError, match="not a quantum formula node"):
        format_prag(K(Assert(Or(Atom("E"), Atom("F"))), Assert(Atom("G"))))
    with pytest.raises(TypeError, match="not an assertive formula node"):
        format_prag(N(Atom("E")))


# ---------------------------------------------------------------------------
# tokenizer against the frozen hand-written loop in helpers.oracle_tokenize

_LANGUAGES = (("lx", syntax._LX), ("ltq", syntax._TQ), ("prag", syntax._PRAG))


def _tokens_or_error(tokenize, text, lang):
    try:
        return [tuple(t) for t in tokenize(text, lang)]
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def _assert_tokenizer_matches_oracle(text):
    for mode, lang in _LANGUAGES:
        got = _tokens_or_error(syntax._tokenize, text, lang)
        assert got == _tokens_or_error(oracle_tokenize, text, mode), mode


# single characters, plus the multi-character spellings, which random
# characters would seldom put together
_CONNECTIVE_TEXT = st.lists(st.sampled_from(
    [*"()!~|&->qxNKAE_+0123456789 \x1c\n", "->q", "~q", "|q", "|-", "(x)"],
)).map("".join)


@given(_CONNECTIVE_TEXT)
@settings(max_examples=2000, deadline=None)
def test_tokenizer_matches_oracle_on_connective_text(text):
    _assert_tokenizer_matches_oracle(text)


@given(st.text())
@settings(max_examples=2000, deadline=None)
def test_tokenizer_matches_oracle_on_any_text(text):
    _assert_tokenizer_matches_oracle(text)


@pytest.mark.parametrize("text", [
    "E(x) ->qF(x)", "E(x) ->q F(x)", "->q", "E(x) ->q", "|-", "|- E(x)",
    "N(x)", "NK(x)", "N K(x)", "E(x)\n", "~q E(x) $", "~qE(x)", "|q", "",
])
def test_tokenizer_matches_oracle_on_named_cases(text):
    _assert_tokenizer_matches_oracle(text)


def test_tokenizer_named_cases():
    with pytest.raises(ParseError, match="unexpected character '-'") as exc:
        syntax._tokenize("E(x) ->qF(x)", syntax._TQ)
    assert exc.value.position == 5
    with pytest.raises(UnknownConnective):
        syntax._tokenize("->q", syntax._LX)
    with pytest.raises(ClassicalConnectiveInTQ, match="disjunction"):
        syntax._tokenize("|-", syntax._TQ)
    for lang in (syntax._LX, syntax._TQ):
        assert syntax._tokenize("N(x)", lang)[0].kind == "IDENT"
    assert syntax._tokenize("N(x)", syntax._PRAG)[0].kind == "N"
    for _, lang in _LANGUAGES:
        assert syntax._tokenize("NK(x)", lang)[0] == ("IDENT", "NK", 0)
        assert syntax._tokenize("E(x)\n", lang)[-1] == ("EOF", "", 5)


def test_unexpected_character_wins_over_glued_quantum_connective():
    # the tokenizer reads all of the text before the parser sees "~" "q"
    with pytest.raises(ParseError) as exc:
        parse_lx("~q E(x) $")
    assert type(exc.value) is ParseError
    assert str(exc.value) == "unexpected character '$' at position 8"
    with pytest.raises(UnknownConnective) as exc:
        parse_lx("~q E(x)")
    assert exc.value.position == 0
