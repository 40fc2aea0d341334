"""Formula ASTs, one parser and one printer for the three surface languages.

The package works with three languages over atoms ``NAME(x)`` where NAME
matches ``[A-Za-z_][A-Za-z0-9_+-]*``.  They differ only in their token
tables (``_LX``, ``_TQ`` and ``_PRAG`` below):

``lx`` (classical)
    prefix ``!``/``~`` negation; infix ``|`` disjunction (precedence 1)
    and ``&`` conjunction (2).
``ltq`` (quantum)
    prefix ``~q`` quantum negation; infix ``->q`` (0), ``|q`` (1) and
    ``&`` (2).  The two derived connectives are expanded by their
    builders while parsing: ``a |q b  ==  ~q (~q a & ~q b)`` and
    ``a ->q b  ==  (~q a) |q (a & b)`` (Sasaki arrow), so quantum ASTs
    contain only ``Atom``, ``And`` and ``QNot`` nodes.  ``Atom`` and
    ``And`` are shared with the classical language, so conjunctive trees
    can be fed to either semantics.  ``~q`` and ``|q`` are read as
    such whatever follows them (``~qE(x)``), because bare ``~`` and
    ``|`` are not quantum connectives; ``->q`` must not be followed by a
    name character.
``prag`` (assertive)
    prefix ``N``; infix ``A`` (1) and ``K`` (2); ``|- f`` asserts a whole
    quantum formula, which extends as far right as possible.  ``N``,
    ``K`` and ``A`` are reserved words in this language only.  Its table
    is followed by the quantum one, whose tokens an asserted formula uses.

One table per language drives the tokenizer, the parser and the
printer.  It lists the language's tokens in match order, each entry
``(kind, pattern, builder, precedence, printed form)``: the kind names
the token for the parser, the pattern is a regular expression without
capturing groups, the builder makes the node, the precedence places an
infix operator (prefix operators have ``_PREFIX``, atoms and assertions
``_ATOMIC``) and the printed form, if any, is how the printer writes the
builder's node (an atom prints as ``NAME(x)``).  A spelling the language rejects is an entry whose kind
is ``(exception class, message)``.  Each table compiles at import into
one regular-expression alternation (whitespace, the parentheses, the
entries, then a catch-all that reports an unexpected character), the
parser's prefix and infix maps, and the printer's map from node type to
(precedence, printed form).

One precedence-climbing parser reads every table: prefix operators bind
tighter than any infix one, higher precedence binds tighter, binary
connectives associate to the left and parentheses override.  One printer
emits a canonical, minimally parenthesised rendering;
``parse(format(f)) == f`` holds for every AST of the matching language.

Limits: ``MAX_DEPTH`` (256) bounds both the parser's nesting (every
parenthesised group, asserted formula and right operand of an infix
operator opens one level) and the depth of the expanded tree, and the
expanded tree may hold at most ``MAX_NODES`` (10,000) nodes.  A chain of
prefix operators counts towards the depth, and every ``->q`` copies its
left operand, so a chain of k arrows expands to about 2**k nodes.
Parsing stops with a ``ParseError`` at the token that crosses a limit,
so every accepted formula can be hashed, evaluated and printed without
running into Python's recursion limit.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import ClassicalConnectiveInTQ, ParseError, UnknownConnective

__all__ = [
    "Atom", "Not", "And", "Or", "QNot",
    "Assert", "N", "K", "A",
    "Formula", "TQFormula", "AssertiveFormula",
    "quantum_join", "sasaki_formula",
    "parse_lx", "parse_tq", "parse_prag",
    "format_lx", "format_tq", "format_prag",
    "atoms_of", "MAX_DEPTH", "MAX_NODES",
]

# Size limits of a parsed formula (see the module docstring).
MAX_DEPTH = 256
MAX_NODES = 10_000


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Atom:
    """Application of a property name to the single variable ``x``."""

    prop: str


@dataclass(frozen=True)
class Not:
    inner: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class QNot:
    """Quantum negation; the only non-classical quantum node."""

    inner: "TQFormula"


Formula = Union[Atom, Not, And, Or]
TQFormula = Union[Atom, And, QNot]


@dataclass(frozen=True)
class Assert:
    """``|- f``: the assertion of a quantum formula."""

    inner: TQFormula


@dataclass(frozen=True)
class N:
    inner: "AssertiveFormula"


@dataclass(frozen=True)
class K:
    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True)
class A:
    left: "AssertiveFormula"
    right: "AssertiveFormula"


AssertiveFormula = Union[Assert, N, K, A]


def quantum_join(a: TQFormula, b: TQFormula) -> TQFormula:
    """The defining expansion of ``a |q b``."""
    return QNot(And(QNot(a), QNot(b)))


def sasaki_formula(a: TQFormula, b: TQFormula) -> TQFormula:
    """The defining expansion of the Sasaki arrow ``a ->q b``."""
    return quantum_join(QNot(a), And(a, b))


def _operands(f) -> tuple:
    if isinstance(f, (And, Or, K, A)):
        return f.left, f.right
    if isinstance(f, (Not, QNot, N, Assert)):
        return (f.inner,)
    return ()


def atoms_of(f) -> frozenset[str]:
    """Property names occurring in a formula of any of the three languages."""
    if isinstance(f, Atom):
        return frozenset({f.prop})
    ops = _operands(f)
    if not ops:
        raise TypeError(f"not a formula node: {f!r}")
    return frozenset().union(*map(atoms_of, ops))


# ---------------------------------------------------------------------------
# Token tables (see the module docstring) and the tokenizer


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_PREFIX = 3  # prefix operators bind tighter than any infix one
_ATOMIC = 4  # atoms and assertions, never parenthesised
_NAME_END = r"(?![A-Za-z0-9_+\-])"  # no name character follows


def _rejected(pattern: str, exc: type, message: str) -> tuple:
    """The entry of a spelling the language rejects."""
    return (exc, message), pattern, None, None, None


_IDENT = ("IDENT", r"[A-Za-z_][A-Za-z0-9_+\-]*", Atom, _ATOMIC, "")
_AND = ("AND", "&", And, 2, " & ")
_SASAKI = "->q" + _NAME_END


class _Language:
    """A language compiled from its token table.  ``inner`` is the
    language of asserted formulas: its tokens are matched after the
    table's own, but build no node of this language."""

    def __init__(self, noun: str, table: list, inner: _Language | None = None):
        self.noun = noun  # "a classical", ... for the printer's TypeError
        self.inner = inner
        self.table = table + (inner.table if inner else [])
        # group 1 is whitespace; the catch-all '.' is the last group
        patterns = [r"\s+", r"\(", r"\)", *(e[1] for e in self.table), "."]
        self.scan = re.compile("|".join(f"({p})" for p in patterns),
                               re.DOTALL).finditer
        self.kinds = (None, None, "LPAREN", "RPAREN",
                      *(e[0] for e in self.table), (ParseError, None))
        self.prefix = {k: b for k, _, b, prec, _ in table if prec == _PREFIX}
        self.infix = {k: (prec, b) for k, _, b, prec, _ in table
                      if prec is not None and prec < _PREFIX}
        # node type -> (precedence, printed form)
        self.notation = {b: (prec, form) for _, _, b, prec, form in table
                         if form is not None}


_LX = _Language("a classical", [
    _IDENT, _AND,
    ("NOT", "[!~]", Not, _PREFIX, "!"),
    ("OR", r"\|", Or, 1, " | "),
    _rejected(_SASAKI, UnknownConnective,
              "quantum connective '->q' is not part of the classical "
              "language"),
])
_TQ = _Language("a quantum", [
    _IDENT, _AND,
    # bare '~' and '|' are never quantum, so '~q' and '|q' are read
    # whatever follows them
    ("QNOT", "~q", QNot, _PREFIX, "~q "),
    ("QOR", r"\|q", quantum_join, 1, None),
    ("SASAKI", _SASAKI, sasaki_formula, 0, None),
    _rejected("!", ClassicalConnectiveInTQ,
              "classical negation '!' is not part of the quantum language"),
    _rejected("~", ClassicalConnectiveInTQ,
              "classical negation '~' is not part of the quantum language "
              "(write '~q')"),
    _rejected(r"\|", ClassicalConnectiveInTQ,
              "classical disjunction '|' is not part of the quantum "
              "language (write '|q')"),
])
_PRAG = _Language("an assertive", [
    ("N", "N" + _NAME_END, N, _PREFIX, "N "),
    ("K", "K" + _NAME_END, K, 2, " K "),
    ("A", "A" + _NAME_END, A, 1, " A "),
    ("ASSERT", r"\|-", Assert, _ATOMIC, "|- "),
], inner=_TQ)


def _tokenize(text: str, lang: _Language) -> list[_Token]:
    toks = []
    kinds = lang.kinds
    for m in lang.scan(text):
        kind = kinds[m.lastindex]
        if kind.__class__ is str:
            toks.append(_Token(kind, m.group(), m.start()))
        elif kind:  # a rejected spelling or the catch-all
            exc, message = kind
            raise exc(message or f"unexpected character {m.group()!r}",
                      m.start())
    toks.append(_Token("EOF", "", len(text)))
    return toks


@functools.cache
def _shape(builder, arity: int) -> tuple[int, tuple, tuple]:
    """The nodes ``builder`` adds and, per operand, how often and at most
    how deep it places it: builders only combine their operands, so one
    run on placeholder atoms fixes this for every operand."""
    holes = [Atom(str(i)) for i in range(arity)]
    count, level, added = [0] * arity, [0] * arity, 0
    stack = [(builder(*holes), 0)]
    while stack:
        f, d = stack.pop()
        i = next((i for i, h in enumerate(holes) if f is h), None)
        if i is None:
            added += 1
            stack.extend((g, d + 1) for g in _operands(f))
        else:
            count[i] += 1
            level[i] = max(level[i], d)
    return added, tuple(count), tuple(level)


def _build(tok: _Token, builder, *operands):
    """Apply a node builder to ``(node, size, depth)`` operands and hold the
    expanded result to the size limits."""
    nodes, sizes, depths = zip(*operands)
    f = builder(*nodes)
    added, count, level = _shape(builder, len(nodes))
    size = added + sum(map(operator.mul, count, sizes))
    depth = max(map(operator.add, level, depths))
    if depth > MAX_DEPTH:
        raise ParseError(f"formula deeper than {MAX_DEPTH} levels once "
                         "expanded", tok.pos)
    if size > MAX_NODES:
        raise ParseError(f"formula larger than {MAX_NODES} nodes once "
                         "expanded", tok.pos)
    return f, size, depth


# ---------------------------------------------------------------------------
# Precedence-climbing parser.  ``expr`` and ``unary`` return
# ``(node, size, depth)`` so that every build can check the limits.

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.cur = tokens[0]
        self.nesting = 0

    def advance(self) -> _Token:
        # never called on EOF, so a next token always exists
        t = self.cur
        self.i += 1
        self.cur = self.tokens[self.i]
        return t

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"expected {what}", self.cur.pos, expected=what)
        return self.advance()

    def expect_eof(self):
        if self.cur.kind != "EOF":
            raise ParseError(f"unexpected {self.cur.text!r}", self.cur.pos)

    def atom(self, lang: _Language):
        if self.cur.kind != "IDENT":
            raise ParseError("expected a formula", self.cur.pos,
                             expected="property name or '('")
        name = self.advance()
        if self.cur.kind != "LPAREN":
            # In the classical language an adjacent "~q"/"|q" that cannot
            # be an atom application is a quantum connective used in the
            # wrong language; report it as such.  This stays in the parser,
            # so an unexpected character later in the text is reported
            # first.
            prev = self.tokens[self.i - 2] if self.i >= 2 else None
            if (lang is _LX and name.text == "q" and prev is not None
                    and prev.kind in ("NOT", "OR")
                    and prev.pos + len(prev.text) == name.pos):
                raise UnknownConnective(
                    f"quantum connective {prev.text + 'q'!r} is not part of "
                    "the classical language", prev.pos)
            raise ParseError("expected '(' after property name",
                             self.cur.pos, expected="'('")
        self.advance()
        var = self.expect("IDENT", "variable 'x'")
        if var.text != "x":
            raise ParseError("the only variable is 'x'", var.pos, expected="'x'")
        self.expect("RPAREN", "')'")
        return Atom(name.text)

    def expr(self, lang: _Language, floor: int = 0):
        """An operand followed by infix operators of precedence >= floor.
        This is the parser's only recursion point, so its nesting is
        counted here."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"formula nested more than {MAX_DEPTH} deep",
                             self.cur.pos)
        f = self.unary(lang)
        while True:
            op = lang.infix.get(self.cur.kind)
            if op is None or op[0] < floor:
                self.nesting -= 1
                return f
            tok = self.advance()
            f = _build(tok, op[1], f, self.expr(lang, op[0] + 1))

    def unary(self, lang: _Language):
        """Prefix operators applied to a parenthesised formula, an
        assertion or an atom."""
        prefixes = []
        while self.cur.kind in lang.prefix:
            prefixes.append(self.advance())
        tok = self.cur
        if tok.kind == "LPAREN":
            self.advance()
            f = self.expr(lang)
            self.expect("RPAREN", "')'")
        elif tok.kind == "ASSERT" and lang.inner:
            self.advance()
            f = _build(tok, Assert, self.expr(lang.inner))
        elif Atom in lang.notation:
            f = (self.atom(lang), 1, 1)
        else:
            raise ParseError("expected '|-', 'N' or '('", tok.pos,
                             expected="'|-'")
        for t in reversed(prefixes):
            f = _build(t, lang.prefix[t.kind], f)
        return f


def _parse(text: str, lang: _Language):
    toks = _tokenize(text, lang)
    if toks[0].kind == "EOF":
        raise ParseError("empty input", 0, expected="a formula")
    p = _Parser(toks)
    f = p.expr(lang)[0]
    p.expect_eof()
    return f


def parse_lx(text: str) -> Formula:
    """Parse a classical formula."""
    return _parse(text, _LX)


def parse_tq(text: str) -> TQFormula:
    """Parse a quantum formula; ``|q`` and ``->q`` are expanded away."""
    return _parse(text, _TQ)


def parse_prag(text: str) -> AssertiveFormula:
    """Parse an assertive formula (``|-``, ``N``, ``K``, ``A``)."""
    return _parse(text, _PRAG)


# ---------------------------------------------------------------------------
# Printer


def _format(f, lang: _Language) -> str:
    kind = type(f)
    if kind not in lang.notation:
        raise TypeError(f"not {lang.noun} formula node: {f!r}")
    if kind is Atom:
        return f"{f.prop}(x)"
    # an operand below its floor is parenthesised; binary connectives
    # associate to the left, so their right operand's floor is one higher
    floor, symbol = lang.notation[kind]
    if kind is Assert:  # its quantum operand extends as far right as possible
        lang, floor = lang.inner, 0
    ops = _operands(f)
    if len(ops) == 1:
        return symbol + _operand(ops[0], lang, floor)
    return (_operand(ops[0], lang, floor) + symbol
            + _operand(ops[1], lang, floor + 1))


def _operand(f, lang: _Language, floor: int) -> str:
    s = _format(f, lang)
    return s if lang.notation[type(f)][0] >= floor else f"({s})"


def format_lx(f: Formula) -> str:
    """Canonical minimally parenthesised rendering of a classical formula."""
    return _format(f, _LX)


def format_tq(f: TQFormula) -> str:
    """Canonical rendering of a quantum formula (core connectives only)."""
    return _format(f, _TQ)


def format_prag(f: AssertiveFormula) -> str:
    """Canonical rendering of an assertive formula."""
    return _format(f, _PRAG)
