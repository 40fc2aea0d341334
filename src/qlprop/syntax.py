"""Formula ASTs, one parser and one printer for the three surface languages.

The package works with three languages over atoms ``NAME(x)`` where NAME
matches ``[A-Za-z_][A-Za-z0-9_+-]*``.  They differ only in their operator
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
    ``|`` are not quantum connectives; ``->q`` must not run into a name.
``prag`` (assertive)
    prefix ``N``; infix ``A`` (1) and ``K`` (2); ``|- f`` asserts a whole
    quantum formula, which extends as far right as possible.  ``N``,
    ``K`` and ``A`` are reserved words in this language only.

One precedence-climbing parser reads every table: prefix operators bind
tighter than any infix one, higher precedence binds tighter, binary
connectives associate to the left and parentheses override.  One printer
reads one notation table, node type -> (precedence, symbol, operand
floor), and emits a canonical, minimally parenthesised rendering;
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
from typing import Union

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
# Tokenizer

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_+\-]*")
_IDENT_CHAR_RE = re.compile(r"[A-Za-z0-9_+\-]")


def _is_ident_char(s: str) -> bool:
    return bool(s) and bool(_IDENT_CHAR_RE.match(s))


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str, mode: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            toks.append(_Token("LPAREN", "(", i))
            i += 1
            continue
        if c == ")":
            toks.append(_Token("RPAREN", ")", i))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            name = m.group()
            kind = "IDENT"
            if mode == "prag" and name in ("N", "K", "A"):
                kind = name
            toks.append(_Token(kind, name, i))
            i = m.end()
            continue
        if c == "&":
            toks.append(_Token("AND", "&", i))
            i += 1
            continue
        if c == "!":
            if mode == "lx":
                toks.append(_Token("NOT", "!", i))
                i += 1
                continue
            raise ClassicalConnectiveInTQ(
                "classical negation '!' is not part of the quantum language", i)
        if c == "~":
            if mode == "lx":
                toks.append(_Token("NOT", "~", i))
                i += 1
                continue
            # bare '~' is never valid here, so '~q' is read whatever follows
            if text[i + 1:i + 2] == "q":
                toks.append(_Token("QNOT", "~q", i))
                i += 2
                continue
            raise ClassicalConnectiveInTQ(
                "classical negation '~' is not part of the quantum language "
                "(write '~q')", i)
        if c == "|":
            nxt = text[i + 1:i + 2]
            if mode == "prag" and nxt == "-":
                toks.append(_Token("ASSERT", "|-", i))
                i += 2
                continue
            if mode == "lx":
                toks.append(_Token("OR", "|", i))
                i += 1
                continue
            if nxt == "q":  # as with '~q': bare '|' is never valid here
                toks.append(_Token("QOR", "|q", i))
                i += 2
                continue
            raise ClassicalConnectiveInTQ(
                "classical disjunction '|' is not part of the quantum "
                "language (write '|q')", i)
        if text[i:i + 3] == "->q" and not _is_ident_char(text[i + 3:i + 4]):
            if mode == "lx":
                raise UnknownConnective(
                    "quantum connective '->q' is not part of the classical "
                    "language", i)
            toks.append(_Token("SASAKI", "->q", i))
            i += 3
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Token("EOF", "", n))
    return toks


# ---------------------------------------------------------------------------
# Operator tables


@dataclass(frozen=True)
class _Language:
    mode: str         # tokenizer mode
    noun: str         # "a classical", ... for the printer's TypeError
    prefix: dict      # token kind -> node constructor
    infix: dict       # token kind -> (precedence, builder), tighter is higher
    nodes: frozenset  # node types the parser builds and the printer accepts


_LX = _Language("lx", "a classical", {"NOT": Not},
                {"OR": (1, Or), "AND": (2, And)},
                frozenset({Atom, Not, And, Or}))
_TQ = _Language("ltq", "a quantum", {"QNOT": QNot},
                {"SASAKI": (0, sasaki_formula), "QOR": (1, quantum_join),
                 "AND": (2, And)},
                frozenset({Atom, QNot, And}))
_PRAG = _Language("prag", "an assertive", {"N": N},
                  {"A": (1, A), "K": (2, K)},
                  frozenset({Assert, N, K, A}))

# node type -> (precedence, symbol, operand floor).  An operand whose
# precedence is below its floor is parenthesised; binary connectives
# associate to the left, so their right operand's floor is one higher.
_NOTATION = {
    Or: (1, " | ", 1), A: (1, " A ", 1),
    And: (2, " & ", 2), K: (2, " K ", 2),
    Not: (3, "!", 3), QNot: (3, "~q ", 3), N: (3, "N ", 3),
    # the quantum operand of |- extends as far right as possible
    Atom: (4, "", 0), Assert: (4, "|- ", 0),
}


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
    def __init__(self, tokens: list[_Token], mode: str):
        self.tokens = tokens
        self.mode = mode
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

    # atoms (shared by all modes)

    def atom(self):
        if self.cur.kind != "IDENT":
            raise ParseError("expected a formula", self.cur.pos,
                             expected="property name or '('")
        name = self.advance()
        if self.cur.kind != "LPAREN":
            # In classical mode an adjacent "~q"/"|q" that cannot be an
            # atom application is a quantum connective used in the wrong
            # language; report it as such.
            prev = self.tokens[self.i - 2] if self.i >= 2 else None
            if (self.mode == "lx" and name.text == "q" and prev is not None
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
        elif tok.kind == "ASSERT" and Assert in lang.nodes:
            self.advance()
            f = _build(tok, Assert, self.expr(_TQ))
        elif Atom in lang.nodes:
            f = (self.atom(), 1, 1)
        else:
            raise ParseError("expected '|-', 'N' or '('", tok.pos,
                             expected="'|-'")
        for t in reversed(prefixes):
            f = _build(t, lang.prefix[t.kind], f)
        return f


def _parse(text: str, lang: _Language):
    toks = _tokenize(text, lang.mode)
    if toks[0].kind == "EOF":
        raise ParseError("empty input", 0, expected="a formula")
    p = _Parser(toks, lang.mode)
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
    if kind not in lang.nodes:
        raise TypeError(f"not {lang.noun} formula node: {f!r}")
    if kind is Atom:
        return f"{f.prop}(x)"
    _, symbol, floor = _NOTATION[kind]
    if kind is Assert:
        lang = _TQ
    ops = _operands(f)
    if len(ops) == 1:
        return symbol + _operand(ops[0], lang, floor)
    return (_operand(ops[0], lang, floor) + symbol
            + _operand(ops[1], lang, floor + 1))


def _operand(f, lang: _Language, floor: int) -> str:
    s = _format(f, lang)
    return s if _NOTATION[type(f)][0] >= floor else f"({s})"


def format_lx(f: Formula) -> str:
    """Canonical minimally parenthesised rendering of a classical formula."""
    return _format(f, _LX)


def format_tq(f: TQFormula) -> str:
    """Canonical rendering of a quantum formula (core connectives only)."""
    return _format(f, _TQ)


def format_prag(f: AssertiveFormula) -> str:
    """Canonical rendering of an assertive formula."""
    return _format(f, _PRAG)
