"""Quantum language semantics over Hilbert-annotated models.

Every quantum formula reduces, through the model's subspace operations,
to a single declared property: atoms are their own witness, quantum
negation takes the orthocomplement, conjunction the subspace meet.  The
physical proposition of a formula is then the certain-state set of its
witness, and no classical extension is consulted along the way.

Each reduction step and each certain-state set is a lookup in the
annotation's :class:`~qlprop.hilbert.PropertyTable`: the subspace
operation behind an entry runs at most once per annotation, on the
first formula that needs it, and its result is matched to a declared
property by the ``Subspace.__eq__`` rule (mutual containment within
tolerance).  :func:`witness_property` reduces one formula by height, with
one table call for all the nodes of a height.

Q-truth is three-valued: a formula is Q-true at a state lying in its
proposition, Q-false at a state lying in the proposition's
*orthocomplement* (taken in the state lattice, not the set complement),
and Q-indeterminate elsewhere.  The classical route reaches the same
trichotomy for testable classical formulas through their witness
property.

A :class:`QProposition` holds one formula's facts: its witness, its
proposition and, looked up when a state outside the proposition is
first asked about, the orthocomplement's proposition.  :func:`q_truth`
builds one per query.

Every fact the checkers report depends on a formula's witness only, so
they do not build the formulas: :func:`_witness_classes` counts them per
witness class with :func:`~qlprop.semantics._levels`, one
:meth:`~qlprop.hilbert.PropertyTable.names` call per depth, and gives
each class's formula count and first formula.
:func:`check_tq_equalities` decides each law once per class, or per
pair of classes, and reports a violation by the class's first formula.
It reads every certain set through
:meth:`~qlprop.hilbert.PropertyTable.certain`, and the witnesses of all
the pairs' meets and joins in one
:meth:`~qlprop.hilbert.PropertyTable.names` call.  The table reads a join
as ``~q (~q a & ~q b)``, the witness of the derived disjunction.
The conjunction and join laws compare those witnesses' certain sets
with the state lattice's meet and join, which
:func:`~qlprop.hilbert.state_lattice` takes from the inclusion order of
the certain sets, not from the table.  The negation law compares the
lattice orthocomplement with the states whose ray is orthogonal to the
witness's subspace
(:meth:`~qlprop.hilbert.PropertyTable.orthogonal`), decided from the
rays and the witness's subspace, not from the table's complements.
"""

from __future__ import annotations

import enum
import warnings

from .errors import SchemaError, UnknownProperty, WitnessMismatchWarning
from .hilbert import _annotation, certain_states, state_lattice
from .lattice import OrthoLattice
from .model import Interpretation, Model
from .semantics import (
    _check_cap,
    _levels,
    enumerate_tq_formulas,
    is_true,
    physical_proposition,
    testable_witness,
)
from .syntax import (
    And,
    Atom,
    Formula,
    QNot,
    TQFormula,
    format_tq,
    sasaki_formula,
)

__all__ = [
    "QTruth", "QProposition", "witness_property", "tq_is_true",
    "tq_physical_proposition", "sasaki_hook", "q_truth", "q_truth_classical",
    "check_tq_equalities", "enumerate_tq_formulas",
]


class QTruth(enum.Enum):
    TRUE = "QTrue"
    FALSE = "QFalse"
    INDETERMINATE = "QIndeterminate"

    def __str__(self) -> str:
        return self.value


def _post_order(f: TQFormula) -> list[tuple]:
    """The nodes of ``f`` in post-order, each as ``(node, height,
    operands)``.

    A leaf, an atom or any node that is neither ``~q`` nor ``&``, has
    height 0 and no operands; a connective's operands are the post-order
    indices of its operand nodes.  The walk takes no Python recursion: a
    pre-order that visits the right operand first is the post-order
    reversed, and a stack of finished subtrees then gives the operands.
    """
    order: list = []
    todo = [f]
    while todo:
        node = todo.pop()
        order.append(node)
        if isinstance(node, QNot):
            todo.append(node.inner)
        elif isinstance(node, And):
            todo += (node.left, node.right)
    order.reverse()
    out: list[tuple] = []
    done: list[int] = []  # finished subtrees' indices, awaiting their parent
    for i, node in enumerate(order):
        if isinstance(node, QNot):
            ops: tuple = (done.pop(),)
        elif isinstance(node, And):
            right = done.pop()
            ops = (done.pop(), right)
        else:
            ops = ()
        done.append(i)
        out.append((node, 1 + max(out[j][1] for j in ops) if ops else 0, ops))
    return out


def witness_property(m: Model, f: TQFormula) -> str:
    """The declared property realising ``f`` through the subspace map.

    An atom is its own witness; quantum negation looks up the property
    carrying the orthocomplement subspace of its operand's witness, and
    conjunction the property carrying the meet of its operands'
    witnesses, both in the annotation's property table.  The formula is
    reduced by height: one pass lists its nodes in post-order with their
    heights, then one table call per height looks up the ``(w, "ortho")``
    and ``(wa, wb, "meet")`` keys of that height's nodes, whose operands
    all have lower heights.

    The error raised is the one of the first failing node in post-order,
    which is where the node-by-node recursion stops: an atom the model
    does not declare (:class:`UnknownProperty`), a node that is not a
    quantum formula (``TypeError``), or an operation no property realises
    (:class:`NotOperationClosed`, with the operation's key as its
    ``witness``).  A missing annotation (:class:`NoHilbertAnnotation`) is
    raised before any of these.  A failing node is named None, and the
    table answers None for a key with a None operand, so every node above
    a failure is None too: the first None in post-order is the first
    failing node.
    """
    table = _annotation(m).table
    nodes = _post_order(f)
    names: list[str | None] = [None] * len(nodes)
    levels: list[list[int]] = [[] for _ in range(nodes[-1][1] + 1)]
    for i, (node, height, _) in enumerate(nodes):
        levels[height].append(i)
        if isinstance(node, Atom) and node.prop in m.properties:
            names[i] = node.prop
    for level in levels[1:]:
        keys = [_key(names, nodes[i][2]) for i in level]
        for i, name in zip(level, table._fill(keys)):
            names[i] = name
    if None not in names:
        return names[-1]  # type: ignore[return-value]
    node, _, ops = nodes[names.index(None)]
    if ops:  # the table holds the miss; names raises its error
        table.names([_key(names, ops)])
    if isinstance(node, Atom):
        raise UnknownProperty(f"model declares no property {node.prop!r}")
    raise TypeError(f"not a quantum formula node: {node!r}")


def _key(names: list, ops: tuple) -> tuple:
    """The property-table key of a node with operand indices ``ops``."""
    if len(ops) == 1:
        return (names[ops[0]], "ortho")
    return (names[ops[0]], names[ops[1]], "meet")


def tq_is_true(m: Model, interp: Interpretation, state: str,
               f: TQFormula) -> bool:
    """Truth of a quantum formula: classical truth of its witness atom.

    On conjunctive trees without quantum negation this agrees with the
    classical assignment at states where all atoms are determinate;
    at indeterminate states the two can differ because fabricated proper
    extensions carry no quantum information.
    """
    return is_true(m, interp, state, Atom(witness_property(m, f)))


def tq_physical_proposition(m: Model, f: TQFormula) -> frozenset[str]:
    """States where the formula is certain: the certain-state set of its
    witness property."""
    return certain_states(m, witness_property(m, f))


def sasaki_hook(m: Model, a: TQFormula, b: TQFormula):
    """The Sasaki arrow from ``a`` to ``b``: its expanded formula and its
    physical proposition."""
    f = sasaki_formula(a, b)
    return f, tq_physical_proposition(m, f)


class QProposition:
    """What the quantum semantics says about one formula, computed once.

    ``witness`` is the formula's witness property and ``states`` its
    physical proposition, the witness's certain-state set.  ``neg``, the
    certain-state set of the witness's orthocomplement (the proposition
    of ``~q f``), is looked up on first use only: a model whose
    properties lack that complement raises :class:`NotOperationClosed`
    there, and only for a formula that needs it.  :func:`q_truth` and the
    checkers read Q-truth from :meth:`truth`, so it is defined once.
    """

    __slots__ = ("_table", "witness", "states", "_neg")

    def __init__(self, m: Model, f: TQFormula):
        self._table = table = _annotation(m).table
        self.witness = witness_property(m, f)
        self.states = table.certain(self.witness)
        self._neg: frozenset[str] | None = None

    @property
    def neg(self) -> frozenset[str]:
        if self._neg is None:
            # the proposition of ~q f: witnesses compose, so its witness
            # is the orthocomplement of f's
            self._neg = self._table.certain(self._table.ortho(self.witness))
        return self._neg

    def truth(self, state: str) -> QTruth:
        """Q-truth at a known state; see the module docstring."""
        if state in self.states:
            return QTruth.TRUE
        if state in self.neg:
            return QTruth.FALSE
        return QTruth.INDETERMINATE


def q_truth(m: Model, state: str, f: TQFormula) -> QTruth:
    """Three-valued truth at a state; see the module docstring."""
    if state not in m.extensions:
        raise SchemaError(f"unknown state {state!r}")
    return QProposition(m, f).truth(state)


def q_truth_classical(m: Model, state: str, f: Formula) -> QTruth | None:
    """Q-truth of a *classical* formula via its testable witness.

    Returns None for untestable formulas.  The positive part is the
    classical physical proposition; the negative part needs the witness
    property's orthocomplement, hence a Hilbert annotation.  If the
    classical proposition disagrees with the witness's certain-state set
    a :class:`WitnessMismatchWarning` is emitted and the classical set
    is used.
    """
    w = testable_witness(m, f)
    if w is None:
        return None
    q = QProposition(m, Atom(w))  # raises NoHilbertAnnotation first
    if state not in m.extensions:
        raise SchemaError(f"unknown state {state!r}")
    pos = physical_proposition(m, f)
    if pos != q.states:
        warnings.warn(
            f"classical proposition of {w!r}-equivalent formula differs "
            f"from the witness's certain-state set", WitnessMismatchWarning)
    if state in pos:
        return QTruth.TRUE
    return QTruth.FALSE if state in q.neg else QTruth.INDETERMINATE


def _witness_classes(m: Model, depth: int) -> dict[str, list]:
    """Each witness of a quantum formula up to ``depth``, with its formula
    count and first formula, ``[count, first]``, in order of the first
    formulas.

    The formulas are counted by :func:`~qlprop.semantics._levels`, keyed
    by witness: one :meth:`~qlprop.hilbert.PropertyTable.names` call per
    depth, over the ``(operands, operation)`` keys of its entry pairs in
    canonical order.  The first formula whose operation no property
    realises comes from the first such entry pair, so the same
    :class:`NotOperationClosed` is raised as by the recursion, formula by
    formula.
    """
    _check_cap(depth)  # a bad depth is refused before a missing annotation
    table = _annotation(m).table

    def witnesses(ops) -> list[str]:
        return table.names([(a, "ortho") if b is None else (a, b, "meet")
                            for _, a, b in ops])

    return _levels(((p, Atom(p)) for p in m.properties), depth,
                   [QNot], [And], witnesses)


def check_tq_equalities(m: Model, depth: int,
                        lat: OrthoLattice | None = None) -> dict:
    """Compare formula propositions against state-lattice operations.

    For all quantum formulas to ``depth``, grouped by witness property:
    the proposition of a negation must be the lattice orthocomplement, of
    a conjunction the lattice meet, and of a derived disjunction the
    lattice join of the operand propositions.  Each law compares the
    formula route, the certain set of the witness the table reduces the
    formula to, with the order route: the lattice meet and join are the
    glb/lub of the certain sets' inclusion order, which reads no meet or
    join entry of the table.  A conjunction's proposition must also be
    the intersection of its operands', and a disjunction's must contain
    their union.  The negation's proposition is taken as the table's
    orthogonal states of the witness, so none of the three laws reads the
    same table entries on both sides.

    Returns a dict with violation lists per law (a violation is named by
    the first formula of its class, or of each class of a pair), the
    number of formulas checked, and a witness pair for strictness of the
    join inclusion (the join proposition strictly containing the union)
    when one exists.  ``lat`` is ``state_lattice(m)``, built here when not
    given.  Building it looks up every operation on the declared
    properties, so the one batched table read of the pairs' meets and
    joins raises nothing.  The table reads each join as the witness of
    ``~q (~q a & ~q b)``, the De Morgan form the disjunction is defined
    by.
    """
    if lat is None:
        lat = state_lattice(m)
    classes = _witness_classes(m, depth)
    table = _annotation(m).table
    index = {e: i for i, e in enumerate(lat.poset.elements)}

    neg_bad, conj_bad, join_bad = [], [], []
    reps = []
    for w, (_, f) in classes.items():
        states = table.certain(w)
        i = index[states]
        if index.get(table.orthogonal(w)) != lat.ortho[i]:
            neg_bad.append(format_tq(f))
        reps.append((format_tq(f), states, i))
    # a pair's conjunction and join reduce through the operands'
    # witnesses, so their witnesses are read from the table, every pair's
    # meet and join in one call in row-major order
    ws = list(classes)
    pairs = table.names(
        [(a, b, op) for a in ws for b in ws for op in ("meet", "join")])
    results = iter(zip(pairs[::2], pairs[1::2]))
    strict = None
    for a, pa, ia in reps:
        for b, pb, ib in reps:
            met, joined = next(results)
            # the formula route against the order route; a set the
            # lattice lacks is a violation, not a KeyError
            met = table.certain(met)
            if met != pa & pb or index.get(met) != lat.meet[ia, ib]:
                conj_bad.append((a, b))
            joined = table.certain(joined)
            if index.get(joined) != lat.join[ia, ib]:
                join_bad.append((a, b))
            union = pa | pb
            if not union <= joined:
                join_bad.append((a, b, "union not below"))
            elif strict is None and union < joined:
                strict = (a, b)
    return {
        "formulas": sum(n for n, _ in classes.values()),
        "classes": len(classes),
        "negation": neg_bad,
        "conjunction": conj_bad,
        "join": join_bad,
        "join_strict_witness": strict,
    }
