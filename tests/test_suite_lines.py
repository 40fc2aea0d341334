"""Every PASS/FAIL line that ``qlprop check`` prints can print FAIL.

One row per line: the suite, the model, a fault injected into the code
that decides the line (or none, where the line depends on the model),
and the exact FAIL line, with the row's argv tail, if any, after the
suite.  Each row runs through ``cli.main`` as a user would and must
exit 1.  The rows cover 21 of the 22 kinds of line, all but prag's
preservation line:

- qm: the negation, conjunction and join laws, and the state lattice
  laws ortho_involution, ortho_complement, orthomodular and
  ortho_order_reversal, each made to fail by swapping two complements
  in the property table; atomic and atomistic, made to fail by a poset
  that leaves out an atom, and covering, by one that reports no cover;
- cm: every extension full or empty, truth independent of the
  interpretation, individual propositions collapse to physical, and,
  under ``--assume-cmt`` on m_cm with no fault, every formula testable;
  and the four laws of the closed quotient on m_cm: bounded, by a poset
  without a bottom; both distributive laws, by a glb table that meets
  every incomparable pair at the least element of its order; and
  unique_complement, by a poset that swaps its meet and join tables;
- sec3: the three connective lines.

Both distributive laws are decided by one test, that every
join-irreducible is join-prime, before any cell is read.  A fault in
``_join_prime`` alone leaves the tables sound, so the cell-by-cell
fallback finds no witness and the lines pass; the fault goes into the
tables.

The two cm interpretation lines are decided by one mask, each
class profile's slots outside its full blocks, so one fault in
``ProfileKernel.full`` turns both to FAIL.

The sec3 lines read ``ProfileKernel.full`` alone.  A ``full`` that
returns every block its profile touches fails the negation and the
conjunction lines on m_sr.  The disjunction line needs a fault that is
not monotone: while ``full`` preserves meets it is monotone, and then
the union of two full-block masks lies below the mask of the union.
"""

import numpy as np
import pytest

import qlprop.cli as cli
import qlprop.hilbert as hilbert
import qlprop.lattice as lattice
import qlprop.semantics as semantics
from qlprop.model import m_cm, m_qbit, m_sr

from helpers import non_injective_qubit


def _names_left_operand(op):
    """The property table answers every ``op`` key with its left operand."""
    def fault(monkeypatch):
        real = hilbert.PropertyTable.names
        monkeypatch.setattr(
            hilbert.PropertyTable, "names",
            lambda self, keys: [key[0] if key[-1] == op else name
                                for key, name in zip(keys, real(self, keys))])
    return fault


def _swapped_complements(e, f):
    """The loaded model's property table answers the complements of ``e``
    and ``f`` with each other's, before any join is read from them."""
    def fault(monkeypatch):
        load = cli.load_model

        def swapped(*args, **kwargs):
            m = load(*args, **kwargs)
            table = m.hilbert.table
            ce, cf = table.ortho(e), table.ortho(f)
            table._names[e, "ortho"], table._names[f, "ortho"] = cf, ce
            return m

        monkeypatch.setattr(cli, "load_model", swapped)
    return fault


def _full_drops_block(state):
    """The kernel's full-block masks never hold ``state``'s block."""
    def fault(monkeypatch):
        real = semantics.ProfileKernel.full
        monkeypatch.setattr(semantics.ProfileKernel, "full",
                            lambda self, v: real(self, v) & ~self.block(state))
    return fault


def _full_touches():
    """The kernel's full-block masks hold every block a profile touches."""
    def fault(monkeypatch):
        def touched(self, v):
            return sum(mask for mask in self._blocks.values() if v & mask)
        monkeypatch.setattr(semantics.ProfileKernel, "full", touched)
    return fault


def _full_of_universe_empty():
    """The kernel finds no full block in the all-slots profile."""
    def fault(monkeypatch):
        real = semantics.ProfileKernel.full
        monkeypatch.setattr(
            semantics.ProfileKernel, "full",
            lambda self, v: 0 if v == self.universe else real(self, v))
    return fault


def _poset_changes(method, change):
    """``FinitePoset.method`` answers ``change`` of its answer."""
    def fault(monkeypatch):
        real = getattr(lattice.FinitePoset, method)
        monkeypatch.setattr(lattice.FinitePoset, method,
                            lambda self: change(real(self)))
    return fault


def _swapped_tables():
    """The poset hands out its join table as the meet and its meet table
    as the join."""
    def fault(monkeypatch):
        real = lattice.FinitePoset.meet_join_tables
        monkeypatch.setattr(lattice.FinitePoset, "meet_join_tables",
                            lambda self: real(self)[::-1])
    return fault


def _incomparable_at_least():
    """The glb table answers every incomparable pair with the least
    element of the order: the bottom for the meet, the top for the join."""
    def fault(monkeypatch):
        real = lattice._glb_table

        def least(leq):
            table, has = real(leq)
            lowest = int(np.argmin(leq.sum(axis=0)))
            return np.where(leq | leq.T, table, lowest), has
        monkeypatch.setattr(lattice, "_glb_table", least)
    return fault


_CM_CLASS_LINES = ["FAIL truth independent of the interpretation",
                   "FAIL individual propositions collapse to physical"]


ROWS = [
    ("negation, swapped complements", "qm", m_qbit,
     _swapped_complements("Ez+", "Ex+"),
     "FAIL negation proposition is the lattice orthocomplement: "
     "first 'Ez+(x)'"),
    ("conjunction, meet names its left operand", "qm", m_qbit,
     _names_left_operand("meet"),
     "FAIL conjunction proposition is the lattice meet: "
     "first ('Ez+(x)', 'E0(x)')"),
    ("join, join names its left operand", "qm", m_qbit,
     _names_left_operand("join"),
     "FAIL disjunction proposition is the lattice join: "
     "first ('E0(x)', 'Ez+(x)')"),
    ("negation, non-injective", "qm", non_injective_qubit, None,
     "FAIL negation proposition is the lattice orthocomplement: "
     "first 'Ex+(x)'"),
    ("join, non-injective", "qm", non_injective_qubit, None,
     "FAIL disjunction proposition is the lattice join: "
     "first ('Ez+(x)', 'Ex+(x)')"),
    ("cm extensions, m_sr", "cm", m_sr, None,
     "FAIL every extension full or empty: witness ('S1', 'E')"),
    ("cm truth, m_sr", "cm", m_sr, None, _CM_CLASS_LINES[0]),
    ("cm collapse, m_sr", "cm", m_sr, None, _CM_CLASS_LINES[1]),
    ("cm truth, full drops a block", "cm", m_cm, _full_drops_block("S1"),
     _CM_CLASS_LINES[0]),
    ("cm collapse, full drops a block", "cm", m_cm, _full_drops_block("S1"),
     _CM_CLASS_LINES[1]),
    ("sec3 negation, full takes touched blocks", "sec3", m_sr,
     _full_touches(), "FAIL negation proposition below set complement"),
    ("sec3 conjunction, full takes touched blocks", "sec3", m_sr,
     _full_touches(), "FAIL conjunction proposition equals intersection"),
    ("sec3 disjunction, universe has no full block", "sec3", m_sr,
     _full_of_universe_empty(), "FAIL disjunction proposition above union"),
    ("state lattice involution, swapped complements", "qm", m_qbit,
     _swapped_complements("Ez+", "Ex+"),
     "FAIL state lattice law ortho_involution: witness ('{Sz+}',)"),
    ("state lattice complement, swapped complements", "qm", m_qbit,
     _swapped_complements("Ez+", "Ez-"),
     "FAIL state lattice law ortho_complement: witness ('{Sz+}',)"),
    ("state lattice orthomodular, swapped complements", "qm", m_qbit,
     _swapped_complements("Ez+", "Ez-"),
     "FAIL state lattice law orthomodular: "
     "witness ('{Sz+}', '{Sz+, Sz-, Sx+, Sx-}')"),
    ("state lattice order reversal, swapped complements", "qm", m_qbit,
     _swapped_complements("E0", "EI"),
     "FAIL state lattice law ortho_order_reversal: witness ('{}', '{Sz+}')"),
    ("state lattice atomic, first atom left out", "qm", m_qbit,
     _poset_changes("atom_indices", lambda atoms: atoms[1:]),
     "FAIL state lattice law atomic: witness ('{Sz+}',)"),
    ("state lattice atomistic, first atom left out", "qm", m_qbit,
     _poset_changes("atom_indices", lambda atoms: atoms[1:]),
     "FAIL state lattice law atomistic: witness ('{Sz+}',)"),
    ("state lattice covering, no cover", "qm", m_qbit,
     _poset_changes("cover_matrix", np.zeros_like),
     "FAIL state lattice law covering: witness ('{}', '{Sz+}')"),
    ("cm bounded, no bottom", "cm", m_cm,
     _poset_changes("bottom_index", lambda bottom: None),
     "FAIL quotient algebra law bounded: witness None"),
    ("cm meet over join, incomparable pairs at the least element", "cm",
     m_cm, _incomparable_at_least(),
     "FAIL quotient algebra law distributive_meet_over_join: "
     "witness ('E(x)', 'F(x)', '!F(x)')"),
    ("cm join over meet, incomparable pairs at the least element", "cm",
     m_cm, _incomparable_at_least(),
     "FAIL quotient algebra law distributive_join_over_meet: "
     "witness ('E(x)', 'F(x)', '!(E(x) & F(x))')"),
    ("cm unique complement, meet and join tables swapped", "cm", m_cm,
     _swapped_tables(),
     "FAIL quotient algebra law unique_complement: witness ('E(x)', 0)"),
    # the one row with an argv tail: the line is printed under the flag
    ("cm testable, m_cm", "cm", m_cm, None,
     "FAIL every formula testable: 6 formulas lack a witness, "
     "first '!E(x)'", "--assume-cmt"),
]


# the non-injective model warns that properties share a certain-state set
@pytest.mark.filterwarnings("ignore::qlprop.errors.ThetaNotInjectiveWarning")
@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_every_suite_line_can_fail(row, monkeypatch, run_check):
    name, suite, build, fault, line, *tail = row
    m = build()
    if fault is not None:
        fault(monkeypatch)
    code, lines = run_check(m, "--suite", suite, *tail)
    assert code == 1
    assert line in lines


def test_a_dropped_full_block_fails_the_class_level_cm_lines_only(
        monkeypatch, run_check):
    # the raw extensions are checked without the kernel, so they still pass
    _full_drops_block("S1")(monkeypatch)
    code, lines = run_check(m_cm(), "--suite", "cm")
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] \
        == _CM_CLASS_LINES
    assert "PASS every extension full or empty" in lines
