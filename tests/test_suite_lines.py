"""Every PASS/FAIL line that ``qlprop check`` prints can print FAIL.

One row per line: the suite, the model, a fault injected into the code
that decides the line (or none, where the line depends on the model),
and the exact FAIL line.  Each row runs through ``cli.main`` as a user
would and must exit 1.  The rows cover the qm suite's negation,
conjunction and join laws.
"""

import pytest

import qlprop.cli as cli
import qlprop.hilbert as hilbert
from qlprop.model import m_qbit

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
]


# the non-injective model warns that properties share a certain-state set
@pytest.mark.filterwarnings("ignore::qlprop.errors.ThetaNotInjectiveWarning")
@pytest.mark.parametrize("name, suite, build, fault, line", ROWS,
                         ids=[row[0] for row in ROWS])
def test_every_suite_line_can_fail(name, suite, build, fault, line,
                                   monkeypatch, run_check):
    m = build()
    if fault is not None:
        fault(monkeypatch)
    code, lines = run_check(m, "--suite", suite)
    assert code == 1
    assert line in lines
