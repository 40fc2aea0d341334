"""The package surface: ``qlprop.__all__`` is the concatenation of the
library layers' ``__all__`` lists, each name listed once, by the layer
that defines it."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import qlprop

LAYERS = ("errors", "syntax", "model", "semantics", "lattice", "hilbert",
          "quantum", "pragmatic")

# every name ``import qlprop`` gave when the package listed its names by
# hand; none of them may go
_HAND_LISTED = """
    ClassicalConnectiveInTQ ClosureCapExceeded DepthCapExceeded
    DimensionMismatch DuplicateId EnumerationCapExceeded ExtensionOutOfUniverse
    ForallMismatch HilbertDimensionMismatch InvalidDepth InvalidTolerance
    MeetJoinMissing NoHilbertAnnotation NonOrthonormalBasis NotAPartialOrder
    NotOperationClosed NotPDecidable ParseError QlpropError RankError
    SchemaError SearchCapExceeded ThetaNotInjectiveWarning UniverseTooSmall
    UnknownConnective UnknownProperty WitnessMismatchWarning
    Subspace certain_states check_tol closure_generate contains join meet
    ortho state_lattice
    FinitePoset LawCheck LawReport OrthoLattice build_poset check_boolean
    check_ortho_modular export_dot hexagon order_isomorphic powerset_lattice
    HilbertAnnotation Model build_qm_model canonical_models check_cms
    default_interpretation dump_model enumerate_interpretations
    interpretation_count load_model m_cm m_qbit m_qutrit m_sr make_model
    Justification PreservationReport assertive_preimage check_preservation
    justified to_assertive
    QProposition QTruth check_tq_equalities q_truth q_truth_classical
    sasaki_hook tq_is_true tq_physical_proposition witness_property
    LTAlgebra LTClass enumerate_formulas enumerate_tq_formulas extension_of
    extension_profile forall_proposition individual_proposition is_true
    lindenbaum_tarski logical_equiv logical_leq physical_equiv physical_leq
    physical_proposition testable_proposition_poset testable_witness
    A And Assert Atom K N Not Or QNot atoms_of format_lx format_prag format_tq
    parse_lx parse_prag parse_tq quantum_join sasaki_formula
""".split()


def _layers():
    return [importlib.import_module(f"qlprop.{name}") for name in LAYERS]


def test_package_all_is_the_concatenation_of_the_layers_lists():
    assert qlprop.__all__ == [n for mod in _layers() for n in mod.__all__]


def test_no_name_is_listed_by_two_layers():
    assert len(set(qlprop.__all__)) == len(qlprop.__all__)


def _assigned(mod) -> set[str]:
    """The names a module assigns at its top level."""
    tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                out.update(n.id for n in ast.walk(target)
                           if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out


def test_every_listed_name_is_defined_by_its_layer():
    for mod in _layers():
        assigned = _assigned(mod)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == mod.__name__, (mod.__name__, name)
            else:
                assert name in assigned, (mod.__name__, name)
            assert getattr(qlprop, name) is obj


def test_the_hand_listed_names_are_all_still_given():
    assert len(_HAND_LISTED) == 112
    assert set(_HAND_LISTED) <= set(qlprop.__all__)


def test_star_import_binds_exactly_the_package_all():
    ns: dict = {}
    exec("from qlprop import *", ns)
    assert sorted(k for k in ns if k != "__builtins__") == sorted(qlprop.__all__)


def test_a_name_left_out_of_a_layers_list_still_imports_from_it():
    from qlprop.model import HilbertAnnotation

    assert HilbertAnnotation is qlprop.HilbertAnnotation
