"""Command line behavior: output, exit codes, JSON mode, error display."""

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings

import qlprop.cli as cli
import qlprop.model
import qlprop.lattice as lattice
import qlprop.semantics as semantics
from qlprop.cli import main
from qlprop.errors import QlpropError, ThetaNotInjectiveWarning
from qlprop.hilbert import Subspace
from qlprop.model import (
    HilbertAnnotation,
    dump_model,
    interpretation_count,
    m_cm,
    m_qbit,
    m_sr,
    make_model,
)

from helpers import (
    brute_force_physical,
    non_injective_qubit,
    oracle_formulas,
    oracle_individual,
    random_check_case,
    random_model,
    reference_cm_lines,
    reference_sec3_lines,
    reference_testable_labels,
)
from test_fuzz import _argv, argv_workdir  # noqa: F401 (a fixture)


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    assert main(["fixtures", "--out", str(d)]) == 0
    return d


# ---------------------------------------------------------------------------
# parse


def test_parse_ok(capsys):
    assert main(["parse", "E(x) & !(F(x) | G(x))"]) == 0
    assert capsys.readouterr().out.strip() == "E(x) & !(F(x) | G(x))"


def test_parse_canonicalizes(capsys):
    assert main(["parse", "((E(x)))&((F(x)))"]) == 0
    assert capsys.readouterr().out.strip() == "E(x) & F(x)"


def test_parse_json(capsys):
    assert main(["parse", "--json", "--lang", "ltq", "E(x) |q F(x)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lang"] == "ltq"
    assert doc["canonical"] == "~q (~q E(x) & ~q F(x))"


def test_parse_error_caret(capsys):
    assert main(["parse", "E(x) &"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("ERROR ParseError:")
    assert err[1] == "  E(x) &"
    assert err[2] == "  " + " " * 6 + "^"


def test_parse_cross_language_error(capsys):
    assert main(["parse", "E(x) |q F(x)"]) == 1
    assert "UnknownConnective" in capsys.readouterr().err


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--lang", "nope", "E(x)"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# one argument parser per process


@pytest.mark.parametrize("argv,code", [
    (["parse", "--lang", "nope", "E(x)"], 2),
    (["eval", "E(x)"], 2),
    (["--help"], 0),
    (["check", "--help"], 0),
])
def test_repeated_exit_prints_the_same_text(argv, code, capsys):
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        seen.append(capsys.readouterr())
    assert seen[0] == seen[1]
    assert (seen[0].out if code == 0 else seen[0].err).startswith("usage: qlprop")


def _reference_main(argv) -> int:
    """``main`` as one full-parser parse, then the tolerance check and
    the subcommand, with the same exit codes and error lines."""
    args = cli._build_parser().parse_args(argv)
    try:
        args.tol = cli._tol(args)
        return getattr(cli, f"cmd_{args.command}")(args)
    except QlpropError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = ("FileNotFound" if isinstance(exc, FileNotFoundError)
                else type(exc).__name__)
        print(f"ERROR {name}: {exc}", file=sys.stderr)
        return 1


def _run_in(workdir, run, argv) -> tuple:
    """Exit code, stdout and stderr of ``run(argv)`` in ``workdir``, with
    its two classical model files written afresh."""
    for name, make in (("m_sr.json", m_sr), ("m_cm.json", m_cm)):
        (workdir / name).write_text(dump_model(make()), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuch"], ["pars", "E(x)"], ["parse", "--bogus", "E(x)"],
    ["parse", "--", "E(x)"], ["parse", "-h"],
    ["--tol", "1e-9", "parse", "E(x)"], ["parse", "E(x)", "extra"],
], ids=repr)
def test_argv_dispatch_matches_the_full_parser(argv_workdir, argv):
    got = _run_in(argv_workdir, main, argv)
    assert got == _run_in(argv_workdir, _reference_main, argv)


@given(words=_argv())
@settings(max_examples=150, deadline=None)
def test_generated_argv_matches_the_full_parser(argv_workdir, words):
    assert _run_in(argv_workdir, main, words) \
        == _run_in(argv_workdir, _reference_main, words)


def test_subcommand_is_looked_up_at_call_time(monkeypatch, capsys):
    assert main(["parse", "E(x)"]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_parse", lambda args: calls.append(args) or 7)
    assert main(["parse", "F(x)"]) == 7
    assert [a.formula for a in calls] == ["F(x)"]
    monkeypatch.undo()
    assert main(["parse", "G(x)"]) == 0
    assert capsys.readouterr().out == "E(x)\nG(x)\n"


def test_options_do_not_leak_into_later_calls(models_dir, monkeypatch, capsys):
    assert main(["parse", "--json", "--lang", "ltq", "~q E(x)"]) == 0
    assert json.loads(capsys.readouterr().out)["canonical"] == "~q E(x)"
    assert main(["parse", "~E(x)"]) == 0
    assert capsys.readouterr().out == "!E(x)\n"
    model = str(models_dir / "m_sr.json")
    assert main(["eval", "--json", "--model", model, "--state", "S1",
                 "--object", "u2", "E(x)"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "F"
    # the default object at S1 is u1
    assert main(["eval", "--model", model, "--state", "S1", "E(x)"]) == 0
    assert capsys.readouterr().out == "T\n"
    # the tolerance is read per call, from the flag or the environment
    monkeypatch.setenv("QLPROP_TOL", "1")
    assert main(["parse", "E(x)"]) == 1
    assert "InvalidTolerance: QLPROP_TOL" in capsys.readouterr().err
    assert main(["parse", "--tol", "1e-6", "E(x)"]) == 0
    monkeypatch.delenv("QLPROP_TOL")
    assert main(["parse", "E(x)"]) == 0
    assert capsys.readouterr().out == "E(x)\nE(x)\n"


# ---------------------------------------------------------------------------
# eval


def test_eval_classical(models_dir, capsys):
    assert main(["eval", "--model", str(models_dir / "m_sr.json"),
                 "--state", "S1", "--object", "u1", "E(x) & !F(x)"]) == 0
    assert capsys.readouterr().out.strip() == "T"
    assert main(["eval", "--model", str(models_dir / "m_sr.json"),
                 "--state", "S1", "--object", "u2", "E(x)"]) == 0
    assert capsys.readouterr().out.strip() == "F"


def test_eval_interp(models_dir, capsys):
    assert main(["eval", "--model", str(models_dir / "m_sr.json"),
                 "--state", "S1", "--interp", "S1=u2,S2=v1", "F(x)"]) == 0
    assert capsys.readouterr().out.strip() == "T"


def test_eval_qtruth(models_dir, capsys):
    base = ["eval", "--model", str(models_dir / "m_qbit.json"), "--qtruth"]
    assert main(base + ["--state", "Sx+", "Ez+(x)"]) == 0
    assert capsys.readouterr().out.strip() == "QIndeterminate"
    assert main(base + ["--state", "Sz+", "Ez+(x)"]) == 0
    assert capsys.readouterr().out.strip() == "QTrue"
    assert main(base + ["--lang", "ltq", "--state", "Sz-", "~q Ez+(x)"]) == 0
    assert capsys.readouterr().out.strip() == "QTrue"


def test_eval_qtruth_untestable(models_dir, capsys):
    assert main(["eval", "--model", str(models_dir / "m_qbit.json"),
                 "--qtruth", "--state", "Sz+", "Ez+(x) & Ez-(x)"]) == 0
    assert capsys.readouterr().out.strip() == "Untestable"


def test_eval_pragmatic(models_dir, capsys):
    assert main(["eval", "--model", str(models_dir / "m_qbit.json"),
                 "--lang", "prag", "--state", "Sz+", "|- Ez+(x)"]) == 0
    assert capsys.readouterr().out.strip() == "Justified"
    assert main(["eval", "--model", str(models_dir / "m_qbit.json"),
                 "--lang", "prag", "--state", "Sx+", "|- Ez+(x)"]) == 0
    assert capsys.readouterr().out.strip() == "Unjustified"


def _refuses_eval(models_dir, capsys, argv, message):
    assert main(["eval", "--model", str(models_dir / "m_qbit.json"),
                 "--state", "Sz+", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR QlpropError: {message}\n"


def test_eval_prag_refuses_qtruth(models_dir, capsys):
    _refuses_eval(models_dir, capsys, ["--lang", "prag", "--qtruth",
                                       "|- Ez+(x)"],
                  "--qtruth cannot be used with --lang prag")


def test_eval_qtruth_refuses_object(models_dir, capsys):
    _refuses_eval(models_dir, capsys, ["--qtruth", "--object", "o1",
                                       "Ez+(x)"],
                  "--object cannot be used with --qtruth")


def test_eval_qtruth_refuses_interp(models_dir, capsys):
    _refuses_eval(models_dir, capsys, ["--lang", "ltq", "--qtruth",
                                       "--interp", "Sz+=o1", "Ez+(x)"],
                  "--interp cannot be used with --qtruth")


def test_eval_prag_refuses_object(models_dir, capsys):
    _refuses_eval(models_dir, capsys, ["--lang", "prag", "--object", "o1",
                                       "|- Ez+(x)"],
                  "--object cannot be used with --lang prag")


def test_eval_prag_refuses_interp(models_dir, capsys):
    _refuses_eval(models_dir, capsys, ["--lang", "prag", "--interp",
                                       "Sz+=o1", "|- Ez+(x)"],
                  "--interp cannot be used with --lang prag")


def _refuses_unread(tmp_path, capsys, argv, message):
    # the model file does not exist: a refusal made after reading it
    # would end in ERROR FileNotFound instead
    model = str(tmp_path / "missing.json")
    assert main([a.replace("{model}", model) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR QlpropError: {message}\n"


def test_eval_refuses_object_with_interp(models_dir, tmp_path, capsys):
    _refuses_unread(tmp_path, capsys,
                    ["eval", "--model", "{model}", "--state", "S1",
                     "--object", "u2", "--interp", "S1=u1", "E(x)"],
                    "--object cannot be used with --interp")
    _refuses_eval(models_dir, capsys, ["--object", "o1", "--interp",
                                       "Sz+=o1", "Ez+(x)"],
                  "--object cannot be used with --interp")


def test_eval_unknown_state(models_dir, capsys):
    assert main(["eval", "--model", str(models_dir / "m_sr.json"),
                 "--state", "S9", "E(x)"]) == 1
    assert "ERROR" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# props


def test_props_physical(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_sr.json"),
                 "E(x)"]) == 0
    assert capsys.readouterr().out.strip() == "{S2}"


def test_props_individual(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_sr.json"),
                 "--individual", "S1=u1,S2=v1", "E(x)"]) == 0
    assert capsys.readouterr().out.strip() == "{S1, S2}"


@pytest.mark.parametrize("command", [
    ["eval", "--state", "S1", "--interp"], ["props", "--individual"]])
def test_interpretation_refuses_a_state_named_twice(models_dir, capsys,
                                                     command):
    # the entries disagree on S1; neither may silently win
    argv = [command[0], "--model", str(models_dir / "m_sr.json"),
            *command[1:], "S1=u1, S1 =u2", "E(x)"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ERROR QlpropError: state 'S1' named twice in "
                            "the interpretation\n")


def test_props_forall(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_sr.json"),
                 "--forall", "E(x) | F(x)"]) == 0
    out = capsys.readouterr().out
    assert "{S1, S2}" in out
    assert "matches per-state form: yes" in out


def test_props_forall_enum_cap_is_read(models_dir, capsys):
    # m_sr has two interpretations
    assert main(["props", "--model", str(models_dir / "m_sr.json"),
                 "--forall", "--enum-cap", "1", "E(x)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR EnumerationCapExceeded: ")
    assert main(["props", "--model", str(models_dir / "m_sr.json"),
                 "--forall", "--enum-cap", "2", "E(x)"]) == 0
    assert capsys.readouterr().out.startswith("{S2}\n")


def test_props_refuses_enum_cap_without_forall(tmp_path, capsys):
    _refuses_unread(tmp_path, capsys,
                    ["props", "--model", "{model}", "--enum-cap", "5",
                     "E(x)"],
                    "--enum-cap requires --forall")


@pytest.mark.parametrize("cap", ["-1", "-7"])
def test_props_refuses_a_negative_enum_cap(tmp_path, capsys, cap):
    # was read as a cap: "2 interpretations exceed the cap -1"
    _refuses_unread(tmp_path, capsys,
                    ["props", "--model", "{model}", "--forall", "--enum-cap",
                     cap, "E(x)"],
                    f"--enum-cap {cap} is negative")


@pytest.mark.parametrize("command", [
    ["parse", "E(x)"], ["eval", "--model", "m.json", "--state", "S1", "E(x)"],
    ["check", "--model", "m.json", "--suite", "sec3"],
    ["lattice", "--model", "m.json", "--which", "LS"],
    ["fixtures"],
])
def test_enum_cap_is_a_usage_error_outside_props(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--enum-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --enum-cap 5" in capsys.readouterr().err


def test_props_quantum(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_qbit.json"),
                 "--lang", "ltq", "--physical", "Ez+(x) |q Ez-(x)"]) == 0
    assert capsys.readouterr().out.strip() == "{Sz+, Sz-, Sx+, Sx-}"


def test_props_quantum_without_a_flag_is_physical(models_dir, capsys):
    # --physical is the documented default for both languages
    args = ["props", "--model", str(models_dir / "m_qbit.json"),
            "--lang", "ltq", "Ez+(x) |q Ez-(x)"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "{Sz+, Sz-, Sx+, Sx-}"
    assert main(args[:-1] + ["--json", "Ez+(x)"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "props", "kind": "physical", "states": ["Sz+"]}


def test_props_quantum_rejects_forall(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_qbit.json"),
                 "--lang", "ltq", "--forall", "Ez+(x)"]) == 1
    assert capsys.readouterr().err == (
        "ERROR QlpropError: quantum formulas support --physical only\n")


def test_props_quantum_rejects_individual(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_qbit.json"),
                 "--lang", "ltq", "--individual", "Sz+=o1", "Ez+(x)"]) == 1
    assert "ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--forall"], ["--individual", "Sz+=o1"]],
                         ids=["forall", "individual"])
def test_props_quantum_refuses_other_flags_before_reading_the_model(
        tmp_path, capsys, flag):
    _refuses_unread(tmp_path, capsys,
                    ["props", "--model", "{model}", "--lang", "ltq", *flag,
                     "Ez+(x)"],
                    "quantum formulas support --physical only")


def test_props_json(models_dir, capsys):
    assert main(["props", "--json", "--model", str(models_dir / "m_sr.json"),
                 "E(x)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "physical"
    assert doc["states"] == ["S2"]


# ---------------------------------------------------------------------------
# check suites


def test_check_sec3(models_dir, capsys):
    assert main(["check", "--model", str(models_dir / "m_sr.json"),
                 "--suite", "sec3"]) == 0
    out = capsys.readouterr().out
    assert "PASS negation proposition below set complement" in out
    assert "PASS conjunction proposition equals intersection" in out
    assert "PASS disjunction proposition above union" in out
    assert "REPORT strict disjunction inclusion" in out


def _sec3_lines(m, depth):
    out = cli._Suite()
    cli._suite_sec3(m, depth, out)
    return out.lines


@pytest.mark.parametrize("seed", range(60))
def test_sec3_suite_matches_the_formula_pair_loop(seed):
    m, depth = random_check_case(seed)
    assert _sec3_lines(m, depth) == reference_sec3_lines(m, depth)


@pytest.mark.parametrize("seed", range(60))
def test_cm_suite_matches_the_per_formula_loop(seed):
    # every line of the suite, its quotient-algebra laws included, with
    # and without --assume-cmt
    m, depth = random_check_case(seed)
    for assume_cmt in (False, True):
        out = cli._Suite()
        cli._suite_cm(m, depth, assume_cmt, out)
        assert out.lines == reference_cm_lines(m, depth, assume_cmt)


@pytest.mark.parametrize("seed", range(60))
def test_testable_poset_matches_the_per_formula_loop(seed):
    m, depth = random_check_case(seed)
    assert list(semantics.testable_proposition_poset(m, depth).labels) \
        == reference_testable_labels(m, depth)


@pytest.mark.parametrize("fixture", [m_sr, m_cm])
def test_sec3_suite_matches_the_formula_pair_loop_at_depth_3(fixture):
    m = fixture()
    lines = _sec3_lines(m, 3)
    assert lines == reference_sec3_lines(m, 3)
    if fixture is m_sr:
        assert lines[-1].startswith("REPORT strict disjunction inclusion at")


def test_check_cm_passes_on_cm_fixture(models_dir, capsys):
    assert main(["check", "--model", str(models_dir / "m_cm.json"),
                 "--suite", "cm"]) == 0
    out = capsys.readouterr().out
    assert "PASS every extension full or empty" in out
    assert "FAIL" not in out


def test_check_cm_fails_on_sr_fixture(models_dir, capsys):
    assert main(["check", "--model", str(models_dir / "m_sr.json"),
                 "--suite", "cm"]) == 1
    assert "FAIL every extension full or empty" in capsys.readouterr().out


def test_check_cm_builds_one_quotient_poset(models_dir, monkeypatch, capsys):
    # only the closed algebra's poset is read; the depth-2 quotient it
    # is derived from is never ordered
    sizes = []

    def counting(elements, *a, **k):
        sizes.append(len(elements))
        return inclusion(elements, *a, **k)

    inclusion = semantics._inclusion
    monkeypatch.setattr(semantics, "_inclusion", counting)
    assert main(["check", "--model", str(models_dir / "m_cm.json"),
                 "--suite", "cm"]) == 0
    assert sizes == [8]


@pytest.mark.parametrize("argv, model, depths", [
    (["check", "--suite", "cm"], "m_cm", [2]),
    (["lattice", "--which", "testable"], "m_qutrit", []),
])
def test_classical_questions_walk_the_formulas_once_at_most(
        argv, model, depths, models_dir, monkeypatch, capsys):
    # the cm suite's law checks close its depth-2 classes, and the
    # testable poset reads the atoms, so neither walks depth 3
    seen = []

    def recording(atoms, depth, *a, **k):
        seen.append(depth)
        return levels(atoms, depth, *a, **k)

    levels = semantics._levels
    monkeypatch.setattr(semantics, "_levels", recording)
    assert main([argv[0], "--model", str(models_dir / f"{model}.json"),
                 *argv[1:], "--depth", "3"]) == 0
    assert seen == depths


def _cm128():
    # seven objects of seven distinct property types: the atoms cut the
    # seven slots into seven cells, so the closed quotient has 2^7 classes
    universes = {"S1": ["a1", "a2", "a3"], "S2": ["b1", "b2"],
                 "S3": ["c1", "c2"]}
    props = ["E1", "E2", "E3"]
    slots = [(s, o) for s, objs in universes.items() for o in objs]
    types = list(itertools.product((0, 1), repeat=3))[1:]
    ext = {s: {e: [] for e in props} for s in universes}
    for (s, o), ty in zip(slots, types):
        for e, bit in zip(props, ty):
            if bit:
                ext[s][e].append(o)
    return make_model(list(universes), universes, props, ext)


@pytest.mark.parametrize("name, classes", [("cm128", 128), ("m_qutrit", 512)])
def test_check_cm_formats_no_label_and_decodes_no_profile(
        name, classes, models_dir, tmp_path, monkeypatch, capsys):
    # the law checks of the closed quotient pass or fail on its order
    # alone, so no class label is formatted and no profile decoded
    if name == "cm128":
        path = tmp_path / "cm128.json"
        path.write_text(dump_model(_cm128()), encoding="utf-8")
    else:
        path = models_dir / f"{name}.json"
    m = qlprop.model.load_model(path.read_text(encoding="utf-8"))
    assert len(semantics.lindenbaum_tarski(m, 3).closed().classes) == classes
    calls = []
    fmt = semantics.format_lx
    decode = semantics.ProfileKernel.decode

    def counting_format(f):
        calls.append("format_lx")
        return fmt(f)

    def counting_decode(kernel, v):
        calls.append("decode")
        return decode(kernel, v)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("qlprop")
                and getattr(mod, "format_lx", None) is fmt):
            monkeypatch.setattr(mod, "format_lx", counting_format)
    monkeypatch.setattr(semantics.ProfileKernel, "decode", counting_decode)
    # both models have proper extensions, so the first cm line fails
    assert main(["check", "--model", str(path), "--suite", "cm"]) == 1
    out = capsys.readouterr().out
    assert "PASS quotient algebra law unique_complement" in out
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["check", "--model", "m_cm", "--suite", "cm"],
    ["check", "--model", "m_sr", "--suite", "sec3"],
    ["lattice", "--model", "m_qbit", "--which", "lindenbaum"],
    ["lattice", "--model", "m_qbit", "--which", "testable"],
])
def test_classical_commands_build_no_formulas_or_interpretations(
        argv, models_dir, monkeypatch, capsys):
    # the quotient counts its classes and the collapse check is one
    # mask test; every qlprop module that binds either function gets a
    # counting stand-in, so a call through any import is seen
    calls = []
    for fn in (semantics.enumerate_formulas,
               qlprop.model.enumerate_interpretations):
        def counting(*a, _fn=fn, **k):
            calls.append(_fn.__name__)
            return _fn(*a, **k)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("qlprop")
                    and getattr(mod, fn.__name__, None) is fn):
                monkeypatch.setattr(mod, fn.__name__, counting)
    argv = [str(models_dir / f"{a}.json") if a.startswith("m_") else a
            for a in argv]
    assert main(argv) == 0
    assert calls == []


def test_check_cm_assume_cmt_flags_missing_witnesses(models_dir, capsys):
    assert main(["check", "--model", str(models_dir / "m_cm.json"),
                 "--suite", "cm", "--assume-cmt"]) == 1
    assert "FAIL every formula testable" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["sec3", "qm", "prag"])
def test_check_refuses_assume_cmt_without_cm(suite, tmp_path, capsys):
    _refuses_unread(tmp_path, capsys,
                    ["check", "--model", "{model}", "--suite", suite,
                     "--assume-cmt"],
                    "--assume-cmt requires --suite cm")


def test_check_qm(models_dir, capsys):
    assert main(["check", "--model", str(models_dir / "m_qbit.json"),
                 "--suite", "qm"]) == 0
    out = capsys.readouterr().out
    assert "PASS state lattice law orthomodular" in out
    assert "distributive_meet_over_join: fails at" in out
    assert "PASS negation proposition is the lattice orthocomplement" in out
    assert "REPORT join strictly above union" in out


_NON_INJECTIVE_QM = [
    "PASS state lattice law ortho_involution",
    "PASS state lattice law ortho_order_reversal",
    "PASS state lattice law ortho_complement",
    "PASS state lattice law orthomodular",
    "PASS state lattice law atomic",
    "PASS state lattice law atomistic",
    "PASS state lattice law covering",
    "REPORT modularity: holds",
    "REPORT distributive_meet_over_join: holds",
    "REPORT distributive_join_over_meet: holds",
    "FAIL negation proposition is the lattice orthocomplement: "
    "first 'Ex+(x)'",
    "PASS conjunction proposition is the lattice meet",
    "FAIL disjunction proposition is the lattice join: "
    "first ('Ez+(x)', 'Ex+(x)')",
    "REPORT join strictly above union at ('Ez+(x)', 'Ex+(x)')",
    "REPORT certain-state map injective: no",
]


def test_check_qm_fails_on_a_non_injective_model(tmp_path):
    path = tmp_path / "non_injective.json"
    path.write_text(dump_model(non_injective_qubit()))
    argv = [sys.executable, "-m", "qlprop", "check", "--model", str(path),
            "--suite", "qm"]
    out = subprocess.run(argv, capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stdout == "".join(f"{line}\n" for line in _NON_INJECTIVE_QM)
    # each warning is one line, without a source path or source line
    warned = "".join(
        f"WARNING ThetaNotInjectiveWarning: properties 'E0' and {e!r} share "
        f"the certain-state set; using the first\n" for e in ("Ex+", "Ex-"))
    assert out.stderr == warned
    out = subprocess.run(argv + ["--json"], capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stdout == json.dumps(
        {"command": "check", "suite": "qm", "ok": False,
         "lines": _NON_INJECTIVE_QM}, indent=2) + "\n"
    assert out.stderr == warned


def test_check_prag(models_dir, capsys):
    assert main(["check", "--model", str(models_dir / "m_qbit.json"),
                 "--suite", "prag"]) == 0
    assert "PASS assertive translation preserves" in capsys.readouterr().out


def test_check_json_reports_ok(models_dir, capsys):
    assert main(["check", "--json", "--model", str(models_dir / "m_cm.json"),
                 "--suite", "cm"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert any(line.startswith("PASS") for line in doc["lines"])


# ---------------------------------------------------------------------------
# lattice


def test_lattice_ls(models_dir, capsys, tmp_path):
    dot = tmp_path / "ls.dot"
    assert main(["lattice", "--model", str(models_dir / "m_qbit.json"),
                 "--which", "LS", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "elements (6):" in out
    assert "covers (8):" in out
    text = dot.read_text()
    assert text.startswith("digraph {\n  rankdir=BT;\n")
    assert '"{Sz+}"' in text


@pytest.mark.parametrize("which", ["LS", "testable"])
def test_lattice_refuses_closed_without_lindenbaum(which, tmp_path, capsys):
    _refuses_unread(tmp_path, capsys,
                    ["lattice", "--model", "{model}", "--which", which,
                     "--closed"],
                    "--closed requires --which lindenbaum")


def test_lattice_testable(models_dir, capsys):
    assert main(["lattice", "--model", str(models_dir / "m_sr.json"),
                 "--which", "testable", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "elements (2):" in out
    assert "{} < {S2}" in out


def test_lattice_lindenbaum_json(models_dir, capsys):
    assert main(["lattice", "--json", "--model", str(models_dir / "m_sr.json"),
                 "--which", "lindenbaum", "--depth", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 4
    assert len(doc["covers"]) == 4  # the four edges of a 2x2 square


# ---------------------------------------------------------------------------
# a formula depth below 1 is refused, not checked over no formulas


def _refuses_depth(argv, capsys):
    for extra in ([], ["--json"]):
        assert main(argv + extra) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("ERROR InvalidDepth: depth ")


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_check_sec3_refuses_depth_below_one(depth, models_dir, capsys):
    # printed three PASS lines over no formulas
    _refuses_depth(["check", "--model", str(models_dir / "m_sr.json"),
                    "--suite", "sec3", "--depth", depth], capsys)


@pytest.mark.parametrize("model", ["m_sr", "m_qbit"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_check_cm_refuses_depth_below_one(model, depth, models_dir, capsys):
    # failed quotient algebra laws with "witness None"
    _refuses_depth(["check", "--model", str(models_dir / f"{model}.json"),
                    "--suite", "cm", "--depth", depth], capsys)


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_check_qm_refuses_depth_below_one(depth, models_dir, capsys):
    # passed the three lattice equalities over no formulas
    _refuses_depth(["check", "--model", str(models_dir / "m_qbit.json"),
                    "--suite", "qm", "--depth", depth], capsys)


@pytest.mark.parametrize("model", ["m_sr", "m_qbit"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_check_prag_refuses_depth_below_one(model, depth, models_dir, capsys):
    # passed on 0 formulas; on m_sr that hid NoHilbertAnnotation
    _refuses_depth(["check", "--model", str(models_dir / f"{model}.json"),
                    "--suite", "prag", "--depth", depth], capsys)


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_lattice_testable_refuses_depth_below_one(depth, models_dir, capsys):
    # printed an empty poset with exit 0
    _refuses_depth(["lattice", "--model", str(models_dir / "m_sr.json"),
                    "--which", "testable", "--depth", depth], capsys)


@pytest.mark.parametrize("model", ["m_qbit", "m_sr"])
@pytest.mark.parametrize("depth", ["0", "-3"])
def test_lattice_LS_refuses_depth_below_one(model, depth, models_dir, capsys):
    # printed the state lattice, which does not read --depth, and exited 0
    _refuses_depth(["lattice", "--model", str(models_dir / f"{model}.json"),
                    "--which", "LS", "--depth", depth], capsys)


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_lattice_lindenbaum_refuses_depth_below_one(depth, models_dir, capsys):
    _refuses_depth(["lattice", "--model", str(models_dir / "m_sr.json"),
                    "--which", "lindenbaum", "--depth", depth], capsys)


# the depth cap is one constant: every command that enumerates formulas
# refuses depth 5 with the same text, and LS, which enumerates none, runs

_ENUMERATING = [
    ("check", "m_sr", "--suite", "sec3"),
    ("check", "m_sr", "--suite", "cm"),
    ("check", "m_qbit", "--suite", "qm"),
    ("check", "m_qbit", "--suite", "prag"),
    ("lattice", "m_sr", "--which", "testable"),
    ("lattice", "m_sr", "--which", "lindenbaum"),
]


@pytest.mark.parametrize("command, model, flag, value", _ENUMERATING)
def test_enumerating_commands_refuse_depth_above_the_cap(
        command, model, flag, value, models_dir, capsys):
    argv = [command, "--model", str(models_dir / f"{model}.json"),
            flag, value, "--depth", "5"]
    for extra in ([], ["--json"]):
        assert main(argv + extra) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "ERROR DepthCapExceeded: depth 5 exceeds the cap 4\n"


def test_lattice_LS_ignores_the_depth_cap(models_dir, capsys):
    argv = ["lattice", "--model", str(models_dir / "m_qbit.json"),
            "--which", "LS"]
    assert main(argv) == 0
    want = capsys.readouterr()
    assert main(argv + ["--depth", "5"]) == 0
    assert capsys.readouterr() == want


# ---------------------------------------------------------------------------
# global options


def test_missing_model_file_is_domain_error(capsys):
    assert main(["props", "--model", "/no/such/file.json", "E(x)"]) == 1
    assert "ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("path, name", [
    ("{models}", "IsADirectoryError"),
    ("{models}/no_such_file.json", "FileNotFound"),
])
def test_unreadable_model_is_exit_1_without_traceback(path, name, models_dir,
                                                       capsys):
    path = path.replace("{models}", str(models_dir))
    assert main(["eval", "--model", path, "--state", "S1", "E(x)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {name}: ") and path in err
    assert "Traceback" not in err


def test_tol_env_var(tmp_path, monkeypatch, capsys):
    # tilt the Sz+ ray by 1e-6: at the default tolerance it no longer
    # lies inside the Ez+ subspace, at a loosened tolerance it does
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"]["state_rays"]["Sz+"] = [[1.0, 0.0], [1e-6, 0.0]]
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(doc))
    args = ["props", "--model", str(path), "--lang", "ltq", "--physical",
            "Ez+(x)"]
    monkeypatch.delenv("QLPROP_TOL", raising=False)
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "{}"
    monkeypatch.setenv("QLPROP_TOL", "1e-3")
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "{Sz+}"
    # an explicit flag beats the environment
    monkeypatch.setenv("QLPROP_TOL", "1e-12")
    assert main(args + ["--tol", "1e-3"]) == 0
    assert capsys.readouterr().out.strip() == "{Sz+}"


@pytest.mark.parametrize("argv", [
    ["parse", "E(x)"],
    ["fixtures", "--out", "{out}"],
    ["eval", "--model", "{model}", "--state", "S1", "E(x)"],
    ["props", "--model", "{model}", "E(x)"],
    ["check", "--model", "{model}", "--suite", "sec3"],
    ["lattice", "--model", "{model}", "--which", "testable"],
])
def test_bad_env_tolerance_fails_every_subcommand(models_dir, tmp_path,
                                                  monkeypatch, capsys, argv):
    out = tmp_path / "out"
    argv = [a.format(model=models_dir / "m_sr.json", out=out) for a in argv]
    monkeypatch.setenv("QLPROP_TOL", "1")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR InvalidTolerance: QLPROP_TOL")
    assert not out.exists()


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "5", "-1e-6", "0",
                                 "1e-17", "2e-3"])
def test_out_of_range_tol_is_domain_error(models_dir, monkeypatch, capsys,
                                          bad):
    args = ["props", "--model", str(models_dir / "m_qutrit.json"),
            "--lang", "ltq", "--physical", "P1(x)"]
    monkeypatch.setenv("QLPROP_TOL", bad)
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(
        "ERROR InvalidTolerance: QLPROP_TOL")
    monkeypatch.delenv("QLPROP_TOL")
    if bad != "abc":  # argparse rejects a non-number flag as a usage error
        assert main(args + [f"--tol={bad}"]) == 1
        assert capsys.readouterr().err.startswith(
            "ERROR InvalidTolerance: --tol")


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "qlprop", "parse", "E(x) & F(x)"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "E(x) & F(x)"


# ---------------------------------------------------------------------------
# closed output pipe and malformed model files


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_is_exit_1_without_traceback(models_dir, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["lattice", "--model", str(models_dir / "m_qbit.json"),
                 "--which", "lindenbaum", "--closed"])
    monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""


def test_broken_pipe_in_a_real_pipe():
    # the read end is closed before the child writes anything, so its
    # first write or the final flush fails with EPIPE
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlprop", "parse", "E(x) & F(x)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == ""


def test_malformed_hilbert_section_is_schema_error(tmp_path, capsys):
    doc = json.loads(dump_model(m_qbit()))
    doc["hilbert"]["state_rays"] = [[[1.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["props", "--model", str(path), "--lang", "ltq",
                 "--physical", "Ez+(x)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR SchemaError: ")
    assert "state_rays" in err
    assert "Traceback" not in err


def test_check_qm_builds_the_state_lattice_once(tmp_path, capsys):
    # the ray of S lies in neither coordinate axis, so E0, P and Pp share
    # the empty certain-state set: one state lattice warns twice
    ann = HilbertAnnotation(
        2, {"S": Subspace.ray([0.6, 0.8])},
        {"E0": Subspace.zero(2), "P": Subspace.ray([1, 0]),
         "Pp": Subspace.ray([0, 1]), "EI": Subspace.full(2)})
    m = make_model(["S"], {"S": ["a", "b"]}, ["E0", "P", "Pp", "EI"],
                   {"S": {"E0": [], "P": ["a"], "Pp": ["b"], "EI": ["a", "b"]}},
                   hilbert=ann)
    path = tmp_path / "non_injective.json"
    path.write_text(dump_model(m))
    for _ in range(2):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            main(["check", "--model", str(path), "--suite", "qm"])
        assert [str(w.message) for w in rec
                if w.category is ThetaNotInjectiveWarning] == [
            "properties 'E0' and 'P' share the certain-state set; using the first",
            "properties 'E0' and 'Pp' share the certain-state set; using the first",
        ]
    assert "certain-state map injective: no" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "--model", "{models}/m_qbit.json", "--suite", "qm"],
    ["check", "--model", "{models}/m_qutrit.json", "--suite", "qm"],
    ["lattice", "--model", "{models}/m_qbit.json", "--which", "LS"],
    ["check", "--model", "{models}/m_cm.json", "--suite", "cm"],
])
def test_a_run_builds_its_poset_tables_and_covers_once(
        argv, models_dir, monkeypatch, capsys):
    # one glb/lub table each for the meet and the join, one cover matrix
    counts = {"_glb_table": 0, "_cover_matrix": 0}
    for name in counts:
        real = getattr(lattice, name)

        def counted(leq, name=name, real=real):
            counts[name] += 1
            return real(leq)

        monkeypatch.setattr(lattice, name, counted)
    assert main([a.replace("{models}", str(models_dir)) for a in argv]) == 0
    capsys.readouterr()
    assert counts == {"_glb_table": 2, "_cover_matrix": 1}


# ---------------------------------------------------------------------------
# size limits of parsed formulas

_SASAKI_30 = " ->q ".join(["Ez+(x)"] * 31)
_OVERSIZED = {
    "parentheses": ["parse", "(" * 3000 + "E(x)" + ")" * 3000],
    "negations": ["parse", "!" * 3000 + "E(x)"],
    "conjunctions": ["parse", " & ".join(["E(x)"] * 3000)],
    "sasaki-parse": ["parse", "--lang", "ltq", _SASAKI_30],
    "sasaki-eval": ["eval", "--model", "{models}/m_qbit.json", "--lang", "ltq",
                    "--state", "Sx+", "--qtruth", _SASAKI_30],
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED))
def test_oversized_formula_is_a_parse_error(name, models_dir, capsys):
    argv = [a.replace("{models}", str(models_dir)) for a in _OVERSIZED[name]]
    t0 = time.perf_counter()
    assert main(argv) == 1
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert err.startswith("ERROR ParseError: ")
    assert "Traceback" not in err
    assert elapsed < 1.0


def test_check_cm_collapse_sees_the_last_state(tmp_path, capsys):
    # the only proper extension is E in S3, so the interpretations that
    # split the propositions differ in the last state alone
    m = make_model(["S1", "S2", "S3"],
                   {"S1": ["a"], "S2": ["b1", "b2"], "S3": ["c1", "c2"]},
                   ["E"],
                   {"S1": {"E": ["a"]}, "S2": {"E": []}, "S3": {"E": ["c1"]}})
    path = tmp_path / "last.json"
    path.write_text(dump_model(m), encoding="utf-8")
    assert main(["check", "--model", str(path), "--suite", "cm"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL every extension full or empty: witness ('S3', 'E')"
    assert "FAIL individual propositions collapse to physical" in out


_COLLAPSE = "individual propositions collapse to physical"


def _oracle_collapse(m, depth) -> bool:
    """Whether every individual proposition equals the physical one, over
    every interpretation and every formula of the suite's depth."""
    formulas = oracle_formulas(m.properties, min(depth, 2))
    physical = [brute_force_physical(m, f) for f in formulas]
    for combo in itertools.product(*(m.universes[s] for s in m.states)):
        interp = dict(zip(m.states, combo))
        if any(oracle_individual(m, interp, f) != p
               for f, p in zip(formulas, physical)):
            return False
    return True


def _collapse_line(m, depth, tmp_path, capsys) -> str:
    path = tmp_path / "model.json"
    path.write_text(dump_model(m), encoding="utf-8")
    main(["check", "--model", str(path), "--suite", "cm",
          "--depth", str(depth)])
    lines = capsys.readouterr().out.splitlines()
    return next(line for line in lines if line.endswith(_COLLAPSE))


@pytest.mark.parametrize("seed", range(40))
def test_check_cm_collapse_matches_oracle(seed, tmp_path, capsys):
    rng = random.Random(seed)
    m = random_model(rng, max_states=5, max_objects=4, max_props=3,
                     cms=seed % 3 == 0)
    depth = rng.choice([1, 2])
    tag = "PASS" if _oracle_collapse(m, depth) else "FAIL"
    assert _collapse_line(m, depth, tmp_path, capsys) == f"{tag} {_COLLAPSE}"


def test_check_cm_collapse_fails_at_one_interpretation(tmp_path, capsys):
    # E holds of c2 alone, so of the two interpretations only the last,
    # which picks c2, splits the propositions.  With negations (depth 2
    # and up) every pick in S3 would split them, through E or through !E.
    m = make_model(["S1", "S2", "S3"],
                   {"S1": ["a"], "S2": ["b"], "S3": ["c1", "c2"]},
                   ["E", "F"],
                   {"S1": {"E": ["a"], "F": []},
                    "S2": {"E": [], "F": ["b"]},
                    "S3": {"E": ["c2"], "F": ["c1", "c2"]}})
    assert interpretation_count(m) == 2
    assert not _oracle_collapse(m, 1)
    assert _collapse_line(m, 1, tmp_path, capsys) == f"FAIL {_COLLAPSE}"


@pytest.mark.parametrize("sizes", [(10, 10, 10, 10), (73, 137)])
def test_check_cm_collapse_line_is_gated_at_10_000_interpretations(
        sizes, tmp_path, capsys):
    # the collapse is decided without enumerating interpretations, but
    # the line still appears only up to 10**4 of them (10,001 = 73 * 137)
    states = [f"S{i + 1}" for i in range(len(sizes))]
    universes = {s: [f"o{j}" for j in range(n)]
                 for s, n in zip(states, sizes)}
    m = make_model(states, universes, ["E"],
                   {s: {"E": u[:1] if s == "S1" else u}
                    for s, u in universes.items()})
    count = interpretation_count(m)
    assert count in (10 ** 4, 10 ** 4 + 1)
    path = tmp_path / "model.json"
    path.write_text(dump_model(m), encoding="utf-8")
    assert main(["check", "--model", str(path), "--suite", "cm"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.endswith(_COLLAPSE)]
    assert lines == ([f"FAIL {_COLLAPSE}"] if count == 10 ** 4 else [])


@pytest.mark.parametrize("argv", [
    ["check", "--model", "m\0.json", "--suite", "cm"],
    ["lattice", "--model", "@", "--which", "LS", "--dot", "g\0.dot"],
    ["fixtures", "--out", "d\0"],
])
def test_nul_in_a_path_is_exit_1_without_traceback(argv, models_dir,
                                                    capsys):
    argv = [str(models_dir / "m_qbit.json") if w == "@" else w for w in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR QlpropError: ")
    assert "NUL character" in err and "Traceback" not in err
