"""Command line behavior: output, exit codes, JSON mode, error display."""

import json
import subprocess
import sys
import time
import warnings

import pytest

import qlprop.cli as cli
from qlprop.cli import main
from qlprop.errors import ThetaNotInjectiveWarning
from qlprop.hilbert import Subspace
from qlprop.model import HilbertAnnotation, dump_model, m_qbit, make_model


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


def test_props_forall(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_sr.json"),
                 "--forall", "E(x) | F(x)"]) == 0
    out = capsys.readouterr().out
    assert "{S1, S2}" in out
    assert "matches per-state form: yes" in out


def test_props_quantum(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_qbit.json"),
                 "--lang", "ltq", "--physical", "Ez+(x) |q Ez-(x)"]) == 0
    assert capsys.readouterr().out.strip() == "{Sz+, Sz-, Sx+, Sx-}"


def test_props_quantum_rejects_individual(models_dir, capsys):
    assert main(["props", "--model", str(models_dir / "m_qbit.json"),
                 "--lang", "ltq", "--individual", "Sz+=o1", "Ez+(x)"]) == 1
    assert "ERROR" in capsys.readouterr().err


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


def test_check_cm_assume_cmt_flags_missing_witnesses(models_dir, capsys):
    assert main(["check", "--model", str(models_dir / "m_cm.json"),
                 "--suite", "cm", "--assume-cmt"]) == 1
    assert "FAIL every formula testable" in capsys.readouterr().out


def test_check_qm(models_dir, capsys):
    assert main(["check", "--model", str(models_dir / "m_qbit.json"),
                 "--suite", "qm"]) == 0
    out = capsys.readouterr().out
    assert "PASS state lattice law orthomodular" in out
    assert "distributive_meet_over_join: fails at" in out
    assert "PASS negation proposition is the lattice orthocomplement" in out
    assert "REPORT join strictly above union" in out


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
