"""Whole command lines, as a user runs them.

Most run ``cli.main`` in process: ``--model NAME`` reads NAME from one
directory with the four fixtures and five models they do not cover,
a leading ``NAME=value`` sets the environment for that run, and the
directory reads as ``{models}`` in the printed text.  ``ROWS`` checks a
command line's exit code and whole output, ``SAME`` two command lines
that print the same bytes; a run on a fixture alone belongs in the
golden corpus of ``tests/test_golden.py`` instead.  The ``expect``
fixture runs one command line the same way for the named tests of
``tests/test_cli.py``.  A child process runs only where the process
itself is under test.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qlprop.model import dump_model, load_model
from qlprop.semantics import lindenbaum_tarski
from qlprop.syntax import format_lx

from helpers import join_open, non_injective_qubit
from test_golden import FIXTURES, _run


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    d = tmp_path_factory.mktemp("console-models")
    assert _run(["fixtures", "--out", "{models}"], str(d))["exit"] == 0

    def qbit():  # m_qbit's file, to be edited as a user would edit it
        return json.loads((d / "m_qbit.json").read_text(encoding="utf-8"))

    # m_qbit without its zero E0
    doc = qbit()
    doc["properties"].remove("E0")
    del doc["hilbert"]["property_subspaces"]["E0"]
    for row in doc["extensions"].values():
        del row["E0"]
    # the Sz+ ray tilted by 1e-6, which the default tolerance sees
    # outside Ez+ and a loosened one inside
    tilted = qbit()
    tilted["hilbert"]["state_rays"]["Sz+"] = [[1.0, 0.0], [1e-6, 0.0]]
    # the state rays as a list where a name -> vectors map belongs
    rays_list = qbit()
    rays_list["hilbert"]["state_rays"] = [[[1.0, 0.0], [0.0, 0.0]]]
    for name, text in (("join_open", dump_model(join_open())),
                       ("non_injective", dump_model(non_injective_qubit())),
                       ("no_zero", json.dumps(doc)),
                       ("tilted", json.dumps(tilted)),
                       ("state_rays_list", json.dumps(rays_list))):
        (d / f"{name}.json").write_text(text, encoding="utf-8")
    return str(d)


def _console(line: str, models: str, monkeypatch) -> dict:
    """Run ``line``; the models directory reads as ``{models}`` in the
    printed text."""
    words = shlex.split(line.replace("--model ", "--model {models}/"))
    with monkeypatch.context() as env:
        while "=" in words[0]:
            env.setenv(*words.pop(0).split("=", 1))
        got = _run(words, models)
    for key in ("stdout", "stderr"):
        got[key] = got[key].replace(models, "{models}")
    return got


@pytest.fixture
def expect(models, monkeypatch):
    """Run a command line as :func:`_console` does and compare its exit
    code and its whole stdout and stderr."""
    def check(line: str, code: int, out: str = "", err: str = ""):
        got = _console(line, models, monkeypatch)
        assert (got["exit"], got["stdout"], got["stderr"]) == (code, out, err)
    return check


_NOT_CLOSED = "ERROR NotOperationClosed: no property realises the "
_PHYSICAL = "--lang ltq --physical"

# command line, exit code, and the whole stdout and stderr where not None
ROWS = [
    ("check --model m_qbit.json --suite prag --depth 3", 0),
    ("check --model m_qbit.json --suite qm --depth 4", 0),
    ("check --model m_qutrit.json --suite qm --depth 4", 0),
    ("check --model m_qbit.json --suite prag --depth 4", 0),
    # prag counts the formulas per witness class without building them
    ("check --model m_qutrit.json --suite prag --depth 4", 0,
     "PASS assertive translation preserves semantics "
     "(806815632 formulas, 12 classes)\n"),
    ("lattice --model m_qutrit.json --which lindenbaum --closed", 0),
    ("check --model m_qutrit.json --suite cm --depth 4", 1),
    ("lattice --model m_qutrit.json --which testable --depth 3", 0),
    ("lattice --model m_sr.json --which lindenbaum --depth 4", 0),
    ("check --model m_cm.json --suite cm --depth 4", 0),
    ("parse --lang ltq '~qE(x)'", 0, "~q E(x)\n"),
    # the first operation the state lattice misses is the join
    ("lattice --which LS --model join_open.json", 1, None,
     _NOT_CLOSED + "join of 'P1' and 'V'\n"),
    ("check --suite qm --model join_open.json", 1, None,
     _NOT_CLOSED + "join of 'P1' and 'V'\n"),
    # props reports the first failing node in post-order
    ("props --model join_open.json --lang ltq 'Zzz(x) & (P1(x) |q V(x))'",
     1, None, "ERROR UnknownProperty: model declares no property 'Zzz'\n"),
    ("props --model join_open.json --lang ltq '(P1(x) |q V(x)) & Zzz(x)'",
     1, None, _NOT_CLOSED + "meet of 'P23' and 'Vp'\n"),
    # shared certain-state sets still build a state lattice
    ("lattice --which LS --model non_injective.json", 0),
    # ranks alone name ~q EI; ranks leave the meet of Ez+ and Ez- open
    (f"props --model no_zero.json {_PHYSICAL} '~q EI(x)'", 1, None,
     _NOT_CLOSED + "complement of 'EI'\n"),
    (f"props --model no_zero.json {_PHYSICAL} 'Ez+(x) & ~q Ez+(x)'", 1, None,
     _NOT_CLOSED + "meet of 'Ez+' and 'Ez-'\n"),
]

# two command lines with one exit code and the same stdout: testable
# reads the declared properties alone, cm closes the depth-2 quotient,
# and the fixtures' decisions lie clear of every tolerance
SAME = [(f"lattice --model {m}.json --which testable --depth 1",
         f"lattice --model {m}.json --which testable --depth 4", 0)
        for m in FIXTURES]
SAME += [("check --model m_qutrit.json --suite cm --depth 2",
          f"check --model m_qutrit.json --suite cm --depth {d}", 1)
         for d in (3, 4)]
SAME += [(f"{cmd} --model {m}.json", tol.format(f"{cmd} --model {m}.json"), 0)
         for m in ("m_qbit", "m_qutrit")
         for cmd in ("check --suite qm", "check --suite prag",
                     "lattice --which LS")
         for tol in ("{} --tol 1e-12", "{} --tol 1e-3", "QLPROP_TOL=1e-6 {}")]


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_command_line(row, models, monkeypatch):
    line, code, *want = row
    got = _console(line, models, monkeypatch)
    assert got["exit"] == code
    for key, text in zip(("stdout", "stderr"), want):
        assert text is None or got[key] == text


@pytest.mark.parametrize("line, other, code", SAME, ids=[r[1] for r in SAME])
def test_same_stdout(line, other, code, models, monkeypatch):
    want = _console(line, models, monkeypatch)
    got = _console(other, models, monkeypatch)
    assert (got["exit"], got["stdout"]) == (code, want["stdout"])
    assert want["exit"] == code


def test_fixtures_dump_back_to_their_bytes(tmp_path):
    assert _run(["fixtures", "--out", "{models}"], str(tmp_path))["exit"] == 0
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 4
    for f in files:  # m_qutrit's closure-generated basis rows included
        text = f.read_text(encoding="utf-8")
        assert dump_model(load_model(text)) == text, f.name


def test_closed_quotient_lists_its_512_labels(models, monkeypatch):
    # each label is format_lx of its class representative, in class order
    got = _console("lattice --model m_qutrit.json --which lindenbaum "
                   "--closed --json", models, monkeypatch)
    m = load_model(Path(models, "m_qutrit.json").read_bytes())
    want = [format_lx(c.representative)
            for c in lindenbaum_tarski(m, 3).closed().classes]
    assert got["exit"] == 0 and len(want) == 512
    assert json.loads(got["stdout"])["elements"] == want
    # at the depth cap the 496 classes close into the same 512
    got = _console("lattice --model m_qutrit.json --which lindenbaum "
                   "--closed --depth 4", models, monkeypatch)
    assert got["stdout"].splitlines()[0] == "elements (512):"


def _child(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process, with ``env`` set for it alone."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, **env})


_USAGE = ["usage: qlprop [-h] {parse,eval,props,check,lattice,fixtures} ..."]


# a usage error reaches the full parser and prints its top-level usage
@pytest.mark.parametrize("argv, code, out, err", [
    ([], 2, "", _USAGE), (["nosuch"], 2, "", _USAGE),
    (["parse", "--bogus", "E(x)"], 2, "", _USAGE),
    (["parse", "--lang", "ltq", "~qE(x)"], 0, "~q E(x)\n", []),
], ids=["no-argument", "nosuch", "bogus-option", "parse"])
def test_main_module_reads_sys_argv(argv, code, out, err):
    got = _child("-m", "qlprop", *argv)
    assert (got.returncode, got.stdout, got.stderr.splitlines()[:1]) \
        == (code, out, err)


@pytest.mark.parametrize("args", [
    ["-m", "qlprop", "fixtures", "--out", "{out}"],
    [str(Path(__file__).parents[1] / "demos/02_full_or_empty_collapse.py")],
], ids=["fixtures", "demo-02"])
def test_two_hash_seeds_give_the_same_bytes(args, tmp_path):
    # a set's iteration order differs between hash seeds
    seen = []
    for seed in "01":
        out = tmp_path / seed
        got = _child(*(a.replace("{out}", str(out)) for a in args),
                     PYTHONHASHSEED=seed)
        assert got.returncode == 0
        seen.append((got.stdout.replace(str(out), "{out}"),
                     {f.name: f.read_bytes() for f in out.glob("*")}))
    assert seen[0] == seen[1]
