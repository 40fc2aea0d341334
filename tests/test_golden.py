"""Golden command line output: exit code, stdout and stderr, byte for byte.

The corpus below runs ``qlprop parse`` on formulas of all three
languages (every precedence and parenthesis case, and at least one error
of each parse exception type), ``qlprop check`` on the suite/fixture
pairs that finish in about a second, as text and as ``--json``,
``qlprop lattice`` on the four fixtures, ``qlprop props`` in every
mode on the four fixtures, with its refusals, and ``qlprop eval`` in
every mode (T/F, ``--object``, ``--interp``, ``--qtruth`` on testable,
untestable and quantum formulas, ``--lang prag``) on the four fixtures,
with its refusals.  The expected transcripts
live in ``tests/golden/*.json``; the fixture directory is written there
as ``{models}``.

Regenerate them (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py [GROUP ...]

which rewrites the named groups' files, or every group's without a name.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from qlprop.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ("m_sr", "m_cm", "m_qbit", "m_qutrit")

_LX = [
    "E(x)",
    "((E(x)))",
    "!E(x)",
    "~E(x)",
    "!!E(x)",
    "!(E(x))",
    "!(E(x) & F(x))",
    "!(E(x) | F(x))",
    "!E(x) & F(x)",
    "E(x) & F(x) & G(x)",
    "E(x) & (F(x) & G(x))",
    "(E(x) & F(x)) & G(x)",
    "E(x) | F(x) | G(x)",
    "E(x) | (F(x) | G(x))",
    "E(x) & F(x) | G(x)",
    "E(x) & (F(x) | G(x))",
    "(E(x) | F(x)) & G(x)",
    "E(x) | F(x) & G(x)",
    "(E(x) | F(x)) & (G(x) | !H(x))",
    "!(!(E(x) | F(x)) & G(x)) | (H(x) | E(x)) & F(x)",
    "  E(x)&!(F(x)|G(x))  ",
    "Ez+(x) & Ez-(x) | a_1-b(x)",
    "~q(x)",
    "!" * 200 + "E(x)",
    "(" * 60 + "E(x)" + ")" * 60,
    # ParseError
    "",
    "   ",
    "E(x) &",
    "(E(x) & F(x)",
    "E(x) F(x)",
    "E()",
    "E(y)",
    "E x",
    "E(x) & & F(x)",
    "E(x) $ F(x)",
    ")",
    "!",
    "E(x))",
    # UnknownConnective
    "E(x) |q F(x)",
    "~q E(x)",
    "E(x) ->q F(x)",
    "E(x) & ~q F(x)",
]

_LTQ = [
    "E(x)",
    "~q E(x)",
    "~q ~q E(x)",
    "~q (E(x) & F(x))",
    "~q E(x) & F(x)",
    "E(x) & F(x) & G(x)",
    "E(x) & (F(x) & G(x))",
    "E(x) |q F(x)",
    "E(x) |q F(x) |q G(x)",
    "E(x) |q (F(x) |q G(x))",
    "E(x) & F(x) |q G(x)",
    "E(x) & (F(x) |q G(x))",
    "E(x) ->q F(x)",
    "E(x) ->q F(x) ->q G(x)",
    "E(x) ->q (F(x) ->q G(x))",
    "E(x) |q F(x) ->q G(x)",
    "E(x) |q (F(x) ->q G(x))",
    "~q (E(x) ->q F(x)) & G(x)",
    "Ez+(x) |q Ez-(x)",
    "~q" * 3 + "E(x)",
    # ParseError
    "",
    "E(x) |q",
    "E(x) ->q",
    "~q",
    "(E(x) |q F(x)",
    "E(x) -> F(x)",
    "E(x) ->qF(x)",
    # ClassicalConnectiveInTQ
    "!E(x)",
    "~E(x)",
    "~ E(x)",
    "E(x) | F(x)",
]

_PRAG = [
    "|- E(x)",
    "|- E(x) & F(x)",
    "|- E(x) |q F(x)",
    "|- E(x) ->q F(x)",
    "|- ~q E(x)",
    "N |- E(x)",
    "N N |- E(x)",
    "N (|- E(x) K |- F(x))",
    "|- E(x) K |- F(x)",
    "|- E(x) K |- F(x) K |- G(x)",
    "|- E(x) K (|- F(x) K |- G(x))",
    "|- E(x) A |- F(x)",
    "|- E(x) A |- F(x) A |- G(x)",
    "|- E(x) A (|- F(x) A |- G(x))",
    "N |- E(x) K |- F(x) A |- G(x)",
    "|- E(x) A |- F(x) K |- G(x)",
    "(|- E(x) A |- F(x)) K |- G(x)",
    "N (|- E(x) A |- F(x))",
    "(|- E(x) & F(x)) K |- G(x)",
    "|- (E(x) |q F(x)) & G(x)",
    "N(|- E(x))",
    # ParseError
    "",
    "E(x)",
    "K |- E(x)",
    "|- ",
    "|- E(x) K",
    "N",
    "(|- E(x)",
    "|- E(x) |- F(x)",
    "|- N(x)",
    # ClassicalConnectiveInTQ
    "|- !E(x)",
    "|- E(x) | F(x)",
    # ParseError: an assertion inside a quantum formula
    "|- |- E(x)",
    "|- E(x) & |- F(x)",
    "|- (|- E(x))",
]


def _parse_cases():
    cases = {}
    for lang, texts in (("lx", _LX), ("ltq", _LTQ), ("prag", _PRAG)):
        for i, text in enumerate(texts):
            cases[f"{lang}-{i:02d}"] = ["parse", "--lang", lang, text]
    cases["lx-json"] = ["parse", "--json", "E(x) & !(F(x) | G(x))"]
    cases["ltq-json"] = ["parse", "--json", "--lang", "ltq", "E(x) ->q F(x)"]
    cases["prag-json"] = ["parse", "--json", "--lang", "prag",
                          "N |- E(x) K |- F(x) A |- G(x)"]
    return cases


# cm on m_qbit and m_qutrit and prag on m_qutrit take seconds; the rest
# finish in about a second or less
_CHECKS = [("sec3", m) for m in FIXTURES] + [
    ("cm", "m_sr"), ("cm", "m_cm"),
    ("qm", "m_sr"), ("qm", "m_cm"), ("qm", "m_qbit"), ("qm", "m_qutrit"),
    ("prag", "m_sr"), ("prag", "m_qbit"),
]


def _check_cases():
    cases = {}
    for suite, m in _CHECKS:
        argv = ["check", "--model", f"{{models}}/{m}.json", "--suite", suite]
        cases[f"{suite}-{m}"] = argv
        cases[f"{suite}-{m}-json"] = argv + ["--json"]
    cases["cm-m_sr-assume-cmt"] = ["check", "--model", "{models}/m_sr.json",
                                  "--suite", "cm", "--assume-cmt"]
    return cases


def _lattice_cases():
    cases = {}
    for which in ("testable", "lindenbaum", "LS"):
        for m in FIXTURES:
            argv = ["lattice", "--model", f"{{models}}/{m}.json", "--which", which]
            if which == "lindenbaum" and m == "m_qutrit":
                argv += ["--depth", "2"]  # depth 3 takes seconds
            cases[f"{which}-{m}"] = argv
    for m in ("m_sr", "m_cm"):
        cases[f"lindenbaum-{m}-closed"] = ["lattice", "--model",
                                           f"{{models}}/{m}.json",
                                           "--which", "lindenbaum", "--closed"]
    cases["LS-m_qbit-json"] = ["lattice", "--model", "{models}/m_qbit.json",
                               "--which", "LS", "--json"]
    return cases


# per fixture: a formula and an interpretation that names an object
# other than the default one; on every fixture but m_cm, whose extensions
# are all full or empty, that object changes the individual proposition
_PROPS = {
    "m_sr": ("E(x) | !F(x)", "S1=u2"),
    "m_cm": ("E(x) & !F(x)", "S1=a2"),
    "m_qbit": ("Ez+(x) | Ex+(x)", "Sz-=o2"),
    "m_qutrit": ("P3(x) | P7(x)", "T1=o2"),
}
_PROPS_LTQ = {"m_qbit": "~q Ez+(x) & (Ez+(x) |q Ex+(x))",
              "m_qutrit": "~q P3(x) & P10(x)"}


def _props_cases():
    runs = {}
    for m, (formula, pick) in _PROPS.items():
        model = f"{{models}}/{m}.json"
        for mode, extra in (("default", []), ("physical", ["--physical"]),
                            ("individual", ["--individual", ""]),
                            ("individual-pick", ["--individual", pick]),
                            ("forall", ["--forall"]),
                            ("forall-cap", ["--forall", "--enum-cap", "64"])):
            runs[f"{mode}-{m}"] = ["props", "--model", model, *extra, formula]
    for m, formula in _PROPS_LTQ.items():
        runs[f"ltq-{m}"] = ["props", "--model", f"{{models}}/{m}.json",
                            "--lang", "ltq", formula]
    cases = {}
    for cid, argv in runs.items():
        cases[cid] = argv
        cases[f"{cid}-json"] = argv[:1] + ["--json"] + argv[1:]
    qbit = "{models}/m_qbit.json"
    cases["forall-over-cap-m_qbit"] = ["props", "--model", qbit, "--forall",
                                       "--enum-cap", "1", "Ez+(x)"]
    cases["enum-cap-without-forall"] = ["props", "--model", qbit,
                                        "--enum-cap", "64", "Ez+(x)"]
    cases["ltq-forall"] = ["props", "--model", qbit, "--lang", "ltq",
                           "--forall", "Ez+(x)"]
    cases["parse-error"] = ["props", "--model", qbit, "Ez+(x) &"]
    # the formula is parsed before the interpretation is read
    cases["parse-error-bad-interp"] = ["props", "--model", qbit,
                                       "--individual", "Sz+", "Ez+(x) &"]
    return cases


# per fixture: a state, a classical formula with an object and a full
# interpretation for it, a testable and an untestable classical formula
# for --qtruth, a quantum formula and an assertive one; m_sr and m_cm
# carry no Hilbert annotation, so their quantum runs are refusals
_EVAL = {
    "m_sr": ("S1", "E(x) | !F(x)", "u2", "S1=u1,S2=v1", "E(x)",
             "E(x) | F(x)", "~q E(x) & F(x)", "N |- F(x) A |- E(x)"),
    "m_cm": ("S2", "E(x) & !F(x)", "b1", "S1=a2,S2=b1,S3=c1", "F(x)",
             "E(x) | F(x)", "~q F(x)", "|- E(x) K |- F(x)"),
    "m_qbit": ("Sx+", "Ez+(x) | Ex-(x)", "o2", "Sz+=o1,Sz-=o2,Sx+=o2,Sx-=o1",
               "Ex-(x)", "Ez+(x) | Ez-(x)", "Ez+(x) |q Ez-(x)",
               "|- Ez+(x) A |- Ez-(x)"),
    "m_qutrit": ("T1", "P3(x) | P7(x)", "o2", "T1=o2,T2=o1,T3=o1,T4=o2,T5=o1",
                 "P3(x)", "P3(x) | P7(x)", "~q P3(x) & P10(x)",
                 "N |- P3(x) K |- P10(x)"),
}


def _eval_cases():
    runs = {}
    for m, (state, lx, obj, interp, testable, untestable, ltq,
            prag) in _EVAL.items():
        for mode, extra in (
                ("lx", [lx]), ("object", ["--object", obj, lx]),
                ("interp", ["--interp", interp, lx]),
                ("ltq", ["--lang", "ltq", ltq]),
                ("qtruth-testable", ["--qtruth", testable]),
                ("qtruth-untestable", ["--qtruth", untestable]),
                ("qtruth-ltq", ["--qtruth", "--lang", "ltq", ltq]),
                ("prag", ["--lang", "prag", prag])):
            runs[f"{mode}-{m}"] = ["eval", "--model", f"{{models}}/{m}.json",
                                   "--state", state, *extra]
    cases = {}
    for cid, argv in runs.items():
        cases[cid] = argv
        cases[f"{cid}-json"] = argv[:1] + ["--json"] + argv[1:]
    qbit = ["eval", "--model", "{models}/m_qbit.json", "--state", "Sz+"]
    for cid, extra in (
            ("prag-qtruth", ["--lang", "prag", "--qtruth", "|- Ez+(x)"]),
            ("prag-object", ["--lang", "prag", "--object", "o1", "|- Ez+(x)"]),
            ("prag-interp", ["--lang", "prag", "--interp", "Sz+=o1",
                             "|- Ez+(x)"]),
            ("qtruth-object", ["--qtruth", "--object", "o1", "Ez+(x)"]),
            ("qtruth-interp", ["--qtruth", "--interp", "Sz+=o1", "Ez+(x)"]),
            ("object-interp", ["--object", "o1", "--interp", "Sz+=o1",
                               "Ez+(x)"]),
            ("object-outside-universe", ["--object", "u1", "Ez+(x)"]),
            ("interp-without-equals", ["--interp", "Sz+", "Ez+(x)"]),
            ("interp-state-twice", ["--interp", "Sz+=o1,Sz+=o2", "Ez+(x)"]),
            ("parse-error", ["Ez+(x) &"]),
            ("parse-error-json", ["--json", "Ez+(x) &"])):
        cases[cid] = qbit + extra
    cases["unknown-state"] = ["eval", "--model", "{models}/m_qbit.json",
                              "--state", "S9", "Ez+(x)"]
    return cases


GROUPS = {"parse": _parse_cases(), "check": _check_cases(),
          "lattice": _lattice_cases(), "props": _props_cases(),
          "eval": _eval_cases()}


def _run(argv: list[str], models: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # a fresh filter state, so every warning prints once as in a new
    # process, to stderr also where pytest would record it
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = lambda m, c, f, n, file=None, line=None: \
            sys.stderr.write(warnings.formatwarning(m, c, f, n, line))
        code = main([a.replace("{models}", models) for a in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _record(group: str, models: str) -> dict:
    return {cid: _run(argv, models) for cid, argv in GROUPS[group].items()}


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden-models")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--out", str(d)]) == 0
    return str(d)


@functools.cache
def _golden(group: str) -> dict:
    return json.loads((GOLDEN / f"{group}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_corpus_is_complete(group):
    assert sorted(_golden(group)) == sorted(GROUPS[group])


@pytest.mark.parametrize("group,cid", [(g, c) for g in GROUPS
                                        for c in GROUPS[g]])
def test_golden_output(group, cid, models):
    want = _golden(group)[cid]
    assert want["argv"] == GROUPS[group][cid]
    assert _run(GROUPS[group][cid], models) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            main(["fixtures", "--out", tmp])
        GOLDEN.mkdir(exist_ok=True)
        for name in sys.argv[1:] or GROUPS:
            doc = _record(name, tmp)
            (GOLDEN / f"{name}.json").write_text(
                json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {GOLDEN / name}.json ({len(doc)} cases)",
                  file=sys.stderr)
