"""Self-tests of the qlprop benchmark.

    python3 bench/selftest.py

They check the benchmark, not the program: the same seed gives
byte-identical inputs and the same work; each oracle agrees with cases
worked by hand; a wrong answer is counted as failed; the tracer counts
calls and puts every original function back.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import time
import traceback

import oracle
import run
import workloads

R = 1 / math.sqrt(2)

M_SR = {"states": ["S1", "S2"],
        "universes": {"S1": ["u1", "u2"], "S2": ["v1"]},
        "properties": ["E", "F"],
        "extensions": {"S1": {"E": ["u1"], "F": ["u2"]},
                       "S2": {"E": ["v1"], "F": []}}}


def _pairs(v):
    return [[x, 0.0] for x in v]


M_QBIT = {
    "states": ["Sz+", "Sz-", "Sx+", "Sx-"],
    "universes": {s: ["o1", "o2"] for s in ("Sz+", "Sz-", "Sx+", "Sx-")},
    "properties": ["E0", "Ez+", "Ez-", "Ex+", "Ex-", "EI"],
    "extensions": {s: {e: [] for e in ("E0", "Ez+", "Ez-", "Ex+", "Ex-", "EI")}
                   for s in ("Sz+", "Sz-", "Sx+", "Sx-")},
    "hilbert": {
        "dim": 2,
        "state_rays": {"Sz+": _pairs([1, 0]), "Sz-": _pairs([0, 1]),
                       "Sx+": _pairs([R, R]), "Sx-": _pairs([R, -R])},
        "property_subspaces": {
            "E0": [], "Ez+": [_pairs([1, 0])], "Ez-": [_pairs([0, 1])],
            "Ex+": [_pairs([R, R])], "Ex-": [_pairs([R, -R])],
            "EI": [_pairs([1, 0]), _pairs([0, 1])]},
    },
}

E, F = ("atom", "E"), ("atom", "F")
EZP = ("atom", "Ez+")


def test_classical_oracle_hand_cases():
    cm = oracle.Classical(M_SR)
    # S1: E | F covers {u1, u2}; S2: E covers {v1}
    assert cm.physical(("or", E, F)) == {"S1", "S2"}
    assert cm.physical(E) == {"S2"}
    assert cm.physical(F) == set()
    assert cm.forall(("or", E, F)) == {"S1", "S2"}
    assert cm.individual({"S1": "u2", "S2": "v1"}, E) == {"S2"}
    req = {"kind": "props-physical", "tree": ("or", E, F)}
    assert oracle.classical_answer(cm, req) == "{S1, S2}"
    req = {"kind": "eval-lx", "tree": E, "state": "S1", "interp": {"S1": "u2"}}
    assert oracle.classical_answer(cm, req) == "F"


def test_projector_oracle_hand_cases():
    qm = oracle.Quantum(M_QBIT)
    assert qm.q_truth("Sx+", EZP) == "QIndeterminate"
    assert qm.q_truth("Sz+", EZP) == "QTrue"
    assert qm.q_truth("Sz-", EZP) == "QFalse"
    join = oracle.expand(("qor", EZP, ("atom", "Ez-")))
    assert qm.certain(qm.projector(join)) == ["Sz+", "Sz-", "Sx+", "Sx-"]
    meet = ("and", EZP, ("atom", "Ex+"))
    assert qm.name_of(qm.projector(meet)) == "E0"
    req = {"kind": "eval-prag", "tree": ("assert", "Ez+"), "state": "Sz+"}
    assert oracle.quantum_answer(qm, req) == "Justified"
    req["state"] = "Sx+"
    assert oracle.quantum_answer(qm, req) == "Unjustified"


def test_canonical_printer_hand_cases():
    cases = [
        (("and", E, ("or", F, E)), "lx", "E(x) & (F(x) | E(x))"),
        (("and", ("and", E, F), E), "lx", "E(x) & F(x) & E(x)"),
        (("and", E, ("and", F, E)), "lx", "E(x) & (F(x) & E(x))"),
        (("not", ("or", E, F)), "lx", "!(E(x) | F(x))"),
        (("qor", E, F), "ltq", "~q (~q E(x) & ~q F(x))"),
        (("sasaki", E, F), "ltq", "~q (~q ~q E(x) & ~q (E(x) & F(x)))"),
        (("N", ("K", ("assert", "E"), ("assert", "F"))), "prag",
         "N (|- E(x) K |- F(x))"),
        (("A", ("assert", "E"), ("K", ("assert", "F"), ("assert", "E"))),
         "prag", "|- E(x) A |- F(x) K |- E(x)"),
    ]
    for tree, lang, text in cases:
        assert oracle.canonical(tree, lang) == text, (tree, text)


def test_theory_verdicts():
    lines, rc, work = oracle.suite_qm(oracle.Quantum(M_QBIT), 3)
    assert rc == 0 and work == {"formulas": 2358, "classes": 6, "lattice": 6}
    assert "REPORT modularity: holds" in lines
    assert any(x.startswith("REPORT distributive_meet_over_join: fails at")
               for x in lines)
    lines, _, _ = oracle.suite_prag(oracle.Quantum(M_QBIT), 3)
    assert lines == ["PASS assertive translation preserves semantics "
                     "(2358 formulas, 6 classes)"]
    lines, rc, work = oracle.suite_cm(oracle.Classical(M_SR), 3)
    assert rc == 1 and lines[0] == ("FAIL every extension full or empty: "
                                    "witness ('S1', 'E')")
    assert lines[-4:] == [f"PASS quotient algebra law {x}"
                          for x in oracle.BOOLEAN_LAWS]


def test_wrong_answer_is_failed():
    expected = [(0, "T\n", ""), (1, "", "ERROR ParseError:")]
    good = {"answers": [[0, 0, "T\n", "", 3], [1, 1, "", "ERROR ParseError: x", 2]]}
    assert run.check_answers(good, expected)[:2] == (5, 0)
    wrong = {"answers": [[0, 0, "F\n", "", 3], [1, 1, "", "ERROR ParseError: x", 2]]}
    assert run.check_answers(wrong, expected)[:2] == (5, 3)
    crash = {"answers": [[0, -1, "", "Traceback (most recent call last):", 1]]}
    assert run.check_answers(crash, expected)[:2] == (1, 1)
    usage = {"answers": [[1, 2, "", "usage: qlprop", 1]]}
    assert run.check_answers(usage, expected)[:2] == (1, 1)


def test_same_seed_same_inputs():
    deadline = time.monotonic() + 120
    for wl in workloads.WORKLOADS:
        seen = []
        for k in range(2):
            wd = run.WORK / f"selftest-{wl}-{k}"
            try:
                run.spawn(wl, 7, wd, "setup", deadline)
                ops, expected, work = run.make_plan(wl, 7, wd)
                plan = json.dumps([ops, expected]).replace(str(wd.name), "")
                seen.append((run.input_digest(wl, wd), plan, work))
            finally:
                shutil.rmtree(wd, ignore_errors=True)
        assert seen[0] == seen[1], wl
        assert seen[0][2] == workloads.EXPECTED_WORK[wl], wl


def test_work_does_not_depend_on_seed():
    docs = {"m_sr": M_SR, "m_cm": M_SR, "m_qbit": M_QBIT, "m_qutrit": M_QBIT}
    works = {json.dumps(workloads.query_work(
        workloads.query_requests(s, docs, lambda m: m)), sort_keys=True)
        for s in range(5)}
    assert len(works) == 1
    for s in range(5):
        models = workloads.classical_models(s)
        assert oracle.Classical(models["cm128"]).closed_classes() == 128
        assert oracle.Classical(models["collapse"]).interpretation_count() == 4096


def test_sampler_excludes_and_averages_slices():
    from worker import Sampler
    s = Sampler(periodic=False)
    s.at, s.took = [0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4]
    wall, mean = s.measure(0.5, 2.5)   # slices at 1.0 and 2.0 ran inside
    assert abs(wall - (2.0 - 0.5)) < 1e-12
    assert abs(mean - (0.1 + 0.2 + 0.3 + 0.4) / 4) < 1e-12
    wall, mean = s.measure(2.1, 2.2)   # nothing inside: the two neighbours
    assert abs(wall - 0.1) < 1e-12 and abs(mean - 0.35) < 1e-12


def test_tracer_counts_and_restores():
    from worker import import_qlprop
    from tracer import Tracer
    ql = import_qlprop()
    original = ql.syntax.parse_lx, ql.cli.parse_lx, ql.parse_lx
    tr = Tracer()
    tr.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ql.cli.main(["parse", "E(x) & !F(x)"])
    finally:
        tr.uninstall()
    funcs = tr.summary()["functions"]
    assert funcs["cli.main"]["calls"] == 1
    assert funcs["syntax.parse_lx"]["calls"] == 1
    assert funcs["syntax.format_lx"]["calls"] == 1
    assert (ql.syntax.parse_lx, ql.cli.parse_lx, ql.parse_lx) == original


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:  # report every failing test, then fail the run
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} of {len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
