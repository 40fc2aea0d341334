"""Command line front end.

Subcommands: ``parse`` (canonical form or positioned syntax error),
``eval`` (truth / Q-truth / justification at a state), ``props``
(individual, physical and brute-force universal propositions),
``check`` (invariant suites), ``lattice`` (poset construction and DOT
export) and ``fixtures`` (write the canonical model files).

Exit codes: 0 success, 1 domain error (reported as ``ERROR <name>``)
or an output pipe closed by its reader (reported not at all), 2 usage
error.  The containment tolerance can be set with ``--tol`` or the
``QLPROP_TOL`` environment variable; :func:`qlprop.hilbert.check_tol`
validates either.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, QlpropError
from .hilbert import DEFAULT_TOL, MAX_TOL, MIN_TOL, check_tol, state_lattice
from .lattice import check_boolean, check_ortho_modular, export_dot, set_label
from .model import (
    DEFAULT_ENUM_CAP,
    Model,
    canonical_models,
    check_cms,
    default_interpretation,
    dump_model,
    enumerate_interpretations,
    interpretation_count,
    load_model,
)
from .pragmatic import check_preservation, justified
from .quantum import (
    check_tq_equalities,
    q_truth,
    q_truth_classical,
    tq_is_true,
    tq_physical_proposition,
)
from .semantics import (
    enumerate_formulas,
    extension_profile,
    forall_proposition,
    individual_proposition,
    is_true,
    lindenbaum_tarski,
    physical_proposition,
    profile_proposition,
    testable_proposition_poset,
    testable_witness,
)
from .syntax import (
    Atom,
    format_lx,
    format_prag,
    format_tq,
    parse_lx,
    parse_prag,
    parse_tq,
)

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    """Resolved global settings for one invocation."""

    tol: float = DEFAULT_TOL
    enum_cap: int = DEFAULT_ENUM_CAP
    json_out: bool = False


def _config(args) -> RunConfig:
    if args.tol is not None:
        tol = check_tol(args.tol, "--tol")
    else:
        env = os.environ.get("QLPROP_TOL")
        tol = check_tol(env, "QLPROP_TOL") if env else DEFAULT_TOL
    return RunConfig(tol=tol, enum_cap=args.enum_cap, json_out=args.json)


def _load(args, cfg: RunConfig) -> Model:
    return load_model(Path(args.model).read_bytes(), tol=cfg.tol)


def _parse_interp(m: Model, text: str) -> dict[str, str]:
    overrides = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise QlpropError(f"bad interpretation entry {part!r}; "
                              "use state=object")
        s, o = part.split("=", 1)
        overrides[s.strip()] = o.strip()
    return default_interpretation(m, overrides)


def _emit(cfg: RunConfig, lines: list[str], payload: dict):
    if cfg.json_out:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# parse


def cmd_parse(args) -> int:
    cfg = _config(args)
    parse = {"lx": parse_lx, "ltq": parse_tq, "prag": parse_prag}[args.lang]
    fmt = {"lx": format_lx, "ltq": format_tq, "prag": format_prag}[args.lang]
    try:
        f = parse(args.formula)
    except ParseError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"  {args.formula}", file=sys.stderr)
        print(f"  {' ' * exc.position}^", file=sys.stderr)
        return 1
    canonical = fmt(f)
    _emit(cfg, [canonical],
          {"command": "parse", "lang": args.lang, "canonical": canonical})
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    cfg = _config(args)
    m = _load(args, cfg)
    if args.state not in m.extensions:
        raise QlpropError(f"unknown state {args.state!r}")

    if args.lang == "prag":
        af = parse_prag(args.formula)
        value = str(justified(m, args.state, af))
    elif args.qtruth:
        if args.lang == "lx":
            qt = q_truth_classical(m, args.state, parse_lx(args.formula))
            value = "Untestable" if qt is None else str(qt)
        else:
            value = str(q_truth(m, args.state, parse_tq(args.formula)))
    else:
        overrides = {}
        if args.interp:
            interp = _parse_interp(m, args.interp)
        else:
            if args.object:
                overrides[args.state] = args.object
            interp = default_interpretation(m, overrides)
        if args.lang == "lx":
            value = "T" if is_true(m, interp, args.state, parse_lx(args.formula)) else "F"
        else:
            value = "T" if tq_is_true(m, interp, args.state, parse_tq(args.formula)) else "F"
    _emit(cfg, [value], {"command": "eval", "lang": args.lang,
                         "state": args.state, "value": value})
    return 0


# ---------------------------------------------------------------------------
# props


def cmd_props(args) -> int:
    cfg = _config(args)
    m = _load(args, cfg)
    lines: list[str] = []
    payload: dict = {"command": "props"}
    if args.lang == "ltq":
        if not args.physical:
            raise QlpropError("quantum formulas support --physical only")
        f = parse_tq(args.formula)
        prop = tq_physical_proposition(m, f)
        lines.append(set_label(prop, m.states))
        payload.update(kind="physical", states=sorted(prop))
    elif args.individual is not None:
        f = parse_lx(args.formula)
        interp = _parse_interp(m, args.individual)
        prop = individual_proposition(m, interp, f)
        lines.append(set_label(prop, m.states))
        payload.update(kind="individual", states=sorted(prop))
    elif args.forall:
        f = parse_lx(args.formula)
        prop = forall_proposition(m, f, cap=cfg.enum_cap)
        lines.append(set_label(prop, m.states))
        lines.append("matches per-state form: yes")
        payload.update(kind="forall", states=sorted(prop), matches_physical=True)
    else:
        f = parse_lx(args.formula)
        prop = physical_proposition(m, f)
        lines.append(set_label(prop, m.states))
        payload.update(kind="physical", states=sorted(prop))
    _emit(cfg, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# check


class _Suite:
    def __init__(self):
        self.lines: list[str] = []
        self.failed = False

    def passfail(self, ok: bool, what: str, extra: str = ""):
        tag = "PASS" if ok else "FAIL"
        if not ok:
            self.failed = True
        self.lines.append(f"{tag} {what}" + (f": {extra}" if extra else ""))

    def report(self, what: str):
        self.lines.append(f"REPORT {what}")


def _suite_sec3(m: Model, depth: int, out: _Suite):
    formulas = enumerate_formulas(m.properties, depth)
    profs = [extension_profile(m, f) for f in formulas]
    props = [profile_proposition(m, p) for p in profs]
    univ = [frozenset(m.universes[s]) for s in m.states]
    states = frozenset(m.states)

    neg_ok = True
    neg_strict = None
    for f, prof, p in zip(formulas, profs, props):
        pn = profile_proposition(m, tuple(u - x for u, x in zip(univ, prof)))
        if not pn <= states - p:
            neg_ok = False
        elif neg_strict is None and pn < states - p:
            neg_strict = format_lx(f)
    out.passfail(neg_ok, "negation proposition below set complement")
    if neg_strict:
        out.report(f"strict negation inclusion at {neg_strict!r}")

    conj_ok = True
    disj_ok = True
    disj_strict = None
    for a, prof_a, pa in zip(formulas, profs, props):
        for b, prof_b, pb in zip(formulas, profs, props):
            pand = profile_proposition(
                m, tuple(x & y for x, y in zip(prof_a, prof_b)))
            if pand != pa & pb:
                conj_ok = False
            por = profile_proposition(
                m, tuple(x | y for x, y in zip(prof_a, prof_b)))
            union = pa | pb
            if not union <= por:
                disj_ok = False
            elif disj_strict is None and union < por:
                disj_strict = (format_lx(a), format_lx(b))
    out.passfail(conj_ok, "conjunction proposition equals intersection")
    out.passfail(disj_ok, "disjunction proposition above union")
    if disj_strict:
        out.report(f"strict disjunction inclusion at {disj_strict!r}")


def _suite_cm(m: Model, depth: int, assume_cmt: bool, out: _Suite):
    ok, witness = check_cms(m)
    out.passfail(ok, "every extension full or empty",
                 "" if ok else f"witness {witness}")
    formulas = enumerate_formulas(m.properties, min(depth, 2))
    rho_ok = True
    for f in formulas:
        for s, ext in zip(m.states, extension_profile(m, f)):
            if ext not in (frozenset(), frozenset(m.universes[s])):
                rho_ok = False
    out.passfail(rho_ok, "truth independent of the interpretation")
    if interpretation_count(m) <= 10 ** 4:
        same = True
        for f in formulas:
            target = physical_proposition(m, f)
            for interp in enumerate_interpretations(m):
                if individual_proposition(m, interp, f) != target:
                    same = False
                    break
            if not same:
                break
        out.passfail(same, "individual propositions collapse to physical")
    untestable = [f for f in formulas if testable_witness(m, f) is None]
    if assume_cmt:
        out.passfail(not untestable, "every formula testable",
                     "" if not untestable
                     else f"{len(untestable)} formulas lack a witness, "
                     f"first {format_lx(untestable[0])!r}")
    elif untestable:
        out.report(f"{len(untestable)} of {len(formulas)} formulas lack a "
                   "testable witness")
    lt = lindenbaum_tarski(m, depth).closed()
    rep = check_boolean(lt.poset)
    for c in rep.checks:
        out.passfail(c.passed, f"quotient algebra law {c.law}",
                     "" if c.passed else f"witness {c.witness}")


def _suite_qm(m: Model, depth: int, out: _Suite):
    lat = state_lattice(m)
    rep = check_ortho_modular(lat)
    asserted = ("ortho_involution", "ortho_order_reversal", "ortho_complement",
                "orthomodular", "atomic", "atomistic", "covering")
    for name in asserted:
        c = rep[name]
        out.passfail(c.passed, f"state lattice law {name}",
                     "" if c.passed else f"witness {c.witness}")
    c = rep["modular"]
    out.report(f"modularity: {'holds' if c.passed else f'fails at {c.witness}'}")
    boolean = check_boolean(lat.poset)
    for name in ("distributive_meet_over_join", "distributive_join_over_meet"):
        c = boolean[name]
        out.report(f"{name}: "
                   f"{'holds' if c.passed else f'fails at {c.witness}'}")
    eq = check_tq_equalities(m, depth, lat=lat)
    out.passfail(not eq["negation"], "negation proposition is the lattice "
                 "orthocomplement",
                 "" if not eq["negation"] else f"first {eq['negation'][0]!r}")
    out.passfail(not eq["conjunction"], "conjunction proposition is the "
                 "lattice meet",
                 "" if not eq["conjunction"] else f"first {eq['conjunction'][0]!r}")
    out.passfail(not eq["join"], "disjunction proposition is the lattice join",
                 "" if not eq["join"] else f"first {eq['join'][0]!r}")
    if eq["join_strict_witness"]:
        out.report(f"join strictly above union at {eq['join_strict_witness']!r}")
    images = {tq_physical_proposition(m, Atom(e)) for e in m.properties}
    out.report(f"certain-state map injective: "
               f"{'yes' if len(images) == len(m.properties) else 'no'}")


def _suite_prag(m: Model, depth: int, out: _Suite):
    rep = check_preservation(m, depth)
    out.passfail(rep.ok, f"assertive translation preserves semantics "
                 f"({rep.formulas} formulas, {rep.classes} classes)",
                 "" if rep.ok else f"first {rep.counterexamples[0]!r}")


_SUITE_DEPTH = {"sec3": 2, "cm": 3, "qm": 2, "prag": 3}


def cmd_check(args) -> int:
    cfg = _config(args)
    m = _load(args, cfg)
    depth = args.depth if args.depth is not None else _SUITE_DEPTH[args.suite]
    out = _Suite()
    if args.suite == "sec3":
        _suite_sec3(m, depth, out)
    elif args.suite == "cm":
        _suite_cm(m, depth, args.assume_cmt, out)
    elif args.suite == "qm":
        _suite_qm(m, depth, out)
    else:
        _suite_prag(m, depth, out)
    _emit(cfg, out.lines,
          {"command": "check", "suite": args.suite,
           "ok": not out.failed, "lines": out.lines})
    return 1 if out.failed else 0


# ---------------------------------------------------------------------------
# lattice


def cmd_lattice(args) -> int:
    cfg = _config(args)
    m = _load(args, cfg)
    if args.which == "testable":
        depth = args.depth if args.depth is not None else 2
        poset = testable_proposition_poset(m, depth)
    elif args.which == "lindenbaum":
        depth = args.depth if args.depth is not None else 3
        alg = lindenbaum_tarski(m, depth)
        if args.closed:
            alg = alg.closed()
        poset = alg.poset
    else:
        poset = state_lattice(m).poset
    lines = [f"elements ({poset.n}):"]
    lines += [f"  {i}: {lab}" for i, lab in enumerate(poset.labels)]
    covers = poset.covers()
    lines.append(f"covers ({len(covers)}):")
    lines += [f"  {poset.labels[i]} < {poset.labels[j]}" for i, j in covers]
    if args.dot:
        Path(args.dot).write_text(export_dot(poset), encoding="utf-8")
        lines.append(f"wrote {args.dot}")
    _emit(cfg, lines,
          {"command": "lattice", "which": args.which,
           "elements": list(poset.labels), "covers": covers})
    return 0


# ---------------------------------------------------------------------------
# fixtures


def cmd_fixtures(args) -> int:
    cfg = _config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    written = []
    for name, m in canonical_models().items():
        path = outdir / f"{name}.json"
        path.write_text(dump_model(m), encoding="utf-8")
        lines.append(f"wrote {path}")
        written.append(str(path))
    _emit(cfg, lines, {"command": "fixtures", "written": written})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after.

    ``parse_args`` leaves no state in the parser and returns a fresh
    namespace, so sharing it changes no call of :func:`main`.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="containment tolerance, finite and within "
                             f"[{MIN_TOL:g}, {MAX_TOL:g}] (default: "
                             "QLPROP_TOL or 1e-9)")
    common.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                        help="interpretation enumeration cap")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")

    p = argparse.ArgumentParser(
        prog="qlprop",
        description="Proposition calculus over finite semantic models.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", parents=[common],
                        help="parse a formula and print its canonical form")
    sp.add_argument("--lang", choices=("lx", "ltq", "prag"), default="lx")
    sp.add_argument("formula")

    sp = sub.add_parser("eval", parents=[common],
                        help="evaluate a formula at a state")
    sp.add_argument("--model", required=True)
    sp.add_argument("--lang", choices=("lx", "ltq", "prag"), default="lx")
    sp.add_argument("--state", required=True)
    sp.add_argument("--object", help="object chosen at --state")
    sp.add_argument("--interp", help="full interpretation, e.g. S1=u1,S2=v1")
    sp.add_argument("--qtruth", action="store_true",
                    help="three-valued truth instead of T/F")
    sp.add_argument("formula")

    sp = sub.add_parser("props", parents=[common],
                        help="print a formula's proposition")
    sp.add_argument("--model", required=True)
    sp.add_argument("--lang", choices=("lx", "ltq"), default="lx")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--physical", action="store_true",
                       help="states where the formula is certain (default)")
    group.add_argument("--individual", metavar="INTERP",
                       help="states where it holds under the interpretation")
    group.add_argument("--forall", action="store_true",
                       help="brute-force universal quantification")
    sp.add_argument("formula")

    sp = sub.add_parser("check", parents=[common],
                        help="run an invariant suite against a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--suite", choices=("sec3", "cm", "qm", "prag"),
                    required=True)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--assume-cmt", action="store_true",
                    help="fail if any enumerated formula lacks a witness")

    sp = sub.add_parser("lattice", parents=[common],
                        help="build a proposition lattice")
    sp.add_argument("--model", required=True)
    sp.add_argument("--which", choices=("testable", "lindenbaum", "LS"),
                    required=True)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--closed", action="store_true",
                    help="close the quotient algebra under its operations")
    sp.add_argument("--dot", metavar="FILE", help="write a DOT Hasse diagram")

    sp = sub.add_parser("fixtures", parents=[common],
                        help="write the canonical model files")
    sp.add_argument("--out", default=".")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up per call, so a wrapped or patched cmd_* is the one run
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (e.g. ``qlprop ... | head -1``).  Point
        # stdout at devnull so the interpreter's final flush stays quiet,
        # as the documentation of the ``signal`` module recommends.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 1  # no file descriptor, so no final flush to quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except ParseError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except QlpropError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reading --model, writing --dot or --out
        name = ("FileNotFound" if isinstance(exc, FileNotFoundError)
                else type(exc).__name__)
        print(f"ERROR {name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
