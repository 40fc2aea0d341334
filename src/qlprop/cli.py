"""Command line front end.

Subcommands: ``parse`` (canonical form or positioned syntax error),
``eval`` (truth / Q-truth / justification at a state), ``props``
(individual, physical and brute-force universal propositions),
``check`` (invariant suites), ``lattice`` (poset construction and DOT
export) and ``fixtures`` (write the canonical model files).

Exit codes: 0 success, 1 domain error (reported as ``ERROR <name>``)
or an output pipe closed by its reader (reported not at all), 2 usage
error.  A warning is printed as one stderr line, ``WARNING <Category>:
<message>``.  The containment tolerance can be set with ``--tol`` or the
``QLPROP_TOL`` environment variable; :func:`qlprop.hilbert.check_tol`
validates either, once, before the subcommand runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from .errors import ParseError, QlpropError
from .hilbert import DEFAULT_TOL, MAX_TOL, MIN_TOL, check_tol, state_lattice
from .lattice import check_boolean, check_ortho_modular, export_dot, set_label
from .model import (
    Model,
    canonical_models,
    check_cms,
    default_interpretation,
    dump_model,
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
    _check_cap,
    check_depth,
    forall_proposition,
    individual_proposition,
    is_true,
    lindenbaum_tarski,
    physical_proposition,
    testable_proposition_poset,
)
from .syntax import (
    format_lx,
    format_prag,
    format_tq,
    parse_lx,
    parse_prag,
    parse_tq,
)

__all__ = ["main"]


def _tol(args) -> float:
    """The containment tolerance, from ``--tol`` or ``QLPROP_TOL``;
    :func:`main` validates it before any subcommand runs and stores it
    as ``args.tol``."""
    if args.tol is not None:
        return check_tol(args.tol, "--tol")
    env = os.environ.get("QLPROP_TOL")
    return check_tol(env, "QLPROP_TOL") if env else DEFAULT_TOL


def _path(name: str, option: str) -> Path:
    """``name`` as a file path; no file name can hold a NUL character,
    which Python's file functions reject with a ``ValueError``."""
    if "\0" in name:
        raise QlpropError(f"{option} {name!r} contains a NUL character")
    return Path(name)


def _load(args) -> Model:
    return load_model(_path(args.model, "--model").read_bytes(), tol=args.tol)


def _parse_interp(m: Model, text: str) -> dict[str, str]:
    overrides = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise QlpropError(f"bad interpretation entry {part!r}; "
                              "use state=object")
        s, o = (x.strip() for x in part.split("=", 1))
        if s in overrides:
            raise QlpropError(f"state {s!r} named twice in the interpretation")
        overrides[s] = o
    return default_interpretation(m, overrides)


def _emit(args, lines: list[str], payload: dict):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# parse


def cmd_parse(args) -> int:
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
    _emit(args, [canonical],
          {"command": "parse", "lang": args.lang, "canonical": canonical})
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    # refused, not dropped: assertive formulas have no Q-truth, and
    # neither they nor Q-truth depend on the chosen objects
    if args.lang == "prag" and args.qtruth:
        raise QlpropError("--qtruth cannot be used with --lang prag")
    if args.lang == "prag" or args.qtruth:
        mode = "--lang prag" if args.lang == "prag" else "--qtruth"
        for option, value in (("--object", args.object),
                              ("--interp", args.interp)):
            if value is not None:
                raise QlpropError(f"{option} cannot be used with {mode}")
    if args.object is not None and args.interp is not None:
        raise QlpropError("--object cannot be used with --interp")
    m = _load(args)
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
    _emit(args, [value], {"command": "eval", "lang": args.lang,
                         "state": args.state, "value": value})
    return 0


# ---------------------------------------------------------------------------
# props


def cmd_props(args) -> int:
    if args.enum_cap is not None and not args.forall:
        raise QlpropError("--enum-cap requires --forall")
    if args.enum_cap is not None and args.enum_cap < 0:
        raise QlpropError(f"--enum-cap {args.enum_cap} is negative")
    if args.lang == "ltq" and (args.individual is not None or args.forall):
        raise QlpropError("quantum formulas support --physical only")
    m = _load(args)
    if args.lang == "ltq":
        f = parse_tq(args.formula)
        kind, prop = "physical", tq_physical_proposition(m, f)
    else:
        # the formula is parsed before the interpretation is read
        f = parse_lx(args.formula)
        if args.individual is not None:
            interp = _parse_interp(m, args.individual)
            kind, prop = "individual", individual_proposition(m, interp, f)
        elif args.forall:
            kind, prop = "forall", forall_proposition(m, f, cap=args.enum_cap)
        else:
            kind, prop = "physical", physical_proposition(m, f)
    lines = [set_label(prop, m.states)]
    payload: dict = {"command": "props", "kind": kind, "states": sorted(prop)}
    if kind == "forall":
        lines.append("matches per-state form: yes")
        payload["matches_physical"] = True
    _emit(args, lines, payload)
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
    # profiles are slot ints and propositions are masks of full state
    # blocks (see qlprop.semantics.ProfileKernel).  Every verdict depends
    # on a formula's profile only, and the classes come in order of their
    # first formula, so the first strict formula is the first strict
    # class's representative and the first strict formula pair is the
    # first strict class pair in row-major order.
    k = m.kernel
    full = k.full
    top = k.universe
    lt = lindenbaum_tarski(m, depth)
    classes = [(v, c.representative, full(v))
               for v, c in zip(lt.bits, lt.classes)]

    neg_ok = True
    neg_strict = None
    for v, f, p in classes:
        pn = full(top ^ v)
        if pn & p:
            neg_ok = False
        elif neg_strict is None and pn != top ^ p:
            neg_strict = format_lx(f)
    out.passfail(neg_ok, "negation proposition below set complement")
    if neg_strict:
        out.report(f"strict negation inclusion at {neg_strict!r}")

    conj_ok = True
    disj_ok = True
    strict = None
    for va, fa, pa in classes:
        for vb, fb, pb in classes:
            if full(va & vb) != pa & pb:
                conj_ok = False
            por = full(va | vb)
            union = pa | pb
            if union & ~por:
                disj_ok = False
            elif strict is None and union != por:
                strict = (format_lx(fa), format_lx(fb))
    out.passfail(conj_ok, "conjunction proposition equals intersection")
    out.passfail(disj_ok, "disjunction proposition above union")
    if strict:
        out.report(f"strict disjunction inclusion at {strict!r}")


def _suite_cm(m: Model, depth: int, assume_cmt: bool, out: _Suite):
    ok, witness = check_cms(m)
    out.passfail(ok, "every extension full or empty",
                 "" if ok else f"witness {witness}")
    _check_cap(depth)
    k = m.kernel
    # each check below reads a formula's profile only, so it runs over
    # the classes of the formulas up to depth 2.  The law checks read
    # their closure: at every depth from 1 up, the closure is the Boolean
    # algebra that the atoms' cells generate, so a deeper quotient closes
    # into the same profiles with other representatives, which only a
    # failed law would print, and no law fails on a field of sets
    low = lindenbaum_tarski(m, min(depth, 2))
    # the slots of each profile v outside its full blocks.  None is left
    # exactly when every state block is full or empty in every profile,
    # which is when truth is independent of the interpretation.  It is
    # also when the individual propositions collapse: the picked slots
    # that hold are those in full blocks, v & pick == full(v) & pick, and
    # every universe is non-empty, so every slot is picked by some
    # interpretation.  The count gate is kept so that the second line
    # appears on the same models.
    diff = 0
    for v in low.bits:
        diff |= v ^ k.full(v)
    out.passfail(not diff, "truth independent of the interpretation")
    if interpretation_count(m) <= 10 ** 4:
        out.passfail(not diff, "individual propositions collapse to physical")
    untestable = [c for v, c in zip(low.bits, low.classes)
                  if k.witness(v) is None]
    count = sum(c.size for c in untestable)
    if assume_cmt:
        out.passfail(not untestable, "every formula testable",
                     "" if not untestable
                     else f"{count} formulas lack a witness, "
                     f"first {format_lx(untestable[0].representative)!r}")
    elif untestable:
        total = sum(c.size for c in low.classes)
        out.report(f"{count} of {total} formulas lack a testable witness")
    rep = check_boolean(low.closed().poset)
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
    # the state lattice holds one element per certain-state set that occurs
    out.report(f"certain-state map injective: "
               f"{'yes' if lat.poset.n == len(m.properties) else 'no'}")


def _suite_prag(m: Model, depth: int, out: _Suite):
    rep = check_preservation(m, depth)
    out.passfail(rep.ok, f"assertive translation preserves semantics "
                 f"({rep.formulas} formulas, {rep.classes} classes)",
                 "" if rep.ok else f"first {rep.counterexamples[0]!r}")


_SUITE_DEPTH = {"sec3": 2, "cm": 3, "qm": 2, "prag": 3}


def cmd_check(args) -> int:
    if args.assume_cmt and args.suite != "cm":
        raise QlpropError("--assume-cmt requires --suite cm")
    m = _load(args)
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
    _emit(args, out.lines,
          {"command": "check", "suite": args.suite,
           "ok": not out.failed, "lines": out.lines})
    return 1 if out.failed else 0


# ---------------------------------------------------------------------------
# lattice


def cmd_lattice(args) -> int:
    if args.closed and args.which != "lindenbaum":
        raise QlpropError("--closed requires --which lindenbaum")
    m = _load(args)
    if args.depth is not None:  # refused for every --which, LS included
        check_depth(args.depth)
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
        _path(args.dot, "--dot").write_text(export_dot(poset), encoding="utf-8")
        lines.append(f"wrote {args.dot}")
    _emit(args, lines,
          {"command": "lattice", "which": args.which,
           "elements": list(poset.labels), "covers": covers})
    return 0


# ---------------------------------------------------------------------------
# fixtures


def cmd_fixtures(args) -> int:
    outdir = _path(args.out, "--out")
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    written = []
    for name, m in canonical_models().items():
        path = outdir / f"{name}.json"
        path.write_text(dump_model(m), encoding="utf-8")
        lines.append(f"wrote {path}")
        written.append(str(path))
    _emit(args, lines, {"command": "fixtures", "written": written})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# each subcommand's parser by name, kept by _build_parser for main
_SUBPARSERS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after.

    ``parse_args`` leaves no state in the parser and returns a fresh
    namespace, so sharing it changes no call of :func:`main`.  The
    parser of each subcommand is kept in ``_SUBPARSERS`` under its name,
    so that :func:`main` can hand a command line to it directly.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="containment tolerance, finite and within "
                             f"[{MIN_TOL:g}, {MAX_TOL:g}] (default: "
                             "QLPROP_TOL or 1e-9)")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")

    p = argparse.ArgumentParser(
        prog="qlprop",
        description="Proposition calculus over finite semantic models.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        _SUBPARSERS[name] = sub.add_parser(name, parents=[common],
                                           help=summary)
        return _SUBPARSERS[name]

    sp = add("parse", "parse a formula and print its canonical form")
    sp.add_argument("--lang", choices=("lx", "ltq", "prag"), default="lx")
    sp.add_argument("formula")

    sp = add("eval", "evaluate a formula at a state")
    sp.add_argument("--model", required=True)
    sp.add_argument("--lang", choices=("lx", "ltq", "prag"), default="lx")
    sp.add_argument("--state", required=True)
    sp.add_argument("--object", help="object chosen at --state")
    sp.add_argument("--interp", help="full interpretation, e.g. S1=u1,S2=v1")
    sp.add_argument("--qtruth", action="store_true",
                    help="three-valued truth instead of T/F")
    sp.add_argument("formula")

    sp = add("props", "print a formula's proposition")
    sp.add_argument("--model", required=True)
    sp.add_argument("--lang", choices=("lx", "ltq"), default="lx")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--physical", action="store_true",
                       help="states where the formula is certain (default)")
    group.add_argument("--individual", metavar="INTERP",
                       help="states where it holds under the interpretation")
    group.add_argument("--forall", action="store_true",
                       help="brute-force universal quantification")
    sp.add_argument("--enum-cap", type=int, default=None,
                    help="interpretation enumeration cap (--forall only)")
    sp.add_argument("formula")

    sp = add("check", "run an invariant suite against a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--suite", choices=("sec3", "cm", "qm", "prag"),
                    required=True)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--assume-cmt", action="store_true",
                    help="fail if any enumerated formula lacks a witness")

    sp = add("lattice", "build a proposition lattice")
    sp.add_argument("--model", required=True)
    sp.add_argument("--which", choices=("testable", "lindenbaum", "LS"),
                    required=True)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--closed", action="store_true",
                    help="close the quotient algebra under its operations")
    sp.add_argument("--dot", metavar="FILE", help="write a DOT Hasse diagram")

    sp = add("fixtures", "write the canonical model files")
    sp.add_argument("--out", default=".")
    return p


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as one line, ``WARNING <Category>: <message>``, in the
    form of the ``ERROR`` lines: without the source path and source line
    of Python's default format."""
    return f"WARNING {category.__name__}: {message}\n"


def main(argv=None) -> int:
    """Run one command line, ``sys.argv[1:]`` when ``argv`` is None, and
    return its exit code; a usage error or ``-h`` exits through argparse.

    A command line that starts with a subcommand's name is parsed by
    that subcommand's parser alone, once.  Everything else (no argument,
    ``-h``, an unknown name, or words the subcommand's parser leaves over)
    is parsed by the full parser, so that every usage text and exit code
    2 is argparse's own.  Both routes give the same namespace.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    args = None
    if sub is not None:
        args, extra = sub.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extra:  # the full parser reports them
            args = None
    if args is None:
        args = parser.parse_args(argv)
    try:
        args.tol = _tol(args)  # a bad tolerance fails every subcommand
        # only the text changes: a caller's filters and recording still apply
        shown, warnings.formatwarning = warnings.formatwarning, _format_warning
        try:
            # looked up per call, so a wrapped or patched cmd_* is the one run
            code = globals()[f"cmd_{args.command}"](args)
        finally:
            warnings.formatwarning = shown
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
