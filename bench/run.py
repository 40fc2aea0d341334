"""qlprop benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --describe

Each workload runs in fresh child processes (bench/worker.py), one
thread each, with the BLAS thread count pinned to 1.  This process
never imports qlprop: it generates the request plan, computes the known
answers with the oracles in bench/oracle.py and checks every answer the
children report.

``--trace 0`` reports the end-to-end metrics: the median of several
cold set-ups, then one measuring child that runs whole passes over the
workload's fixed batch for ``--seconds``.  ``--trace 1`` reports the
per-layer metrics: one untraced reference pass and two traced passes in
separate children, whose counts must agree exactly.

The last stdout line is the JSON result; the lines before it list every
metric with its unit, the work-size facts and the machine.
``--describe`` lists the workloads and metrics of BENCHMARK.json and the
machine facts, then runs the benchmark's self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from calibrate import REFERENCE_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_SAMPLES = 6  # cold set-ups per run, the measuring child's included
CHILD_TIMEOUT = 170.0
BLAS_PIN = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not run to the end."""


# ---------------------------------------------------------------------------
# Children


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload: str, seed: int, workdir: Path, mode: str, deadline: float,
          **extra) -> tuple[float, dict | None]:
    """Run one worker; return (set-up seconds, scaled by a calibration
    slice run just before it, and the worker's JSON result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--mode", mode]
    for k, v in extra.items():
        cmd += [f"--{k}", str(v)]
    slice_s = calibrate()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                          stdout=subprocess.PIPE) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(1.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup_s = (time.perf_counter() - t0) * REFERENCE_S / slice_s
            if line != "READY\n":
                raise BenchError(f"{mode} child did not finish set-up: {line!r}")
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Plan and known answers


def read_docs(workload: str, workdir: Path) -> oracle.ModelDocs:
    return oracle.ModelDocs({
        stem: json.loads((workdir / f"{stem}.json").read_text(encoding="utf-8"))
        for stem in workloads.model_files(workload)})


def make_plan(workload: str, seed: int, workdir: Path):
    """(argv per operation, known answer per operation, work-size facts)."""
    docs = read_docs(workload, workdir)
    rel = workdir.relative_to(ROOT)
    ops, expected, work = [], [], {}
    if workload == "query-stream":
        reqs = workloads.query_requests(seed, docs,
                                        lambda m: str(rel / f"{m}.json"))
        for r in reqs:
            ops.append(r["argv"])
            expected.append(oracle.expected_answer(r, docs))
        work = workloads.query_work(reqs)
    else:
        for label, stem, tail in workloads.VERIFY_BATCH[workload]:
            suite, depth = tail[1], int(tail[3])
            lines, rc, facts = oracle.expected_check(suite, depth, docs[stem])
            ops.append(["check", "--model", str(rel / f"{stem}.json")] + tail)
            expected.append((rc, "\n".join(lines) + "\n", ""))
            work.update({f"{label}.{k}": v for k, v in facts.items()})
    return ops, expected, work


def input_digest(workload: str, workdir: Path) -> dict:
    return {stem: (workdir / f"{stem}.json").read_bytes()
            for stem in workloads.model_files(workload)}


def check_answers(result: dict, expected: list) -> tuple[int, int, list]:
    """(attempted, failed, first mismatches) of one child's answers."""
    attempted = failed = 0
    bad = []
    for i, rc, out, err, n in result["answers"]:
        want_rc, want_out, err_prefix = expected[i]
        ok = rc == want_rc and out == want_out and (
            err.startswith(err_prefix) if err_prefix else "Traceback" not in err)
        attempted += n
        if not ok:
            failed += n
            bad.append({"op": i, "got": [rc, out[:300], err[:300]],
                        "want": [want_rc, want_out[:300], err_prefix]})
    return attempted, failed, bad


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(result: dict) -> list[float]:
    """Each operation's time: the median over the run's passes of its
    wall time scaled by the calibration slices around it."""
    scaled = [[t * REFERENCE_S / c for t, c in zip(lat, cal)]
              for lat, cal in zip(result["latencies"], result["calibration"])]
    return [statistics.median(reps) for reps in zip(*scaled)]


def end_to_end(setups: list[float], result: dict) -> dict:
    times = op_times(result)
    ms = [x * 1e3 for x in times]
    return {
        "setup_s": statistics.median(setups),
        "batch_s": sum(times),
        "request_p50_ms": percentile(ms, 50),
        "request_p99_ms": percentile(ms, 99),
        "requests_per_s": len(times) / sum(times),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }


def count_table(summary: dict) -> dict:
    """Every call count and counter of a traced run; they are exact."""
    table = {n: v["calls"] for n, v in summary["functions"].items()}
    table.update(summary["counters"])
    return table


def per_layer(summary: dict) -> dict:
    f, c = summary["functions"], summary["counters"]

    def calls(*names):
        return sum(f[n]["calls"] for n in names)

    def self_s(*names):
        return sum(f[n]["self_s"] for n in names)

    def layer(name):
        return sum(v["self_s"] for v in f.values() if v["layer"] == name)

    parse = ("syntax.parse_lx", "syntax.parse_tq", "syntax.parse_prag")
    fmt = ("syntax.format_lx", "syntax.format_tq", "syntax.format_prag")
    lookups = c.get("quantum.witness.cache_lookups", 0)
    return {
        "cli.self_s": layer("cli"),
        "cli.requests": calls("cli.main"),
        "cli.check.sec3_s": f["cli._suite_sec3"]["incl_s"],
        "cli.check.cm_s": f["cli._suite_cm"]["incl_s"],
        "cli.check.qm_s": f["cli._suite_qm"]["incl_s"],
        "cli.check.prag_s": f["cli._suite_prag"]["incl_s"],
        "syntax.self_s": layer("syntax"),
        "syntax.parse.calls": calls(*parse),
        "syntax.parse.self_s": self_s(*parse),
        "syntax.format.calls": calls(*fmt),
        "syntax.format.self_s": self_s(*fmt),
        "model.self_s": layer("model"),
        "model.load.calls": calls("model.load_model"),
        "model.load.self_s": self_s("model.load_model"),
        "model.build.self_s": self_s("model.make_model", "model.build_qm_model"),
        "model.interpretations": c.get("model.interpretations", 0),
        "semantics.self_s": layer("semantics"),
        "semantics.enumerate.self_s": self_s("semantics.enumerate_formulas",
                                             "semantics.enumerate_tq_formulas"),
        "semantics.formulas_enumerated": c.get("semantics.formulas_enumerated", 0),
        "semantics.extension_of.calls": calls("semantics.extension_of"),
        "semantics.lt.classes": c.get("semantics.lt.classes", 0),
        "semantics.lt_closed.classes": c.get("semantics.lt_closed.classes", 0),
        "semantics.closed.self_s": self_s("semantics.LTAlgebra.closed"),
        "lattice.self_s": layer("lattice"),
        "lattice.check_boolean.self_s": self_s("lattice.check_boolean"),
        "lattice.check_boolean.triples": c.get("lattice.check_boolean.triples", 0),
        "lattice.check_ortho_modular.self_s": self_s("lattice.check_ortho_modular"),
        "lattice.build_poset.calls": calls("lattice.build_poset"),
        "lattice.build_poset.elements": c.get("lattice.build_poset.elements", 0),
        "hilbert.self_s": layer("hilbert"),
        "hilbert.contains.calls": calls("hilbert.contains"),
        "hilbert.ortho.calls": calls("hilbert.ortho"),
        "hilbert.meet.calls": calls("hilbert.meet"),
        "hilbert.join.calls": calls("hilbert.join"),
        "hilbert.certain_states.calls": calls("hilbert.certain_states"),
        "hilbert.state_lattice.self_s": self_s("hilbert.state_lattice"),
        "quantum.self_s": layer("quantum"),
        "quantum.witness.calls": calls("quantum.witness_property"),
        "quantum.witness.cache_lookups": lookups,
        "quantum.witness.cache_hit_ratio":
            c.get("quantum.witness.cache_hits", 0) / lookups if lookups else 0.0,
        "quantum.q_truth.calls": calls("quantum.q_truth"),
        "pragmatic.self_s": layer("pragmatic"),
        "pragmatic.justified.calls": calls("pragmatic.justified"),
    }


# ---------------------------------------------------------------------------
# Machine facts and BENCHMARK.json


def machine() -> dict:
    facts = {"nproc": os.cpu_count(),
             "cpus_allowed": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "platform": platform.platform(),
             "blas_threads": BLAS_PIN["OPENBLAS_NUM_THREADS"]}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        facts["blas"] = deps.get("blas", {}).get("name")
    except (ImportError, TypeError, AttributeError):
        facts.setdefault("numpy", None)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                 if ln.startswith("model name")), None)
    except OSError:
        facts["cpu"] = None
    return facts


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units() -> dict:
    spec = benchmark_json()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def describe() -> int:
    spec = benchmark_json()
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better, "
              f"bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better")
    print("machine:")
    for k, v in machine().items():
        print(f"  {k}: {v}")
    print("answer checks and self-tests:")
    import selftest
    return selftest.main()


# ---------------------------------------------------------------------------
# One run


def run_untraced(workload, seed, workdir, plan, deadline, seconds,
                 first_setup_s, out):
    """Cold set-ups and one measuring child; returns its result."""
    inputs = input_digest(workload, workdir)
    setups = [first_setup_s]
    for _ in range(SETUP_SAMPLES - 2):
        setups.append(spawn(workload, seed, workdir, "setup", deadline)[0])
        if input_digest(workload, workdir) != inputs:
            out["notes"].append("set-up wrote different inputs for one seed")
    setup_s, res = spawn(workload, seed, workdir, "measure", deadline,
                         plan=plan, seconds=seconds)
    setups.append(setup_s)
    out["metrics"] = end_to_end(setups, res)
    out["unscaled_batch_s"] = sum(statistics.median(reps)
                                  for reps in zip(*res["latencies"]))
    return [res]


def run_traced(workload, seed, workdir, plan, deadline, out):
    """One reference child and two traced children; returns their results."""
    _, ref = spawn(workload, seed, workdir, "reference", deadline, plan=plan)
    spans = WORK / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    traced = [spawn(workload, seed, workdir, "trace", deadline, plan=plan,
                    spans=spans / f"{workload}.{k}.tsv")[1] for k in (1, 2)]
    counts = [count_table(r["trace"]) for r in traced]
    differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                    if counts[0].get(k) != counts[1].get(k))
    if differ:
        out["notes"].append(f"counts differ between two traced runs: {differ[:10]}")
    a, b = (per_layer(r["trace"]) for r in traced)
    out["metrics"] = {k: v if v == b[k] else (v + b[k]) / 2 for k, v in a.items()}
    out["metrics"]["trace.overhead_ratio"] = (
        statistics.mean(sum(op_times(r)) for r in traced) / sum(op_times(ref)))
    return traced + [ref]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT
    workdir = WORK / f"{workload}-s{seed}-{os.getpid()}"
    try:
        first_setup_s, _ = spawn(workload, seed, workdir, "setup", deadline)
        ops, expected, work = make_plan(workload, seed, workdir)
        plan = workdir / "plan.json"
        plan.write_text(json.dumps({"ops": ops}), encoding="utf-8")
        out = {"work": work, "notes": [], "unscaled_batch_s": None}
        if work != workloads.EXPECTED_WORK[workload]:
            out["notes"].append(f"work size differs from the fixed facts: {work}")
        if trace:
            results = run_traced(workload, seed, workdir, plan, deadline, out)
        else:
            results = run_untraced(workload, seed, workdir, plan, deadline,
                                   seconds, first_setup_s, out)
        out["attempted"] = out["failed"] = 0
        out["mismatches"] = []
        for r in results:
            a, f, bad = check_answers(r, expected)
            out["attempted"] += a
            out["failed"] += f
            out["mismatches"] += bad
        out["samples"] = len(results[0]["latencies"][0])
        out["passes"] = len(results[0]["latencies"])
        out["blas"] = results[0]["blas_threads"]
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload: str, seed: int, trace: bool, out: dict):
    unit = units()
    print(f"workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'} run")
    for k, v in machine().items():
        print(f"machine {k}: {v}")
    print(f"child BLAS threads: {out['blas']}")
    print(f"work: {json.dumps(out['work'], sort_keys=True)}")
    print(f"passes {out['passes']}, timed operations (latency samples) "
          f"{out['samples']}")
    for name, value in out["metrics"].items():
        print(f"{name} = {value:.6g} {unit.get(name, '')}")
    if out["unscaled_batch_s"] is not None:
        print(f"batch time before calibration scaling = "
              f"{out['unscaled_batch_s']:.6g} s")
    ratio = out["failed"] / out["attempted"]
    print(f"failed_ratio = {ratio:.6g} ({out['failed']} of {out['attempted']} "
          "operations)")
    for m in out["mismatches"][:5]:
        print(f"mismatch: {json.dumps(m)}", file=sys.stderr)
    for n in out["notes"]:
        print(f"check failed: {n}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "qlprop" / "__init__.py").is_file():
        print(f"no qlprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.describe:
        return describe()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            oracle.OracleError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, bool(args.trace), out)
    correct = out["failed"] == 0 and not out["notes"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": {k: {"value": v, "unit": units()[k]}
                                  for k, v in out["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
