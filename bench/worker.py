"""Child process of the qlprop benchmark: one workload, one process.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR
        --mode setup|measure|reference|trace [--plan FILE] [--seconds S]
        [--spans FILE]

Set-up imports qlprop from the checkout's ``src`` and generates, builds
and writes the workload's model files into DIR; then the worker prints
``READY``.  ``setup`` stops there.  The other modes read the plan the
parent wrote (the argv of every operation in one pass) and run it
in-process through ``qlprop.cli.main``:

* ``measure`` runs whole passes until ``--seconds`` have elapsed (at
  least MIN_PASSES of them), with a calibration slice every EVERY_S;
* ``reference`` runs one pass the same way, the base of the trace
  overhead ratio;
* ``trace`` wraps the layers before set-up and runs one pass, with
  calibration slices only before and after it.

The last stdout line is a JSON object with every operation's wall time
(calibration slices excluded) and the mean slice time around it, the
answers seen (deduplicated, with counts) and ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import workloads
from calibrate import EVERY_S, calibrate

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_qlprop():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qlprop
    if Path(qlprop.__file__).resolve().parent != src / "qlprop":
        raise SystemExit(f"qlprop imported from {qlprop.__file__}, not {src}")
    import qlprop.cli  # noqa: F401  (the subcommands import every layer)
    return qlprop


def setup(ql, workload: str, seed: int, workdir: Path):
    """Generate, build and write the workload's model files."""
    model = ql.model
    workdir.mkdir(parents=True, exist_ok=True)
    built = {}
    if workload == "verify-classical":
        for stem, doc in workloads.classical_models(seed).items():
            built[stem] = model.make_model(**doc)
    elif workload == "verify-quantum":
        rays, subspaces = workloads.qubit_geometry(seed)
        built["qubit"] = model.build_qm_model(2, rays, subspaces,
                                              universe_size=2, policy="born")
        built["m_qutrit"] = model.m_qutrit()
    else:
        built = model.canonical_models()
    for stem in workloads.model_files(workload):
        (workdir / f"{stem}.json").write_text(model.dump_model(built[stem]),
                                              encoding="utf-8")


def run_op(main, argv, tracer=None, request=-1):
    """One qlprop invocation in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request = request
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is an answer to report
            rc = -1
            traceback.print_exc(file=err)
    return rc, out.getvalue(), err.getvalue()


class Sampler:
    """Runs a calibration slice on entry and exit and, if ``periodic``,
    every EVERY_S seconds from a timer signal, so that host speed is
    sampled inside long operations too.  Traced runs are not periodic:
    a slice inside a span would count as the layer's own time."""

    def __init__(self, periodic: bool):
        self.periodic = periodic
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, *_):
        t0 = time.perf_counter()
        self.took.append(calibrate())
        self.at.append(t0)

    def __enter__(self):
        self._tick()
        if self.periodic:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall time of [t0, t1] without the slices run inside it, mean
        time of those slices and of the nearest slice on either side)."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        inside = self.took[lo:hi]
        near = self.took[max(lo - 1, 0):hi + 1]
        return t1 - t0 - sum(inside), sum(near) / len(near)


def run_passes(main, ops, seconds: float, min_passes: int, tracer=None):
    """Whole passes over ``ops``.

    Returns per pass the wall time of every operation and the mean
    calibration slice time around it, and the answers seen with their
    counts.
    """
    answers: dict[tuple, int] = {}
    spans: list[list[tuple[float, float]]] = []
    with Sampler(periodic=tracer is None) as sampler:
        start = time.perf_counter()
        while len(spans) < min_passes or time.perf_counter() - start < seconds:
            span = []
            for i, argv in enumerate(ops):
                t0 = time.perf_counter()
                ans = run_op(main, argv, tracer, i)
                span.append((t0, time.perf_counter()))
                key = (i,) + ans
                answers[key] = answers.get(key, 0) + 1
            spans.append(span)
    measured = [[sampler.measure(t0, t1) for t0, t1 in span] for span in spans]
    latencies = [[m[0] for m in row] for row in measured]
    slices = [[m[1] for m in row] for row in measured]
    return latencies, slices, answers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "reference", "trace"))
    ap.add_argument("--plan")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    ql = import_qlprop()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup(ql, args.workload, args.seed, Path(args.workdir))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    ops = plan["ops"]
    if args.mode == "measure":
        lat, cal, answers = run_passes(ql.cli.main, ops, args.seconds, MIN_PASSES)
    else:
        lat, cal, answers = run_passes(ql.cli.main, ops, 0.0, 1, tracer)

    result = {
        "latencies": lat,
        "calibration": cal,
        "answers": [list(k) + [n] for k, n in answers.items()],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
