#!/usr/bin/env python3
"""proxgml benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload cartesian-n100 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run solves the workload's cases in rounds (each round every case once, in an
order shuffled by the seed) until ``--seconds`` have passed, checks every
answer with the benchmark's own code (``checks.py``), and prints a summary
followed by one JSON line:

- ``--trace 0``: the end-to-end metrics (``END_TO_END``), with no tracing;
  times are scaled by a reference kernel timed during each solve
  (``calibrate.py``);
- ``--trace 1``: the per-layer metrics (``layers.METRICS``) from rounds with
  the tracer installed, alternating with untraced rounds that give the
  tracing overhead.

Results and environment go to ``bench/out/``; traced runs also write their
spans there.
"""

from __future__ import annotations

import os

# one thread everywhere; set before numpy or scipy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5

# name -> unit; the order BENCHMARK.json lists them
END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "fd_residual": "1",
    "newton_gap": "1",
    "ref_err": "1",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


@dataclass
class Solve:
    case: int
    eps: float
    seconds: float
    traced: bool
    outcome: object  # workloads.Outcome, or None when the solve raised
    error: str | None
    calls: dict
    nested: dict
    failed: bool = False
    kernel: list = field(default_factory=list)  # probe passes during the solve
    scale: float = 1.0  # to reference seconds
    fd_residual: float = math.nan
    newton_gap: float = math.nan
    ref_err: float = math.nan


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds to import proxgml and build the cases, each in a fresh process
    under the set-up probe, and each process's probe scale."""
    times, scales = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-child", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, scale = out.stdout.split()[-2:]
        times.append(float(seconds))
        scales.append(float(scale))
    return times, scales


def one_solve(w, index, case, tracer, probe=None) -> Solve:
    """One timed solve; with a probe, its kernel passes are taken out of the
    time and give the solve's scale."""
    from workloads import solve

    before = tracer.snapshot() if tracer else ({}, {})
    with probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span("solve"):
                    outcome = solve(w, case, tracer)
            else:
                outcome = solve(w, case)
            error = None
        except Exception as exc:  # a solve that raises is a failed solve
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if probe:
            seconds -= sum(probe.passes)
    calls, nested = {}, {}
    if tracer:
        after = tracer.snapshot()
        calls = {k: v - before[0].get(k, 0) for k, v in after[0].items()}
        nested = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
    rec = Solve(index, case.eps, seconds, tracer is not None, outcome, error, calls, nested)
    if probe:
        rec.kernel, rec.scale = list(probe.passes), probe.scale()
    return rec


def run_rounds(w, cases, seconds, rng, tracer, observers=None) -> list[Solve]:
    """Whole rounds until ``seconds`` have passed (at least one block).

    A block is one untraced round, or with a tracer one untraced round then
    one traced round.  Another block starts only if it is expected to end
    less than half a block after the deadline.  Without a tracer every
    solve runs under the workload's in-solve probe (``calibrate.Probe``).
    """
    import layers
    from calibrate import PROBES, Probe

    probe = Probe(PROBES[w.kind]) if tracer is None and w.kind in PROBES else None
    records = []
    t_start = time.perf_counter()
    while True:
        t_block = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            order = list(range(len(cases)))
            rng.shuffle(order)
            if traced:
                tracer.install("proxgml", layers.TARGETS, observers)
            try:
                for i in order:
                    records.append(one_solve(w, i, cases[i], tracer if traced else None,
                                             probe))
            finally:
                if traced:
                    tracer.uninstall()
        now = time.perf_counter()
        if now - t_start + (now - t_block) / 2 >= seconds:
            return records


def solve_seconds(records) -> float:
    """Mean over the cases of each case's median solve time, each solve
    scaled by its probe (raw when it ran without one)."""
    by_case: dict[int, list[float]] = {}
    for r in records:
        if r.outcome is not None:
            by_case.setdefault(r.case, []).append(r.seconds * r.scale)
    if not by_case:
        return math.nan
    return statistics.fmean(statistics.median(v) for v in by_case.values())


# Accuracy metrics are reported no lower than the accuracy the solve was
# asked for: below it, differences are set by where the solver stopped,
# not by whether the answer is right.  The summary prints the raw values.
def accuracy_floors(kind: str) -> dict[str, float]:
    from workloads import PROX_WEIGHT, TOL

    if kind == "cartesian":  # criterion 3 bound; 100 * outer tolerance
        return {"fd_residual": PROX_WEIGHT * TOL + 1e-10, "newton_gap": 100 * TOL,
                "ref_err": 100 * TOL}
    if kind == "oracle":  # newton_solve's residual tolerance
        return {"fd_residual": 1e-10, "newton_gap": 1e-8, "ref_err": 1e-8}
    # annulus: fixed iteration count, no tolerance; the paper prints 4-5 digits
    return {"fd_residual": 0.0, "newton_gap": 0.0, "ref_err": 5e-6}


def check_answers(w, records) -> None:
    """Set failed and the accuracy values on every record; a check that cannot
    be made fails the solve."""
    import numpy as np

    import checks

    cache: dict[tuple, tuple] = {}
    f_square = {}
    for r in records:
        if r.outcome is None:
            r.failed = True
            continue
        if w.kind == "annulus":
            lines = r.outcome.values
            const = checks.annulus_constants(lines)
            key = (r.case, hashlib.sha1(const.tobytes()).hexdigest())
            finite = checks.annulus_finite(lines)
        else:
            u = np.asarray(r.outcome.values, dtype=float)
            key = (r.case, hashlib.sha1(u.tobytes()).hexdigest())
            finite = bool(np.all(np.isfinite(u)))
        if key not in cache:
            try:
                if not finite:
                    raise checks.CheckError("non-finite value in the answer")
                if w.kind == "annulus":
                    ref = checks.ref_err_annulus(const, r.eps)
                    cache[key] = (checks.fd_residual_annulus(const, r.eps),
                                  checks.newton_gap_annulus(const, r.eps), ref,
                                  None if ref <= checks.REF_ERR_LIMIT else
                                  f"ref_err {ref:.3e} > {checks.REF_ERR_LIMIT:g}")
                else:
                    if w.n not in f_square:
                        f_square[w.n] = checks.source_on_square(w.source, w.n)
                    f = f_square[w.n]
                    ref = checks.ref_err_square(u, f) if r.eps == min(w.eps) else math.nan
                    cache[key] = (checks.fd_residual_square(u, f, r.eps),
                                  checks.newton_gap_square(u, f, r.eps), ref, None)
            except (checks.CheckError, ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
                cache[key] = (math.nan, math.nan, math.nan, f"check failed: {exc}")
        r.fd_residual, r.newton_gap, r.ref_err, problem = cache[key]
        if problem:
            r.error = problem
        r.failed = bool(problem) or not r.outcome.converged


def _max(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return max(vals) if vals else math.nan


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"  # also when the checkout is not a git repository of its own
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def summary_lines(w, records, env, setup_times, setup_scales) -> list[str]:
    lines = [f"# workload {w.name}: {env}"]
    lines.append(f"# raw setup seconds: {['%.4f' % t for t in setup_times]}")
    lines.append(f"# setup probe scales: {['%.3f' % k for k in setup_scales]}")
    kernel = [k for r in records for k in r.kernel]
    if kernel:
        lines.append(f"# {w.kind} in-solve probe: mean pass {statistics.fmean(kernel) * 1e3:.3f} ms "
                     f"over {len(kernel)} passes")
    for i, eps in enumerate(w.eps):
        rs = [r for r in records if r.case == i]
        ts = sorted(r.seconds for r in rs if r.outcome is not None)
        its = sorted({r.outcome.iterations for r in rs if r.outcome is not None})
        lines.append(
            f"# case eps={eps:g}: solves={len(rs)} failed={sum(r.failed for r in rs)} "
            f"raw median_s={statistics.median(ts) if ts else math.nan:.4f} "
            f"scaled median_s={solve_seconds(rs):.4f} "
            f"min_s={ts[0] if ts else math.nan:.4f} max_s={ts[-1] if ts else math.nan:.4f} "
            f"iterations={its} fd_residual={_max(r.fd_residual for r in rs):.4e} "
            f"newton_gap={_max(r.newton_gap for r in rs):.4e} "
            f"ref_err={_max(r.ref_err for r in rs):.4e}"
        )
    ts = sorted(r.seconds for r in records if r.outcome is not None)
    n = len(ts)
    tail = "n/a (fewer than 20 solves)"
    if n >= 20:
        p = math.floor(100 * (n - 10) / n)
        tail = f"p{p}={ts[min(n - 1, math.ceil(p / 100 * n) - 1)]:.4f} s"
    failed = sum(r.failed for r in records)
    lines.append(f"# solves={n} raw pooled median={statistics.median(ts) if ts else math.nan:.4f} s "
                 f"highest percentile with >=10 beyond: {tail}")
    lines.append(f"# fail_frac={failed / len(records):.4f} ({failed} of {len(records)})")
    for r in records:
        if r.error:
            lines.append(f"# failure eps={r.eps:g}: {r.error}")
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "proxgml" / "__init__.py").is_file():
        print(f"bench: no proxgml package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_child:
        from calibrate import PROBES, Probe

        with Probe(PROBES["setup"]) as probe:
            t0 = time.perf_counter()
            import workloads

            workloads.build_cases(workloads.WORKLOADS[args.workload])
            seconds = time.perf_counter() - t0 - sum(probe.passes)
        print(repr(seconds), repr(probe.scale()))
        return 0

    import proxgml
    import workloads

    if Path(proxgml.__file__).resolve().parent != SRC / "proxgml":
        print(f"bench: imported proxgml from {proxgml.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":  # each workload in its own process, one after another
        codes = [subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    setup_times, setup_scales = measure_setup(w.name)
    cases = workloads.build_cases(w)
    rng = random.Random(args.seed)
    tracer = kept = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer, kept = Tracer(), layers.KeptRatio()
    records = run_rounds(w, cases, args.seconds, rng, tracer, {"symalg.poly_mul": kept})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        spans_in_solves = len(tracer.name)
        if w.kind == "annulus":  # the numeric twin, once per case, traced
            import numpy as np

            tracer.install("proxgml", layers.TARGETS)
            try:
                for case in cases:
                    proxgml.polar_numeric_solve(case.problem[0], np.zeros(16))
            finally:
                tracer.uninstall()
    check_answers(w, records)

    failed = sum(r.failed for r in records)
    env = environment()
    for line in summary_lines(w, records, env, setup_times, setup_scales):
        print(line)

    if tracer:
        untraced = solve_seconds([r for r in records if not r.traced])
        traced = solve_seconds([r for r in records if r.traced])
        values = layers.per_layer_metrics(tracer, records, w.kind, kept,
                                          traced - untraced, spans_in_solves)
        units = layers.METRICS
        if tracer.absent:
            print(f"# absent (not in the package): {tracer.absent}")
        print(f"# traced solve_s={traced:.4f} untraced solve_s={untraced:.4f}")
    else:
        floors = accuracy_floors(w.kind)
        values = {
            "solve_s": solve_seconds(records),
            "setup_s": statistics.median(t * k for t, k in zip(setup_times, setup_scales)),
            "fd_residual": max(_max(r.fd_residual for r in records), floors["fd_residual"]),
            "newton_gap": max(_max(r.newton_gap for r in records), floors["newton_gap"]),
            "ref_err": max(_max(r.ref_err for r in records), floors["ref_err"]),
            "peak_rss_mb": peak_rss_mb,
            "success_frac": 1.0 - failed / len(records),
        }
        units = END_TO_END
    # JSON has no NaN; a value that could not be measured reads 1e300
    metrics = {k: {"value": values[k] if math.isfinite(values[k]) else 1e300, "unit": units[k]}
               for k in units}
    for k, m in metrics.items():
        print(f"# {k} = {m['value']!r} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-trace{args.trace}-seed{args.seed}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "args": vars(args), "setup_s_samples": setup_times,
                   "setup_scales": setup_scales,
                   "solves": [{"eps": r.eps, "seconds": r.seconds, "traced": r.traced,
                               "scale": r.scale, "probe_s": r.kernel, "failed": r.failed,
                               "error": r.error} for r in records],
                   "metrics": metrics}, fh, indent=1)
    if tracer:
        tracer.save(OUT / f"spans-{w.name}.npz")

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
