"""sjgeo benchmark: certification time, driven from outside the library.

    python3 bench/run.py --workload heavy-32 --seed 42 --seconds 25 --trace 0
    python3 bench/run.py                  # every workload in turn
    python3 bench/run.py --smoke

The benchmark makes the calls a user makes -- ``sjgeo.verify.run_check``
and the ``sjgeo.cli`` entry point -- in one process, closed loop,
``threads=1``.  A pass runs every check of the workload once; passes
repeat until the next one would overrun ``--seconds`` (at least two, so
the reports can be compared between passes).  Every pass uses the same
inputs, drawn from ``--seed``, and every report must pass at its default
tolerance.

``--trace 0`` prints the end-to-end metrics.  Their times are
host-speed corrected (see ``speed.py``): the shared hosts this runs on
drift by tens of percent within a minute, which raw times cannot gate.
The raw times are printed beside them.  ``--trace 1`` alternates
untraced and traced passes (see ``tracer.py``) and prints per-layer call
counts, self time (not corrected), raise counts and the corrected
tracing overhead.  BLAS threading is left at its default and recorded,
never pinned.

Each workload's output ends with one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every workload is ``correct``.  ``attempted`` counts ``run_check`` calls and
``failed`` those that raised or returned ``pass=false``, so
``failed / attempted`` is the fail ratio.

The package is imported from ``src/`` beside this directory, never from
an installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedSampler
from tracer import BUNDLE, RAISERS, TRACED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

N, M = 3, 2            # desk-scale corner for heavy-32 and algebra-32
MIN_PASSES = 2
SETUP_REPEATS = 5

# The LB checks cycle through 5 test fields by sample index and the
# invariance checks through 4, so these counts show every field once.
HEAVY_CHECKS = {
    "lb-equivalence-upper": 5,
    "lb-equivalence-disk": 5,
    "lb-equivalence-siegel": 5,
    "lb-equivalence-diskn": 5,
    "laplacian-invariance": 4,
    "remark41-invariance": 4,
}
ALGEBRA_CHECKS = dict.fromkeys((
    "group-laws", "theta-hom", "action-axioms", "cayley-roundtrip",
    "cayley-compat", "metric-invariance-upper", "metric-invariance-disk",
    "cayley-isometry", "tensor-pd", "pushforward-identities",
), 200)
README_SAMPLES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    checks: dict | None      # check -> samples at (N, M); None: the README command
    zero_calls: frozenset    # traced functions this workload never reaches


WORKLOADS = {w.name: w for w in (
    Workload("heavy-32",
             "the six nested finite-difference checks at (3,2): stencil engine, "
             "LB oracle and metric_tensor at chart dimension 24",
             HEAVY_CHECKS,
             frozenset({"groups.jacobi_mul", "groups.jacobistar_mul",
                        "geometry.act_siegel", "geometry.cayley_inv",
                        "metrics.q_upper", "metrics.q_disk", "metrics.q_siegel",
                        "metrics.q_disk_n", "verify.map_differential",
                        "cli.main"})),
    Workload("algebra-32",
             "the ten checks that build no second-order stencil at (3,2): the "
             "bypass workload, where a stencil or oracle change should show no change",
             ALGEBRA_CHECKS,
             frozenset({"operators.second_bundle", "operators.field_eval",
                        "operators.lap_upper", "operators.lap_disk",
                        "operators.op_invariant", "verify.laplace_beltrami",
                        "cli.main"})),
    Workload("readme-11",
             "the README's verify all at (1,1), 50 samples, through the cli entry "
             "point: chart dimension 4, where fixed per-call overhead dominates",
             None,
             frozenset()),
)}

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "headroom_min": ("log10", "higher"),
}


def per_layer_metrics() -> dict:
    """name -> (unit, better) for every per-layer metric."""
    out = {}
    for prefix, _, _ in TRACED:
        out[f"{prefix}.calls"] = ("count", "lower")
        out[f"{prefix}.self_s"] = ("s", "lower")
        if prefix in RAISERS:
            out[f"{prefix}.raised"] = ("count", "lower")
    out["operators.field_evals_per_bundle"] = ("evals/call", "lower")
    out["verify.redraw_ratio"] = ("ratio", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


# ---------------------------------------------------------------------------
# Import from the checkout


def import_package():
    """Import sjgeo from ``src/``; exit 2 if it is missing or shadowed."""
    sys.path.insert(0, str(SRC))
    try:
        import sjgeo.cli
        import sjgeo.verify
    except ImportError as exc:
        print(f"error: cannot import sjgeo from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(sjgeo.cli.__file__).resolve().parent != SRC / "sjgeo":
        print(f"error: sjgeo imported from {sjgeo.cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return sjgeo


# ---------------------------------------------------------------------------
# One pass


def _check_unit(sjgeo, name: str, samples: int, seed: int):
    def unit() -> list[dict]:
        params = sjgeo.metrics.MetricParams(1.0, 1.0)
        try:
            rep = sjgeo.verify.run_check(name, N, M, params, samples, seed, threads=1)
        except Exception as exc:   # a raising check is a counted failure
            return [{"check": name, "error": f"{type(exc).__name__}: {exc}"}]
        return [rep.to_json()]
    return unit


def _readme_unit(sjgeo, samples: int, seed: int):
    argv = ["verify", "all", "--n", "1", "--m", "1",
            "--samples", str(samples), "--seed", str(seed)]

    def unit() -> list[dict]:
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = sjgeo.cli.main(argv)
            reports = json.loads(out.getvalue())
        except Exception as exc:   # the whole command failed: every check counts
            return [{"check": name, "error": f"{type(exc).__name__}: {exc}"}
                    for name in sjgeo.verify.CHECK_NAMES]
        if code != (0 if all(r["pass"] for r in reports) else 1):
            reports.append({"check": "cli-exit-code", "error": f"exit code {code}"})
        return reports
    return unit


def pass_units(sjgeo, workload: Workload, seed: int, smoke: bool) -> list:
    """The timed calls of one pass, in order."""
    if workload.checks is None:
        return [_readme_unit(sjgeo, 2 if smoke else README_SAMPLES, seed)]
    return [_check_unit(sjgeo, name, 1 if smoke else samples, seed)
            for name, samples in workload.checks.items()]


@dataclass
class Pass:
    reports: list
    wall_s: float = 0.0       # raw wall time of the timed calls
    cpu_s: float = 0.0        # raw user + system time of the process during them
    wall_fixed: float = 0.0   # the same two, host-speed corrected (speed.py)
    cpu_fixed: float = 0.0


def run_pass(sjgeo, workload: Workload, seed: int, smoke: bool, sampler) -> Pass:
    """One pass, timed call by call under a running SpeedSampler."""
    result = Pass([])
    for unit in pass_units(sjgeo, workload, seed, smoke):
        reports, wall, cpu, wall_fixed, cpu_fixed = sampler.measure(unit)
        result.reports += reports
        result.wall_s += wall
        result.cpu_s += cpu
        result.wall_fixed += wall_fixed
        result.cpu_fixed += cpu_fixed
    return result


# ---------------------------------------------------------------------------
# Correctness


def expected_checks(sjgeo, workload: Workload) -> list[str]:
    return list(workload.checks) if workload.checks else list(sjgeo.verify.CHECK_NAMES)


def report_problems(sjgeo, workload: Workload, reports: list[dict]) -> list[str]:
    """One line per report that raised, failed or ran at a non-default tolerance."""
    problems = []
    names = [r["check"] for r in reports if r["check"] != "cli-exit-code"]
    if names != expected_checks(sjgeo, workload):
        problems.append(f"checks run {names}")
    for r in reports:
        if "error" in r:
            problems.append(f"{r['check']}: {r['error']}")
        elif not r["pass"]:
            problems.append(f"{r['check']}: max_rel {r['max_rel']:.3e} > tol {r['tol']:g}")
        elif r["tol"] != sjgeo.verify.DEFAULT_TOLERANCES[r["check"]]:
            problems.append(f"{r['check']}: tolerance {r['tol']:g} is not the default")
    return problems


def without_ms(reports: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "ms"} for r in reports]


def headroom_min(reports: list[dict]) -> float:
    """min over reports of log10(tol / max_rel); exact zeros have no bound."""
    return min((math.log10(r["tol"] / r["max_rel"]) for r in reports
                if "error" not in r and r["max_rel"] > 0.0), default=math.nan)


# ---------------------------------------------------------------------------
# Measurement


SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import sjgeo.cli; sjgeo.cli.build_parser()")


def measure_setup(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing sjgeo.cli and building its parser.

    One untimed start first, so byte-code compilation is not counted.
    """
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def _done(start: float, rounds: int, seconds: float, smoke: bool) -> bool:
    """Stop after MIN_PASSES rounds once another round would overrun ``seconds``."""
    if rounds < MIN_PASSES:
        return False
    elapsed = time.perf_counter() - start
    return smoke or elapsed * (rounds + 1) / rounds > seconds


def measure(sjgeo, workload, seed, seconds, smoke, sampler, trace: bool):
    """Closed loop of passes; with ``trace`` each is followed by a traced one.

    Returns the untraced passes, the traced passes and their tracers.  Spans
    are timed on a clock that stops while the sampler runs.
    """
    run_pass(sjgeo, workload, seed, True, sampler)       # warm lazy imports and caches
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not _done(start, len(plain), seconds, smoke):
        plain.append(run_pass(sjgeo, workload, seed, smoke, sampler))
        if trace:
            with Tracer(clock=sampler.work_clock) as tr:
                traced.append(run_pass(sjgeo, workload, seed, smoke, sampler))
            tracers.append(tr)
    return plain, traced, tracers


def _samples(reports) -> int:
    return sum(r.get("samples", 0) for r in reports)


def end_to_end(passes, setup) -> dict:
    """The end-to-end metrics; every time in them is host-speed corrected.

    The interpreter starts in ``setup`` are scaled by the speed factor the
    sampler measured over the passes: a sampler running beside the child
    process would measure their contention, not the host.
    """
    reports = passes[0].reports
    speed_factor = sum(p.wall_fixed for p in passes) / sum(p.wall_s for p in passes)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": statistics.median(setup) * speed_factor,
        "wall_s": statistics.median(p.wall_fixed for p in passes),
        "samples_per_s": statistics.median(_samples(reports) / p.wall_fixed for p in passes),
        "cpu_s": statistics.median(p.cpu_fixed for p in passes),
        "peak_rss_mb": rss,
        "headroom_min": headroom_min(reports),
    }


def per_layer(plain, traced, tracers) -> dict:
    first = tracers[0]
    out = {}
    for prefix, _, _ in TRACED:
        out[f"{prefix}.calls"] = first.calls[prefix]
        out[f"{prefix}.self_s"] = statistics.median(t.self_s[prefix] for t in tracers)
        if prefix in RAISERS:
            out[f"{prefix}.raised"] = first.raised[prefix]
    bundles = first.calls[BUNDLE]
    out["operators.field_evals_per_bundle"] = (first.bundle_field_evals / bundles
                                               if bundles else 0.0)
    reports = plain[0].reports
    retries = sum(r.get("retries", 0) for r in reports)
    out["verify.redraw_ratio"] = retries / (_samples(reports) + retries)
    out["trace.overhead_s"] = (statistics.median(p.wall_fixed for p in traced)
                               - statistics.median(p.wall_fixed for p in plain))
    return out


def trace_problems(workload, plain, traced, tracers) -> list[str]:
    """The traced run must change nothing and cover every layer it should."""
    problems = []
    base = without_ms(plain[0].reports)
    if any(without_ms(p.reports) != base for p in traced):
        problems.append("traced reports differ from untraced reports")
    counts = tracers[0].counts()
    if any(t.counts() != counts for t in tracers[1:]):
        problems.append("call counts differ between traced passes")
    for prefix, _, _ in TRACED:
        calls = counts[f"{prefix}.calls"]
        if prefix in workload.zero_calls and calls:
            problems.append(f"{prefix}: {calls} calls where none are expected")
        elif prefix not in workload.zero_calls and not calls:
            problems.append(f"{prefix}: no calls; renamed or bypassed?")
    return problems


# ---------------------------------------------------------------------------
# Environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "threads": 1,
    }


# ---------------------------------------------------------------------------
# Entry point


def run(sjgeo, workload: Workload, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """Measure one workload; return the result object printed as the last line."""
    setup = [] if trace else measure_setup(1 if smoke else SETUP_REPEATS)
    with SpeedSampler() as sampler:
        plain, traced, tracers = measure(sjgeo, workload, seed, seconds, smoke,
                                         sampler, trace)
    passes = plain + traced
    raw = {}
    if trace:
        metrics = per_layer(plain, traced, tracers)
        units = per_layer_metrics()
    else:
        metrics = end_to_end(passes, setup)
        units = END_TO_END
        raw = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(p.wall_s for p in passes),
               "cpu_s": statistics.median(p.cpu_s for p in passes)}

    problems, failed, attempted = [], 0, 0
    for p in passes:
        bad = report_problems(sjgeo, workload, p.reports)
        failed += len(bad)
        attempted += len(expected_checks(sjgeo, workload))
        problems += bad
    base = without_ms(passes[0].reports)
    if any(without_ms(p.reports) != base for p in passes):
        problems.append("reports differ between passes of the same seed")
    if trace:
        problems += trace_problems(workload, plain, traced, tracers)
    elif not math.isfinite(metrics["headroom_min"]):
        problems.append("no report has a non-zero residual")

    print(f"workload {workload.name}: seed {seed}, {len(passes)} passes")
    for k, p in enumerate(passes):
        print(f"pass {k}: wall_s {p.wall_s:.4f} cpu_s {p.cpu_s:.4f} "
              f"corrected wall_s {p.wall_fixed:.4f} cpu_s {p.cpu_fixed:.4f} check_ms "
              + json.dumps({r["check"]: round(r.get("ms", math.nan), 1) for r in p.reports}))
    print(f"fail_ratio {failed / attempted} ({failed} of {attempted} run_check calls)")
    for name, value in metrics.items():
        print(f"{name:<40s} {value!r:>24} {units[name][0]}")
    for name, value in raw.items():
        print(f"{'uncorrected ' + name:<40s} {value!r:>24} {units[name][0]}")
    for line in problems:
        print(f"problem: {line}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }


def smoke(sjgeo) -> int:
    """Tiny sample counts on every workload, traced and untraced; checks that
    every declared metric appears with its unit, here and in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    ours = {False: {k: u for k, (u, _) in END_TO_END.items()},
            True: {k: u for k, (u, _) in per_layer_metrics().items()}}
    errors = [f"BENCHMARK.json and run.py disagree on trace={int(t)} metrics"
              for t in (False, True) if want[t] != ours[t]]
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json and run.py disagree on the workloads")
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = run(sjgeo, workload, 42, 0, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{workload.name} trace={int(trace)}: metrics {sorted(got)}")
            if not result["correct"]:
                errors.append(f"{workload.name} trace={int(trace)}: not correct")
    for line in errors:
        print(f"smoke: {line}")
    print("smoke: ok" if not errors else "smoke: FAILED")
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all",
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sample counts on every workload; checks metric names")
    args = parser.parse_args(argv)

    sjgeo = import_package()
    os.environ.pop("SJGEO_THREADS", None)     # the cli default is then threads=1
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.smoke:
        return smoke(sjgeo)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run(sjgeo, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
