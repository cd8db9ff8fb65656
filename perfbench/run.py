"""Run one lotforge benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload random-mid --seed 1 --seconds 10 --trace 0

Run it from a source checkout; it imports lotforge from ./src.  The loop is
closed, with one client: one solve at a time in this process, the next op
starting when the previous one has been checked.  Checks run outside the
timed region, and every failed or unverified op counts as failed.

--trace 0  measures whole passes over the workload's pool of 100 inputs
           until --seconds of op time have passed, with no tracing.  At
           least one pass runs, so p90 always has 10 samples above it, and
           every pool input weighs the same.  Prints the end-to-end metrics.
--trace 1  runs pairs of an untraced and a traced pass over the first
           TRACE_POOL inputs, alternating which goes first, until --seconds
           have passed and at least two pairs ran.  Prints the per-layer
           metrics, the tracing overhead among them, and writes the spans
           with layer totals and self-time shares to
           .perfbench/trace-<workload>-seed<seed>.json.

Times are nominal seconds.  On a shared host the CPU's speed can drift by
half within minutes, which would swamp any change in the solver.  So before
every op and every set-up the run times reference_seconds(), a fixed
exact-rational elimination that uses no lotforge code, and rescales each
wall time to a machine on which that reference takes REF_NOMINAL_S:
nominal = wall * REF_NOMINAL_S / (median reference time of the
2 * REF_WINDOW + 1 nearest ops).  Per-layer span times in --trace 1 are raw
wall seconds; compare their shares.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
TRACE_POOL = 16
REF_NOMINAL_S = 0.004
REF_WINDOW = 5
END_TO_END = (
    ("solve_s_p50", "s"),
    ("solve_s_p90", "s"),
    ("solves_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("cost_ratio_mean", "ratio"),
)


class Checker:
    """Checks each op's output and tallies the failures."""

    def __init__(self, workload, lib):
        self.workload = workload
        self.lib = lib
        self.attempted = 0
        self.failed = 0
        self.first_output: dict[int, str] = {}
        self.ratios: dict[int, object] = {}

    def problems(self, idx: int, case, out) -> list[str]:
        found, ratio = self.workload.check(self.lib, case, out)
        output = self.workload.fingerprint(case, out)
        if self.first_output.setdefault(idx, output) != output:
            found.append("output differs from an earlier solve of the same input")
        if not found:
            self.ratios.setdefault(idx, ratio)
        return found

    def record(self, idx: int, case, out, error: BaseException | None) -> None:
        self.attempted += 1
        if error is not None:
            found = ["".join(traceback.format_exception(error)).strip()]
        else:
            try:
                found = self.problems(idx, case, out)
            except Exception:  # a check that cannot run is a failed op
                found = ["check failed: " + traceback.format_exc().strip()]
        if found:
            self.failed += 1
            print(f"op {self.attempted} (input {idx}) failed: {found[0]}", file=sys.stderr)


def reference_seconds() -> float:
    """Wall seconds of a fixed 10 x 11 Gauss-Jordan elimination over Fractions."""
    started = time.perf_counter()
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i * j) % 5 + 1) for j in range(11)]
            for i in range(10)]
    for c in range(10):
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for i in range(10):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - started


def nominal(timings: list[tuple[float, float]]) -> list[float]:
    """(wall, reference) seconds per op -> nominal seconds per op."""
    refs = [ref for _, ref in timings]
    out = []
    for k, (wall, _) in enumerate(timings):
        out.append(wall * REF_NOMINAL_S
                   / statistics.median(refs[max(0, k - REF_WINDOW):k + REF_WINDOW + 1]))
    return out


def run_pass(op, cases, checker: Checker, tracer=None) -> list[tuple[float, float]]:
    """One solve per input, in order; returns (wall, reference) seconds per op."""
    timings = []
    for idx, case in enumerate(cases):
        out, error = None, None
        ref = reference_seconds()
        with tracer.op() if tracer else contextlib.nullcontext():
            started = time.perf_counter()
            try:
                out = op(case)
            except Exception as exc:  # the loop must go on; the op counts as failed
                error = exc
            timings.append((time.perf_counter() - started, ref))
        checker.record(idx, case, out, error)
    return timings


def deterministic(workload, op, case, checker: Checker) -> bool:
    """Solve the first input again; the output must match the first pass's."""
    try:
        output = workload.fingerprint(case, op(case))
    except Exception:
        traceback.print_exc()
        return False
    if output != checker.first_output.get(0):
        print("determinism check failed on input 0", file=sys.stderr)
        return False
    return True


def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile: a tenth of the samples lie above it."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def measure(workload, lib, cases, seconds: float, setup_s: float) -> dict:
    checker = Checker(workload, lib)
    timings: list[tuple[float, float]] = []
    with workload.session(lib) as op:
        while not timings or sum(wall for wall, _ in timings) < seconds:
            timings += run_pass(op, cases, checker)
        same = deterministic(workload, op, cases[0], checker)
    samples = nominal(timings)
    ratios = list(checker.ratios.values())
    values = {
        "solve_s_p50": statistics.median(samples),
        "solve_s_p90": p90(samples),
        "solves_per_s": len(samples) / sum(samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
        "cost_ratio_mean": float(sum(ratios) / len(ratios)) if ratios else 0.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return result(checker, same, metrics)


def measure_traced(workload, lib, cases, seconds: float, seed: int) -> dict:
    from perfbench.tracing import PER_LAYER, Tracer

    cases = cases[:TRACE_POOL]
    checker = Checker(workload, lib)
    tracer = Tracer()
    untraced = traced = 0.0
    with workload.session(lib) as op:
        pairs = 0
        while pairs < 2 or untraced + traced < seconds:
            if pairs % 2:
                untraced += sum(nominal(run_pass(op, cases, checker)))
            with tracer.installed(lib):
                traced += sum(nominal(run_pass(op, cases, checker, tracer)))
            if not pairs % 2:
                untraced += sum(nominal(run_pass(op, cases, checker)))
            pairs += 1
        same = deterministic(workload, op, cases[0], checker)
    overhead = traced / untraced - 1
    values = tracer.metrics(overhead)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json"),
                 {"workload": workload.name, "seed": seed, "traced_ops": tracer.ops,
                  "untraced_nominal_s": untraced, "traced_nominal_s": traced,
                  "overhead_ratio": overhead})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}
    return result(checker, same, metrics)


def result(checker: Checker, same: bool, metrics: dict) -> dict:
    return {"correct": checker.failed == 0 and same,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "lotforge")):
        print(f"error: no lotforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS, load_lib

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            ref = reference_seconds()
            started = time.perf_counter()
            lib = load_lib(fresh=True)
            cases = workload.build(lib, args.seed, workdir)
            setup_times.append((time.perf_counter() - started, ref))
        if args.trace:
            doc = measure_traced(workload, lib, cases, args.seconds, args.seed)
        else:
            doc = measure(workload, lib, cases, args.seconds,
                          statistics.median(nominal(setup_times)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
