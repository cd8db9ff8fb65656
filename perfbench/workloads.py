"""Benchmark workloads: input generators, the timed op, and output checks.

Every workload builds a pool of POOL inputs from the run's seed, so the
solver only ever sees generated inputs.  One op is one solve:

random-mid     `lotforge solve` (in process) on gen_random at T=10, N=6.
               One cold master LP is almost all of the time; the cut loop
               is almost never entered.
gap-stack      `lotforge solve` on three stacked two-period knapsack-cover
               gaps plus two filler items, T=6, N=5.  Most instances need
               one to three cut rounds, with large numbers in the tableau.
laminar-round  a direct interval_kc.solve_interval_kc call at T=32 with
               fractional y.  The only workload that builds laminar
               families and runs the iterative-rounding LP.

Each op's output is checked outside the timed region, with exact
arithmetic and code independent of the solver's own certificate.

lotforge.oracles is not benchmarked: its brute force is an exponential
test tool, and its interval solver never reaches the laminar LP.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

POOL = 100  # inputs per run; one pass yields 100 samples, 10 of them beyond p90

MODULES = ("instance", "lp_core", "cuts", "laminar_kc", "interval_kc",
           "separation", "assignment", "cmils_master", "cli")


def load_lib(fresh: bool = False) -> SimpleNamespace:
    """Import the solver's modules; fresh=True executes them anew."""
    if fresh:
        for name in [m for m in sys.modules
                     if m == "lotforge" or m.startswith("lotforge.")]:
            del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"lotforge.{name}")
                              for name in MODULES})


def holding_table(rng: random.Random, due: int, zero: bool = False) -> tuple:
    """Non-increasing holding costs over periods 1..due, ending at 0."""
    table = [Fraction(0)] * due
    for s in range(due - 2, -1, -1):
        table[s] = table[s + 1] + (0 if zero else rng.randint(0, 3))
    return tuple(table)


# ---------------------------------------------------------------------------
# random-mid

RANDOM_T, RANDOM_N = 10, 6


def deadline_sum_quotas(T: int, N: int, size: int) -> dict[int, int]:
    """How many of `size` instances get each deadline sum sum_i r_i.

    gen_random draws each r_i uniformly from 1..T.  The LP has one column
    per (s, i) with s <= r_i, so this sum sets the master LP's size, which
    accounts for most of the spread in solve time.  The quotas follow the
    sum's exact distribution (largest remainder), so every pool has the
    generator's mix of LP sizes instead of a random draw from it; sums whose
    share rounds to no instance (about 2% of the mass, in the two tails)
    are left out.
    """
    dist = {0: Fraction(1)}
    for _ in range(N):
        step: dict[int, Fraction] = {}
        for total, p in dist.items():
            for r in range(1, T + 1):
                step[total + r] = step.get(total + r, Fraction(0)) + p / T
        dist = step
    quotas = {v: int(p * size) for v, p in dist.items()}
    short = size - sum(quotas.values())
    for v in sorted(dist, key=lambda v: (quotas[v] - dist[v] * size, v))[:short]:
        quotas[v] += 1
    return quotas


def random_mid_pool(rng: random.Random, lib, size: int) -> list:
    """gen_random instances, stratified by deadline sum (see the quotas)."""
    quotas = deadline_sum_quotas(RANDOM_T, RANDOM_N, size)
    pool = []
    for _ in range(1000 * size):
        inst = lib.instance.gen_random(rng.getrandbits(32), T=RANDOM_T, N=RANDOM_N)
        if quotas.get(sum(inst.r), 0) > 0:
            quotas[sum(inst.r)] -= 1
            pool.append(inst)
            if len(pool) == size:
                return pool
    raise RuntimeError("gen_random no longer yields the expected deadline sums")


# ---------------------------------------------------------------------------
# gap-stack

GAP_SCALES = (10, 10**2, 10**3, 10**6)
GAP_LEVELS = 3
FILLERS = 2


def gap_stack_pool(rng: random.Random, lib, size: int) -> list:
    return [gen_gap_stack(rng, lib) for _ in range(size)]


def gen_gap_stack(rng: random.Random, lib):
    """Three two-period knapsack-cover gaps stacked in time, plus fillers.

    Level l owns periods 2l-1 and 2l with C = (R-1, R), a cheap first and a
    dear second period, and an item of demand R due at 2l with no holding
    cost: the cheap period alone falls one unit short, which is the gap the
    covering cuts close.  R - 1 >= 10 exceeds the fillers' total demand, so
    every deadline prefix fits and the instance is feasible.
    """
    K, C, d, r, h = [], [], [], [], []
    for level in range(1, GAP_LEVELS + 1):
        R = rng.choice(GAP_SCALES) + rng.randint(1, 9)
        C += [Fraction(R - 1), Fraction(R)]
        K += [Fraction(rng.randint(0, 2)), Fraction(rng.randint(3, 20))]
        d.append(Fraction(R))
        r.append(2 * level)
        h.append(holding_table(rng, 2 * level, zero=True))
    T = 2 * GAP_LEVELS
    for _ in range(FILLERS):
        due = rng.randint(1, T)
        d.append(Fraction(rng.randint(1, 5)))
        r.append(due)
        h.append(holding_table(rng, due))
    return lib.instance.CmilsInstance(T=T, N=len(d), K=tuple(K), C=tuple(C),
                                      d=tuple(d), r=tuple(r), h=tuple(h))


# ---------------------------------------------------------------------------
# laminar-round

LAMINAR_T = 32
Y_DENOM = 20  # common denominator of the y levels below
Y_LEVELS = (0, 5, 10, 15, 18, 20)  # y = 0, 1/4, 1/2, 3/4, 9/10, 1 in twentieths
MASS_FACTOR = 10
COUNT_FLOOR = 6


def largest_scaled_cover(weights: dict[int, int]) -> Fraction:
    """Largest W with sum min(C_s, W) y_s >= 10 W or sum_{C_s >= W} y_s >= 6.

    weights maps a capacity to the total y (in twentieths) of the free
    periods with that capacity.  Both sets of W are intervals [0, W*], so
    any W up to the returned value meets the solver's precondition.
    """
    if not weights:
        return Fraction(0)
    mass = MASS_FACTOR * Y_DENOM
    # capped mass minus 10 W is concave and piecewise linear from 0; below
    # breakpoint c its slope is (weight of capacities >= c) - 10.
    w_mass = None
    f, prev, suffix = 0, 0, sum(weights.values())
    for c in sorted(weights):
        f_next = f + (suffix - mass) * (c - prev)
        if f_next < 0:
            w_mass = prev + Fraction(f, mass - suffix)
            break
        f, prev = f_next, c
        suffix -= weights[c]
    if w_mass is None:
        w_mass = prev + Fraction(f, mass)
    w_count, acc = 0, 0
    for c in sorted(weights, reverse=True):
        acc += weights[c]
        if acc >= COUNT_FLOOR * Y_DENOM:
            w_count = c
            break
    return max(w_mass, Fraction(w_count))


@dataclass(frozen=True)
class LaminarCase:
    ikc: object
    y_scaled: tuple
    locked: frozenset
    residual: dict


def gen_laminar_case(rng: random.Random, lib) -> LaminarCase:
    """Interval covering input whose residuals sit just inside the precondition.

    Each interval's residual is a random fraction of the largest value that
    the tenfold-mass-or-count-of-six disjunction still admits; its
    requirement adds the locked capacity inside it.
    """
    T = LAMINAR_T
    C = [rng.randint(1, 20) for _ in range(T)]
    K = [rng.randint(1, 20) for _ in range(T)]
    y20 = [rng.choice(Y_LEVELS) for _ in range(T)]
    locked = frozenset(s for s in range(1, T + 1) if y20[s - 1] == Y_DENOM)
    R: dict[tuple[int, int], Fraction] = {}
    residual: dict[tuple[int, int], Fraction] = {}
    for a in range(T):
        weights: dict[int, int] = {}
        locked_cap, top = 0, Fraction(0)
        for b in range(a + 1, T + 1):
            if b in locked:
                locked_cap += C[b - 1]
            elif y20[b - 1]:
                weights[C[b - 1]] = weights.get(C[b - 1], 0) + y20[b - 1]
                top = largest_scaled_cover(weights)
            need = top * Fraction(rng.randint(1, 16), 16)
            residual[(a, b)] = need
            R[(a, b)] = need + locked_cap
    ikc = lib.interval_kc.IntervalKcInstance(
        T=T, C=tuple(Fraction(c) for c in C), K=tuple(Fraction(k) for k in K), R=R)
    y_scaled = tuple(Fraction(v, Y_DENOM) for v in y20)
    return LaminarCase(ikc=ikc, y_scaled=y_scaled, locked=locked, residual=residual)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class SolveCase:
    inst: object
    inst_path: str
    sched_path: str


@dataclass
class SolveOutput:
    code: int
    stdout: str
    result: object  # the PipelineResult behind the report, or None


class SolveWorkload:
    """One op is `lotforge solve --in <instance> --out <schedule>`, in process."""

    def __init__(self, name: str, make_pool: Callable):
        self.name = name
        self.make_pool = make_pool

    def build(self, lib, seed: int, workdir: str) -> list[SolveCase]:
        rng = random.Random(f"{self.name}:{seed}")
        cases = []
        for k, inst in enumerate(self.make_pool(rng, lib, POOL)):
            path = os.path.join(workdir, f"inst-{k:03d}.json")
            lib.instance.save(inst, path)
            cases.append(SolveCase(inst, path, os.path.join(workdir, f"sched-{k:03d}.json")))
        return cases

    @contextlib.contextmanager
    def session(self, lib) -> Iterator[Callable]:
        """Yield the op; meanwhile keep the PipelineResult each solve builds,
        so the guarantee can be rechecked against the LP it came from."""
        master = lib.cmils_master
        original = master.run_pipeline
        last: list = []

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            last.append(result)
            return result

        def op(case: SolveCase) -> SolveOutput:
            last.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = lib.cli.main(["solve", "--in", case.inst_path,
                                     "--out", case.sched_path])
            return SolveOutput(code, out.getvalue(), last[-1] if last else None)

        master.run_pipeline = capture
        try:
            yield op
        finally:
            master.run_pipeline = original

    def check(self, lib, case: SolveCase, out: SolveOutput
              ) -> tuple[list[str], Optional[Fraction]]:
        """Problems found in one solve, and its schedule total / LP value."""
        if out.code != 0 or out.result is None:
            return [f"solve exited with code {out.code}"], None
        problems = []
        report = json.loads(out.stdout)
        cert = report["certificate"]
        if not (cert["ordering_bound_ok"] and cert["holding_bound_ok"]):
            problems.append(f"certificate flag false: {cert}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = lib.cli.main(["verify", "--instance", case.inst_path,
                                 "--schedule", case.sched_path])
        if code != 0:
            problems.append(f"verify exited with code {code}: {err.getvalue().strip()}")
        with open(case.sched_path, encoding="utf-8") as fh:
            stated_total = json.load(fh)["costs"]["total"]

        inst, sol = case.inst, out.result.lp_solution
        lp_ordering = sum((sol.y[s - 1] * inst.K[s - 1] for s in range(1, inst.T + 1)),
                          Fraction(0))
        lp_holding = sum((inst.d[i - 1] * frac * inst.h[i - 1][s - 1]
                          for (s, i), frac in sol.x.items()), Fraction(0))
        lp_value = Fraction(report["lp_value"]["exact"])
        total = Fraction(report["alg_cost"]["total"]["exact"])
        if lp_ordering + lp_holding != lp_value:
            problems.append(f"LP parts {lp_ordering} + {lp_holding} != lp_value {lp_value}")
        if Fraction(stated_total) != total:
            problems.append(f"schedule total {stated_total} != report total {total}")
        if total > 10 * lp_ordering + Fraction(5, 2) * lp_holding:
            problems.append(f"total {total} above 10 x ordering + 5/2 x holding of the LP")
        if total > 10 * lp_value:
            problems.append(f"total {total} above 10 x lp_value {lp_value}")
        return problems, total / lp_value

    def fingerprint(self, case: SolveCase, out: SolveOutput) -> str:
        """Report without its wall time, plus the schedule file's bytes."""
        report = json.loads(out.stdout)
        report.pop("wall_time_ms")
        with open(case.sched_path, encoding="utf-8") as fh:
            return json.dumps(report, sort_keys=True) + fh.read()


class LaminarWorkload:
    """One op is interval_kc.solve_interval_kc on a generated T=32 input."""

    name = "laminar-round"

    def build(self, lib, seed: int, workdir: str) -> list[LaminarCase]:
        rng = random.Random(f"{self.name}:{seed}")
        return [gen_laminar_case(rng, lib) for _ in range(POOL)]

    @contextlib.contextmanager
    def session(self, lib) -> Iterator[Callable]:
        def op(case: LaminarCase) -> frozenset:
            return lib.interval_kc.solve_interval_kc(
                case.ikc, case.y_scaled, case.locked, case.residual)
        yield op

    def check(self, lib, case: LaminarCase, selected: frozenset
              ) -> tuple[list[str], Optional[Fraction]]:
        """Problems found in one selection, and its cost / K.y_scaled."""
        ikc = case.ikc
        problems = [f"interval ({a}, {b}] gets {got}, needs {need}"
                    for (a, b), need in sorted(ikc.R.items())
                    if (got := sum((ikc.C[s - 1] for s in selected if a < s <= b),
                                   Fraction(0))) < need]
        cost = sum((ikc.K[s - 1] for s in selected), Fraction(0))
        budget = sum((k * y for k, y in zip(ikc.K, case.y_scaled)), Fraction(0))
        if cost > budget:
            problems.append(f"selection costs {cost}, above K.y_scaled = {budget}")
        return problems, cost / budget

    def fingerprint(self, case: LaminarCase, selected: frozenset) -> str:
        return ",".join(map(str, sorted(selected)))


WORKLOADS = {
    "random-mid": SolveWorkload("random-mid", random_mid_pool),
    "gap-stack": SolveWorkload("gap-stack", gap_stack_pool),
    "laminar-round": LaminarWorkload(),
}
