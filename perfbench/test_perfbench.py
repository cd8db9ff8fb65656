"""Tests of the benchmark's generators, output checks and tracing."""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import pytest

from perfbench import run, tracing, workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1


@pytest.fixture(scope="module")
def lib():
    return workloads.load_lib()


@pytest.fixture(scope="module")
def pools(lib, tmp_path_factory):
    """Each workload's pool on the default seed, built once."""
    return {name: workload.build(lib, DEFAULT_SEED, str(tmp_path_factory.mktemp(name)))
            for name, workload in workloads.WORKLOADS.items()}


def traced(lib, pools, name: str, count: int):
    """Trace the first `count` ops of a workload on the default seed."""
    workload = workloads.WORKLOADS[name]
    cases = pools[name][:count]
    checker = run.Checker(workload, lib)
    tracer = tracing.Tracer()
    with workload.session(lib) as op, tracer.installed(lib):
        run.run_pass(op, cases, checker, tracer)
    assert checker.failed == 0
    return tracer


@pytest.mark.parametrize("name", ["random-mid", "gap-stack"])
def test_solve_pools_are_valid_and_prefix_feasible(lib, pools, name):
    cases = pools[name]
    assert len(cases) == workloads.POOL
    for case in cases:
        assert lib.instance.validate(case.inst) == []
        assert lib.instance.prefix_feasible(case.inst)
        assert lib.instance.load(case.inst_path) == case.inst


def test_random_mid_pool_follows_the_deadline_sum_quotas(pools):
    cases = pools["random-mid"]
    sums: dict[int, int] = {}
    for case in cases:
        sums[sum(case.inst.r)] = sums.get(sum(case.inst.r), 0) + 1
    quotas = workloads.deadline_sum_quotas(workloads.RANDOM_T, workloads.RANDOM_N,
                                           workloads.POOL)
    assert sums == {v: n for v, n in quotas.items() if n}


def test_pools_repeat_for_a_seed_and_differ_across_seeds(lib, tmp_path):
    workload = workloads.WORKLOADS["gap-stack"]
    first = [c.inst for c in workload.build(lib, 7, str(tmp_path))]
    again = [c.inst for c in workload.build(lib, 7, str(tmp_path))]
    other = [c.inst for c in workload.build(lib, 8, str(tmp_path))]
    assert first == again
    assert first != other


def _disjunction_holds(weights: dict[int, int], W: Fraction) -> bool:
    mass = sum((min(c, W) * Fraction(y, workloads.Y_DENOM) for c, y in weights.items()),
               Fraction(0))
    count = sum((Fraction(y, workloads.Y_DENOM) for c, y in weights.items() if c >= W),
                Fraction(0))
    return mass >= workloads.MASS_FACTOR * W or count >= workloads.COUNT_FLOOR


def test_largest_scaled_cover_is_the_largest_admissible_value():
    rng = random.Random(3)
    for _ in range(300):
        weights: dict[int, int] = {}
        for _ in range(rng.randint(0, 30)):
            c = rng.randint(1, 20)
            weights[c] = weights.get(c, 0) + rng.choice(workloads.Y_LEVELS[1:-1])
        top = workloads.largest_scaled_cover(weights)
        assert _disjunction_holds(weights, top)
        assert not _disjunction_holds(weights, top + Fraction(1, 10**6))


def test_laminar_cases_meet_the_solver_precondition(pools):
    case = pools["laminar-round"][0]
    ikc, T = case.ikc, workloads.LAMINAR_T
    assert case.locked == {s for s in range(1, T + 1) if case.y_scaled[s - 1] == 1}
    positive = 0
    for (a, b), need in case.residual.items():
        locked_cap = sum((ikc.C[s - 1] for s in case.locked if a < s <= b), Fraction(0))
        assert ikc.R[(a, b)] == need + locked_cap
        free = {}
        for s in range(a + 1, b + 1):
            if s not in case.locked and case.y_scaled[s - 1]:
                c = int(ikc.C[s - 1])
                free[c] = free.get(c, 0) + int(case.y_scaled[s - 1] * workloads.Y_DENOM)
        assert _disjunction_holds(free, need)
        positive += need > 0
    assert positive > 0


def test_gap_stack_reaches_the_cut_loop(lib, pools):
    values = traced(lib, pools, "gap-stack", 4).metrics(0.0)
    assert values["cmils_master.cut_rounds"] > 0
    assert values["cmils_master.cuts_added"] > 0
    assert values["lp_core.master_solves"] > 1
    assert values["cuts.cut_lhs_calls"] > 0


def test_laminar_round_runs_the_rounding_lp(lib, pools):
    values = traced(lib, pools, "laminar-round", 2).metrics(0.0)
    assert values["lp_core.laminar_solves"] > 0
    assert values["laminar_kc.iterations"] > 0
    assert values["interval_kc.max_coverable_calls"] > 0
    assert values["lp_core.master_solves"] == 0


def test_random_mid_spends_most_self_time_in_the_master_lp(lib, pools):
    tracer = traced(lib, pools, "random-mid", 3)
    totals = tracer.layer_totals()
    assert max(totals, key=lambda name: totals[name]["self_s"]) == "lp_core.master_solve"
    values = tracer.metrics(0.0)
    assert set(values) == {name for name, *_ in tracing.PER_LAYER}
    assert all(math.isfinite(v) for v in values.values())
    assert values["lp_core.laminar_solves"] == 0  # a layer without work reads 0


def test_tracer_restores_every_binding(lib):
    before = {(m, a): getattr(getattr(lib, m), a)
              for m, a, _ in tracing.SPANS + tracing.COUNTERS}
    with tracing.Tracer().installed(lib):
        assert lib.cmils_master.cut_lhs is not before[("cmils_master", "cut_lhs")]
    after = {(m, a): getattr(getattr(lib, m), a)
             for m, a, _ in tracing.SPANS + tracing.COUNTERS}
    assert after == before


def test_measure_reports_every_end_to_end_metric(lib, pools):
    workload = workloads.WORKLOADS["laminar-round"]
    cases = pools["laminar-round"][:3]
    doc = run.measure(workload, lib, cases, seconds=0, setup_s=0.5)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] == 3
    assert list(doc["metrics"]) == [name for name, _ in run.END_TO_END]
    assert doc["metrics"]["ok_ratio"]["value"] == 1.0
    assert 0 < doc["metrics"]["cost_ratio_mean"]["value"] <= 1


def test_nominal_seconds_cancel_a_uniform_slowdown():
    steady = [(0.5, 0.004), (1.0, 0.004), (0.2, 0.004)]
    slowed = [(wall * 1.6, ref * 1.6) for wall, ref in steady]
    assert run.nominal(slowed) == pytest.approx(run.nominal(steady))
    assert run.nominal(steady) == pytest.approx([0.5, 1.0, 0.2])
    assert run.reference_seconds() > 0


def test_failed_ops_are_counted_not_dropped(lib, pools):
    workload = workloads.WORKLOADS["laminar-round"]
    good = pools["laminar-round"][0]
    broken_residual = dict(good.residual)
    key = next(iv for iv, need in broken_residual.items() if need > 0)
    broken_residual[key] += 1  # no longer consistent with R: the solver refuses
    broken = workloads.LaminarCase(good.ikc, good.y_scaled, good.locked, broken_residual)
    checker = run.Checker(workload, lib)
    with workload.session(lib) as op:
        run.run_pass(op, [good, broken], checker)
    assert (checker.attempted, checker.failed) == (2, 1)
    problems, _ = workload.check(lib, good, frozenset())
    assert problems  # an empty selection covers nothing


def test_benchmark_json_matches_the_runner():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
