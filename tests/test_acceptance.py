"""Acceptance suite: every guarantee the solver advertises, at full scale.

Each test prints one PASS line (run with -s to see them live).  All numeric
comparisons are exact rational comparisons; the only tolerances here are
the wall-clock budgets.
"""

import time
from fractions import Fraction

import pytest

from helpers import (all_intervals, approx_interval_kc_details,
                     brute_force_interval_kc, brute_force_laminar_kc, cap_within,
                     check_placement, coverable, enumerate_optimum,
                     family_dominates_requirements, grid_scan_coverable,
                     random_interval_kc, random_laminar_case, random_lp,
                     transportation_lp, verify_vertex)
from lotforge.assignment import solve_assignment
from lotforge.cmils_master import MasterState, run_pipeline, solve_master
from lotforge.cuts import CoveringCut
from lotforge.instance import (check_feasible, gen_kc_gap, gen_random, hcost,
                               prefix_feasible)
from lotforge.interval_kc import construct_laminar_family
from lotforge.intervals import ScaledCover, locked_periods
from lotforge.laminar_kc import solve as laminar_solve
from lotforge.lp_core import INFEASIBLE, OPTIMAL, LpSolution, solve_to_vertex
from lotforge.oracles import brute_force_cmils

F = Fraction


def report(criterion: str, elapsed: float) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def pipeline_sweep():
    """Criterion 2 workload, shared by criteria 5 and 7."""
    started = time.perf_counter()
    runs = []
    for seed in range(1, 201):
        inst = gen_random(seed, T=3 + seed % 6, N=1 + (seed * 7) % 6)
        result = run_pipeline(inst)
        optimum = brute_force_cmils(inst).optimum_cost
        runs.append((seed, inst, result, optimum))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def interval_sweep():
    """Criterion 4 workload, shared by criterion 7."""
    started = time.perf_counter()
    runs = []
    for seed in range(1, 51):
        ikc = random_interval_kc(seed, max_T=10)
        run = approx_interval_kc_details(ikc)
        optimum = brute_force_interval_kc(ikc).optimum_cost
        runs.append((seed, ikc, run, optimum))
    return runs, time.perf_counter() - started


def test_criterion_1_gap_instance_resolution():
    started = time.perf_counter()
    inst = gen_kc_gap(F(1000))
    state = MasterState.new(inst)
    solve_master(state)
    assert state.lp_value == F(1, 1000)
    result = run_pipeline(inst)
    # the pooled cut on (S1={1}, S2={2}, I={1}) reads 1 * y_2 >= 1
    assert CoveringCut(frozenset({1}), frozenset({2}), frozenset({1})) in result.cuts
    assert result.schedule.total_cost == 1
    assert brute_force_cmils(inst).optimum_cost == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("1 gap-instance resolution", elapsed)


def test_criterion_2_cmils_ratio(pipeline_sweep):
    runs, sweep_elapsed = pipeline_sweep
    started = time.perf_counter()
    assert len(runs) == 200
    for seed, inst, result, optimum in runs:
        ok, bad = check_feasible(inst, result.schedule)
        assert ok, (seed, bad)
        assert result.schedule.total_cost <= 10 * optimum, seed
        sol = result.lp_solution
        lp_ordering = sum((sol.y[s - 1] * inst.order_cost(s)
                           for s in inst.periods()), F(0))
        assert result.schedule.ordering_cost <= 10 * lp_ordering, seed
        assert result.schedule.holding_cost <= F(5, 2) * hcost(inst, sol.x), seed
        assert result.certificate.ordering_bound_ok
        assert result.certificate.holding_bound_ok
        assert result.certificate.lp_value <= optimum, seed
    elapsed = sweep_elapsed + (time.perf_counter() - started)
    assert elapsed < 600.0
    report("2 approximation ratio on 200 instances", elapsed)


def test_criterion_3_laminar_contract():
    started = time.perf_counter()
    checked = 0
    for seed in range(100):
        inst, y = random_laminar_case(seed)
        events = []
        selected = laminar_solve(inst, ScaledCover(inst.C, y), trace=events.append)
        locked = locked_periods(y)
        assert selected >= locked, seed
        for iv, need in inst.R.items():
            assert cap_within(inst.C, iv[0], iv[1], selected - locked) >= need, (seed, iv)
        budget = sum((y[s - 1] * inst.K[s - 1] for s in range(1, inst.T + 1)), F(0))
        assert sum((inst.K[s - 1] for s in selected), F(0)) <= budget, seed
        heads = sum(1 for line in events if "event=head" in line)
        assert heads <= inst.T, seed
        oracle = brute_force_laminar_kc(inst, locked)
        assert oracle.optimum_cost <= sum((inst.K[s - 1] for s in selected), F(0))
        checked += 1
    assert checked == 100
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report("3 laminar rounding contract on 100 instances", elapsed)


def test_criterion_4_interval_kc_ratio(interval_sweep):
    runs, sweep_elapsed = interval_sweep
    started = time.perf_counter()
    assert len(runs) == 50
    for seed, ikc, run, optimum in runs:
        cost = sum((ikc.K[s - 1] for s in run.selected), F(0))
        assert cost <= 10 * optimum, seed
        assert cost <= 10 * run.lp_value, seed
        assert run.lp_value <= optimum, seed
        for (a, b), need in ikc.R.items():
            assert cap_within(ikc.C, a, b, run.selected) >= need, (seed, a, b)
    elapsed = sweep_elapsed + (time.perf_counter() - started)
    assert elapsed < 300.0
    report("4 interval covering ratio on 50 instances", elapsed)


def test_criterion_5_placement_bounds(pipeline_sweep):
    runs, _ = pipeline_sweep
    started = time.perf_counter()
    exhaustive = 0
    for seed, inst, result, _optimum in runs:
        x = result.lp_solution.x
        orders = result.schedule.orders
        placed = solve_assignment(inst, orders)
        assert placed is not None, seed
        holding, units = placed
        check_placement(inst, orders, units)
        assert holding <= F(5, 2) * hcost(inst, x), seed
        lp = solve_to_vertex(transportation_lp(inst, orders))
        assert lp.status == OPTIMAL and lp.objective_value == holding, seed
        if inst.T <= 6:
            exhaustive += 1
            req = result.payload.R
            for mask in range(1 << inst.T):
                chosen = frozenset(s for s in inst.periods()
                                   if mask >> (s - 1) & 1)
                feasible = solve_assignment(inst, chosen) is not None
                assert feasible == prefix_feasible(inst, chosen), (seed, sorted(chosen))
                covered = all(cap_within(inst.C, a, b, chosen) >= req[(a, b)]
                              for a, b in all_intervals(inst.T))
                assert feasible or not covered, (seed, sorted(chosen))
    assert exhaustive >= 20
    elapsed = time.perf_counter() - started
    report("5 placement bounds, LP optimality and Hall's condition", elapsed)


def test_criterion_6_coverable_score_oracle():
    import random as _random
    started = time.perf_counter()
    rng = _random.Random(2024)
    for case in range(1000):
        T = rng.randint(1, 8)
        caps = tuple(F(rng.randint(1, 15)) for _ in range(T))
        y = tuple(F(rng.randint(0, 12), 12) for _ in range(T))
        locked = frozenset(s for s in range(1, T + 1) if y[s - 1] == 1)
        a = rng.randint(0, T - 1)
        b = rng.randint(a + 1, T)
        assert coverable(a, b, ScaledCover(caps, y)) == \
            grid_scan_coverable(a, b, y, locked, caps), (case, a, b, caps, y)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("6 coverable-score oracle equivalence on 1000 cases", elapsed)


def test_criterion_7_family_domination_probe(pipeline_sweep, interval_sweep):
    started = time.perf_counter()
    probed = 0
    for _seed, inst, result, _opt in pipeline_sweep[0]:
        payload = result.payload
        family = construct_laminar_family(ScaledCover(inst.C, payload.y_scaled))
        assert family_dominates_requirements(family, payload.residual)
        probed += 1
    for _seed, ikc, run, _opt in interval_sweep[0]:
        family = construct_laminar_family(ScaledCover(ikc.C, run.y_scaled))
        assert family_dominates_requirements(family, run.residual)
        probed += 1
    assert probed == 250
    elapsed = time.perf_counter() - started
    report("7 laminar domination probe on all payloads", elapsed)


def test_criterion_8_lp_core_certified():
    started = time.perf_counter()
    optimal_seen = 0
    for seed in range(500):
        lp = random_lp(seed)
        sol = solve_to_vertex(lp)
        best = enumerate_optimum(lp)
        if best is None:
            assert sol.status == INFEASIBLE, seed
        else:
            assert sol.status == OPTIMAL, seed
            assert sol.objective_value == best, seed
            assert verify_vertex(lp, sol), seed
            optimal_seen += 1
    assert optimal_seen > 300
    # constructed midpoints of two optimal vertices must be rejected
    from lotforge.lp_core import EQ, LinearProgram
    lp = LinearProgram(num_vars=2, objective=[F(0), F(0)],
                       bounds=[(F(0), F(1))] * 2)
    lp.add_row({0: F(1), 1: F(1)}, EQ, 1)
    mid = LpSolution(status=OPTIMAL, values=[F(1, 2), F(1, 2)],
                     objective_value=F(0))
    assert not verify_vertex(lp, mid)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("8 vertex solver versus basis enumeration on 500 LPs", elapsed)
