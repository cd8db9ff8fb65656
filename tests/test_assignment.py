import random
from fractions import Fraction

from helpers import (all_intervals, cap_within, check_placement, hcost_bound_check,
                     transportation_lp)
from lotforge.assignment import scaled_profile, solve_assignment
from lotforge.cmils_master import run_pipeline
from lotforge.instance import (CmilsInstance, gen_kc_gap, gen_random, hcost,
                               prefix_feasible)
from lotforge.lp_core import INFEASIBLE, OPTIMAL, solve_to_vertex
from lotforge.separation import compute_requirements

F = Fraction


def three_period():
    return CmilsInstance(T=3, N=1, K=(F(1), F(1), F(1)), C=(F(9), F(9), F(9)),
                         d=(F(4),), r=(3,), h=((F(2), F(1), F(0)),))


class TestScaledProfile:
    def test_mass_at_deadline_unchanged(self):
        inst = three_period()
        x = {(3, 1): F(1)}
        assert scaled_profile(x, inst) == {(3, 1): F(1)}

    def test_truncation(self):
        inst = three_period()
        x = {(1, 1): F(1, 5), (2, 1): F(1, 5), (3, 1): F(3, 5)}
        profile = scaled_profile(x, inst)
        assert profile == {(1, 1): F(1, 2), (2, 1): F(1, 2)}

    def test_prefix_identity_random(self):
        rng = random.Random(3)
        for seed in range(10):
            inst = gen_random(seed, T=6, N=4)
            x = {}
            for i in inst.items():
                left = F(1)
                for s in range(1, inst.deadline(i)):
                    take = min(F(rng.randint(0, 4), 10), left)
                    if take:
                        x[(s, i)] = take
                    left -= take
                if left:
                    x[(inst.deadline(i), i)] = left
            profile = scaled_profile(x, inst)
            for i in inst.items():
                run_x = F(0)
                run_p = F(0)
                for t in range(1, inst.deadline(i) + 1):
                    run_x += x.get((t, i), F(0))
                    run_p += profile.get((t, i), F(0))
                    assert run_p == min(F(5, 2) * run_x, F(1))


def shares(inst, units):
    """Units per (s, i) as fractions of each item's demand."""
    return {(s, i): F(qty, inst.demand(i)) for (s, i), qty in units.items()}


class TestSolveAssignment:
    def test_single_item_at_deadline(self):
        inst = three_period()
        assert solve_assignment(inst, {3}) == (0, {(3, 1): F(4)})
        assert solve_assignment(inst, {1, 2, 3}) == (0, {(3, 1): F(4)})
        assert solve_assignment(inst, {1, 2}) == (F(4), {(2, 1): F(4)})

    def test_pipeline_selection_always_feasible(self):
        for seed in (2, 7, 11):
            inst = gen_random(seed, T=6, N=4)
            result = run_pipeline(inst)
            placed = solve_assignment(inst, result.schedule.orders)
            assert placed is not None
            holding, units = placed
            assert units == result.schedule.assignment
            assert holding == result.schedule.holding_cost
            assert hcost_bound_check(inst, result.lp_solution.x, shares(inst, units))

    def test_network_edge_rule(self):
        # units of item i may only land on a selected period in [1, r_i],
        # and no period takes more than its capacity
        inst = CmilsInstance(T=3, N=2, K=(F(1),) * 3, C=(F(9), F(9), F(1)),
                             d=(F(4), F(2)), r=(2, 3),
                             h=((F(1), F(0)), (F(2), F(1), F(0))))
        # period 3 is free but past item 1's deadline, and holds one unit
        assert solve_assignment(inst, {1, 3}) == \
            (F(6), {(1, 1): F(4), (1, 2): F(1), (3, 2): F(1)})
        assert solve_assignment(inst, {3}) is None
        rng = random.Random(5)
        for seed in range(20):
            inst = gen_random(seed, T=6, N=4)
            for _ in range(8):
                chosen = frozenset(s for s in inst.periods() if rng.random() < 0.6)
                placed = solve_assignment(inst, chosen)
                if placed is None:
                    continue
                holding, units = placed
                check_placement(inst, chosen, units)
                assert hcost(inst, shares(inst, units)) == holding, seed

    def test_hall_equivalence_exhaustive_small(self):
        # over every subset of periods: the flow is feasible iff every
        # deadline prefix fits (Hall's condition), and a selection covering
        # every interval requirement is always feasible
        cases = [gen_random(seed, T=5, N=3) for seed in (1, 4, 6)]
        cases += [gen_random(seed, T=6, N=4) for seed in (2, 3, 5, 7, 8, 9)]
        cases += [gen_random(seed, T=4, N=5) for seed in (10, 11)]
        cases.append(gen_kc_gap(F(1000)))
        for case, inst in enumerate(cases):
            req = compute_requirements(run_pipeline(inst).lp_solution, inst)
            for mask in range(1 << inst.T):
                chosen = frozenset(s for s in inst.periods() if mask >> (s - 1) & 1)
                feasible = solve_assignment(inst, chosen) is not None
                assert feasible == prefix_feasible(inst, chosen), (case, sorted(chosen))
                covered = all(cap_within(inst.C, a, b, chosen) >= req[(a, b)]
                              for a, b in all_intervals(inst.T))
                assert feasible or not covered, (case, sorted(chosen))

    def test_worst_interval_violation_is_infeasible(self):
        # the profile concentrates all mass on period 1; dropping period 1
        # from the selection starves the (0, 3] requirement
        inst = CmilsInstance(T=3, N=1, K=(F(1),) * 3, C=(F(9), F(1), F(1)),
                             d=(F(4),), r=(3,), h=((F(2), F(1), F(0)),))
        x = {(1, 1): F(1, 2), (3, 1): F(1, 2)}
        profile = scaled_profile(x, inst)
        assert profile == {(1, 1): F(1)}
        assert solve_assignment(inst, {2, 3}) is None
        assert solve_assignment(inst, {1, 2, 3}) is not None


class TestFlowAgainstLp:
    def test_flow_matches_transportation_lp_on_every_order_set(self):
        # the transportation LP through the simplex shares no code with the
        # flow; gen_kc_gap(7/3) brings fractional demands and capacities
        cases = [gen_random(seed, T=1 + seed % 6, N=1 + seed % 4) for seed in range(12)]
        cases += [gen_random(seed, T=4, N=3) for seed in range(6)]
        cases.append(gen_kc_gap(F(7, 3)))
        solved = 0
        for case, inst in enumerate(cases):
            for mask in range(1 << inst.T):
                orders = [s for s in inst.periods() if mask >> (s - 1) & 1]
                placed = solve_assignment(inst, orders)
                sol = solve_to_vertex(transportation_lp(inst, orders))
                infeasible = not prefix_feasible(inst, orders)
                assert (placed is None) == (sol.status == INFEASIBLE) == infeasible, \
                    (case, orders)
                if placed is None:
                    continue
                holding, units = placed
                assert sol.status == OPTIMAL
                assert holding == sol.objective_value, (case, orders)
                check_placement(inst, set(orders), units)
                solved += 1
        assert solved >= 100


class TestHcostBound:
    def test_zero_holding_costs(self):
        inst = CmilsInstance(T=2, N=1, K=(F(1), F(1)), C=(F(5), F(5)),
                             d=(F(2),), r=(2,), h=((F(0), F(0)),))
        x = {(1, 1): F(1, 2), (2, 1): F(1, 2)}
        placement = {(1, 1): F(1)}
        assert hcost_bound_check(inst, x, placement)

    def test_profile_itself_respects_bound(self):
        # with slack capacity the profile is a valid placement; its holding
        # cost is at most 5/2 of x's by the prefix identity
        inst = three_period()
        x = {(1, 1): F(1, 5), (2, 1): F(1, 5), (3, 1): F(3, 5)}
        profile = scaled_profile(x, inst)
        assert hcost_bound_check(inst, x, profile)
