import random
from fractions import Fraction

from helpers import hcost_bound_check
from lotforge.assignment import scaled_profile, solve_assignment
from lotforge.cmils_master import run_pipeline
from lotforge.instance import CmilsInstance, gen_kc_gap, gen_random, hcost
from lotforge.intervals import all_intervals, cap_within
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


class TestSolveAssignment:
    def test_single_item_at_deadline(self):
        inst = three_period()
        profile = {(3, 1): F(1)}
        placement = solve_assignment(inst, {3}, profile)
        assert placement == {(3, 1): F(1)}
        assert hcost(inst, placement) == 0

    def test_pipeline_selection_always_feasible(self):
        for seed in (2, 7, 11):
            inst = gen_random(seed, T=6, N=4)
            result = run_pipeline(inst)
            profile = scaled_profile(result.lp_solution.x, inst)
            placement = solve_assignment(inst, result.schedule.orders, profile)
            assert placement is not None
            assert hcost_bound_check(inst, result.lp_solution.x, placement)

    def test_network_edge_rule(self):
        # supply (s, i) may only land on a selected period in [s, r_i]
        inst = three_period()
        profile = {(1, 1): F(1, 2), (2, 1): F(1, 2)}
        assert solve_assignment(inst, {2, 3}, profile) == {(2, 1): F(1)}
        # period 1 has room but comes before the only supply's release
        assert solve_assignment(inst, {1, 3}, {(2, 1): F(1)}) == {(3, 1): F(1)}
        rng = random.Random(5)
        for seed in range(20):
            inst = gen_random(seed, T=6, N=4)
            profile = scaled_profile(run_pipeline(inst).lp_solution.x, inst)
            for _ in range(8):
                chosen = frozenset(s for s in inst.periods() if rng.random() < 0.6)
                placement = solve_assignment(inst, chosen, profile)
                if placement is None:
                    continue
                for (t, i), share in placement.items():
                    assert share > 0 and t in chosen and t <= inst.deadline(i)
                for i in inst.items():
                    for t in inst.periods():
                        placed = sum((v for (s, j), v in placement.items()
                                      if j == i and s <= t), F(0))
                        released = sum((v for (s, j), v in profile.items()
                                        if j == i and s <= t), F(0))
                        assert placed <= released, (seed, i, t)

    def test_hall_equivalence_exhaustive_small(self):
        # the sweep is feasible on a selection iff the selection covers
        # every interval requirement, over every subset of periods
        cases = [gen_random(seed, T=5, N=3) for seed in (1, 4, 6)]
        cases += [gen_random(seed, T=6, N=4) for seed in (2, 3, 5, 7, 8, 9)]
        cases += [gen_random(seed, T=4, N=5) for seed in (10, 11)]
        cases.append(gen_kc_gap(F(1000)))
        for case, inst in enumerate(cases):
            result = run_pipeline(inst)
            x = result.lp_solution.x
            profile = scaled_profile(x, inst)
            sol = result.lp_solution
            req = compute_requirements(sol, inst)
            for mask in range(1 << inst.T):
                chosen = frozenset(s for s in inst.periods() if mask >> (s - 1) & 1)
                covered = all(cap_within(inst.C, a, b, chosen) >= req[(a, b)]
                              for a, b in all_intervals(inst.T))
                feasible = solve_assignment(inst, chosen, profile) is not None
                assert feasible == covered, (case, sorted(chosen))

    def test_worst_interval_violation_is_infeasible(self):
        # the profile concentrates all mass on period 1; dropping period 1
        # from the selection starves the (0, 3] requirement
        inst = CmilsInstance(T=3, N=1, K=(F(1),) * 3, C=(F(9), F(1), F(1)),
                             d=(F(4),), r=(3,), h=((F(2), F(1), F(0),)),)
        x = {(1, 1): F(1, 2), (3, 1): F(1, 2)}
        profile = scaled_profile(x, inst)
        assert profile == {(1, 1): F(1)}
        assert solve_assignment(inst, {2, 3}, profile) is None
        assert solve_assignment(inst, {1, 2, 3}, profile) is not None


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
