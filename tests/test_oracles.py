from fractions import Fraction

import pytest

from helpers import (approx_interval_kc_details, brute_force_interval_kc,
                     brute_force_laminar_kc, cap_within, random_interval_kc)
from lotforge.errors import SizeCapError
from lotforge.instance import (CmilsInstance, check_feasible, gen_kc_gap,
                               gen_random)
from lotforge.interval_kc import IntervalKcInstance
from lotforge.laminar_kc import LaminarFamily, LaminarKcInstance
from lotforge.oracles import brute_force_cmils

F = Fraction


class TestBruteForceCmils:
    def test_gap_optimum(self):
        result = brute_force_cmils(gen_kc_gap(F(1000)))
        assert result.optimum_cost == 1
        ok, bad = check_feasible(gen_kc_gap(F(1000)), result.witness)
        assert ok, bad
        assert result.explored == 4

    def test_single_period(self):
        inst = CmilsInstance(T=1, N=1, K=(F(5),), C=(F(3),), d=(F(2),), r=(1,),
                             h=((F(0),),))
        assert brute_force_cmils(inst).optimum_cost == 5

    def test_size_cap_refusal(self):
        inst = gen_random(1, T=15, N=2)
        with pytest.raises(SizeCapError, match="cap"):
            brute_force_cmils(inst)

    def test_infeasible_instance_reported(self):
        inst = CmilsInstance(T=1, N=1, K=(F(1),), C=(F(1),), d=(F(2),), r=(1,),
                             h=((F(0),),))
        with pytest.raises(ValueError, match="infeasible"):
            brute_force_cmils(inst)

    def test_witness_matches_cost(self):
        for seed in (3, 8):
            inst = gen_random(seed, T=6, N=4)
            result = brute_force_cmils(inst)
            assert result.witness.total_cost == result.optimum_cost
            ok, bad = check_feasible(inst, result.witness)
            assert ok, bad


class TestCoverOracles:
    def test_single_member_biggest_knapsack(self):
        T = 4
        C = (F(2), F(5), F(3), F(5))
        fam = LaminarFamily.from_intervals(T, {(0, T)})
        inst = LaminarKcInstance(T=T, C=C, K=(F(2),) * 4, family=fam,
                                 R={(0, T): F(5)})
        result = brute_force_laminar_kc(inst, frozenset())
        assert result.optimum_cost == 2
        assert result.witness in (frozenset({2}), frozenset({4}))

    def test_empty_requirements(self):
        fam = LaminarFamily.from_intervals(2, {(0, 2)})
        inst = LaminarKcInstance(T=2, C=(F(1), F(1)), K=(F(1), F(1)),
                                 family=fam, R={})
        result = brute_force_laminar_kc(inst, frozenset())
        assert result.optimum_cost == 0 and result.witness == frozenset()

    def test_interval_oracle_mirrors(self):
        ikc = IntervalKcInstance(T=3, C=(F(2), F(2), F(2)), K=(F(1), F(3), F(2)),
                                 R={(0, 3): F(4), (1, 3): F(2)})
        result = brute_force_interval_kc(ikc)
        assert result.optimum_cost == 3  # {1, 3} covers both
        assert result.witness == frozenset({1, 3})

    def test_size_cap(self):
        ikc = IntervalKcInstance(T=17, C=(F(1),) * 17, K=(F(1),) * 17, R={})
        with pytest.raises(SizeCapError):
            brute_force_interval_kc(ikc)


class TestApproxIntervalKc:
    def test_classic_gap_single_interval(self):
        R = F(1000)
        ikc = IntervalKcInstance(T=2, C=(R - 1, R), K=(F(0), F(1)),
                                 R={(0, 2): R})
        run = approx_interval_kc_details(ikc)
        cost = sum((ikc.K[s - 1] for s in run.selected), F(0))
        assert cost == 1
        assert 2 in run.selected
        assert run.rounds >= 1  # the capped-capacity cut was needed

    def test_all_zero_requirements(self):
        ikc = IntervalKcInstance(T=3, C=(F(1),) * 3, K=(F(1),) * 3, R={})
        assert approx_interval_kc_details(ikc).selected == frozenset()

    def test_random_instances_within_ratio(self):
        for seed in range(1, 13):
            ikc = random_interval_kc(seed)
            run = approx_interval_kc_details(ikc)
            cost = sum((ikc.K[s - 1] for s in run.selected), F(0))
            opt = brute_force_interval_kc(ikc).optimum_cost
            assert cost <= 10 * opt
            assert cost <= 10 * run.lp_value
            assert run.lp_value <= opt
            for (a, b), need in ikc.R.items():
                assert cap_within(ikc.C, a, b, run.selected) >= need
