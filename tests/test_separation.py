from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_intervals, capped_mass_and_count, naive_requirements,
                     requirements_csv, schedule_to_fractional, x_val)
from lotforge.cmils_master import MasterState, solve_master
from lotforge.cuts import CoveringCut, cut_demand, cut_lhs
from lotforge.errors import InvariantError
from lotforge.instance import (CmilsInstance, FractionalSolution, gen_kc_gap,
                               gen_random)
from lotforge.interval_kc import IntervalKcInstance, solve_interval_kc
from lotforge.intervals import ScaledCover, locked_periods, residuals, scale_y
from lotforge.oracles import brute_force_cmils
from lotforge.separation import (IntervalRequirements, compute_requirements,
                                 shortfalls, try_round)

F = Fraction


def two_period_item():
    return CmilsInstance(T=2, N=1, K=(F(1), F(1)), C=(F(5), F(5)), d=(F(4),),
                         r=(2,), h=((F(1), F(0)),))


class TestRequirements:
    def test_fat_prefix_clamps_to_zero(self):
        inst = two_period_item()
        sol = FractionalSolution(x={(1, 1): F(1, 2), (2, 1): F(1, 2)},
                                 y=(F(1, 2), F(1, 2)))
        req = compute_requirements(sol, inst)
        # prefix through period 1 is 1/2 >= 2/5, so (1, 2] needs nothing
        assert req[(1, 2)] == 0
        assert req[(0, 2)] == 4  # empty prefix: full demand

    def test_mass_at_deadline(self):
        inst = two_period_item()
        sol = FractionalSolution(x={(2, 1): F(1)}, y=(F(0), F(1)))
        req = compute_requirements(sol, inst)
        for a, b in all_intervals(inst.T):
            expected = inst.demand(1) if a < 2 <= b else F(0)
            assert req[(a, b)] == expected

    def test_matches_naive_double_loop(self):
        inst = gen_random(5, T=6, N=4)
        state = MasterState.new(inst)
        sol = solve_master(state)
        assert compute_requirements(sol, inst) == naive_requirements(sol, inst)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_naive_on_random_solutions(self, data):
        """Deadlines come from a pool of at most three, so items share them,
        and x often reaches 2/5 early or exactly, so shortfalls hit 0."""
        T = data.draw(st.integers(1, 8))
        N = data.draw(st.integers(1, 5))
        pool = data.draw(st.lists(st.integers(1, T), min_size=1, max_size=3))
        r = tuple(data.draw(st.sampled_from(pool)) for _ in range(N))
        d = tuple(F(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 13)))
                  for _ in range(N))
        share = st.one_of(st.sampled_from((F(0), F(1, 5), F(2, 5), F(1))),
                          st.builds(F, st.integers(0, 13), st.integers(1, 13)))
        x = {(s, i): v for i in range(1, N + 1) for s in range(1, r[i - 1] + 1)
             if (v := data.draw(share))}
        inst = CmilsInstance(T=T, N=N, K=(F(1),) * T, C=(F(1),) * T, d=d, r=r,
                             h=tuple((F(0),) * ri for ri in r))
        sol = FractionalSolution(x=x, y=(F(0),) * T)
        got = compute_requirements(sol, inst)
        assert list(got.items()) == list(naive_requirements(sol, inst).items())
        assert all(type(v) is (int if v.denominator == 1 else F) for v in got.values())

    def test_shortfall_keys_are_the_thin_prefixes(self):
        # (a, i) has a shortfall exactly when x[<=a, i] < 2/5, for a < r_i
        for seed in (5, 9):
            inst = gen_random(seed, T=6, N=4)
            sol = solve_master(MasterState.new(inst))
            short = shortfalls(sol, inst)
            for i in inst.items():
                for a in range(inst.deadline(i)):
                    prefix = sum((x_val(sol, s, i) for s in range(1, a + 1)), F(0))
                    assert ((a, i) in short) == (prefix < F(2, 5))

    def test_shortfalls_over_mixed_denominators(self):
        # x's denominators differ from period to period, so the prefix runs
        # over their lcm.  Item 1's prefix passes 2/5 at period 2 (32/77) and
        # item 2's reaches it exactly at period 3 (1/6 + 1/10 + 2/15), which
        # ends each item's keys although a later period still holds x.
        inst = CmilsInstance(T=4, N=2, K=(F(1),) * 4, C=(F(1),) * 4,
                             d=(F(3), F(5, 2)), r=(4, 4), h=((F(0),) * 4,) * 2)
        x = {(1, 1): F(1, 7), (2, 1): F(3, 11), (4, 1): F(1, 3),
             (1, 2): F(1, 6), (2, 2): F(1, 10), (3, 2): F(2, 15), (4, 2): F(1, 9)}
        sol = FractionalSolution(x=x, y=(F(0),) * 4)
        short = shortfalls(sol, inst)
        assert list(short.items()) == [((0, 1), 1), ((1, 1), F(9, 14)),
                                       ((0, 2), 1), ((1, 2), F(7, 12)), ((2, 2), F(1, 3))]
        assert [type(v) for v in short.values()] == [int, F, int, F, F]
        for (a, i), value in short.items():
            prefix = sum((x_val(sol, s, i) for s in range(1, a + 1)), F(0))
            assert value == 1 - F(5, 2) * prefix

    def test_requirement_count(self):
        inst = gen_random(2, T=7, N=3)
        state = MasterState.new(inst)
        sol = solve_master(state)
        req = compute_requirements(sol, inst)
        assert len(req) == inst.T * (inst.T + 1) // 2


class TestScaleY:
    def test_basic(self):
        scaled = scale_y((F(1, 10), F(1, 20)))
        assert scaled == (F(1), F(1, 2))
        assert locked_periods(scaled) == frozenset({1})

    def test_zero(self):
        scaled = scale_y((F(0), F(0)))
        assert scaled == (F(0), F(0))
        assert locked_periods(scaled) == frozenset()

    def test_boundary_is_locked(self):
        assert locked_periods(scale_y((F(1, 10),))) == frozenset({1})


class TestTryRound:
    def test_gap_naive_solution_yields_the_cut(self):
        inst = gen_kc_gap(F(1000))
        state = MasterState.new(inst)
        sol = solve_master(state)
        outcome = try_round(sol, inst)
        assert isinstance(outcome, CoveringCut)
        assert (outcome.S1, outcome.S2, outcome.I) == (
            frozenset({1}), frozenset({2}), frozenset({1}))
        assert cut_lhs(outcome, sol, inst) < cut_demand(outcome, inst)

    def test_integral_feasible_solution_is_ready(self):
        inst = gen_random(3, T=6, N=4)
        witness = brute_force_cmils(inst).witness
        sol = schedule_to_fractional(inst, witness)
        outcome = try_round(sol, inst)
        assert isinstance(outcome, IntervalRequirements)

    def test_ready_payload_consistent(self):
        inst = gen_random(8, T=6, N=4)
        witness = brute_force_cmils(inst).witness
        sol = schedule_to_fractional(inst, witness)
        payload = try_round(sol, inst)
        assert isinstance(payload, IntervalRequirements)
        assert payload.R == compute_requirements(sol, inst)
        scaled = scale_y(sol.y)
        locked = locked_periods(scaled)
        assert payload.y_scaled == scaled and payload.locked == locked
        assert payload.residual == residuals(payload.R, inst.C, locked)

    def test_positive_residual_payload_meets_the_entry_check(self, monkeypatch):
        # x spread evenly and twelve unlocked periods at y = 1/11: every cut
        # on (a, 12] holds, so try_round hands over positive residuals on
        # (a, 12] for a <= 4 without asking any covering test; interval
        # rounding's entry check is the one that asks it
        inst = CmilsInstance(T=12, N=1, K=(F(1),) * 12, C=(F(5),) * 12,
                             d=(F(4),), r=(12,), h=((F(0),) * 12,))
        sol = FractionalSolution(x={(s, 1): F(1, 12) for s in range(1, 13)},
                                 y=(F(1, 11),) * 12)
        ikc = IntervalKcInstance(T=12, C=inst.C, K=inst.K, R=try_round(sol, inst).R)
        calls = []

        def refuse(view, a, b, need, mass=None, count=None):
            calls.append((a, b, need, mass, count))
            return False

        monkeypatch.setattr(ScaledCover, "holds", refuse)
        payload = try_round(sol, inst)
        assert isinstance(payload, IntervalRequirements) and not calls
        positive = [iv for iv, v in payload.residual.items() if v]
        assert positive == [(a, 12) for a in range(5)]
        with pytest.raises(InvariantError,
                           match=r"^scaled coverage disjunction fails on \(0, 12\]$"):
            solve_interval_kc(ikc, payload.y_scaled, payload.locked, payload.residual)
        assert calls == [(a, b, payload.residual[(a, b)], 10, 6) for a, b in positive]
        monkeypatch.undo()
        selected = solve_interval_kc(ikc, payload.y_scaled, payload.locked,
                                     payload.residual)
        assert sum(inst.C[s - 1] for s in selected) >= 4


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 20), st.integers(0, 40),
                          st.integers(1, 40)), min_size=1, max_size=6),
       st.integers(1, 30), st.integers(1, 4))
def test_transfer_check_equals_scaled_entry_check(periods, need_num, need_den):
    """(1, 3/5) on y holds iff (10, 6) holds on scale_y(y): the unlocked
    periods are exactly those with y_s < 1/10, which scale exactly tenfold.
    This is why separation leaves the test to the interval solver's entry
    check."""
    C = tuple(F(c) for c, _, _ in periods)
    y = tuple(F(num, 40 * den) for _, num, den in periods)  # in [0, 1]
    y_scaled = scale_y(y)
    locked = locked_periods(y_scaled)
    need = F(need_num, need_den)
    for a, b in all_intervals(len(C)):
        mass, count = capped_mass_and_count(C, a, b, need, y, locked)
        mass10, count10 = capped_mass_and_count(C, a, b, need, y_scaled, locked)
        assert (mass10, count10) == (10 * mass, 10 * count)
        assert (mass >= need or count >= F(3, 5)) == (mass10 >= 10 * need or count10 >= 6)


def test_requirements_csv_dump():
    inst = two_period_item()
    sol = FractionalSolution(x={(2, 1): F(1)}, y=(F(0), F(1)))
    req = compute_requirements(sol, inst)
    residual = residuals(req, inst.C, frozenset({2}))
    text = requirements_csv(req, residual)
    assert text.splitlines()[0] == "a,b,requirement,residual"
    assert len(text.splitlines()) == 1 + len(req)
