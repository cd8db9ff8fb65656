import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (all_intervals, cap_within, coverable, family_dominates_requirements,
                     family_links, grid_scan_coverable, is_binary_with_unit_leaves,
                     random_positive_interval_case, rank_table_cases, render_tree,
                     scan_laminar_family)
from lotforge import interval_kc, intervals, laminar_kc
from lotforge.errors import InvariantError
from lotforge.instance import gen_kc_gap
from lotforge.interval_kc import (IntervalKcInstance, construct_laminar_family,
                                  solve_interval_kc)
from lotforge.intervals import ScaledCover, locked_periods, scale_caps
from lotforge.cmils_master import run_pipeline

F = Fraction


class TestMaxCoverable:
    def test_all_zero_openings(self):
        assert coverable(0, 3, ScaledCover((F(5),) * 3, (F(0),) * 3)) == 0

    def test_two_half_open_knapsacks(self):
        got = coverable(0, 2, ScaledCover((F(5), F(5)), (F(1, 2), F(1, 2))))
        assert got == 5  # the count condition reaches 1 exactly at W = 5

    def test_single_half_open_knapsack(self):
        assert coverable(0, 1, ScaledCover((F(10),), (F(1, 2),))) == 0

    def test_locked_periods_are_excluded(self):
        y = (F(1), F(1, 2))
        assert coverable(0, 2, ScaledCover((F(9), F(5)), y)) == \
            coverable(1, 2, ScaledCover((F(9), F(5)), y))

    def test_mass_root_value(self):
        # five knapsacks of capacity 3 at 9/10: slack stays positive past the
        # breakpoint and decays at rate 2: root 3 + (4.5*3 - 6)/2 = 27/4
        y = (F(9, 10),) * 5
        caps = (F(3),) * 5
        assert coverable(0, 5, ScaledCover(caps, y)) == F(27, 4)

    def test_matches_grid_scan(self):
        rng = random.Random(0)
        for case in range(300):
            T = rng.randint(1, 7)
            caps = tuple(F(rng.randint(1, 12)) for _ in range(T))
            y = tuple(F(rng.randint(0, 10), 10) for _ in range(T))
            locked = frozenset(s for s in range(1, T + 1) if y[s - 1] == 1)
            a = rng.randint(0, T - 1)
            b = rng.randint(a + 1, T)
            assert coverable(a, b, ScaledCover(caps, y)) == \
                grid_scan_coverable(a, b, y, locked, caps)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_grid_scan_with_fractional_capacities(self, data):
        T = data.draw(st.integers(1, 7))
        caps = tuple(F(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 7)))
                     for _ in range(T))
        dens = [data.draw(st.integers(1, 13)) for _ in range(T)]
        y = tuple(F(data.draw(st.integers(0, d)), d) for d in dens)
        locked = frozenset(s for s in range(1, T + 1) if y[s - 1] == 1)
        view = ScaledCover(caps, y)
        for a, b in all_intervals(T):
            assert coverable(a, b, view) == \
                grid_scan_coverable(a, b, y, locked, caps), (a, b)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rank_table_cases())
    def test_rank_search_matches_grid_scan(self, case):
        C, y, intervals = case
        view, locked = ScaledCover(C, y), locked_periods(y)
        for a, b in intervals:
            assert coverable(a, b, view) == \
                grid_scan_coverable(a, b, y, locked, C), (a, b)

    def test_rank_search_edge_cases(self):
        C = (3, F(7, 2), 3, 5)
        for y in ((0, 1, 1, 0), (0, 0, 0, 0)):  # no fractional period
            view = ScaledCover(C, y)
            assert all(coverable(a, b, view) == 0
                       for a, b in all_intervals(4))
        # every score equal to one, and one above every capacity
        for C, y, want in (((1, 1), (F(1, 2), F(1, 2)), 1),
                           ((3,) * 5, (F(9, 10),) * 5, F(27, 4))):
            view, T = ScaledCover(C, y), len(C)
            assert coverable(0, T, view) == want
            assert want == grid_scan_coverable(0, T, y, frozenset(), C)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rank_table_cases(max_T=10))
    def test_monotone_under_enlargement(self, case):
        """Growing an interval never lowers its score: checked on every
        nested pair, so also with each end moved on its own, over locked
        periods (y = 1), closed ones (y = 0) and fractional capacities.
        construct_laminar_family's bisection rests on this."""
        C, y, _ = case
        view, T = ScaledCover(C, y), len(C)
        score = {(a, b): coverable(a, b, view) for a, b in all_intervals(T)}
        for (a, b), inner in score.items():
            for oa in range(a + 1):
                for ob in range(b, T + 1):
                    assert score[(oa, ob)] >= inner, ((oa, ob), (a, b))


class TestConstructFamily:
    def test_single_period(self):
        fam = construct_laminar_family(ScaledCover((F(3),), (F(1, 2),)))
        assert fam.members == ((0, 1),)

    def test_two_periods_split_at_one(self):
        fam = construct_laminar_family(ScaledCover((F(3), F(3)), (F(1, 2), F(1, 2))))
        assert set(fam.members) == {(0, 2), (0, 1), (1, 2)}
        assert family_links(fam)[1][(0, 2)] == ((0, 1), (1, 2))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rank_table_cases(max_T=32))
    # at T = 32: every score equal, so the left side wins every tie; every
    # score 0; scores rising left to right
    @example(((3,) * 32, (F(1, 2),) * 32, []))
    @example(((3,) * 32, (0,) * 32, []))
    @example((tuple(range(1, 33)), tuple(F(s, 33) for s in range(1, 33)), []))
    def test_bisection_matches_the_scan(self, case):
        """The bisection gives the members and scores of the reference
        scan, which scores every cut, for T from 1 to 32 with fractional
        capacities and y at 0, at 1 and in between."""
        C, y, _ = case
        got = construct_laminar_family(ScaledCover(C, y))
        want = scan_laminar_family(ScaledCover(C, y))
        assert got.members == want.members
        assert got.scores == want.scores

    def test_structural_shape(self):
        rng = random.Random(5)
        for case in range(10):
            T = rng.randint(1, 8)
            caps = tuple(F(rng.randint(1, 9)) for _ in range(T))
            y = tuple(F(rng.randint(0, 10), 10) for _ in range(T))
            fam = construct_laminar_family(ScaledCover(caps, y))
            assert len(fam.members) == 2 * T - 1
            assert (0, T) in fam.members
            assert is_binary_with_unit_leaves(fam)
            assert all(iv in fam.scores for iv in fam.members)


class TestSolveIntervalKc:
    def test_nothing_residual_returns_locked(self):
        T = 3
        caps = (F(4), F(4), F(4))
        ikc = IntervalKcInstance(T=T, C=caps, K=(F(1),) * 3,
                                 R={(a, b): F(0) for a, b in all_intervals(T)})
        y = (F(1), F(0), F(1))
        locked = frozenset({1, 3})
        residual = {(a, b): F(0) for a, b in all_intervals(T)}
        assert solve_interval_kc(ikc, y, locked, residual) == locked

    def test_gap_payload_selects_big_knapsack(self):
        inst = gen_kc_gap(F(1000))
        result = run_pipeline(inst)
        payload = result.payload
        ikc = IntervalKcInstance(T=2, C=inst.C, K=inst.K, R=payload.R)
        selected = solve_interval_kc(ikc, payload.y_scaled, payload.locked,
                                     payload.residual)
        assert 2 in selected
        budget = sum((ikc.K[s - 1] * payload.y_scaled[s - 1] for s in (1, 2)), F(0))
        assert sum((ikc.K[s - 1] for s in selected), F(0)) <= budget

    def test_inconsistent_residual_rejected(self):
        T = 2
        ikc = IntervalKcInstance(T=T, C=(F(3), F(3)), K=(F(1), F(1)),
                                 R={(0, 2): F(2)})
        y = (F(1), F(1, 2))
        with pytest.raises(InvariantError, match="residual"):
            solve_interval_kc(ikc, y, frozenset({1}), {(0, 2): F(5)})

    def test_positive_residual_forces_real_selection(self):
        # ten periods at 3/5 openness: only the full interval can carry an
        # unmet requirement (count 6 >= 6); the reduction must then pick
        # enough periods to cover the member scores, not just echo locked
        T = 10
        caps = (F(5),) * T
        costs = tuple(F(k % 4 + 1) for k in range(T))
        R = {(a, b): F(0) for a, b in all_intervals(T)}
        R[(0, T)] = F(4)
        ikc = IntervalKcInstance(T=T, C=caps, K=costs, R=R)
        y = (F(3, 5),) * T
        residual = {(a, b): R[(a, b)] for a, b in all_intervals(T)}
        lines: list[str] = []
        selected = solve_interval_kc(ikc, y, frozenset(), residual, trace=lines.append)
        assert any("event=lp" in line for line in lines)
        assert not any("event=locked_only" in line for line in lines)
        assert selected  # strictly beyond the (empty) locked set
        assert cap_within(caps, 0, T, selected) >= 4
        budget = sum((costs[s - 1] * y[s - 1] for s in range(1, T + 1)), F(0))
        assert sum((costs[s - 1] for s in selected), F(0)) <= budget

    def test_ints_and_whole_fractions_round_alike(self):
        # the same selection and trace lines whether C and K come as ints or
        # as whole Fractions, on inputs that mostly reach laminar rounding
        laminar = 0
        for seed in range(30):
            case = random_positive_interval_case(seed)
            ikc = case.ikc
            twin = IntervalKcInstance(T=ikc.T, C=tuple(map(int, ikc.C)),
                                      K=tuple(map(int, ikc.K)), R=ikc.R)
            runs = []
            for each in (ikc, twin):
                lines: list[str] = []
                runs.append((solve_interval_kc(each, case.y_scaled, case.locked,
                                               case.residual, trace=lines.append),
                             lines))
            assert runs[0] == runs[1], seed
            laminar += any("event=lp" in line for line in runs[0][1])
        assert laminar >= 10

    def test_capacities_are_scaled_once_per_call(self, monkeypatch):
        # every round's view reuses the input view's (c, cden): C is put on
        # its integer scale once, not again for each rounding LP's vertex;
        # the view scales its own copy of C, with whole entries as ints, so
        # a call on C is found by value
        T = 10
        caps = tuple(F(5 + k % 3, 3) for k in range(T))
        R = {(0, T): F(4, 3)}
        ikc = IntervalKcInstance(T=T, C=caps, K=tuple(F(k % 4 + 1) for k in range(T)), R=R)
        scaled = []

        def counted(values):
            if tuple(values) == caps:
                scaled.append(values)
            return scale_caps(values)

        monkeypatch.setattr(intervals, "scale_caps", counted)
        lines: list[str] = []
        solve_interval_kc(ikc, (F(3, 5),) * T, frozenset(), dict(R), trace=lines.append)
        assert any("event=lp" in line for line in lines)
        assert len(scaled) == 1

    def test_positive_residual_with_locked_period(self):
        T = 10
        caps = (F(5),) * T
        costs = (F(2),) * T
        y = tuple(F(1) if s == 5 else F(3, 4) for s in range(1, T + 1))
        locked = frozenset({5})
        R = {(a, b): F(0) for a, b in all_intervals(T)}
        R[(0, T)] = F(9)   # residual 4 after the locked capacity
        R[(1, T)] = F(7)   # residual 2
        residual = {
            (a, b): max(R[(a, b)] - cap_within(caps, a, b, locked), F(0))
            for a, b in all_intervals(T)
        }
        selected = solve_interval_kc(ikc := IntervalKcInstance(
            T=T, C=caps, K=costs, R=R), y, locked, residual)
        assert 5 in selected and len(selected) > 1
        for a, b in all_intervals(T):
            assert cap_within(caps, a, b, selected) >= R[(a, b)]
        fam = construct_laminar_family(ScaledCover(caps, y))
        assert family_dominates_requirements(fam, residual)

    @pytest.mark.parametrize("key", [(0, 5), (2, 1), (-1, 2)])
    def test_requirement_off_the_intervals_rejected(self, key):
        ikc = IntervalKcInstance(T=3, C=(F(3),) * 3, K=(F(1),) * 3,
                                 R={(0, 3): F(3), key: F(2)})
        with pytest.raises(ValueError, match="outside"):
            solve_interval_kc(ikc, (F(1), F(0), F(0)), frozenset({1}), {})

    @pytest.mark.parametrize("key", [(0, 5), (2, 1), (-1, 2)])
    def test_residual_off_the_intervals_rejected(self, key):
        ikc = IntervalKcInstance(T=3, C=(F(3),) * 3, K=(F(1),) * 3,
                                 R={(0, 3): F(3)})
        with pytest.raises(ValueError, match="outside"):
            solve_interval_kc(ikc, (F(1), F(0), F(0)), frozenset({1}), {key: F(2)})

    @pytest.mark.parametrize("key", [(0.0, 2.0), (0, 2.5), (True, 2), (0, F(2))],
                             ids=["floats", "float-end", "bool-start", "fraction-end"])
    @pytest.mark.parametrize("place", ["R", "residual"])
    def test_interval_with_a_non_int_endpoint_rejected(self, key, place):
        """A key equal to an int interval, as (0.0, 2.0) is to (0, 2), is still
        refused, and named as given."""
        R, residual = {(0, 3): 3}, {}
        (R if place == "R" else residual)[key] = 1 if place == "R" else 0
        ikc = IntervalKcInstance(T=3, C=(3, 3, 3), K=(1, 1, 1), R=R)
        what = "requirement" if place == "R" else "residual"
        with pytest.raises(ValueError, match=re.escape(f"{what} interval {key!r} has an endpoint")):
            solve_interval_kc(ikc, (1, 0, 0), frozenset({1}), residual)

    def test_residual_without_a_requirement_must_be_zero(self):
        ikc = IntervalKcInstance(T=3, C=(F(3),) * 3, K=(F(1),) * 3,
                                 R={(0, 3): F(3)})
        y, locked = (F(1), F(0), F(0)), frozenset({1})
        assert solve_interval_kc(ikc, y, locked, {(1, 2): F(0)}) == locked
        with pytest.raises(InvariantError, match=r"residual for \(1, 2\]"):
            solve_interval_kc(ikc, y, locked, {(1, 2): F(1, 2)})

    def test_selection_short_by_the_least_unit_rejected(self, monkeypatch):
        # (0, 10] needs 5 and nothing is locked, so the laminar route runs;
        # a laminar selection of nothing, or of period 1 alone (4, one unit
        # short), must fail the closing cover check
        T = 10
        caps = (F(4),) + (F(5),) * (T - 1)
        R = {(a, b): F(0) for a, b in all_intervals(T)}
        R[(0, T)] = F(5)
        ikc = IntervalKcInstance(T=T, C=caps, K=(F(1),) * T, R=R)
        y, residual = (F(4, 5),) * T, dict(R)
        assert cap_within(caps, 0, T, solve_interval_kc(ikc, y, frozenset(), residual)) >= 5
        for short in (frozenset(), frozenset({1})):
            monkeypatch.setattr(laminar_kc, "solve", lambda *args, **kwargs: short)
            with pytest.raises(InvariantError, match=r"\(0, 10\] left uncovered"):
                solve_interval_kc(ikc, y, frozenset(), residual)

    def test_locked_set_above_the_budget_rejected(self):
        # no residual is positive, so the locked set is the selection; the
        # negative cost of the half-open period takes K . y_scaled to
        # 5 - 5 = 0, below the locked period's cost of 5
        ikc = IntervalKcInstance(T=2, C=(1, 1), K=(5, -10), R={(0, 1): 1})
        with pytest.raises(InvariantError,
                           match="selection costs more than the fractional budget"):
            solve_interval_kc(ikc, (1, F(1, 2)), frozenset({1}), {})

    @pytest.mark.parametrize("y", [
        (F(1), F(0), F(1)),
        # fractional openings: (1, 3] scores 4 here, so a family would
        # carry a positive member requirement although no residual is
        (F(1), F(1, 2), F(1, 2)),
    ])
    def test_zero_residuals_return_locked_without_a_family(self, monkeypatch, y):
        def forbidden(*args, **kwargs):
            raise AssertionError("the laminar route ran on zero residuals")

        monkeypatch.setattr(interval_kc, "construct_laminar_family", forbidden)
        monkeypatch.setattr(laminar_kc, "solve", forbidden)
        T = 3
        caps = (F(4),) * T
        R = {(a, b): F(0) for a, b in all_intervals(T)}
        R[(0, 1)], R[(0, 3)] = F(4), F(3)
        locked = frozenset(s for s in range(1, T + 1) if y[s - 1] == 1)
        residual = {iv: max(need - cap_within(caps, *iv, locked), F(0))
                    for iv, need in R.items()}
        assert not any(residual.values())
        ikc = IntervalKcInstance(T=T, C=caps, K=(F(1),) * T, R=R)
        lines: list[str] = []
        assert solve_interval_kc(ikc, y, locked, residual, trace=lines.append) == locked
        assert lines == [f"event=locked_only selected={len(locked)}"]

    def test_locked_only_traced_on_pipeline_path(self):
        from lotforge.instance import gen_random
        lines: list[str] = []
        result = run_pipeline(gen_random(5, T=6, N=4), trace=lines.append)
        assert not any(result.payload.residual.values())
        assert f"event=locked_only selected={len(result.payload.locked)}" in lines

    @pytest.mark.parametrize("C, K", [
        ((F(3),) * 2, (F(1),) * 3),
        ((F(3),) * 3, (F(1),) * 2),
    ], ids=["short-C", "short-K"])
    def test_short_vector_rejected(self, C, K):
        ikc = IntervalKcInstance(T=3, C=C, K=K, R={(0, 3): F(3)})
        with pytest.raises(ValueError, match="C and K must have one entry per period"):
            solve_interval_kc(ikc, (F(1), F(0), F(0)), frozenset({1}), {})

    # R lists (1, 3] before (0, 2], and both fail: the lower one is named
    @pytest.mark.parametrize("residual, message", [
        ({(1, 3): F(5), (0, 2): F(5)}, r"residual for \(0, 2\] inconsistent"),
        ({(1, 3): F(2), (0, 2): F(2)}, r"scaled coverage disjunction fails on \(0, 2\]"),
        ({(1, 3): F(5), (0, 2): F(2)}, r"scaled coverage disjunction fails on \(0, 2\]"),
        ({(1, 3): F(2), (0, 2): F(5)}, r"residual for \(0, 2\] inconsistent"),
    ], ids=["two-residuals", "two-disjunctions", "residual-above-disjunction",
            "disjunction-above-residual"])
    def test_entry_check_names_the_lowest_failing_interval(self, residual, message):
        ikc = IntervalKcInstance(T=3, C=(F(4),) * 3, K=(F(1),) * 3,
                                 R={(1, 3): F(2), (0, 2): F(2)})
        with pytest.raises(InvariantError, match=f"^{message}$"):
            solve_interval_kc(ikc, (F(1, 2),) * 3, frozenset(), residual)

    def test_failed_disjunction_rejected(self):
        T = 2
        ikc = IntervalKcInstance(T=T, C=(F(3), F(3)), K=(F(1), F(1)),
                                 R={(0, 2): F(6)})
        y = (F(0), F(1, 100))
        residual = {(0, 2): F(6), (0, 1): F(0), (1, 2): F(0)}
        with pytest.raises(InvariantError, match="disjunction"):
            solve_interval_kc(ikc, y, frozenset(), residual)


class TestDominationProbe:
    def test_vacuous_when_nothing_residual(self):
        fam = construct_laminar_family(ScaledCover((F(3),), (F(1, 2),)))
        assert family_dominates_requirements(fam, {(0, 1): F(0)})

    def test_holds_on_pipeline_payloads(self):
        from lotforge.instance import gen_random
        for seed in (5, 12, 19):
            inst = gen_random(seed, T=6, N=4)
            result = run_pipeline(inst)
            payload = result.payload
            fam = construct_laminar_family(ScaledCover(inst.C, payload.y_scaled))
            assert family_dominates_requirements(fam, payload.residual)

    def test_render_tree_lists_members(self):
        fam = construct_laminar_family(ScaledCover((F(3), F(3)), (F(1, 2), F(1, 2))))
        text = render_tree(fam)
        assert "(0, 2]" in text and "coverable=" in text
