import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_laminar_kc, cap_within, family_links, is_feasible,
                     random_laminar_case, random_positive_interval_case)
from lotforge import laminar_kc, lp_core
from lotforge.errors import InvariantError
from lotforge.interval_kc import solve_interval_kc
from lotforge.intervals import ScaledCover, locked_periods
from lotforge.laminar_kc import (LaminarFamily, LaminarKcInstance, RoundingState,
                                 _assert_state_feasible, build_iter_lp, dedup,
                                 init_state, solve)

F = Fraction


def view_of(inst, y):
    return ScaledCover(inst.C, y)


def laminar_case(seed):
    """random_laminar_case's instance with its y as a view."""
    inst, y = random_laminar_case(seed)
    return inst, view_of(inst, y)


def y_of(state):
    """The state's current openings as Fractions."""
    view = state.view
    return [F(u, view.yden) for u in view.u]


def family_over(T, intervals):
    return LaminarFamily.from_intervals(T, intervals)


def small_instance(T=4, C=(3, 3, 3, 3), K=(1, 1, 1, 1), members=None, R=None):
    members = members or {(0, T)}
    return LaminarKcInstance(T=T, C=tuple(F(c) for c in C),
                             K=tuple(F(k) for k in K),
                             family=family_over(T, members),
                             R={iv: F(v) for iv, v in (R or {}).items()})


class TestLaminarFamily:
    def test_crossing_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            family_over(4, {(0, 4), (0, 2), (1, 3)})

    def test_missing_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            family_over(4, {(0, 2), (2, 4)})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            family_over(3, {(0, 3), (1, 4)})

    def test_tree_links(self):
        parent, children = family_links(family_over(4, {(0, 4), (0, 2), (2, 4), (2, 3)}))
        assert parent[(2, 3)] == (2, 4)
        assert parent[(0, 4)] is None
        assert set(children[(0, 4)]) == {(0, 2), (2, 4)}


class TestInstanceCheck:
    @pytest.mark.parametrize("C, K, T_family, message", [
        ((3,), (1, 1), 2, "one entry per period"),
        ((3, 3), (1,), 2, "one entry per period"),
        ((3, 3), (1, 1), 3, r"family is over \[0, 3\], not \[0, 2\]"),
    ], ids=["short-C", "short-K", "larger-family"])
    def test_shapes_must_match_T(self, C, K, T_family, message):
        root = (0, T_family)
        inst = LaminarKcInstance(T=2, C=C, K=K, family=family_over(T_family, {root}),
                                 R={root: 1})
        with pytest.raises(ValueError, match=message):
            solve(inst, ScaledCover(C, (F(1, 2),) * len(C)))

    def test_view_must_be_over_the_capacities(self):
        inst = small_instance(T=2, C=(3, 3), K=(1, 1), R={(0, 2): 1})
        with pytest.raises(ValueError, match="not over the instance's capacities"):
            solve(inst, ScaledCover((F(3), F(4)), (F(1, 2), F(1))))


class TestInitState:
    def test_no_residual_means_no_active_pools(self):
        inst = small_instance(R={})
        y = (F(1), F(0), F(0), F(0))
        state = init_state(inst, view_of(inst, y))
        assert not state.remaining and not state.count_rows
        assert solve(inst, view_of(inst, y)) == frozenset({1})

    def test_count_pool_membership(self):
        # two half-open periods with capacity >= the requirement: count row holds
        inst = small_instance(T=2, C=(4, 4), K=(1, 1), members={(0, 2)},
                              R={(0, 2): 4})
        y = (F(1, 2), F(1, 2))
        state = init_state(inst, view_of(inst, y))
        assert state.count_rows == {(0, 2)}
        assert not state.remaining.keys() - state.count_rows

    def test_mass_pool_membership(self):
        # capacities below the requirement: the count row fails outright but
        # the capped mass 6 * 3/4 covers twice the requirement
        inst = small_instance(T=6, C=(1,) * 6, K=(1,) * 6,
                              members={(0, 6)}, R={(0, 6): 2})
        y = (F(3, 4),) * 6
        state = init_state(inst, view_of(inst, y))
        assert state.remaining.keys() - state.count_rows == {(0, 6)}
        assert not state.count_rows

    def test_hypothesis_violation_is_an_error(self):
        inst = small_instance(T=2, C=(3, 3), K=(1, 1), members={(0, 2)},
                              R={(0, 2): 5})
        y = (F(1, 10), F(1, 10))
        with pytest.raises(InvariantError, match="cover conditions"):
            init_state(inst, view_of(inst, y))


class TestDedup:
    def state_with(self, inst, remaining, count=(), discarded=(), selected=()):
        return RoundingState(instance=inst, discarded=set(discarded),
                             selected=set(selected), remaining=dict(remaining),
                             count_rows=set(count),
                             view=view_of(inst, [F(1, 2)] * inst.T))

    def test_nested_equal_support_keeps_one(self):
        inst = small_instance(T=3, C=(2, 2, 2), K=(1, 1, 1),
                              members={(0, 3), (0, 2)})
        # period 3 already discarded: (0,2] and (0,3] share support {1, 2}
        state = self.state_with(inst, {(0, 3): F(2), (0, 2): F(2)},
                                count=[(0, 3), (0, 2)], discarded=[3])
        dedup(state)
        assert state.count_rows == {(0, 2)}  # tie: the larger interval goes
        assert set(state.remaining) == {(0, 2)}

    def test_dominating_requirement_survives(self):
        inst = small_instance(T=3, C=(2, 2, 2), K=(1, 1, 1),
                              members={(0, 3), (0, 2)})
        state = self.state_with(inst, {(0, 3): F(3), (0, 2): F(2)},
                                count=[(0, 2)], discarded=[3])
        dedup(state)
        assert set(state.remaining) == {(0, 3)} and not state.count_rows

    def test_disjoint_untouched(self):
        inst = small_instance(T=4, members={(0, 4), (0, 2), (2, 4)})
        state = self.state_with(inst, {(0, 2): F(1), (2, 4): F(1)},
                                count=[(0, 2), (2, 4)])
        dedup(state)
        assert state.count_rows == {(0, 2), (2, 4)}
        assert set(state.remaining) == {(0, 2), (2, 4)}

    def test_no_duplicate_supports_survive(self):
        for seed in range(15):
            state = init_state(*laminar_case(seed))
            dedup(state)
            supports = [frozenset(s for s in range(iv[0] + 1, iv[1] + 1)
                                  if s not in state.discarded
                                  and s not in state.selected)
                        for iv in state.active()]
            assert len(supports) == len(set(supports))


class TestIterLp:
    def test_empty_pools_only_fixings(self):
        inst = small_instance(R={})
        y = (F(1), F(0), F(0), F(0))
        state = init_state(inst, view_of(inst, y))
        lp = build_iter_lp(state)
        assert not lp.rows
        assert lp.bounds[0] == (F(1), F(1))

    def test_single_mass_row(self):
        """need = 2 on six periods of capacity 1: the mass row
        sum min(C_s, 2) y_s >= 4, times q cden = 1, is on integers already."""
        inst = small_instance(T=6, C=(1,) * 6, K=(1,) * 6, members={(0, 6)},
                              R={(0, 6): 2})
        y = (F(3, 4),) * 6
        state = init_state(inst, view_of(inst, y))
        lp = build_iter_lp(state)
        assert len(lp.rows) == 1
        row = lp.rows[0]
        assert row.relation == ">=" and row.rhs == 4
        assert row.coeffs == {j: F(1) for j in range(6)}

    def test_rows_are_the_fraction_rows_scaled_to_integers(self, monkeypatch):
        """On every state that random_laminar_case's solves reach, each mass
        row is min(C_s, need) y >= 2 need times q cden, for need = p/q and
        cden the lcm of C's denominators, and each count row sums y over
        the unselected periods with C_s >= need to at least 1.  Each case
        also runs with C and R scaled by 5/3, which keeps the contract
        (the scores scale with C) and gives C a denominator."""
        seen = {"mass": 0, "count": 0}

        def checked(state):
            lp = build_iter_lp(state)
            C, selected = state.instance.C, state.selected
            cden = math.lcm(*(F(v).denominator for v in C))
            mass = sorted(state.remaining.keys() - state.count_rows)
            assert len(lp.rows) == len(mass) + len(state.count_rows)
            for (a, b), row in zip(mass + sorted(state.count_rows), lp.rows):
                need = state.remaining[(a, b)]
                free = [s for s in range(a + 1, b + 1) if s not in selected]
                if (a, b) in state.count_rows:
                    want = {s - 1: 1 for s in free if C[s - 1] >= need}, 1
                    seen["count"] += 1
                else:
                    scale = need.denominator * cden
                    want = ({s - 1: min(C[s - 1], need) * scale for s in free},
                            2 * need * scale)
                    seen["mass"] += 1
                assert row.relation == ">="
                assert (row.coeffs, row.rhs) == want, (a, b)
                assert all(type(v) is int for v in (*row.coeffs.values(), row.rhs))
            return lp

        monkeypatch.setattr(laminar_kc, "build_iter_lp", checked)
        for seed in range(150):
            inst, y = random_laminar_case(seed)
            for k in (1, F(5, 3)):
                scaled = LaminarKcInstance(
                    T=inst.T, C=tuple(k * v for v in inst.C), K=inst.K,
                    family=inst.family, R={iv: k * v for iv, v in inst.R.items()})
                solve(scaled, view_of(scaled, y))
        assert min(seen.values()) >= 40, seen

    def test_current_y_feasible_for_built_lp(self):
        for seed in range(10):
            inst, y = random_laminar_case(seed)
            state = init_state(inst, view_of(inst, y))
            assert is_feasible(build_iter_lp(state), list(y))


def state_check_accepts(state) -> bool:
    try:
        _assert_state_feasible(state, "probe")
    except InvariantError as exc:
        assert str(exc) == "current y infeasible for the rounding LP (probe)"
        return False
    return True


def ones_selected(state) -> bool:
    y = y_of(state)
    return all(s in state.selected for s in range(1, len(y) + 1) if y[s - 1] == 1)


class TestStateCheck:
    """_assert_state_feasible against the LP that build_iter_lp writes,
    plus its own contract: every period at y = 1 is selected."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6), st.data())
    def test_agrees_with_the_built_lp(self, seed, data):
        inst, y = random_laminar_case(seed)
        state, y = init_state(inst, view_of(inst, y)), list(y)
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(("discard", "select", "scale", "release")))
            s = data.draw(st.integers(1, inst.T))
            if kind == "release":  # an undecided period, maybe at 1
                state.selected.discard(s)
                state.discarded.discard(s)
            elif kind == "discard":  # a discarded period, maybe still above 0
                state.selected.discard(s)
                state.discarded.add(s)
                if data.draw(st.booleans()):
                    y[s - 1] = F(0)
            elif kind == "select":  # a selected period, maybe still below 1
                state.discarded.discard(s)
                state.selected.add(s)
                if data.draw(st.booleans()):
                    y[s - 1] = F(1)
            else:  # push y down (possibly below a row) or up (possibly past 1)
                y[s - 1] *= F(data.draw(st.integers(0, 6)), 4)
        if max(y) > 1:  # no view, and so no state, holds a y past 1
            with pytest.raises(InvariantError, match=r"input y outside \[0, 1\]"):
                view_of(inst, y)
            return
        state.view = view_of(inst, y)  # the solver changes y only with its view
        assert state_check_accepts(state) == (
            is_feasible(build_iter_lp(state), y) and ones_selected(state))

    def test_unselected_period_at_one_rejected(self):
        # (0, 3] keeps a count row met by periods 2 and 3; releasing locked
        # period 1 leaves the LP feasible at y, but the covering tests
        # would no longer leave out exactly the selection
        inst = small_instance(T=3, C=(4, 4, 4), K=(1, 1, 1), R={(0, 3): 4})
        state = init_state(inst, view_of(inst, (F(1), F(1, 2), F(1, 2))))
        assert state.count_rows == {(0, 3)} and state_check_accepts(state)
        state.selected.discard(1)
        assert is_feasible(build_iter_lp(state), y_of(state))
        assert not state_check_accepts(state)

    def test_agrees_on_every_state_the_loop_reaches(self, monkeypatch):
        checked = []

        def compare(state, where):
            checked.append(where)
            assert is_feasible(build_iter_lp(state), y_of(state)) and ones_selected(state)
            _assert_state_feasible(state, where)

        monkeypatch.setattr(laminar_kc, "_assert_state_feasible", compare)
        total = 0
        for seed in range(25):
            events = []
            solve(*laminar_case(seed), trace=events.append)
            rounds = sum("event=head" in line for line in events)
            assert checked == [f"round {k}" for k in range(1, rounds + 1)]
            total += rounds
            checked.clear()
        assert total > 0

    def test_each_mutation_is_rejected(self):
        caught = {"row": 0, "discarded": 0, "selected": 0}
        for seed in range(40):
            inst, y = random_laminar_case(seed)

            def fresh():
                return init_state(inst, view_of(inst, y))

            state = fresh()
            assert state_check_accepts(state)
            undecided = [s for s in range(1, inst.T + 1) if s not in state.selected]
            for a, b in state.active():  # y pushed below the interval's row
                state = fresh()
                pushed = [F(0) if a < s <= b and s not in state.selected else v
                          for s, v in enumerate(y, start=1)]
                state.view = view_of(inst, pushed)
                assert not is_feasible(build_iter_lp(state), pushed)
                assert not state_check_accepts(state)
                caught["row"] += 1
            for s in undecided:
                state = fresh()
                if y[s - 1] > 0:  # discarded but still above 0
                    state.discarded.add(s)
                    assert not state_check_accepts(state)
                    caught["discarded"] += 1
                state = fresh()
                state.selected.add(s)  # selected but still below 1
                assert not state_check_accepts(state)
                caught["selected"] += 1
        assert min(caught.values()) >= 20, caught


class TestSolve:
    def test_picks_cheaper_big_knapsack(self):
        inst = small_instance(T=2, C=(4, 4), K=(1, 5), members={(0, 2)},
                              R={(0, 2): 4})
        y = (F(1, 2), F(1, 2))
        selected = solve(inst, view_of(inst, y))
        assert selected == frozenset({1})
        oracle = brute_force_laminar_kc(inst, frozenset())
        assert oracle.optimum_cost == 1 and oracle.witness == frozenset({1})

    def test_contract_on_random_instances(self):
        for seed in range(25):
            inst, y = random_laminar_case(seed)
            events = []
            selected = solve(inst, view_of(inst, y), trace=events.append)
            locked = locked_periods(y)
            assert selected >= locked
            for iv, need in inst.R.items():
                assert cap_within(inst.C, iv[0], iv[1], selected - locked) >= need
            budget = sum((y[s - 1] * inst.K[s - 1] for s in range(1, inst.T + 1)),
                         F(0))
            assert sum((inst.K[s - 1] for s in selected), F(0)) <= budget
            heads = [line for line in events if "event=head" in line]
            assert len(heads) <= inst.T
            oracle = brute_force_laminar_kc(inst, locked)
            assert oracle.optimum_cost <= sum((inst.K[s - 1] for s in selected), F(0))

    def test_selection_short_by_the_least_unit_rejected(self, monkeypatch):
        # with no active interval the loop never runs, and the final check
        # must find (0, 2] one short: it needs 1 beyond locked period 2, and
        # the selection adds nothing
        inst = small_instance(T=2, C=(4, 3), members={(0, 2)}, R={(0, 2): 1})

        def idle(inst, view):
            return RoundingState(instance=inst, discarded=set(), selected={2},
                                 remaining={}, count_rows=set(), view=view)

        monkeypatch.setattr(laminar_kc, "init_state", idle)
        with pytest.raises(InvariantError, match=r"\(0, 2\] left uncovered"):
            solve(inst, view_of(inst, (F(0), F(1))))

    def test_selection_above_the_budget_rejected(self, monkeypatch):
        # with no active interval the loop never runs, and the final check
        # must find the selection {1, 2} costing 2, above K . y = 1
        inst = small_instance(T=2, C=(4, 3), K=(1, 1), members={(0, 2)}, R={(0, 2): 3})

        def idle(inst, view):
            return RoundingState(instance=inst, discarded=set(), selected={1, 2},
                                 remaining={}, count_rows=set(), view=view)

        monkeypatch.setattr(laminar_kc, "init_state", idle)
        with pytest.raises(InvariantError,
                           match="selection costs more than the fractional budget"):
            solve(inst, view_of(inst, (F(0), F(1))))

    def test_a_round_selects_its_ones_together(self):
        # the round's vertex opens periods 2 and 3 inside the mass interval
        # (0, 4]: period 2 alone would leave 2, with period 3 at y = 1 enough
        # for the count row, but both picks are taken at once, so (0, 4]
        # gets one update and retires without migrating
        inst = small_instance(T=4, C=(4, 3, 4, 5), K=(4, 1, 2, 4), R={(0, 4): 5})
        y = (F(3, 4), F(1, 2), F(1, 2), F(3, 4))
        state = init_state(inst, view_of(inst, y))
        assert set(state.remaining) == {(0, 4)} and not state.count_rows
        events = []
        assert solve(inst, view_of(inst, y), trace=events.append) == frozenset({2, 3})
        assert events == [
            "iter=1 event=head active=1", "iter=1 event=lp cost=27/5",
            "iter=1 event=discard s=1", "iter=1 event=select s=2",
            "iter=1 event=select s=3", "iter=1 event=update iv=(0, 4) left=-2",
            "iter=1 event=retire iv=(0, 4)"]

    def test_trace_replay_names_events(self):
        inst = small_instance(T=2, C=(4, 4), K=(1, 5), members={(0, 2)},
                              R={(0, 2): 4})
        events = []
        solve(inst, view_of(inst, (F(1, 2), F(1, 2))), trace=events.append)
        kinds = {line.split("event=")[1].split()[0] for line in events}
        assert "head" in kinds and "lp" in kinds and "select" in kinds


class TestWholeValuesAsInts:
    """random_laminar_case gives C, K and some of R as whole Fractions."""

    def test_ints_and_whole_fractions_round_alike(self):
        lps = 0
        for seed in range(40):
            inst, y = random_laminar_case(seed)
            twin = LaminarKcInstance(T=inst.T, C=tuple(map(int, inst.C)),
                                     K=tuple(map(int, inst.K)), family=inst.family,
                                     R={iv: int(v) if v.denominator == 1 else v
                                        for iv, v in inst.R.items()})
            runs = []
            for each in (inst, twin):
                lines: list[str] = []
                runs.append((solve(each, view_of(each, y), trace=lines.append), lines))
            assert runs[0] == runs[1], seed
            lps += sum("event=lp" in line for line in runs[0][1])
        assert lps >= 40

    def test_rounding_runs_on_int_costs_and_remainders(self, monkeypatch):
        # every rounding LP's objective is all ints, and every whole
        # remainder an int, both from laminar_kc.solve and from interval
        # rounding
        real_solve, real_dedup = lp_core.solve_to_vertex, laminar_kc.dedup
        objectives, remainders = [], []

        def solve_recorded(lp, *args, **kwargs):
            objectives.append(lp.objective)
            return real_solve(lp, *args, **kwargs)

        def dedup_recorded(state, trace=None):
            remainders.extend(state.remaining.values())
            return real_dedup(state, trace)

        monkeypatch.setattr(laminar_kc.lp_core, "solve_to_vertex", solve_recorded)
        monkeypatch.setattr(laminar_kc, "dedup", dedup_recorded)
        for seed in range(40):
            inst, y = random_laminar_case(seed)
            assert all(type(v) is F for v in (*inst.C, *inst.K))
            solve(inst, view_of(inst, y))
        for seed in range(20):
            case = random_positive_interval_case(seed)
            solve_interval_kc(case.ikc, case.y_scaled, case.locked, case.residual)
        assert len(objectives) >= 40
        assert all(type(v) is int for objective in objectives for v in objective)
        assert sum(type(v) is int for v in remainders) >= 40
        assert all(type(v) is int for v in remainders if v.denominator == 1)
