import contextlib
import dataclasses
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (full_master_lp, schedule_to_fractional, verify_vertex,
                     warm_solves_checked_cold, x_val)
from lotforge.cmils_master import (MasterState, add_cut, build_base_lp,
                                   run_pipeline, solve_master)
from lotforge.cuts import CoveringCut, cut_demand, cut_lhs, cut_terms
from lotforge import cli, cmils_master, lp_core
from lotforge.errors import InvariantError, RoundLimitError
from lotforge.instance import (CmilsInstance, check_feasible, gen_kc_gap,
                               gen_random, hcost, parse_rat, save)
from lotforge.oracles import brute_force_cmils

F = Fraction


def stacked_gaps(levels, R=F(1000)):
    """Chained copies of the two-period gap pattern, one item per level."""
    K, C, d, r, h = [], [], [], [], []
    for j in range(levels):
        K += [F(0), F(1)]
        C += [R - 1, R]
        d.append(R)
        r.append(2 * (j + 1))
        h.append(tuple(F(0) for _ in range(2 * (j + 1))))
    return CmilsInstance(T=2 * levels, N=levels, K=tuple(K), C=tuple(C),
                         d=tuple(d), r=tuple(r), h=tuple(h))


def single_period():
    return CmilsInstance(T=1, N=1, K=(F(5),), C=(F(3),), d=(F(2),), r=(1,),
                         h=((F(0),),))


class TestBaseLp:
    def test_gap_value_is_one_over_r(self):
        for R in (F(10), F(1000)):
            state = MasterState.new(gen_kc_gap(R))
            solve_master(state)
            assert state.lp_value == 1 / R

    def test_single_period_forces_order(self):
        state = MasterState.new(single_period())
        sol = solve_master(state)
        assert sol.y == (F(1),)
        assert state.lp_value == 5

    def test_seed5_lp_below_optimum(self):
        inst = gen_random(5, T=6, N=4)
        state = MasterState.new(inst)
        solve_master(state)
        assert state.lp_value <= brute_force_cmils(inst).optimum_cost

    def test_base_lp_row_count(self):
        # the master seeds the coverage and per-period rows only; the
        # helper seeds the per-pair rows between them as well
        inst = gen_random(2, T=4, N=3)
        pairs = sum(inst.deadline(i) for i in inst.items())
        assert len(build_base_lp(inst).rows) == inst.N + inst.T
        assert len(full_master_lp(inst).rows) == inst.N + pairs + inst.T


class TestPairRows:
    """The per-pair rows are generated; the full master is the reference."""

    def test_trace_counts_the_generated_rows(self):
        inst = gen_random(5, T=6, N=4)
        state = MasterState.new(inst)
        lines = []
        solve_master(state, trace=lines.append)
        added = [re.fullmatch(r"round=0 pair_rows=(\d+)", line) for line in lines]
        assert added and all(added)
        assert sum(int(m.group(1)) for m in added) == len(state.lp.rows) - inst.N - inst.T

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10**6), T=st.integers(2, 14), N=st.integers(1, 7),
           slack=st.sampled_from([F(1), F(3, 2)]))
    def test_generated_master_matches_the_full_master(self, seed, T, N, slack):
        inst = gen_random(seed, T=T, N=N, slack_factor=slack)
        state = MasterState.new(inst)
        solve_master(state)
        full = full_master_lp(inst)
        cold = lp_core.solve_to_vertex(full)
        assert state.solution.values == cold.values
        assert state.lp_value == cold.objective_value
        assert verify_vertex(full, state.solution)
        # every warm re-solve of the pipeline, pair-row and cut rounds alike,
        # equals a cold solve of the same LP
        with warm_solves_checked_cold():
            run_pipeline(inst)


class TestCutEvaluation:
    def test_single_pair_specialization(self):
        inst = gen_random(5, T=6, N=4)
        state = MasterState.new(inst)
        sol = solve_master(state)
        s, i = 2, 1
        cut = CoveringCut(S1=frozenset(), S2=frozenset({s}), I=frozenset({i}))
        d = inst.demand(i)
        expected = min(inst.cap(s), d) * sol.y[s - 1] + d * sum(
            (x_val(sol, t, i) for t in range(1, inst.deadline(i) + 1) if t != s), F(0))
        assert cut_lhs(cut, sol, inst) == expected

    def test_integral_solutions_satisfy_valid_cuts(self):
        import random
        rng = random.Random(11)
        for seed in range(6):
            inst = gen_random(seed, T=6, N=4)
            witness = brute_force_cmils(inst).witness
            sol = schedule_to_fractional(inst, witness)
            for _ in range(20):
                periods = list(inst.periods())
                rng.shuffle(periods)
                k1 = rng.randint(0, 2)
                k2 = rng.randint(0, inst.T - k1)
                s1 = frozenset(periods[:k1])
                s2 = frozenset(periods[k1:k1 + k2])
                items = frozenset(i for i in inst.items() if rng.random() < 0.6)
                if not items:
                    continue
                cut = CoveringCut(S1=s1, S2=s2, I=items)
                cap1 = sum((inst.cap(s) for s in s1), F(0))
                if cap1 >= cut_demand(cut, inst):
                    continue
                assert cut_lhs(cut, sol, inst) >= cut_demand(cut, inst)

    def test_cut_lhs_matches_naive_sum(self):
        inst = gen_random(5, T=6, N=4)
        state = MasterState.new(inst)
        sol = solve_master(state)
        cut = CoveringCut(S1=frozenset({1}), S2=frozenset({3, 4}),
                          I=frozenset(inst.items()))
        naive = sum((inst.cap(s) for s in cut.S1), F(0))
        residual = cut_demand(cut, inst) - naive
        for s in cut.S2:
            naive += min(inst.cap(s), residual) * sol.y[s - 1]
        for i in cut.I:
            for t in range(1, inst.deadline(i) + 1):
                if t not in cut.S1 | cut.S2:
                    naive += inst.demand(i) * x_val(sol, t, i)
        assert cut_lhs(cut, sol, inst) == naive

    def test_oversized_s1_rejected(self):
        inst = gen_kc_gap(F(10))
        cut = CoveringCut(S1=frozenset({1, 2}), S2=frozenset(), I=frozenset({1}))
        with pytest.raises(ValueError, match="C\\(S1\\)"):
            cut_lhs(cut, schedule_to_fractional(
                inst, brute_force_cmils(inst).witness), inst)


class TestCutPool:
    def gap_state(self):
        state = MasterState.new(gen_kc_gap(F(1000)))
        solve_master(state)
        return state

    def test_gap_cut_drives_second_period_open(self):
        state = self.gap_state()
        cut = CoveringCut(S1=frozenset({1}), S2=frozenset({2}), I=frozenset({1}))
        add_cut(state, cut)
        sol = solve_master(state)
        assert sol.y[1] == 1
        assert cut_lhs(cut, sol, inst=state.instance) >= cut_demand(cut, state.instance)

    def test_non_violated_cut_rejected(self):
        state = self.gap_state()
        cut = CoveringCut(S1=frozenset(), S2=frozenset({1}), I=frozenset({1}))
        if cut_lhs(cut, state.current, state.instance) >= cut_demand(cut, state.instance):
            with pytest.raises(ValueError, match="not violated"):
                add_cut(state, cut)

    def test_duplicate_cut_rejected(self):
        state = self.gap_state()
        cut = CoveringCut(S1=frozenset({1}), S2=frozenset({2}), I=frozenset({1}))
        add_cut(state, cut)
        solve_master(state)
        with pytest.raises(ValueError, match="duplicate"):
            add_cut(state, cut)

    @pytest.mark.parametrize("cut, message", [
        pytest.param(CoveringCut(frozenset({1}), frozenset({1, 2}), frozenset({1})),
                     "overlapping period sets", id="overlapping-S1-S2"),
        pytest.param(CoveringCut(frozenset(), frozenset({2}), frozenset()),
                     "no items", id="empty-I"),
        pytest.param(CoveringCut(frozenset({1, 2}), frozenset(), frozenset({1})),
                     r"C\(S1\)=1999 >= d\(I\)=1000", id="C(S1)-at-least-d(I)"),
        # Period 0 would read C_T and y_T through a negative index, and
        # item 7 past the end of d.
        pytest.param(CoveringCut(frozenset(), frozenset({0}), frozenset({1})),
                     r"period outside 1\.\.2", id="S2-period-0"),
        pytest.param(CoveringCut(frozenset({0}), frozenset({2}), frozenset({1})),
                     r"period outside 1\.\.2", id="S1-period-0"),
        pytest.param(CoveringCut(frozenset(), frozenset({2}), frozenset({7})),
                     r"item outside 1\.\.1", id="I-item-7"),
    ])
    def test_malformed_cut_rejected(self, cut, message):
        state = self.gap_state()
        rows = len(state.lp.rows)
        with pytest.raises(ValueError, match=message):
            cut_lhs(cut, state.current, state.instance)
        with pytest.raises(ValueError, match=message):
            add_cut(state, cut)
        assert len(state.lp.rows) == rows and not state.cut_pool

    def test_cut_before_first_solve_rejected(self):
        state = MasterState.new(gen_kc_gap(F(1000)))
        cut = CoveringCut(S1=frozenset({1}), S2=frozenset({2}), I=frozenset({1}))
        with pytest.raises(ValueError, match="solve the master before adding cuts"):
            add_cut(state, cut)
        assert len(state.lp.rows) == len(build_base_lp(state.instance).rows)
        assert not state.cut_pool


class TestPipeline:
    def test_gap_schedule_costs_one(self):
        result = run_pipeline(gen_kc_gap(F(1000)))
        assert result.schedule.total_cost == 1
        assert result.certificate.ordering_bound_ok
        assert result.certificate.holding_bound_ok
        # the cut forcing y_2 >= 1
        assert CoveringCut(frozenset({1}), frozenset({2}), frozenset({1})) in result.cuts

    def test_single_period_instance(self):
        result = run_pipeline(single_period())
        assert result.schedule.orders == frozenset({1})
        assert result.schedule.total_cost == 5

    def test_invalid_instance_rejected(self):
        inst = CmilsInstance(T=1, N=1, K=(F(1),), C=(F(1),), d=(F(1),), r=(1,),
                             h=((F(2),),))
        with pytest.raises(ValueError, match="invalid instance"):
            run_pipeline(inst)

    def test_infeasible_instance_rejected(self):
        inst = CmilsInstance(T=1, N=1, K=(F(1),), C=(F(1),), d=(F(2),), r=(1,),
                             h=((F(0),),))
        with pytest.raises(ValueError, match="infeasible"):
            run_pipeline(inst)

    def test_round_cap_carries_state(self):
        with pytest.raises(RoundLimitError) as info:
            run_pipeline(gen_kc_gap(F(1000)), max_rounds=0)
        assert info.value.state is not None
        assert info.value.state.round == 1

    def test_seeds_within_ratio(self):
        for seed in range(1, 13):
            inst = gen_random(seed, T=3 + seed % 6, N=1 + (seed * 7) % 6)
            result = run_pipeline(inst)
            ok, bad = check_feasible(inst, result.schedule)
            assert ok, bad
            opt = brute_force_cmils(inst).optimum_cost
            assert result.schedule.total_cost <= 10 * opt
            sol = result.lp_solution
            lp_orders = sum((sol.y[s - 1] * inst.order_cost(s)
                             for s in inst.periods()), F(0))
            assert result.schedule.ordering_cost <= 10 * lp_orders
            assert result.schedule.holding_cost <= F(5, 2) * hcost(inst, sol.x)
            assert result.certificate.lp_value <= opt

    def test_pooled_cuts_valid_for_oracle_witness(self):
        # the stacked-gap instances actually pool cuts; random seeds rarely do
        checked = 0
        for levels in (1, 2, 3, 4):
            inst = stacked_gaps(levels)
            result = run_pipeline(inst)
            witness = brute_force_cmils(inst).witness
            integral = schedule_to_fractional(inst, witness)
            for cut in result.cuts:
                assert cut_lhs(cut, integral, inst) >= cut_demand(cut, inst)
                checked += 1
        assert checked >= 6

    def test_stacked_gaps_need_multiple_rounds(self):
        # chained copies of the gap pattern take the loop through more than
        # one cut round before a coverable solution appears; each master
        # solve returns the lexicographically least optimal vertex, so the
        # count is exact for every level
        for levels, rounds in ((1, 1), (2, 2), (3, 2), (4, 2)):
            inst = stacked_gaps(levels)
            result = run_pipeline(inst)
            assert result.certificate.rounds == rounds, levels
            ok, bad = check_feasible(inst, result.schedule)
            assert ok, bad
            opt = brute_force_cmils(inst).optimum_cost
            assert result.schedule.total_cost <= 10 * opt

    @pytest.mark.parametrize("flag", ["ordering_bound_ok", "holding_bound_ok"])
    def test_false_certificate_raises(self, monkeypatch, flag):
        if flag == "ordering_bound_ok":
            real = cmils_master.make_schedule
            monkeypatch.setattr(cmils_master, "make_schedule", lambda *args:
                                dataclasses.replace(real(*args), ordering_cost=F(10**9)))
        else:
            monkeypatch.setattr(cmils_master, "hcost", lambda inst, x: F(-1))
        with pytest.raises(InvariantError, match=f"{flag}=False"):
            run_pipeline(gen_kc_gap(F(1000)))

    def test_certificate_json_shape(self):
        result = run_pipeline(gen_kc_gap(F(100)))
        doc = result.certificate.to_json_dict()
        assert set(doc) == {"lp_value", "rounds", "num_cuts",
                            "ordering_bound_ok", "holding_bound_ok"}

    def test_non_integer_rational_data(self):
        # nothing in the pipeline may assume integral quantities
        assert run_pipeline(gen_kc_gap(F(7, 3))).schedule.total_cost == 1
        for seed in (2, 5, 9):
            base = gen_random(seed, T=6, N=4)
            inst = CmilsInstance(T=base.T, N=base.N,
                                 K=tuple(F(k, 3) for k in base.K),
                                 C=tuple(c * F(5, 7) for c in base.C),
                                 d=tuple(d * F(5, 7) for d in base.d),
                                 r=base.r,
                                 h=tuple(tuple(F(v, 3) for v in row)
                                         for row in base.h))
            result = run_pipeline(inst)
            ok, bad = check_feasible(inst, result.schedule)
            assert ok, bad
            opt = brute_force_cmils(inst).optimum_cost
            assert result.schedule.total_cost <= 10 * opt

    @pytest.mark.parametrize("T,N", [(6, 4), (10, 6)])
    def test_scaled_data_scales_every_result(self, T, N):
        """C and d times 7/3, h times 5/4 and K times 35/12 leave the orders,
        x and y as they are, multiply every placed unit by 7/3 and the LP
        value and every cost by 35/12: the Fraction data give exactly what
        the generator's int data give, scaled."""
        units, money = F(7, 3), F(35, 12)
        for seed in range(1, 21):
            base = gen_random(seed, T=T, N=N)
            assert all(type(v) is int for v in base.K + base.C + base.d)
            scaled = CmilsInstance(T=T, N=N, K=tuple(k * money for k in base.K),
                                   C=tuple(c * units for c in base.C),
                                   d=tuple(v * units for v in base.d), r=base.r,
                                   h=tuple(tuple(v * F(5, 4) for v in row)
                                           for row in base.h))
            a, b = run_pipeline(base), run_pipeline(scaled)
            assert b.schedule.orders == a.schedule.orders, seed
            assert b.lp_solution.y == a.lp_solution.y, seed
            assert b.lp_solution.x == a.lp_solution.x, seed
            assert b.schedule.assignment == {key: q * units for key, q
                                             in a.schedule.assignment.items()}, seed
            assert b.certificate.lp_value == a.certificate.lp_value * money, seed
            for name in ("ordering_cost", "holding_cost", "total_cost"):
                assert getattr(b.schedule, name) == getattr(a.schedule, name) * money

    def test_all_free_orders(self):
        base = gen_random(4, T=5, N=3)
        inst = CmilsInstance(T=base.T, N=base.N, K=(F(0),) * base.T, C=base.C,
                             d=base.d, r=base.r, h=base.h)
        result = run_pipeline(inst)
        assert result.schedule.ordering_cost == 0
        assert result.certificate.ordering_bound_ok


class TestWarmResolve:
    """The cut loop re-solves the master warm; a cold solve is the reference."""

    # (instance, cut rounds); kc-gap at R = 10 and 7/2 certifies its first LP
    CASES = ([pytest.param(gen_kc_gap(parse_rat(R)), rounds, id=f"kc-gap-{R}")
              for R, rounds in (("10", 0), ("1000", 1), ("1000000", 1), ("7/2", 0),
                                ("123457/3", 1))]
             # the gen_random seeds below 200 at these sizes that reach the cut loop
             + [pytest.param(gen_random(seed, T=T, N=N), 1, id=f"random-{seed}-T{T}-N{N}")
                for seed, T, N in ((19, 6, 4), (114, 6, 4), (3, 8, 5), (122, 8, 5),
                                   (179, 8, 5))])

    @pytest.mark.parametrize("inst, rounds", CASES)
    def test_warm_resolves_match_cold_solves(self, inst, rounds):
        lines = []
        with warm_solves_checked_cold() as warm:
            assert run_pipeline(inst, trace=lines.append).certificate.rounds == rounds
        pair_rounds = sum(1 for line in lines if "pair_rows=" in line)
        # one cold solve, then one warm re-solve per pair-row round and per
        # cut round
        assert warm == [False] + [True] * (pair_rounds + rounds)

    def test_warm_cut_resolves_on_stacked_gaps_match_cold_solves(self):
        """Over gap-stack-style instances, which reach the cut loop, every
        warm re-solve equals a cold solve of the same LP."""
        rounds = set()

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(gap_stacks())
        def check(inst):
            with warm_solves_checked_cold() as warm:
                result = run_pipeline(inst)
            rounds.add(result.certificate.rounds)
            assert not warm[0] and all(warm[1:])

        check()
        assert max(rounds) >= 2


@st.composite
def gap_stacks(draw):
    """1-3 `gen_kc_gap` levels stacked in time, plus 0-2 small fillers.

    Level l takes the gap's two periods as periods 2l-1 and 2l, with a
    random scale R and random order costs (cheap, then dear); its item of
    demand R is due at 2l with no holding cost.  The cheap period alone
    falls short of R, which is the gap the covering cuts close.  Each R - 1
    exceeds the fillers' total demand, so every instance is feasible.
    """
    K, C, d, r, h = [], [], [], [], []
    levels = draw(st.integers(1, 3))
    for level in range(levels):
        gap = gen_kc_gap(draw(st.sampled_from((10, 100, 1000, 10**6, F(123457, 3))))
                         + draw(st.integers(1, 9)))
        K += [F(draw(st.integers(0, 2))), F(draw(st.integers(3, 20)))]
        C += gap.C
        d += gap.d
        r += [t + 2 * level for t in gap.r]
        h.append((F(0),) * (2 * level) + gap.h[0])
    T = 2 * levels
    for _ in range(draw(st.integers(0, 2))):
        due = draw(st.integers(1, T))
        steps = draw(st.lists(st.integers(0, 3), min_size=due - 1, max_size=due - 1))
        d.append(F(draw(st.integers(1, 5))))
        r.append(due)
        h.append(tuple(F(sum(steps[s:])) for s in range(due)))
    return CmilsInstance(T=T, N=len(d), K=tuple(K), C=tuple(C), d=tuple(d), r=tuple(r),
                         h=tuple(h))


def test_pooled_cuts_read_one_statement(monkeypatch):
    """Every pooled cut is well formed by cut_terms.  At the master point it
    was separated from, cut_lhs is C(S1) plus cut_row's row evaluated at the
    LP values, and falls below d(I)."""
    seen = []
    real = cmils_master.add_cut

    def recording(state, cut):
        seen.append((cut, state.solution.values, state.current))
        real(state, cut)

    monkeypatch.setattr(cmils_master, "add_cut", recording)
    cuts = 0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(gap_stacks())
    def check(inst):
        nonlocal cuts
        seen.clear()
        result = run_pipeline(inst)
        assert [cut for cut, _, _ in seen] == result.cuts
        layout = cmils_master.MasterLayout(inst)
        for cut, values, point in seen:
            residual, _, _ = cut_terms(cut, inst)
            coeffs, rhs = cmils_master.cut_row(cut, inst, layout)
            assert rhs == residual
            cap1 = sum((inst.cap(s) for s in cut.S1), F(0))
            lhs = cut_lhs(cut, point, inst)
            assert lhs == cap1 + sum(c * values[j] for j, c in coeffs.items())
            assert lhs < cut_demand(cut, inst)
        cuts += len(seen)

    check()
    assert cuts > 0


# gap-stack input 84 of the seed-902 benchmark pool: a cold and a warm re-solve
# once reached different optimal vertices of equal value here
GAP_STACK_902_84 = CmilsInstance(
    T=6, N=5,
    K=(F(2), F(17), F(2), F(4), F(2), F(16)),
    C=(F(1000002), F(1000003), F(106), F(107), F(1000005), F(1000006)),
    d=(F(1000003), F(107), F(1000006), F(2), F(5)),
    r=(2, 4, 6, 1, 4),
    h=((F(0),) * 2, (F(0),) * 4, (F(0),) * 6, (F(0),), (F(4), F(1), F(0), F(0))))


@pytest.mark.parametrize("inst", [pytest.param(gen_kc_gap(parse_rat(R)), id=f"kc-gap-{R}")
                                  for R in ("10", "1000", "1000000", "7/2", "123457/3")]
                         + [pytest.param(stacked_gaps(levels), id=f"stacked-gaps-{levels}")
                            for levels in (1, 2, 3, 4)]
                         + [pytest.param(GAP_STACK_902_84, id="gap-stack-902-84")])
def test_cold_resolves_give_the_same_report(monkeypatch, tmp_path, inst):
    """`solve` reports and schedules are byte-identical, warm or cold."""
    inst_path = tmp_path / "inst.json"
    save(inst, inst_path)

    def solve(name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["solve", "--in", str(inst_path),
                             "--out", str(tmp_path / name)]) == 0
        report = re.sub(r'\n *"wall_time_ms": [^\n]*', "", out.getvalue())
        return report, (tmp_path / name).read_bytes()

    warm = solve("warm.json")
    real = cmils_master.solve_master

    def cold(state, trace=None):
        state.solution = None
        return real(state, trace)

    monkeypatch.setattr(cmils_master, "solve_master", cold)
    assert solve("cold.json") == warm


def test_one_lexicographic_pass_per_master_call(monkeypatch):
    """Each solve_master call makes one lexicographic pass, plus one for each
    time its lex-least point still violated a per-pair row; the re-solves
    between pair-row rounds make none.  A call ends on a separation that
    found no row, before or after its last pass."""
    real_lex, real_solve = lp_core._Tableau.lex_min, lp_core.solve_to_vertex
    events = []

    def lex_min(tab):
        events.append("lex")
        return real_lex(tab)

    def solve(lp, start=None, separate=None):
        events.append("call")

        def watched(values):
            rows = list(separate(values))
            events.append("rows" if rows else "none")
            return rows

        return real_solve(lp, start=start, separate=watched)

    monkeypatch.setattr(lp_core._Tableau, "lex_min", lex_min)
    monkeypatch.setattr(lp_core, "solve_to_vertex", solve)
    calls = rounds = rounds_after_lex = 0
    for inst in ([gen_random(seed, T=10, N=6) for seed in range(1, 21)]
                 + [stacked_gaps(3), gen_kc_gap(F(1000))]):
        events.clear()
        run_pipeline(inst)
        for call in " ".join(events).split("call")[1:]:
            assert call.split()[-2:] in (["lex", "none"], ["none", "lex"])
            assert call.count("lex") == 1 + call.count("lex rows")
            calls += 1
            rounds += call.count("rows")
            rounds_after_lex += call.count("lex rows")
    # most pair-row rounds are found, and re-solved, with no lexicographic pass
    assert calls > 22 and rounds > 2 * rounds_after_lex


def test_pipeline_at_scale_is_pinned(tmp_path):
    """`solve` on gen_random(1, T=60, N=30): the report without its wall time
    and the schedule file hash to the values a speed change must keep."""
    inst_path, sched_path = tmp_path / "random-1-T60-N30.json", tmp_path / "schedule.json"
    save(gen_random(1, T=60, N=30), inst_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["solve", "--in", str(inst_path), "--out", str(sched_path)]) == 0
    report = json.loads(out.getvalue())
    report.pop("wall_time_ms")
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == (
        "b61eeb222f2b0d87628041b06c76409e05ff69e8332e13ec9948ee839dac32aa")
    assert hashlib.sha256(sched_path.read_bytes()).hexdigest() == (
        "13d0cd2e5ff5be859f91bc799b1a0ac104d8e8c0b6e4065daa58cd315e16eeed")
