"""Strengthened LP master problem and the cutting-plane driver.

The base relaxation covers every demand fractionally and carries two families
of capped-capacity rows.  The per-period rows min(C_s, d(all)) y_s >=
sum_i d_i x[s, i] are seeded.  The per-pair rows min(C_s, d_i) y_s >=
d_i x[s, i] are generated: only a few are ever violated, so each master
solve hands lp_core a separator, and the solver appends the rows each of
its optima violates and re-solves in place until none is (row generation,
after Dantzig, Fulkerson and Johnson).  The solver runs its lexicographic
pass only then, once per master solve unless the lex-least point violates
a row too.  It returns the lexicographically least optimal point, and once
that point of the relaxed LP satisfies every per-pair row it is also the
full LP's, so generating the rows changes no vertex, whichever rows the
intermediate optima called for.  On top of it sits a pool of
covering cuts (see cuts), which every integral solution satisfies: orders
in S2 only cover the residual d(I) - C(S1), so their usable capacity is
capped at it.  cut_row writes a cut's row from cuts.cut_terms.

run_pipeline alternates exact LP solves with the rounding/separation step
until the rounded order set covers every interval requirement, then places
the demand by a min-cost flow into that order set.  Each solve after a cut
starts from the last optimal tableau, and each after a per-pair row goes on
in it (a dual simplex over the appended rows).  Covered requirements make
the placement feasible, and its holding cost is at most 5/2 hcost(x) (see
assignment); the certificate checks both ratio bounds on every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import assignment as assign_mod
from . import interval_kc, lp_core, separation
from .cuts import CoveringCut, cut_demand, cut_lhs, cut_terms
from .errors import InvariantError, RoundLimitError
from .instance import (CmilsInstance, FractionalSolution, OrderSchedule, Rat,
                       format_rat, hcost, make_schedule, short_prefix, validate)

Trace = Optional[Callable[[str], None]]


class MasterLayout:
    """Deterministic variable numbering: all x[(s, i)] first, then y[s]."""

    def __init__(self, inst: CmilsInstance):
        self.x_col: dict[tuple[int, int], int] = {}
        for i in inst.items():
            for s in range(1, inst.deadline(i) + 1):
                self.x_col[(s, i)] = len(self.x_col)
        self.y_col = {s: len(self.x_col) + s - 1 for s in inst.periods()}
        self.num_vars = len(self.x_col) + inst.T

    def extract(self, values, inst: CmilsInstance) -> FractionalSolution:
        x = {key: values[col] for key, col in self.x_col.items() if values[col]}
        y = tuple(values[self.y_col[s]] for s in inst.periods())
        return FractionalSolution(x=x, y=y)


def build_base_lp(inst: CmilsInstance, layout: MasterLayout | None = None) -> lp_core.LinearProgram:
    """Base relaxation: coverage equalities plus the seeded per-period rows."""
    layout = layout or MasterLayout(inst)
    x_col, y_col, d, r = layout.x_col, layout.y_col, inst.d, inst.r
    obj: list[Rat] = [0] * layout.num_vars
    for (s, i), col in x_col.items():
        obj[col] = d[i - 1] * inst.h[i - 1][s - 1]
    for s, k in enumerate(inst.K, start=1):
        obj[y_col[s]] = k
    lp = lp_core.LinearProgram(
        num_vars=layout.num_vars,
        objective=obj,
        bounds=[(0, 1)] * layout.num_vars,
    )
    for i, due in enumerate(r, start=1):
        lp.add_row({x_col[(s, i)]: 1 for s in range(1, due + 1)}, lp_core.EQ, 1)
    total_d = sum(d)
    for s, cap in enumerate(inst.C, start=1):
        coeffs = {y_col[s]: min(cap, total_d)}
        for i, (di, due) in enumerate(zip(d, r), start=1):
            if s <= due:
                coeffs[x_col[(s, i)]] = -di
        lp.add_row(coeffs, lp_core.GE, 0)
    return lp


def pair_row(inst: CmilsInstance, layout: MasterLayout,
             pair: tuple[int, int]) -> dict[int, Rat]:
    """The per-pair row min(C_s, d_i) y_s - d_i x[s, i] >= 0, as coefficients."""
    s, i = pair
    d = inst.d[i - 1]
    return {layout.y_col[s]: min(inst.C[s - 1], d), layout.x_col[pair]: -d}


def cut_row(cut: CoveringCut, inst: CmilsInstance, layout: MasterLayout):
    """Covering cut as an LP row on the layout's columns, and its rhs d(I) - C(S1)."""
    residual, y_terms, x_terms = cut_terms(cut, inst)
    coeffs = {layout.y_col[s]: c for s, c in y_terms.items()}
    coeffs.update((layout.x_col[key], c) for key, c in x_terms.items())
    return coeffs, residual


@dataclass
class MasterState:
    instance: CmilsInstance
    layout: MasterLayout
    lp: lp_core.LinearProgram
    cut_pool: list[CoveringCut] = field(default_factory=list)
    current: Optional[FractionalSolution] = None
    lp_value: Optional[Rat] = None
    solution: Optional[lp_core.LpSolution] = None
    round: int = 0
    pivots: int = 0  # of the last solve_master call, its row generation included

    @classmethod
    def new(cls, inst: CmilsInstance) -> "MasterState":
        layout = MasterLayout(inst)
        return cls(instance=inst, layout=layout, lp=build_base_lp(inst, layout))


def solve_master(state: MasterState, trace: Trace = None) -> FractionalSolution:
    """Solve the master, warm from the last optimum once there is one.

    One lp_core.solve_to_vertex call generates the per-pair rows: each
    optimum it shows the separator gets every per-pair row it violates
    appended, in x_col order, and a trace line "round=<r> pair_rows=<k>".
    Each such row is one the LP lacked, so the generation ends.

    The row of (s, i) is violated exactly when x[s, i] > y_s.  With
    C_s >= d_i it reads d_i y_s >= d_i x[s, i].  With C_s < d_i the seeded
    per-period row already implies it (C_s y_s >= sum_k d_k x[s, k] >=
    d_i x[s, i]), and then x[s, i] <= C_s / d_i * y_s <= y_s.
    """
    inst, layout = state.instance, state.layout
    y_col = layout.y_col

    def separate(values):
        violated = [pair for pair, col in layout.x_col.items()
                    if values[col] and values[col] > values[y_col[pair[0]]]]
        if violated and trace:
            trace(f"round={state.round} pair_rows={len(violated)}")
        return [(pair_row(inst, layout, pair), lp_core.GE, 0) for pair in violated]

    sol = lp_core.solve_to_vertex(state.lp, start=state.solution, separate=separate)
    state.pivots = sol.pivots
    if sol.status != lp_core.OPTIMAL:
        # run_pipeline has checked every deadline prefix, so opening every
        # period meets every master row and every cut
        raise InvariantError(f"master LP came back {sol.status}")
    state.solution = sol
    state.current = layout.extract(sol.values, inst)
    state.lp_value = sol.objective_value
    for cut in state.cut_pool:
        if cut_lhs(cut, state.current, state.instance) < cut_demand(cut, state.instance):
            raise InvariantError("re-solved master violates a pooled cut")
    return state.current


def add_cut(state: MasterState, cut: CoveringCut) -> None:
    """Append a strictly violated covering cut to the pool.

    cut_row raises first for a cut that is not well formed (see cut_terms).
    """
    coeffs, rhs = cut_row(cut, state.instance, state.layout)
    if cut in state.cut_pool:
        raise ValueError("duplicate cut rejected")
    if state.current is None:
        raise ValueError("solve the master before adding cuts")
    if cut_lhs(cut, state.current, state.instance) >= cut_demand(cut, state.instance):
        raise ValueError("cut is not violated by the current solution")
    state.lp.add_row(coeffs, lp_core.GE, rhs)
    state.cut_pool.append(cut)


@dataclass
class Certificate:
    lp_value: Rat
    rounds: int
    num_cuts: int
    ordering_bound_ok: bool
    holding_bound_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "lp_value": format_rat(self.lp_value),
            "rounds": self.rounds,
            "num_cuts": self.num_cuts,
            "ordering_bound_ok": self.ordering_bound_ok,
            "holding_bound_ok": self.holding_bound_ok,
        }


@dataclass
class PipelineResult:
    schedule: OrderSchedule
    certificate: Certificate
    lp_solution: FractionalSolution
    payload: separation.IntervalRequirements
    cuts: list[CoveringCut]
    elapsed_ms: float


def run_pipeline(inst: CmilsInstance, max_rounds: int = 200,
                 trace: Trace = None) -> PipelineResult:
    """Full solve: cut loop, interval rounding, then demand placement.

    An instance whose demand due by some period exceeds the capacity up to
    it is infeasible, and ValueError names the first such period.  Once no
    period is short, opening every period and placing the demand by the
    flow is a schedule, so the master LP always has a point.
    """
    started = time.perf_counter()
    bad = validate(inst)
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))
    short = short_prefix(inst)
    if short:
        t, due, cap = short
        raise ValueError(f"infeasible instance: demand due by period {t} is {due}, "
                         f"above the capacity {cap} of periods 1..{t}")
    state = MasterState.new(inst)
    while True:
        sol = solve_master(state, trace)
        if state.round:
            if state.lp_value < prev_value:
                raise InvariantError("LP value decreased after adding rows")
            if trace:
                trace(f"round={state.round} lp_value={state.lp_value} "
                      f"pivots={state.pivots}")
        prev_value = state.lp_value
        found = separation.try_round(sol, inst)
        if isinstance(found, separation.IntervalRequirements):
            break
        state.round += 1
        if state.round > max_rounds:
            raise RoundLimitError(f"no rounding after {max_rounds} cut rounds", state=state)
        add_cut(state, found)
        if trace:
            trace(f"round={state.round} cut S1={sorted(found.S1)} "
                  f"S2={sorted(found.S2)} I={sorted(found.I)}")

    ikc = interval_kc.IntervalKcInstance(T=inst.T, C=inst.C, K=inst.K, R=found.R)
    orders = interval_kc.solve_interval_kc(
        ikc, found.y_scaled, found.locked, found.residual, trace=trace)

    placed = assign_mod.solve_assignment(inst, orders)
    if placed is None:
        raise InvariantError("placement flow found no feasible placement "
                             "despite covered requirements")
    schedule = make_schedule(inst, orders, placed[1])

    lp_order_part = sum(sol.y[s - 1] * inst.order_cost(s) for s in inst.periods())
    cert = Certificate(
        lp_value=state.lp_value,
        rounds=state.round,
        num_cuts=len(state.cut_pool),
        ordering_bound_ok=schedule.ordering_cost <= 10 * lp_order_part,
        holding_bound_ok=2 * schedule.holding_cost <= 5 * hcost(inst, sol.x),
    )
    if not (cert.ordering_bound_ok and cert.holding_bound_ok):
        raise InvariantError(f"ratio certificate failed: "
                             f"ordering_bound_ok={cert.ordering_bound_ok} "
                             f"holding_bound_ok={cert.holding_bound_ok}")
    elapsed = (time.perf_counter() - started) * 1000.0
    return PipelineResult(schedule=schedule, certificate=cert, lp_solution=sol,
                          payload=found, cuts=list(state.cut_pool),
                          elapsed_ms=elapsed)
