"""Exact brute-force baselines, used only to verify guarantees in tests.

Order-set enumeration is capped hard: above the cap the oracle refuses
rather than silently truncating.  The lot-sizing oracle prices each order
set's holding cost by the placement flow, assignment.solve_assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import assignment as assign_mod
from . import interval_kc as ikc_mod
from . import lp_core
from .errors import InvariantError, RoundLimitError, SizeCapError
from .instance import CmilsInstance, Rat, make_schedule, prefix_feasible
from .intervals import (ScaledCover, cap_within, locked_periods, residuals,
                        scale_y)
from .laminar_kc import LaminarKcInstance

CMILS_CAP = 14
KC_CAP = 16


@dataclass(frozen=True)
class OracleResult:
    optimum_cost: Rat
    witness: object  # OrderSchedule or frozenset of periods
    explored: int


def brute_force_cmils(inst: CmilsInstance) -> OracleResult:
    """Exact optimum by enumerating every order subset (2^T of them)."""
    if inst.T > CMILS_CAP:
        raise SizeCapError(f"T={inst.T} exceeds the oracle cap {CMILS_CAP}")
    best_total: Optional[Rat] = None
    best_orders: frozenset[int] = frozenset()
    best_units: dict = {}
    explored = 0
    for mask in range(1 << inst.T):
        explored += 1
        orders = [s for s in inst.periods() if mask >> (s - 1) & 1]
        if not prefix_feasible(inst, orders):
            continue
        ordering = sum(inst.order_cost(s) for s in orders)
        if best_total is not None and ordering >= best_total:
            continue
        placed = assign_mod.solve_assignment(inst, orders)
        if placed is None:
            raise InvariantError("prefix-feasible order set failed the flow")
        holding, units = placed
        total = ordering + holding
        if best_total is None or total < best_total:
            best_total = total
            best_orders = frozenset(orders)
            best_units = units
    if best_total is None:
        raise ValueError("instance is infeasible: no order subset covers demand")
    witness = make_schedule(inst, best_orders, best_units)
    return OracleResult(optimum_cost=best_total, witness=witness, explored=explored)


def _covers(C, selected, requirements: dict) -> bool:
    return all(cap_within(C, a, b, selected) >= need
               for (a, b), need in requirements.items() if need > 0)


def _brute_force_cover(T: int, C, K, requirements: dict) -> OracleResult:
    if T > KC_CAP:
        raise SizeCapError(f"T={T} exceeds the oracle cap {KC_CAP}")
    best_cost: Optional[Rat] = None
    best_set: frozenset[int] = frozenset()
    explored = 0
    for mask in range(1 << T):
        explored += 1
        selected = [s for s in range(1, T + 1) if mask >> (s - 1) & 1]
        cost = sum(K[s - 1] for s in selected)
        if best_cost is not None and cost >= best_cost:
            continue
        if _covers(C, selected, requirements):
            best_cost = cost
            best_set = frozenset(selected)
    if best_cost is None:
        raise ValueError("covering instance is infeasible")
    return OracleResult(optimum_cost=best_cost, witness=best_set, explored=explored)


def brute_force_laminar_kc(inst: LaminarKcInstance) -> OracleResult:
    return _brute_force_cover(inst.T, inst.C, inst.K, inst.R)


def brute_force_interval_kc(inst: ikc_mod.IntervalKcInstance) -> OracleResult:
    return _brute_force_cover(inst.T, inst.C, inst.K, inst.R)


@dataclass
class IntervalKcRun:
    selected: frozenset[int]
    lp_value: Rat
    rounds: int
    y_scaled: tuple[Rat, ...]
    locked: frozenset[int]
    residual: dict


def approx_interval_kc_details(ikc: ikc_mod.IntervalKcInstance,
                               max_rounds: int = 200) -> IntervalKcRun:
    """Cutting-plane loop over the naive covering LP, then interval rounding.

    Rows capping each period's usable capacity at the residual requirement
    are added while the current fractional solution violates one; once none
    is violated, the tenfold-scaled solution certifiably feeds the interval
    solver and the result costs at most 10 times the final LP value.
    """
    T = ikc.T
    lp = lp_core.LinearProgram(
        num_vars=T,
        objective=list(ikc.K),
        bounds=[(0, 1)] * T,
    )
    for (a, b), need in sorted(ikc.R.items()):
        if need > 0:
            lp.add_row({s - 1: ikc.C[s - 1] for s in range(a + 1, b + 1)},
                       lp_core.GE, need)
    seen_cuts: set = set()
    rounds = 0
    while True:
        sol = lp_core.solve_to_vertex(lp)
        if sol.status != lp_core.OPTIMAL:
            raise ValueError(f"covering LP is {sol.status}; instance infeasible?")
        y = sol.values
        y_scaled = scale_y(y)
        locked = locked_periods(y_scaled)
        residual = residuals(ikc.R, ikc.C, locked)
        view = ScaledCover(ikc.C, y)
        violated = None
        for (a, b), need in sorted(residual.items()):
            if need > 0 and not view.holds(a, b, need, locked, mass=1):
                violated = (a, b, frozenset(locked & set(range(a + 1, b + 1))))
                break
        if violated is None:
            selected = ikc_mod.solve_interval_kc(ikc, y_scaled, locked, residual)
            return IntervalKcRun(selected=selected, lp_value=sol.objective_value,
                                 rounds=rounds, y_scaled=y_scaled, locked=locked,
                                 residual=residual)
        rounds += 1
        if rounds > max_rounds:
            raise RoundLimitError(f"no rounding after {max_rounds} cut rounds",
                                  state={"lp_value": sol.objective_value,
                                         "rounds": rounds, "y": y})
        if violated in seen_cuts:
            raise InvariantError("separation returned an already-pooled cut")
        seen_cuts.add(violated)
        a, b, inside = violated
        need = residual[(a, b)]
        lp.add_row({s - 1: min(ikc.C[s - 1], need)
                    for s in range(a + 1, b + 1) if s not in inside},
                   lp_core.GE, need)
