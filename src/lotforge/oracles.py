"""Exact brute-force lot-sizing baseline, for `bench --oracle` and the tests.

Order-set enumeration is capped hard: above the cap the oracle refuses
rather than silently truncating.  Each order set's holding cost is priced
by the placement flow, assignment.solve_assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import assignment as assign_mod
from .errors import InvariantError, SizeCapError
from .instance import CmilsInstance, Rat, make_schedule, prefix_feasible

CMILS_CAP = 14


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

