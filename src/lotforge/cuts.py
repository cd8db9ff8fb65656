"""Covering cuts over the master variables.

A cut is a triple (S1, S2, I): disjoint period sets and an item set with
C(S1) < d(I).  It asserts that, beyond the capacity of S1 and the demand
explicitly placed outside S1 and S2, the orders in S2 must cover the rest
of d(I) -- and each order in S2 only counts up to the residual
d(I) - C(S1), its usable share of that requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from .instance import CmilsInstance, FractionalSolution, Rat


@dataclass(frozen=True)
class CoveringCut:
    S1: frozenset[int]
    S2: frozenset[int]
    I: frozenset[int]


def check_cut(cut: CoveringCut, inst: CmilsInstance) -> None:
    if cut.S1 & cut.S2:
        raise ValueError("cut has overlapping period sets")
    if not cut.I:
        raise ValueError("cut has no items")
    cap1 = sum(inst.cap(s) for s in cut.S1)
    need = sum(inst.demand(i) for i in cut.I)
    if cap1 >= need:
        raise ValueError(f"cut rejected: C(S1)={cap1} >= d(I)={need}")


def cut_demand(cut: CoveringCut, inst: CmilsInstance) -> Rat:
    return sum(inst.demand(i) for i in cut.I)


def cut_lhs(cut: CoveringCut, sol: FractionalSolution, inst: CmilsInstance) -> Rat:
    """Left side of the covering inequality; violated iff < d(I)."""
    check_cut(cut, inst)
    lhs = sum(inst.cap(s) for s in cut.S1)
    residual = cut_demand(cut, inst) - lhs
    for s in cut.S2:
        lhs += min(inst.cap(s), residual) * sol.y[s - 1]
    excluded = cut.S1 | cut.S2
    for i in cut.I:
        outside = sum(sol.x_val(s, i) for s in range(1, inst.deadline(i) + 1)
                      if s not in excluded)
        lhs += inst.demand(i) * outside
    return lhs
