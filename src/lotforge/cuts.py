"""Covering cuts over the master variables.

A cut is a triple (S1, S2, I): disjoint period sets and an item set with
C(S1) < d(I).  It asserts that, beyond the capacity of S1 and the demand
explicitly placed outside S1 and S2, the orders in S2 must cover the rest
of d(I) -- and each order in S2 only counts up to the residual
d(I) - C(S1), its usable share of that requirement:

    C(S1) + sum_{s in S2} min(C_s, d(I) - C(S1)) y_s
          + sum_{i in I} d_i x[outside S1+S2, i]  >=  d(I)

(the knapsack-cover inequalities of Carr, Fleischer, Leung and Phillips).
cut_terms states this inequality once, and its three readers take it from
there: add_cut's validity check, cut_lhs's value at a point and the
master's LP row (cmils_master.cut_row).
"""

from __future__ import annotations

from dataclasses import dataclass
from .instance import CmilsInstance, FractionalSolution, Rat


@dataclass(frozen=True)
class CoveringCut:
    S1: frozenset[int]
    S2: frozenset[int]
    I: frozenset[int]


def cut_demand(cut: CoveringCut, inst: CmilsInstance) -> Rat:
    return sum(inst.demand(i) for i in cut.I)


def cut_terms(cut: CoveringCut, inst: CmilsInstance
              ) -> tuple[Rat, dict[int, Rat], dict[tuple[int, int], Rat]]:
    """The cut as sum_s y_terms[s] y_s + sum_(s, i) x_terms[(s, i)] x[s, i]
    >= residual, with residual = d(I) - C(S1) > 0.

    Raises ValueError unless S1 and S2 are disjoint periods in 1..T, I is
    a non-empty set of items in 1..N and C(S1) < d(I).
    """
    if cut.S1 & cut.S2:
        raise ValueError("cut has overlapping period sets")
    if not cut.I:
        raise ValueError("cut has no items")
    if not (cut.S1 | cut.S2).issubset(inst.periods()):
        raise ValueError(f"cut names a period outside 1..{inst.T}")
    if not cut.I.issubset(inst.items()):
        raise ValueError(f"cut names an item outside 1..{inst.N}")
    cap1 = sum(inst.cap(s) for s in cut.S1)
    need = cut_demand(cut, inst)
    if cap1 >= need:
        raise ValueError(f"cut rejected: C(S1)={cap1} >= d(I)={need}")
    residual = need - cap1
    excluded = cut.S1 | cut.S2
    y_terms = {s: min(inst.cap(s), residual) for s in cut.S2}
    x_terms = {(s, i): inst.demand(i) for i in cut.I
               for s in range(1, inst.deadline(i) + 1) if s not in excluded}
    return residual, y_terms, x_terms


def cut_lhs(cut: CoveringCut, sol: FractionalSolution, inst: CmilsInstance) -> Rat:
    """Left side of the covering inequality; violated iff < d(I)."""
    residual, y_terms, x_terms = cut_terms(cut, inst)
    return (cut_demand(cut, inst) - residual
            + sum(c * sol.y[s - 1] for s, c in y_terms.items())
            + sum(c * v for key, c in x_terms.items() if (v := sol.x.get(key))))
