"""Rounding-as-separation over the designated covering inequalities.

Given a master solution (x, y): each interval (a, b] carries a requirement

    req[(a, b)] = sum over items due in (a, b] of max(1 - (5/2) * x[<=a, i], 0) * d_i,

the capacity that any acceptable order set must place inside (a, b].  The
hand-off to interval rounding (tenfold-scaled y, locked periods, residual
requirements) is derived by intervals.scale_y, locked_periods and
residuals.  For every interval with a positive residual, one covering
inequality is checked.  The first violated one is returned as a cut.
When all of them hold, the unlocked periods carry capped mass of the
residual requirement or a count of 3/5 among the large periods.  Since
unlocked periods are scaled exactly tenfold, that is the
tenfold-mass-or-count-of-six precondition that the interval knapsack
solver checks at its entry.

The shortfalls and requirements are running integer sums over a common
denominator, each stored value built by instance.rat: an int when whole,
else a Fraction.  Each candidate cut is tested by cuts.cut_lhs, which
evaluates the terms of cuts.cut_terms at (x, y) in Fraction arithmetic,
once per interval with a positive residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .cuts import CoveringCut, cut_demand, cut_lhs
from .instance import CmilsInstance, FractionalSolution, Rat, rat
from .intervals import locked_periods, residuals, scale_y


@dataclass(frozen=True)
class IntervalRequirements:
    """Hand-off payload from separation to interval rounding, which checks
    it at its entry."""

    y_scaled: tuple[Rat, ...]
    locked: frozenset[int]
    R: dict[tuple[int, int], Rat]
    residual: dict[tuple[int, int], Rat]


def shortfalls(sol: FractionalSolution, inst: CmilsInstance) -> dict:
    """Positive shortfalls 1 - (5/2) * x[<=a, i], keyed (a, i), for a < r_i.

    Item i still needs capacity after period a exactly when (a, i) is a key.
    The prefix x[<=a, i] is an integer run over the lcm den of item i's x
    denominators, so the shortfall is (2 den - 5 run) / (2 den).  x is never
    negative, so the run never falls, and the first a without a shortfall
    ends the item's keys.
    """
    x = sol.x
    short: dict[tuple[int, int], Rat] = {}
    for i in inst.items():
        r = inst.deadline(i)
        xs = [x.get((s, i)) for s in range(1, r)]  # x[s, i] for s = 1 .. r - 1
        den = math.lcm(*(v.denominator for v in xs if v))
        run = 0
        for a in range(r):
            if a and (v := xs[a - 1]):  # run is x[<=a, i]; there is no period 0
                run += v.numerator * (den // v.denominator)
            if 2 * den <= 5 * run:
                break
            short[(a, i)] = rat(2 * den - 5 * run, 2 * den)
    return short


def compute_requirements(sol: FractionalSolution, inst: CmilsInstance,
                         short: dict | None = None) -> dict:
    """Requirement of every interval (a, b], from x alone.

    For each a, the short items' weighted demands are grouped by deadline
    and brought over one common denominator; req[(a, b)] is then a running
    integer sum over b, and a value is built only where it changes.
    """
    short = shortfalls(sol, inst) if short is None else short
    due: list[dict[int, Rat]] = [{} for _ in range(inst.T)]
    for (a, i), value in short.items():  # a < deadline(i) for every key
        r = inst.deadline(i)
        due[a][r] = due[a].get(r, 0) + value * inst.demand(i)
    req: dict[tuple[int, int], Rat] = {}
    for a, at in enumerate(due):
        den = math.lcm(*(v.denominator for v in at.values()))
        run, total = 0, 0
        for b in range(a + 1, inst.T + 1):
            if b in at:
                run += at[b].numerator * (den // at[b].denominator)
                total = rat(run, den)
            req[(a, b)] = total
    return req


def try_round(sol: FractionalSolution, inst: CmilsInstance
              ) -> Union[CoveringCut, IntervalRequirements]:
    """Return the first violated covering cut, or interval rounding's payload."""
    short = shortfalls(sol, inst)
    req = compute_requirements(sol, inst, short)
    y_scaled = scale_y(sol.y)
    locked = locked_periods(y_scaled)
    residual = residuals(req, inst.C, locked)

    for (a, b), need in residual.items():
        if not need:  # residuals are never negative
            continue
        s1 = frozenset(s for s in range(a + 1, b + 1) if s in locked)
        s2 = frozenset(s for s in range(a + 1, b + 1) if s not in locked)
        item_set = frozenset(i for i in inst.items()
                             if a < inst.deadline(i) <= b and (a, i) in short)
        cut = CoveringCut(S1=s1, S2=s2, I=item_set)
        if cut_lhs(cut, sol, inst) < cut_demand(cut, inst):
            return cut

    return IntervalRequirements(y_scaled=y_scaled, locked=locked,
                                R=req, residual=residual)
