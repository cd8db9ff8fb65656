"""Rounding-as-separation over the designated covering inequalities.

Given a master solution (x, y): each interval (a, b] carries a requirement

    req[(a, b)] = sum over items due in (a, b] of max(1 - (5/2) * x[<=a, i], 0) * d_i,

the capacity that any acceptable order set must place inside (a, b].  The
hand-off to interval rounding (tenfold-scaled y, locked periods, residual
requirements) is derived by intervals.scale_y, locked_periods and
residuals.  For every interval with a positive residual, one covering
inequality is checked.  The first violated one is returned as a cut.
Where it holds, the unlocked periods must carry capped mass of the
residual requirement or a count of 3/5 among the large periods (checked).
Since unlocked periods are scaled exactly tenfold, that is the
tenfold-mass-or-count-of-six precondition of the interval knapsack solver,
which checks it again at its entry.

The requirements are running integer sums per a over a common denominator,
and a Fraction is built only for a stored requirement; the covering tests
run on intervals.ScaledCover.  Each cut's left-hand side (cuts.cut_lhs) is
still Fraction arithmetic, once per interval with a positive residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .cuts import CoveringCut, cut_demand, cut_lhs
from .errors import InvariantError
from .instance import CmilsInstance, FractionalSolution
from .intervals import ScaledCover, locked_periods, residuals, scale_y

_ZERO = Fraction(0)


@dataclass(frozen=True)
class IntervalRequirements:
    """Certified hand-off payload from separation to interval rounding."""

    y_scaled: tuple[Fraction, ...]
    locked: frozenset[int]
    R: dict[tuple[int, int], Fraction]
    residual: dict[tuple[int, int], Fraction]


def shortfalls(sol: FractionalSolution, inst: CmilsInstance) -> dict:
    """Positive shortfalls 1 - (5/2) * x[<=a, i], keyed (a, i), for a < r_i.

    Item i still needs capacity after period a exactly when (a, i) is a key.
    The prefix x[<=a, i] is an integer run over the lcm den of item i's x
    denominators, so the shortfall is (2 den - 5 run) / (2 den).  x is never
    negative, so the run never falls, and the first a without a shortfall
    ends the item's keys.
    """
    x = sol.x
    short: dict[tuple[int, int], Fraction] = {}
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
            short[(a, i)] = Fraction(2 * den - 5 * run, 2 * den)
    return short


def compute_requirements(sol: FractionalSolution, inst: CmilsInstance,
                         short: dict | None = None) -> dict:
    """Requirement of every interval (a, b], from x alone.

    For each a, the short items' weighted demands are grouped by deadline
    and brought over one common denominator; req[(a, b)] is then a running
    integer sum over b, and a Fraction is built only where it changes.
    """
    short = shortfalls(sol, inst) if short is None else short
    due: list[dict[int, Fraction]] = [{} for _ in range(inst.T)]
    for (a, i), value in short.items():  # a < deadline(i) for every key
        r = inst.deadline(i)
        due[a][r] = due[a].get(r, 0) + value * inst.demand(i)
    req: dict[tuple[int, int], Fraction] = {}
    for a, at in enumerate(due):
        den = math.lcm(*(v.denominator for v in at.values()))
        run, total = 0, _ZERO
        for b in range(a + 1, inst.T + 1):
            if b in at:
                run += at[b].numerator * (den // at[b].denominator)
                total = Fraction(run, den)
            req[(a, b)] = total
    return req


def try_round(sol: FractionalSolution, inst: CmilsInstance
              ) -> Union[CoveringCut, IntervalRequirements]:
    """Return the first violated covering cut, or the certified payload."""
    short = shortfalls(sol, inst)
    req = compute_requirements(sol, inst, short)
    y_scaled = scale_y(sol.y)
    locked = locked_periods(y_scaled)
    residual = residuals(req, inst.C, locked)
    view = None  # built for the first positive residual that gets this far

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
        # the checked inequality held: the capped-mass-or-count property
        # must transfer to the residual requirement
        if view is None:
            view = ScaledCover(inst.C, sol.y)
        if not view.holds(a, b, need, locked, mass=1, count=Fraction(3, 5)):
            raise InvariantError(f"transfer property failed on interval ({a}, {b}]")

    return IntervalRequirements(y_scaled=y_scaled, locked=locked,
                                R=req, residual=residual)
