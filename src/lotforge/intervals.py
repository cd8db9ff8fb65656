"""Half-open period intervals and the covering tests over them.

An interval (a, b] with 0 <= a < b <= T stands for the periods a+1 .. b.
Intervals are passed around as plain (a, b) tuples.

The rounding hand-off is derived here once: scale_y (y tenfold, capped
at 1), locked_periods (y exactly 1) and residuals (max(R - C(locked), 0)).

The covering tests of the interval and laminar layers run on integers:

scale_caps    the capacities over their least common denominator cden.
prefix_caps   prefix sums of those integers over a chosen set of periods,
              so the chosen capacity inside (a, b] is (P[b] - P[a]) / cden.
uncovered     each requirement less the chosen capacity inside it, as an
              integer over the requirement's denominator times cden.
ScaledCover   an integer view of capacities C and openings y: every C_s is
              c_s / cden and every y_s is u_s / yden, with cden and yden
              the least common denominators.  Its covering test compares
              integers and builds no Fraction.

residuals walks every requirement through uncovered and builds a Fraction
only for a positive residual; the entry check of interval rounding and the
cover checks of both rounding layers read uncovered's integers directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .instance import Rat

_ZERO = Fraction(0)


def all_intervals(T: int) -> Iterator[tuple[int, int]]:
    """Yield every (a, b] over [T], ascending by a then b."""
    for a in range(T):
        for b in range(a + 1, T + 1):
            yield (a, b)


def cap_within(C, a: int, b: int, chosen: Iterable[int]) -> Rat:
    """Total capacity of the chosen periods that fall inside (a, b]."""
    return sum(C[s - 1] for s in chosen if a < s <= b)


def scale_caps(C) -> tuple[list[int], int]:
    """(c, cden): every capacity as c[s-1] / cden, cden the lcm of C's denominators."""
    cden = math.lcm(*(v.denominator for v in C))
    return [v.numerator * (cden // v.denominator) for v in C], cden


def prefix_caps(c: list[int], chosen) -> list[int]:
    """P[0..T] with P[b] - P[a] the sum of c over the chosen periods in (a, b].

    With c from scale_caps, that sum is the chosen capacity times cden.
    """
    P = [0]
    for s, cap in enumerate(c, start=1):
        P.append(P[-1] + cap if s in chosen else P[-1])
    return P


def scale_y(y) -> tuple[Rat, ...]:
    """Scale tenfold and cap at 1."""
    return tuple(min(10 * v, 1) for v in y)


def locked_periods(y) -> frozenset[int]:
    """The periods whose opening is exactly 1: they are locked open."""
    return frozenset(s for s, v in enumerate(y, start=1) if v == 1)


def uncovered(R: dict, c: list[int], cden: int,
              chosen) -> Iterator[tuple[tuple[int, int], Rat, int]]:
    """(interval, need, gap) for each requirement in R, in R's order.

    With c and cden from scale_caps, need less the capacity of the chosen
    periods inside the interval is gap / (need.denominator * cden), so
    gap > 0 exactly when the chosen periods leave part of need uncovered.
    """
    P = prefix_caps(c, chosen)
    for (a, b), need in R.items():
        yield (a, b), need, need.numerator * cden - need.denominator * (P[b] - P[a])


def residuals(R: dict, C, locked) -> dict:
    """Each requirement less the locked capacity inside it, floored at 0.

    Only a positive residual is built as a Fraction; the others share one
    zero.
    """
    c, cden = scale_caps(C)
    return {iv: Fraction(gap, need.denominator * cden) if gap > 0 else _ZERO
            for iv, need, gap in uncovered(R, c, cden, locked)}


class ScaledCover:
    """Capacities C and openings y on common integer scales.

    c[s-1] = C_s * cden and u[s-1] = y_s * yden, where cden and yden are the
    least common denominators of C and of y.  Build one view per y.
    """

    def __init__(self, C, y):
        self.c, self.cden = scale_caps(C)
        self.yden = math.lcm(*(v.denominator for v in y))
        self.u = [v.numerator * (self.yden // v.denominator) for v in y]

    def holds(self, a: int, b: int, need: Rat, skip,
              mass=None, count=None) -> bool:
        """Whether "capped mass >= mass * need or count >= count" on (a, b].

        With the periods in skip left out,

            capped mass = sum of min(C_s, need) * y_s,
            count       = sum of y_s over the periods with C_s >= need.

        A threshold left as None drops its side.  For need = p/q the test
        is, on integers,

            sum min(c_s q, p cden) u_s  >= mass  * p cden yden, or
            sum over c_s q >= p cden of u_s >= count * yden.

        The callers' thresholds (mass, count): separation (1, 3/5) on the
        master y, interval rounding (10, 6) at its entry and (2, 1) on the
        family members, laminar rounding (2, 1) for its pools and LP rows.
        """
        q = need.denominator
        top = need.numerator * self.cden  # C_s >= need  <=>  c_s q >= top
        mass_sum = count_sum = 0
        c, u = self.c, self.u
        for s in range(a + 1, b + 1):
            if s in skip or not u[s - 1]:
                continue
            scaled = c[s - 1] * q
            if scaled >= top:
                mass_sum += top * u[s - 1]
                count_sum += u[s - 1]
            else:
                mass_sum += scaled * u[s - 1]
        if mass is not None and (mass_sum * mass.denominator
                                 >= mass.numerator * top * self.yden):
            return True
        return count is not None and (count_sum * count.denominator
                                      >= count.numerator * self.yden)
