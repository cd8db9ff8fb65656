"""Half-open period intervals and the covering tests over them.

An interval (a, b] with 0 <= a < b <= T stands for the periods a+1 .. b.
Intervals are passed around as plain (a, b) tuples.

The rounding hand-off is derived here once: scale_y (y tenfold, capped
at 1), locked_periods (y exactly 1) and residuals (max(R - C(locked), 0)).

Two helpers serve every covering test of the interval and laminar layers:

prefix_caps   prefix sums of the capacity of a chosen set of periods, so
              the chosen capacity inside (a, b] is one difference P[b] - P[a].
ScaledCover   an integer view of capacities C and openings y: every C_s is
              c_s / cden and every y_s is u_s / yden, with cden and yden
              the least common denominators.  Its covering test compares
              integers and builds no Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator


def all_intervals(T: int) -> Iterator[tuple[int, int]]:
    """Yield every (a, b] over [T], ascending by a then b."""
    for a in range(T):
        for b in range(a + 1, T + 1):
            yield (a, b)


def cap_within(C, a: int, b: int, chosen: Iterable[int]) -> Fraction:
    """Total capacity of the chosen periods that fall inside (a, b]."""
    total = Fraction(0)
    for s in chosen:
        if a < s <= b:
            total += C[s - 1]
    return total


def prefix_caps(C, chosen) -> list[Fraction]:
    """P[0..T] with P[b] - P[a] the capacity of the chosen periods in (a, b]."""
    P = [Fraction(0)]
    for s, cap in enumerate(C, start=1):
        P.append(P[-1] + cap if s in chosen else P[-1])
    return P


def scale_y(y) -> tuple[Fraction, ...]:
    """Scale tenfold and cap at 1."""
    return tuple(min(10 * v, Fraction(1)) for v in y)


def locked_periods(y) -> frozenset[int]:
    """The periods whose opening is exactly 1: they are locked open."""
    return frozenset(s for s, v in enumerate(y, start=1) if v == 1)


def residuals(R: dict, C, locked) -> dict:
    """Each requirement less the locked capacity inside it, floored at 0."""
    held = prefix_caps(C, locked)
    return {(a, b): max(need - (held[b] - held[a]), Fraction(0))
            for (a, b), need in R.items()}


class ScaledCover:
    """Capacities C and openings y on common integer scales.

    c[s-1] = C_s * cden and u[s-1] = y_s * yden, where cden and yden are the
    least common denominators of C and of y.  Build one view per y.
    """

    def __init__(self, C, y):
        self.cden = math.lcm(*(v.denominator for v in C))
        self.yden = math.lcm(*(v.denominator for v in y))
        self.c = [v.numerator * (self.cden // v.denominator) for v in C]
        self.u = [v.numerator * (self.yden // v.denominator) for v in y]

    def holds(self, a: int, b: int, need: Fraction, skip,
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
