"""Half-open period intervals and the covering tests over them.

An interval (a, b] with 0 <= a < b <= T stands for the periods a+1 .. b.
Intervals are passed around as plain (a, b) tuples of ints, and
check_intervals is the one test of that form: both rounding layers take
their intervals through it.

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

Every number handed to a rounding layer is exact: check_exact rejects an
entry that is neither an int nor a Fraction, and exact also makes every
whole entry an int.  Both layers take capacities and costs through exact,
so a caller's Fraction(7) runs on int arithmetic; interval rounding only
checks its requirements and residuals, which it reads as integer ratios.
ScaledCover is the one checked form of an opening vector: it keeps exact's
C as view.C, and rejects a y with an entry that is not exact or whose
length is not C's or that leaves [0, 1], and the rounding layers take and
pass nothing else.  C is scaled once per view; with_y reuses it for the
openings of each later round.  Inside both layers a requirement is the
capacity still needed beyond the view's ones.  check_selection is the
closing check of both layers: the selection keeps every period at 1, the
periods it adds cover every requirement, and it costs at most K . y.  It
reads each requirement as an integer pair (p, q), the form in which
interval rounding's entry pass keeps its positive residuals, so none is
converted twice.

ScaledCover's covering test reads rank tables, built on the view's first
coverage query in O(n T) for n ranked periods, those with y neither 0 nor
1, ranked by capacity.  For each rank r they hold the prefix sums over the
periods of u_s for the ranks >= r and of c_s u_s for the ranks < r.  One
query on (a, b] is then a bisect for the first rank whose capacity reaches
the requirement and four lookups, where walking the interval took O(b - a).
Every query leaves out exactly the view's periods at 1: the rounding
layers keep their selection equal to them whenever they ask.  Interval
rounding's scores are binary searches over the same ranks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from operator import mul

from .errors import InvariantError
from .instance import Rat, all_exact, rat


def scale_caps(C) -> tuple[list[int], int]:
    """(c, cden): every value of C as c[s-1] / cden, cden the lcm of C's
    denominators.  ScaledCover puts the openings y on a scale this way too."""
    ratios = [v.as_integer_ratio() for v in C]
    cden = math.lcm(*(q for _, q in ratios))
    return [p * (cden // q) for p, q in ratios], cden


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
              chosen) -> list[tuple[tuple[int, int], int, int]]:
    """(interval, q, gap) for each requirement in R, in R's order.

    With c and cden from scale_caps and q the requirement's denominator,
    the requirement less the capacity of the chosen periods inside the
    interval is gap / (q * cden), so gap > 0 exactly when the chosen
    periods leave part of it uncovered.
    """
    P = prefix_caps(c, chosen)
    return [(iv, q, p * cden - q * (P[iv[1]] - P[iv[0]]))
            for iv, need in R.items() for p, q in (need.as_integer_ratio(),)]


def residuals(R: dict, C, locked) -> dict:
    """Each requirement less the locked capacity inside it, floored at 0:
    an int when whole, else a Fraction."""
    c, cden = scale_caps(C)
    return {iv: rat(gap, q * cden) if gap > 0 else 0
            for iv, q, gap in uncovered(R, c, cden, locked)}


def check_intervals(what: str, intervals, T: int) -> None:
    """ValueError, naming the first bad one as a what, unless every interval
    is (a, b] over [T]: int endpoints (a bool is not one), 0 <= a < b <= T."""
    for iv in intervals:
        a, b = iv
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"{what} interval {iv!r} has an endpoint that is not an int")
        if not 0 <= a < b <= T:
            raise ValueError(f"{what} interval ({a}, {b}] outside [0, {T}]")


def check_exact(name: str, values) -> None:
    """ValueError unless every value is an int or a Fraction: a float would
    be read as its binary expansion."""
    if not all_exact(values):
        raise ValueError(f"{name} entries must be int or Fraction")


def exact(name: str, values) -> tuple[Rat, ...]:
    """values as a tuple with every whole entry an int, the form that
    instance.rat gives, once check_exact has passed them."""
    values = tuple(values)
    check_exact(name, values)
    return tuple([v.numerator if v.denominator == 1 else v for v in values])


class ScaledCover:
    """Capacities C and openings y on common integer scales: the one
    checked form of an opening vector.

    c[s-1] = C_s * cden and u[s-1] = y_s * yden, where cden and yden are the
    least common denominators of C and of y.  Build one view per C, and
    with_y gives it for each further y.  Every entry of C and y must be an
    int or a Fraction, and y must have one entry per capacity (else
    ValueError) and lie in [0, 1] (else InvariantError).  C is kept as
    exact gives it, whole capacities as ints.  ones is the set of
    periods at y = 1, which every covering test leaves out.

    The rank tables cover the ranked periods, those with y neither 0 nor 1,
    sorted by (capacity, period); caps[r] is the capacity of rank r.  For
    every rank r in 0 .. n and every position b in 0 .. T,

        above[r][b] = sum of u_s over ranked s <= b of rank >= r,
        below[r][b] = sum of c_s u_s over ranked s <= b of rank < r,

    so a difference of two entries sums (a, b].  They take O(n T) to build
    and are built on the view's first coverage query.
    """

    def __init__(self, C, y):
        self.C = exact("C", C)
        self.c, self.cden = scale_caps(self.C)
        self._open(y)

    def with_y(self, y) -> "ScaledCover":
        """A view of the same capacities at openings y, checked as in the
        constructor; it shares c and cden, so C is scaled once."""
        view = object.__new__(ScaledCover)
        view.C, view.c, view.cden = self.C, self.c, self.cden
        view._open(y)
        return view

    def _open(self, y) -> None:
        if len(y) != len(self.C):
            raise ValueError("y must have one entry per period")
        check_exact("y", y)
        self.u, self.yden = scale_caps(y)
        if not all(0 <= v <= self.yden for v in self.u):
            raise InvariantError("input y outside [0, 1]")
        self.ones = frozenset(s for s, v in enumerate(self.u, start=1)
                              if v == self.yden)
        self._tables = None

    def tables(self) -> tuple[list[int], list[list[int]], list[list[int]]]:
        """(caps, above, below), built on the first call."""
        if self._tables is None:
            c, u, yden = self.c, self.u, self.yden
            ranked = sorted((c[s - 1], s) for s in range(1, len(c) + 1)
                            if u[s - 1] and u[s - 1] != yden)
            # each row is the prefix sum of the ranks' terms at their periods
            term = [0] * len(c)
            above = [list(accumulate(term, initial=0))]
            below = [above[0]]
            for _, s in reversed(ranked):
                term[s - 1] = u[s - 1]
                above.append(list(accumulate(term, initial=0)))
            above.reverse()
            term = [0] * len(c)
            for cap, s in ranked:
                term[s - 1] = cap * u[s - 1]
                below.append(list(accumulate(term, initial=0)))
            self._tables = [cap for cap, _ in ranked], above, below
        return self._tables

    def holds(self, a: int, b: int, need: Rat, mass=None, count=None) -> bool:
        """Whether "capped mass >= mass * need or count >= count" on (a, b].

        With the periods at 1 left out,

            capped mass = sum of min(C_s, need) * y_s,
            count       = sum of y_s over the periods with C_s >= need.

        A threshold left as None drops its side.  For need = p/q the test
        is, on integers,

            sum min(c_s q, p cden) u_s  >= mass  * p cden yden, or
            sum over c_s q >= p cden of u_s >= count * yden.

        C_s >= need holds from the first rank r whose capacity reaches
        ceil(p cden / q), found by one bisect, so the tables give both sums
        in four lookups.

        The callers' thresholds (mass, count): interval rounding (10, 6) at
        its entry on y_scaled, laminar rounding (2, 1) for its pools and LP
        rows.
        """
        caps, above, below = self._tables or self.tables()
        p, q = need.as_integer_ratio()
        top = p * self.cden  # C_s >= need  <=>  c_s q >= top
        r = bisect_left(caps, -(-top // q))
        up, down = above[r], below[r]
        count_sum = up[b] - up[a]
        low = down[b] - down[a]  # c_s u_s over the ranks below r
        if mass is not None and ((top * count_sum + q * low) * mass.denominator
                                 >= mass.numerator * top * self.yden):
            return True
        return count is not None and (count_sum * count.denominator
                                      >= count.numerator * self.yden)


def check_selection(needs: dict, K, view: ScaledCover, selected) -> None:
    """Raise InvariantError unless the selection keeps every period of
    view.ones, the periods it adds cover every requirement p / q in needs,
    given as the integer pair (p, q) with q > 0 and each one beyond the
    ones, and it costs at most K . y, y the view's openings."""
    if not view.ones <= selected:
        raise InvariantError("selection leaves out a period at y = 1")
    # as in uncovered: the added capacity inside (a, b] is (P[b] - P[a]) / cden
    P, cden = prefix_caps(view.c, selected - view.ones), view.cden
    for (a, b), (p, q) in needs.items():
        if p * cden > q * (P[b] - P[a]):
            raise InvariantError(f"requirement on ({a}, {b}] left uncovered")
    # both sides times kden * yden: K_s = k_s / kden, y_s = u_s / yden
    k, _ = scale_caps(K)
    if view.yden * sum(k[s - 1] for s in selected) > sum(map(mul, k, view.u)):
        raise InvariantError("selection costs more than the fractional budget")
