"""Interval knapsack covering, reduced to the laminar case.

An interval instance asks for capacity R[(a, b)] inside every interval
(a, b] over [T].  Given a fractional opening vector y whose all-ones
periods are locked (intervals.locked_periods), each interval gets a score:
the largest requirement W that the interval's free fractional mass could
still cover, i.e. the largest W >= 0 with

    sum_{s in (a,b] free} min(C_s, W) y_s >= 2 W      (capped mass), or
    sum_{s in (a,b] free, C_s >= W} y_s   >= 1        (count of large periods).

A binary laminar family over (0, T] is built by recursively splitting at
the point that maximizes the weaker side's score; scoring the members and
handing them to the laminar solver yields a selection that covers every
interval requirement, not just the members'.  The given locked set and
residuals are checked against intervals.locked_periods and the residual
formula of intervals.residuals.

The family exists to cover the residuals.  When none is positive, the
locked set covers every requirement already, at cost sum_{s locked} K_s
<= K . y_scaled since a locked period has y_scaled = 1, so the selection is
the locked set: no family is built and no laminar solve runs.  On a 0/1
y_scaled that is exactly what the laminar route returns, as every member
then scores 0; on fractional openings the laminar route could add periods
that no requirement needs.  The entry check has then already found every
gap of the locked set <= 0, which is its cover check; a laminar selection
gets a closing cover walk of its own.  The budget check runs on either.

The scores and the covering checks run on one integer view of (C, y),
intervals.ScaledCover, and the locked or selected capacity inside an
interval is a difference of integer prefix sums, intervals.prefix_caps.
The entry check compares the given residuals with intervals.uncovered's
integers by cross-multiplication, and the closing cover check reads those
integers too.  The cost and the budget K . y_scaled are integer sums over
K's and y's common denominators.  A Fraction is built only for a member's
score and for its requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional

from . import laminar_kc
from .errors import InvariantError
from .instance import Rat
from .intervals import ScaledCover, locked_periods, prefix_caps, scale_caps, uncovered
from .laminar_kc import Interval, LaminarFamily

Trace = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class IntervalKcInstance:
    T: int
    C: tuple[Rat, ...]
    K: tuple[Rat, ...]
    R: dict[Interval, Rat]

    def check(self) -> None:
        if len(self.C) != self.T or len(self.K) != self.T:
            raise ValueError("C and K must have one entry per period")
        for a, b in self.R:
            if not (0 <= a < b <= self.T):
                raise ValueError(f"requirement on ({a}, {b}] outside [0, {self.T}]")


def max_coverable(a: int, b: int, view: ScaledCover, locked) -> tuple[int, int]:
    """Largest W >= 0 the free mass of (a, b] can cover (0 if none), as an
    integer pair (num, den) with den > 0, not necessarily in lowest terms.

    The capped-mass condition defines a concave piecewise-linear function of
    W starting at 0, so its feasible set is [0, W1]; the count condition is
    a right-closed step set [0, W2] whose supremum is a capacity value.
    Both suprema are attained; the answer is their maximum, exact.

    The walk runs on the view's integers: with W = w / cden, the capped
    mass minus 2W, times cden * yden, is sum min(c_s, w) u_s - 2 yden w.
    """
    weight: dict[int, int] = {}
    c, u = view.c, view.u
    for s in range(a + 1, b + 1):
        if s not in locked and u[s - 1] > 0:
            weight[c[s - 1]] = weight.get(c[s - 1], 0) + u[s - 1]
    if not weight:
        return 0, 1

    # W1 = (w_prev + f / drop) / cden: walk the breakpoints; on the segment
    # below breakpoint w the slope of the scaled slack is (total weight of
    # capacities >= w) - 2 yden.  Beyond the last breakpoint it is -2 yden.
    two = 2 * view.yden
    f, w_prev, suffix, drop = 0, 0, sum(weight.values()), two
    for w in sorted(weight):
        f_next = f + (suffix - two) * (w - w_prev)
        if f_next < 0:
            drop = two - suffix
            break
        f, w_prev = f_next, w
        suffix -= weight[w]
    w1 = w_prev * drop + f  # W1 = w1 / (drop * cden)

    # W2 = w2 / cden: the largest capacity whose suffix of openings reaches 1.
    w2, acc = 0, 0
    for w in sorted(weight, reverse=True):
        acc += weight[w]
        if acc >= view.yden:
            w2 = w
            break
    if w2 * drop > w1:
        return w2, view.cden
    return w1, drop * view.cden


def construct_laminar_family(y, locked, C, T: int) -> LaminarFamily:
    """Binary split of (0, T] down to unit leaves.

    Each non-unit interval splits at the cut maximizing the smaller child
    score; ties go to the smallest cut point.  Scores are memoized per call
    as max_coverable's integer pairs and compared by cross-multiplication;
    only the members' scores become Fractions.
    """
    view = ScaledCover(C, y)
    scores: dict[Interval, tuple[int, int]] = {}

    def score(a: int, b: int) -> tuple[int, int]:
        if (a, b) not in scores:
            scores[(a, b)] = max_coverable(a, b, view, locked)
        return scores[(a, b)]

    members: list[Interval] = []

    def build(a: int, b: int) -> None:
        members.append((a, b))
        score(a, b)
        if b - a <= 1:
            return
        best_c, best_n, best_d = a, -1, 1  # below every score
        for c in range(a + 1, b):
            (ln, ld), (rn, rd) = score(a, c), score(c, b)
            n, d = (ln, ld) if ln * rd <= rn * ld else (rn, rd)
            if n * best_d > best_n * d:
                best_n, best_d, best_c = n, d, c
        build(a, best_c)
        build(best_c, b)

    build(0, T)
    return LaminarFamily.from_intervals(
        T, members, coverable={iv: Fraction(*scores[iv]) for iv in members})


def solve_interval_kc(ikc: IntervalKcInstance, y_scaled, locked,
                      residual: dict, trace: Trace = None) -> frozenset[int]:
    """Select periods covering every interval requirement.

    Preconditions (checked): C, K and y_scaled have T entries and R and
    residual are keyed by intervals over [T] (else ValueError); locked is
    locked_periods(y_scaled); residual agrees with intervals.residuals,
    a key missing from either dict standing for 0; every interval with
    positive residual satisfies the tenfold-mass-or-count-of-six
    disjunction.  The returned selection is verified to cost at most
    K . y_scaled and to cover every requirement.

    When no residual is positive the selection is the locked set itself,
    with no family and no laminar solve, and trace (if given) gets one
    line "event=locked_only selected=<number of locked periods>".
    """
    ikc.check()
    if len(y_scaled) != ikc.T:
        raise ValueError("y_scaled must have one entry per period")
    for (a, b), given in residual.items():
        if (a, b) in ikc.R:
            continue
        if not (0 <= a < b <= ikc.T):
            raise ValueError(f"residual on ({a}, {b}] outside [0, {ikc.T}]")
        if given.numerator:  # no requirement there, so no residual either
            raise InvariantError(f"residual for ({a}, {b}] inconsistent")
    locked = frozenset(locked)
    if locked != locked_periods(y_scaled):
        raise InvariantError("locked set must be exactly the all-ones periods")
    view = ScaledCover(ikc.C, y_scaled)
    cden = view.cden
    positive = False
    for (a, b), need, gap in sorted(uncovered(ikc.R, view.c, cden, locked)):
        # the residual is max(gap, 0) / (need.denominator * cden)
        given = residual.get((a, b), 0)
        if (given.numerator * need.denominator * cden
                != max(gap, 0) * given.denominator):
            raise InvariantError(f"residual for ({a}, {b}] inconsistent")
        if gap > 0:
            positive = True
            if not view.holds(a, b, given, locked, mass=10, count=6):
                raise InvariantError(f"scaled coverage disjunction fails on ({a}, {b}]")

    if not positive:  # the locked set covers every requirement already
        selected = locked
        if trace:
            trace(f"event=locked_only selected={len(locked)}")
    else:
        family = construct_laminar_family(y_scaled, locked, ikc.C, ikc.T)
        held = prefix_caps(view.c, locked)
        member_req: dict[Interval, Fraction] = {}
        for iv in family.members:
            coverable = family.coverable[iv]
            if coverable > 0 and not view.holds(iv[0], iv[1], coverable, locked,
                                                mass=2, count=1):
                raise InvariantError(f"member score of {iv} is not attained")
            # the score plus the locked capacity inside the member
            q = coverable.denominator
            full = coverable.numerator * cden + q * (held[iv[1]] - held[iv[0]])
            if full > 0:
                member_req[iv] = Fraction(full, q * cden)
        lkc = laminar_kc.LaminarKcInstance(T=ikc.T, C=ikc.C, K=ikc.K,
                                           family=family, R=member_req)
        selected = laminar_kc.solve(lkc, y_scaled, trace=trace)
        for (a, b), _, gap in uncovered(ikc.R, view.c, cden, selected):
            if gap > 0:
                raise InvariantError(f"interval ({a}, {b}] requirement uncovered")

    # cost <= K . y_scaled, both times kden * yden: K_s = k_s / kden, y_s = u_s / yden
    k, _ = scale_caps(ikc.K)
    if view.yden * sum(k[s - 1] for s in selected) > sum(map(mul, k, view.u)):
        raise InvariantError("selection exceeds the scaled fractional budget")
    return selected
