"""Interval knapsack covering, reduced to the laminar case.

An interval instance asks for capacity R[(a, b)] inside every interval
(a, b] over [T].  Given a fractional opening vector y whose all-ones
periods are locked (intervals.locked_periods), each interval gets a score:
the largest requirement W that the interval's free fractional mass could
still cover, i.e. the largest W >= 0 with

    sum_{s in (a,b] free} min(C_s, W) y_s >= 2 W      (capped mass), or
    sum_{s in (a,b] free, C_s >= W} y_s   >= 1        (count of large periods).

A binary laminar family over (0, T] is built by recursively splitting at
the point that maximizes the weaker side's score, ties to the smallest
point; scoring the members and handing them to the laminar solver yields
a selection that covers every interval requirement, not just the
members'.  A score never falls when its interval grows, so the left
side's score never falls and the right side's never rises as the split
point moves right: the best point is found by bisection, exactly the one
a scan of every point would pick (construct_laminar_family).  The given
locked set and residuals are checked against intervals.locked_periods
and the residual formula of intervals.residuals.

The family exists to cover the residuals.  When none is positive, the
locked set covers every requirement already, at cost sum_{s locked} K_s
<= K . y_scaled since a locked period has y_scaled = 1, so the selection is
the locked set: no family is built and no laminar solve runs.  On a 0/1
y_scaled that is exactly what the laminar route returns, as every member
then scores 0; on fractional openings the laminar route could add periods
that no requirement needs.

Inside both rounding layers a requirement is the capacity still needed
beyond the locked set, the view's ones, and the full R is read once, in
the entry pass.  That pass walks intervals.uncovered's gaps of the locked
set: each is compared with the given residual, and a positive residual is
kept and gets the tenfold-mass-or-count-of-six covering test, the only
place the pipeline asks it.  A failure names the lowest failing interval,
whatever R's order.  Each member's score is its requirement in the
laminar solve, whose entry check is then the check that the score is
attained.  Either selection ends in the closing check that both rounding
layers share, intervals.check_selection, on the positive residuals: the
selection keeps the locked set, the periods it adds cover each residual,
and it costs at most K . y_scaled.  A zero residual is covered by the
locked set alone, so this is the check that the selection covers R.

The scores and the covering checks run on one integer view of (C, y),
intervals.ScaledCover, built and checked once per call and handed to the
family build and to the laminar solve, so its rank tables are built once,
C is scaled once, and y is passed on in no other form.  Each score is two
binary searches over the view's ranks (max_coverable).

Costs, requirements and residuals are checked exact on entry, before
anything reads them.  The laminar instance and the closing check take K
through intervals.exact and C as the view keeps it, so whole capacities
and costs are ints there, whichever exact type the caller used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import laminar_kc
from .errors import InvariantError
from .instance import Rat, rat
from .intervals import ScaledCover, check_selection, check_exact, exact, uncovered
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


def max_coverable(a: int, b: int, view: ScaledCover) -> tuple[int, int]:
    """Largest W >= 0 the free mass of (a, b] can cover (0 if none), as an
    integer pair (num, den) with den > 0, not necessarily in lowest terms.

    The free periods are the view's ranked ones: the periods at y = 1 are
    locked and those at 0 carry no mass.  The capped-mass
    condition defines a concave piecewise-linear function of W starting at
    0, so its feasible set is [0, W1]; the count condition is a
    right-closed step set [0, W2] whose supremum is a capacity value.  Both
    suprema are attained; the answer is their maximum, exact.

    Both are binary searches over the view's ranks, each probe reading the
    tables over (a, b].  W2 is the capacity of the last rank whose
    above[r] reaches yden.  With W = w / cden, the capped mass minus 2W,
    times cden * yden, is

        g(w) = w * (above[r] - 2 yden) + below[r]   at w = caps[r],

    and g(caps[r]) >= 0 holds for a prefix of the ranks.  If it fails at
    W2's rank, W1 < W2; else the last rank where it holds is searched from
    there, and past it g falls to 0 at W1 at the rate drop = 2 yden less
    the mass of the higher ranks.
    """
    caps, above, below = view.tables()
    if above[0][b] == above[0][a]:
        return 0, 1
    two = 2 * view.yden

    lo, hi = -1, len(caps) - 1  # W2's rank, -1 for W2 = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if above[mid][b] - above[mid][a] >= view.yden:
            lo = mid
        else:
            hi = mid - 1
    w = f = 0  # w = caps[lo] and f = g(w) for the last rank lo with g >= 0
    if lo >= 0:
        up, down = above[lo], below[lo]
        w = caps[lo]
        f = w * (up[b] - up[a] - two) + down[b] - down[a]
        if f < 0:
            return w, view.cden
    hi = len(caps) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        up, down = above[mid], below[mid]
        g = caps[mid] * (up[b] - up[a] - two) + down[b] - down[a]
        if g >= 0:
            lo, w, f = mid, caps[mid], g
        else:
            hi = mid - 1
    drop = two - (above[lo + 1][b] - above[lo + 1][a])
    return w * drop + f, drop * view.cden  # W1 >= W2


def construct_laminar_family(view: ScaledCover) -> LaminarFamily:
    """Binary split of (0, T] down to unit leaves, T the view's length.

    Each non-unit interval (a, b] splits at the cut c in (a, b) maximizing
    the smaller child score min(f(c), g(c)), with f(c) = score(a, c) and
    g(c) = score(c, b); ties go to the smallest cut.  A score never falls
    when its interval grows, as the grown interval has all the free mass
    of the smaller one and more, so f never falls and g never rises in c.
    Hence the smaller score is f, which rises, below the least cut c* with
    f(c*) > g(c*), and g, which falls, from c* on: the best value is
    f(c* - 1) or g(c*), whichever is larger.  A bisection finds c*.  When
    the left side wins, a tie included, the smallest cut still reaching
    f(c* - 1) is the first c with f(c) >= f(c* - 1), found by a second
    bisection; otherwise the cut is c*, as no cut below it reaches g(c*).
    That is exactly the cut a scan of every c picks, from O(log(b - a))
    scores instead of 2 (b - a - 1).

    Scores are memoized per call as max_coverable's integer pairs, compared
    by cross-multiplication, and the members' pairs are kept as the
    family's scores.
    """
    scores: dict[Interval, tuple[int, int]] = {}

    def score(a: int, b: int) -> tuple[int, int]:
        if (a, b) not in scores:
            scores[(a, b)] = max_coverable(a, b, view)
        return scores[(a, b)]

    members: list[Interval] = []

    def build(a: int, b: int) -> None:
        members.append((a, b))
        score(a, b)
        if b - a <= 1:
            return
        lo, hi = a + 1, b  # c*, or b when f(c) <= g(c) at every cut
        while lo < hi:
            mid = (lo + hi) // 2
            (fn, fd), (gn, gd) = score(a, mid), score(mid, b)
            if fn * gd > gn * fd:
                hi = mid
            else:
                lo = mid + 1
        cut = lo
        if cut > a + 1:
            fn, fd = score(a, cut - 1)
            gn, gd = score(cut, b) if cut < b else (-1, 1)  # below every score
            if fn * gd >= gn * fd:  # the left side wins
                lo, hi = a + 1, cut - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    n, d = score(a, mid)
                    if n * fd >= fn * d:
                        hi = mid
                    else:
                        lo = mid + 1
                cut = lo
        build(a, cut)
        build(cut, b)

    T = len(view.u)
    build(0, T)
    return LaminarFamily.from_intervals(
        T, members, scores={iv: scores[iv] for iv in members})


def solve_interval_kc(ikc: IntervalKcInstance, y_scaled, locked,
                      residual: dict, trace: Trace = None) -> frozenset[int]:
    """Select periods covering every interval requirement.

    Preconditions (checked): C and K have T entries, every entry of C, K,
    R and residual is an int or a Fraction, and R and residual are keyed
    by intervals over [T] (else ValueError); y_scaled passes
    intervals.ScaledCover's checks; locked is locked_periods(y_scaled);
    residual agrees with intervals.residuals, a key missing from either
    dict standing for 0; every interval with positive residual satisfies
    the tenfold-mass-or-count-of-six disjunction.  The returned selection
    is verified by intervals.check_selection against the positive
    residuals and K . y_scaled.

    When no residual is positive the selection is the locked set itself,
    with no family and no laminar solve, and trace (if given) gets one
    line "event=locked_only selected=<number of locked periods>".
    """
    ikc.check()
    K = exact("K", ikc.K)
    check_exact("R", ikc.R.values())
    check_exact("residual", residual.values())
    for a, b in sorted(residual.keys() - ikc.R.keys()):
        if not (0 <= a < b <= ikc.T):
            raise ValueError(f"residual on ({a}, {b}] outside [0, {ikc.T}]")
        if residual[(a, b)]:  # no requirement there, so no residual either
            raise InvariantError(f"residual for ({a}, {b}] inconsistent")
    view = ScaledCover(ikc.C, y_scaled)
    if frozenset(locked) != view.ones:
        raise InvariantError("locked set must be exactly the all-ones periods")
    locked, cden = view.ones, view.cden
    positive: dict[Interval, Rat] = {}  # the residuals the selection must cover
    failed: list[tuple[Interval, str]] = []  # the lowest failing interval is named
    for iv, q, gap in uncovered(ikc.R, view.c, cden, locked):
        a, b = iv  # the residual is max(gap, 0) / (q cden)
        given = residual.get(iv, 0)
        gp, gq = given.as_integer_ratio()
        if gp * q * cden != (gap if gap > 0 else 0) * gq:
            failed.append((iv, f"residual for ({a}, {b}] inconsistent"))
        elif gap > 0:
            positive[iv] = given
            if not view.holds(a, b, given, mass=10, count=6):
                failed.append((iv, f"scaled coverage disjunction fails on ({a}, {b}]"))
    if failed:
        raise InvariantError(min(failed)[1])

    if positive:
        family = construct_laminar_family(view)
        lkc = laminar_kc.LaminarKcInstance(
            T=ikc.T, C=view.C, K=K, family=family,
            R={iv: rat(n, d) for iv, (n, d) in family.scores.items() if n})
        selected = laminar_kc.solve(lkc, view, trace=trace)
    else:  # the locked set covers every requirement already
        selected = locked
        if trace:
            trace(f"event=locked_only selected={len(locked)}")
    check_selection(positive, K, view, selected)
    return selected
