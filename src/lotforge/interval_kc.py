"""Interval knapsack covering, reduced to the laminar case.

An interval instance asks for capacity R[(a, b)] inside every interval
(a, b] over [T].  Given a fractional opening vector y whose all-ones
periods are locked, each interval gets a score: the largest requirement W
that the interval's free fractional mass could still cover, i.e. the
largest W >= 0 with

    sum_{s in (a,b] free} min(C_s, W) y_s >= 2 W      (capped mass), or
    sum_{s in (a,b] free, C_s >= W} y_s   >= 1        (count of large periods).

A binary laminar family over (0, T] is built by recursively splitting at
the point that maximizes the weaker side's score; scoring the members and
handing them to the laminar solver yields a selection that covers every
interval requirement, not just the members'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import laminar_kc
from .errors import InvariantError
from .intervals import all_intervals, cap_within, capped_mass_and_count
from .laminar_kc import Interval, LaminarFamily

Trace = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class IntervalKcInstance:
    T: int
    C: tuple[Fraction, ...]
    K: tuple[Fraction, ...]
    R: dict[Interval, Fraction]

    def req(self, a: int, b: int) -> Fraction:
        return self.R.get((a, b), Fraction(0))


def max_coverable(a: int, b: int, y, locked, C) -> Fraction:
    """Largest W >= 0 the free mass of (a, b] can cover (0 if none).

    The capped-mass condition defines a concave piecewise-linear function of
    W starting at 0, so its feasible set is [0, W1]; the count condition is
    a right-closed step set [0, W2] whose supremum is a capacity value.
    Both suprema are attained; the answer is their maximum, exact.
    """
    weight: dict[Fraction, Fraction] = {}
    for s in range(a + 1, b + 1):
        if s not in locked and y[s - 1] > 0:
            weight[C[s - 1]] = weight.get(C[s - 1], Fraction(0)) + y[s - 1]
    if not weight:
        return Fraction(0)

    # W1: walk the breakpoints; on the segment below breakpoint c the slope
    # of (capped mass - 2W) is (total weight of capacities >= c) - 2.
    w1 = None
    f = Fraction(0)
    w_prev = Fraction(0)
    suffix = sum(weight.values(), Fraction(0))
    for c in sorted(weight):
        f_next = f + (suffix - 2) * (c - w_prev)
        if f_next < 0:
            w1 = w_prev + f / (2 - suffix)
            break
        f = f_next
        w_prev = c
        suffix -= weight[c]
    if w1 is None:
        w1 = w_prev + f / 2  # beyond the last breakpoint the slope is -2

    # W2: the largest capacity whose suffix of fractional openings reaches 1.
    w2 = Fraction(0)
    acc = Fraction(0)
    for c in sorted(weight, reverse=True):
        acc += weight[c]
        if acc >= 1:
            w2 = c
            break
    return max(w1, w2)


def construct_laminar_family(y, locked, C, T: int) -> LaminarFamily:
    """Binary split of (0, T] down to unit leaves.

    Each non-unit interval splits at the cut maximizing the smaller child
    score; ties go to the smallest cut point.  Scores are memoized per call.
    """
    scores: dict[Interval, Fraction] = {}

    def score(a: int, b: int) -> Fraction:
        if (a, b) not in scores:
            scores[(a, b)] = max_coverable(a, b, y, locked, C)
        return scores[(a, b)]

    members: list[Interval] = []

    def build(a: int, b: int) -> None:
        members.append((a, b))
        score(a, b)
        if b - a <= 1:
            return
        best_c = a + 1
        best = min(score(a, a + 1), score(a + 1, b))
        for c in range(a + 2, b):
            cand = min(score(a, c), score(c, b))
            if cand > best:
                best, best_c = cand, c
        build(a, best_c)
        build(best_c, b)

    build(0, T)
    return LaminarFamily.from_intervals(
        T, members, coverable={iv: scores[iv] for iv in members})


def solve_interval_kc(ikc: IntervalKcInstance, y_scaled, locked,
                      residual: dict, trace: Trace = None) -> frozenset[int]:
    """Select periods covering every interval requirement.

    Preconditions (checked): locked is exactly the all-ones set of y_scaled;
    residual is consistent with R; every interval with positive residual
    satisfies the tenfold-mass-or-count-of-six disjunction.  The returned
    selection costs at most K . y_scaled and is verified to cover all
    T(T+1)/2 interval requirements.
    """
    locked = frozenset(locked)
    if locked != {s for s in range(1, ikc.T + 1) if y_scaled[s - 1] == 1}:
        raise InvariantError("locked set must be exactly the all-ones periods")
    for a, b in all_intervals(ikc.T):
        need = ikc.req(a, b)
        want = max(need - cap_within(ikc.C, a, b, locked), Fraction(0))
        if residual.get((a, b), Fraction(0)) != want:
            raise InvariantError(f"residual for ({a}, {b}] inconsistent")
        if want > 0:
            mass, count = capped_mass_and_count(ikc.C, a, b, want, y_scaled, locked)
            if mass < 10 * want and count < 6:
                raise InvariantError(
                    f"scaled coverage disjunction fails on ({a}, {b}]")

    family = construct_laminar_family(y_scaled, locked, ikc.C, ikc.T)
    member_req: dict[Interval, Fraction] = {}
    member_residual: dict[Interval, Fraction] = {}
    for iv in family.members:
        coverable = family.coverable[iv]
        if coverable > 0:
            mass, count = capped_mass_and_count(ikc.C, iv[0], iv[1], coverable,
                                                y_scaled, locked)
            if mass < 2 * coverable and count < 1:
                raise InvariantError(f"member score of {iv} is not attained")
        full = coverable + cap_within(ikc.C, iv[0], iv[1], locked)
        if full > 0:
            member_req[iv] = full
            member_residual[iv] = coverable
    lkc = laminar_kc.LaminarKcInstance(T=ikc.T, C=ikc.C, K=ikc.K,
                                       family=family, R=member_req)
    selected = laminar_kc.solve(lkc, y_scaled, locked, member_residual, trace=trace)

    for a, b in all_intervals(ikc.T):
        if cap_within(ikc.C, a, b, selected) < ikc.req(a, b):
            raise InvariantError(f"interval ({a}, {b}] requirement uncovered")
    cost = sum((ikc.K[s - 1] for s in selected), Fraction(0))
    budget = sum((y_scaled[s - 1] * ikc.K[s - 1] for s in range(1, ikc.T + 1)),
                 Fraction(0))
    if cost > budget:
        raise InvariantError("selection exceeds the scaled fractional budget")
    return selected

