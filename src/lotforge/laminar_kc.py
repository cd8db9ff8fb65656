"""Iterative rounding for laminar knapsack covering.

Input: knapsacks 1..T with capacities C and costs K, a fractional opening
vector y as an intervals.ScaledCover view, which has checked it, and a
laminar family of intervals each demanding some capacity inside it beyond
the periods at y = 1: the residual demand of the paper's LP.  C, K and the
requirements are taken once per solve through intervals.exact, so the
rounding LPs, the remainders and the budget checks run on ints wherever
the values are whole.  The solver
locks the periods at y = 1 into the selection (the view's ones),
repeatedly re-optimizes a shrinking LP to a vertex, permanently discards
periods that hit 0 and selects periods that hit 1, and returns a selected
set whose added periods cover every requirement, at cost at most the
fractional cost of the input y.

Each round selects all of its vertex's new ones together, as in Jain's
iterative rounding, so the selection is always the periods at y = 1 when
the rows are evaluated.  The state is derived from the selection: an
interval's remaining requirement starts as its requirement and, after
each round, loses the capacity of that round's picks inside it; an
interval retires when its remainder is not positive.  Each active
interval has one LP row: a "count" row asks the fractional openings of
large-enough periods to reach one, a "mass" row asks the capped fractional
capacity inside the interval to reach twice the remainder.

The rows, the migration from a mass to a count row and the state check
are evaluated on integers with the state's view: the given one for the
input y, whose rank tables interval rounding shares, then one per round's
vertex, made by with_y so that C is scaled once.  The LP rows are written
on integers from the same scaled capacities (c, cden): a mass row is
scaled by cden times its remainder's denominator, which leaves its
feasible set, and so each LP's lex-least vertex, as it was.  Each state
is checked once: the input state when it is set up, every later one at
the end of its round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import mul
from typing import Callable, Iterable, Optional

from . import lp_core
from .errors import InvariantError
from .instance import Rat, rat
from .intervals import ScaledCover, check_selection, exact, scale_caps

Interval = tuple[int, int]
Trace = Optional[Callable[[str], None]]


@dataclass
class LaminarFamily:
    """A laminar set of (a, b] intervals over [T], sorted by (a, -b)."""

    T: int
    members: tuple[Interval, ...]
    # interval rounding's score of each member: max_coverable's (num, den)
    scores: dict[Interval, tuple[int, int]] = field(default_factory=dict)

    @classmethod
    def from_intervals(cls, T: int, intervals: Iterable[Interval],
                       scores: dict | None = None) -> "LaminarFamily":
        members = sorted(set(intervals), key=lambda ab: (ab[0], -ab[1]))
        for a, b in members:
            if not (0 <= a < b <= T):
                raise ValueError(f"interval ({a}, {b}] outside [0, {T}]")
        if (0, T) not in members:
            raise ValueError("the root interval (0, T] must be a member")
        stack: list[Interval] = []  # the members containing the next one
        for a, b in members:
            while stack and stack[-1][1] <= a:
                stack.pop()
            if stack and stack[-1][1] < b:
                pa, pb = stack[-1]
                raise ValueError(f"intervals ({pa},{pb}] and ({a},{b}] cross")
            stack.append((a, b))
        return cls(T=T, members=tuple(members), scores=dict(scores or {}))


@dataclass(frozen=True)
class LaminarKcInstance:
    T: int
    C: tuple[Rat, ...]
    K: tuple[Rat, ...]
    family: LaminarFamily
    R: dict[Interval, Rat]  # positive requirements beyond the ones, by member

    def check(self) -> "LaminarKcInstance":
        """This instance with C, K and R through intervals.exact; ValueError
        if C or K has not one entry per period, the family is over another
        [T], or a requirement is not positive or not on a member."""
        C, K = exact("C", self.C), exact("K", self.K)
        R = dict(zip(self.R, exact("R", self.R.values())))
        if len(C) != self.T or len(K) != self.T:
            raise ValueError("C and K must have one entry per period")
        if self.family.T != self.T:
            raise ValueError(f"family is over [0, {self.family.T}], not [0, {self.T}]")
        members = set(self.family.members)
        for iv, value in R.items():
            if iv not in members:
                raise ValueError(f"requirement on non-member interval {iv}")
            if value <= 0:
                raise ValueError(f"requirement on {iv} must be positive")
        return replace(self, C=C, K=K, R=R)


@dataclass
class RoundingState:
    instance: LaminarKcInstance
    discarded: set[int]
    selected: set[int]
    # active interval -> its requirement less the added capacity, > 0
    remaining: dict[Interval, Rat]
    count_rows: set[Interval]  # the active intervals on a count row
    view: ScaledCover  # the current opening vector

    def active(self) -> list[Interval]:
        return sorted(self.remaining)

    def retire(self, iv: Interval) -> None:
        del self.remaining[iv]
        self.count_rows.discard(iv)


def init_state(inst: LaminarKcInstance, view: ScaledCover) -> RoundingState:
    """Set up the rounding state on the input openings; rejects inputs that
    break the contract.

    The state's instance is inst.check()'s, whole values as ints.  view
    must be over its C, and every requirement must meet its count row or
    its mass row.
    """
    inst = inst.check()
    if view.C != inst.C:
        raise ValueError("the view is not over the instance's capacities")
    state = RoundingState(instance=inst, discarded=set(), selected=set(view.ones),
                          remaining=dict(inst.R), count_rows=set(), view=view)
    for iv, need in sorted(inst.R.items()):
        count_ok = view.holds(iv[0], iv[1], need, count=1)
        if not count_ok and not view.holds(iv[0], iv[1], need, mass=2):
            raise InvariantError(f"input y fails both cover conditions on {iv}")
        if count_ok:
            state.count_rows.add(iv)
    return state


def dedup(state: RoundingState, trace: Trace = None) -> None:
    """Drop active intervals whose residual support duplicates another's.

    When two active intervals contain exactly the same undecided periods,
    the one with the larger remaining requirement implies the other; on a
    tie the lexicographically larger interval is dropped.
    """
    def undecided(iv: Interval) -> frozenset[int]:
        return frozenset(s for s in range(iv[0] + 1, iv[1] + 1)
                         if s not in state.discarded and s not in state.selected)

    groups: dict[frozenset[int], list[Interval]] = {}
    for iv in state.active():
        groups.setdefault(undecided(iv), []).append(iv)
    for group in groups.values():
        if len(group) < 2:
            continue
        keep = max(group, key=lambda iv: (state.remaining[iv], -iv[0], -iv[1]))
        for iv in group:
            if iv != keep:
                state.retire(iv)
                if trace:
                    trace(f"event=drop iv={iv} kept={keep}")


def build_iter_lp(state: RoundingState) -> lp_core.LinearProgram:
    """The shrinking LP: min K.y subject to the active interval rows.

    The rows are written on integers from the view's capacities
    C_s = c_s / cden.  For a remainder need = p/q, a mass row is

        sum min(c_s q, p cden) y_s >= 2 p cden,

    the row sum min(C_s, need) y_s >= 2 need times q cden, and a count row
    sums the y_s with c_s q >= p cden to at least 1.  The selected periods,
    fixed at 1, are left out of both.
    """
    inst = state.instance
    c, cden = state.view.c, state.view.cden
    lp = lp_core.LinearProgram(
        num_vars=inst.T,
        objective=list(inst.K),
        bounds=[
            (0, 0) if s in state.discarded else
            (1, 1) if s in state.selected else
            (0, 1)
            for s in range(1, inst.T + 1)
        ],
    )
    for a, b in sorted(state.remaining.keys() - state.count_rows):
        p, q = state.remaining[(a, b)].as_integer_ratio()
        top = p * cden
        coeffs = {s - 1: min(c[s - 1] * q, top)
                  for s in range(a + 1, b + 1) if s not in state.selected}
        lp.add_row(coeffs, lp_core.GE, 2 * top)
    for a, b in sorted(state.count_rows):
        p, q = state.remaining[(a, b)].as_integer_ratio()
        top = p * cden
        coeffs = {s - 1: 1
                  for s in range(a + 1, b + 1)
                  if s not in state.selected and c[s - 1] * q >= top}
        lp.add_row(coeffs, lp_core.GE, 1)
    return lp


def _assert_state_feasible(state: RoundingState, where: str) -> None:
    """Check state.view against the bounds and rows build_iter_lp would
    write, and that the periods at y = 1 are exactly the selected ones.

    Discarded periods must sit at 0 and the others be at 1 exactly when
    selected.  The selection is then the view's periods at 1, which
    ScaledCover.holds leaves out: a mass row on (a, b] is its capped-mass
    side with threshold 2, a count row its count side with threshold 1,
    both evaluated on integers without building the LP.
    """
    view = state.view
    feasible = view.ones == state.selected and all(
        view.u[s - 1] == 0 for s in state.discarded
    ) and all(
        view.holds(a, b, need, count=1) if (a, b) in state.count_rows else
        view.holds(a, b, need, mass=2)
        for (a, b), need in state.remaining.items()
    )
    if not feasible:
        raise InvariantError(f"current y infeasible for the rounding LP ({where})")


def solve(inst: LaminarKcInstance, view: ScaledCover,
          trace: Trace = None) -> frozenset[int]:
    """Round the view's openings y to a selected set whose periods beyond
    the locked ones cover every member requirement.

    The selection contains every locked period: it starts as the locked
    set and only grows.  Each round discards its vertex's zeros and selects
    its new ones together; every active interval that contains a pick then
    loses the picks' capacity from its remainder, and retires or migrates
    on it.  The state is checked at the end of every round, and the
    selection by intervals.check_selection against R and K . y before it
    is returned.
    The outer loop fixes at least one new period per round and therefore
    runs at most T times.
    """
    state = init_state(inst, view)
    inst = state.instance  # C, K and R with every whole value an int
    # the first LP costs at most K . y: K_s = k_s / kden, y_s = u_s / yden
    k, kden = scale_caps(inst.K)
    prev_cost = rat(sum(map(mul, k, view.u)), kden * view.yden)
    rounds = 0
    while state.remaining:
        rounds += 1
        if rounds > inst.T:
            raise InvariantError("rounding exceeded its T-iteration bound")
        if trace:
            trace(f"iter={rounds} event=head active={len(state.remaining)}")
        dedup(state, trace)
        lp = build_iter_lp(state)
        sol = lp_core.solve_to_vertex(lp)
        if sol.status != lp_core.OPTIMAL:
            raise InvariantError(f"rounding LP came back {sol.status}")
        cost = sol.objective_value
        if cost > prev_cost:
            raise InvariantError("rounding LP cost increased")
        prev_cost = cost
        state.view = view.with_y(sol.values)
        if trace:
            trace(f"iter={rounds} event=lp cost={cost}")

        fixed_before = len(state.discarded) + len(state.selected)
        for s in range(1, inst.T + 1):
            if s not in state.discarded and state.view.u[s - 1] == 0:
                state.discarded.add(s)
                if trace:
                    trace(f"iter={rounds} event=discard s={s}")
        picks = sorted(state.view.ones - state.selected)
        state.selected.update(picks)
        if trace:
            for s in picks:
                trace(f"iter={rounds} event=select s={s}")
        for iv in state.active():
            inside = [inst.C[s - 1] for s in picks if iv[0] < s <= iv[1]]
            if not inside:
                continue
            left = state.remaining[iv] - sum(inside)
            if trace:
                trace(f"iter={rounds} event=update iv={iv} left={left}")
            if left <= 0:
                state.retire(iv)
                if trace:
                    trace(f"iter={rounds} event=retire iv={iv}")
                continue
            state.remaining[iv] = left
            if iv not in state.count_rows and state.view.holds(*iv, left, count=1):
                state.count_rows.add(iv)
                if trace:
                    trace(f"iter={rounds} event=migrate iv={iv}")
        if len(state.discarded) + len(state.selected) == fixed_before:
            raise InvariantError("vertex solution fixed no new period")
        _assert_state_feasible(state, f"round {rounds}")

    selected = frozenset(state.selected)
    check_selection(inst.R, inst.K, view, selected)
    return selected
