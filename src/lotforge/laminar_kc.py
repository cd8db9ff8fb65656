"""Iterative rounding for laminar knapsack covering.

Input: knapsacks 1..T with capacities C and costs K, a laminar family of
intervals each demanding some capacity inside it, and a fractional opening
vector y.  The solver locks the periods at y = 1 into the selection
(ScaledCover.ones), repeatedly re-optimizes a shrinking LP to a vertex,
permanently discards periods that hit 0 and selects periods that hit 1, and
returns a selected set covering every requirement at cost at most the
fractional cost of the input y.

Each round selects all of its vertex's new ones together, as in Jain's
iterative rounding, so the selection is always the periods at y = 1 when
the rows are evaluated.  The state is derived from the selection: an
interval's remaining requirement is its requirement less the selected
capacity inside it, read from intervals.uncovered for every member at the
start and, after each round's picks, for the active intervals that contain
one; an interval retires when its remainder is not positive.  Each active
interval has one LP row: a "count" row asks the fractional openings of
large-enough periods to reach one, a "mass" row asks the capped fractional
capacity inside the interval to reach twice the remainder.

The rows, the migration from a mass to a count row and the state check
are evaluated with intervals.ScaledCover on integers, one view per y,
handed in for the input y by interval rounding, whose rank tables it then
shares.  Each state is checked once: the input state when it is set up,
every later one at the end of its round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, Optional

from . import lp_core
from .errors import InvariantError
from .instance import Rat, rat
from .intervals import ScaledCover, scale_caps, uncovered

Interval = tuple[int, int]
Trace = Optional[Callable[[str], None]]


@dataclass
class LaminarFamily:
    """A laminar set of (a, b] intervals over [T], with containment links."""

    T: int
    members: tuple[Interval, ...]
    parent: dict[Interval, Optional[Interval]]
    children: dict[Interval, tuple[Interval, ...]]
    coverable: dict[Interval, Rat] = field(default_factory=dict)

    @classmethod
    def from_intervals(cls, T: int, intervals: Iterable[Interval],
                       coverable: dict | None = None) -> "LaminarFamily":
        members = sorted(set(intervals), key=lambda ab: (ab[0], -ab[1]))
        for a, b in members:
            if not (0 <= a < b <= T):
                raise ValueError(f"interval ({a}, {b}] outside [0, {T}]")
        if (0, T) not in members:
            raise ValueError("the root interval (0, T] must be a member")
        parent: dict[Interval, Optional[Interval]] = {}
        children: dict[Interval, list[Interval]] = {m: [] for m in members}
        stack: list[Interval] = []
        for iv in members:
            a, b = iv
            while stack and stack[-1][1] <= a:
                stack.pop()
            if stack:
                pa, pb = stack[-1]
                if not (pa <= a and b <= pb):
                    raise ValueError(f"intervals ({pa},{pb}] and ({a},{b}] cross")
                parent[iv] = stack[-1]
                children[stack[-1]].append(iv)
            else:
                parent[iv] = None
            stack.append(iv)
        return cls(T=T, members=tuple(members), parent=parent,
                   children={m: tuple(c) for m, c in children.items()},
                   coverable=dict(coverable or {}))


@dataclass(frozen=True)
class LaminarKcInstance:
    T: int
    C: tuple[Rat, ...]
    K: tuple[Rat, ...]
    family: LaminarFamily
    R: dict[Interval, Rat]  # positive requirements, keyed by member

    def check(self) -> None:
        if len(self.C) != self.T or len(self.K) != self.T:
            raise ValueError("C and K must have one entry per period")
        if self.family.T != self.T:
            raise ValueError(f"family is over [0, {self.family.T}], not [0, {self.T}]")
        for iv, value in self.R.items():
            if iv not in self.family.children:
                raise ValueError(f"requirement on non-member interval {iv}")
            if value <= 0:
                raise ValueError(f"requirement on {iv} must be positive")


@dataclass
class RoundingState:
    instance: LaminarKcInstance
    discarded: set[int]
    selected: set[int]
    # active interval -> its requirement less the selected capacity, > 0
    remaining: dict[Interval, Rat]
    count_rows: set[Interval]  # the active intervals on a count row
    y: list[Rat]
    # the integer view of (C, y), built once per y: set_y replaces both
    view: Optional[ScaledCover] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.view is None:
            self.set_y(self.y)

    def active(self) -> list[Interval]:
        return sorted(self.remaining)

    def set_y(self, y) -> None:
        self.y = list(y)
        self.view = ScaledCover(self.instance.C, self.y)

    def unmet(self, R: dict) -> Iterator[tuple[Interval, Rat]]:
        """(interval, requirement less the selected capacity inside it)
        for each requirement in R, in R's order."""
        cden = self.view.cden
        for iv, q, gap in uncovered(R, self.view.c, cden, self.selected):
            yield iv, rat(gap, q * cden)

    def retire(self, iv: Interval) -> None:
        del self.remaining[iv]
        self.count_rows.discard(iv)


def init_state(inst: LaminarKcInstance, y,
               view: Optional[ScaledCover] = None) -> RoundingState:
    """Set up the rounding state; rejects inputs that break the contract.

    Every y_s must lie in [0, 1], and every member that the periods at
    y = 1 leave short must meet its count row or its mass row.  view, if
    given, is ScaledCover(inst.C, y) and becomes the state's view.
    """
    inst.check()
    y = list(y)
    if len(y) != inst.T:
        raise ValueError("y must have one entry per period")
    if view is None:
        view = ScaledCover(inst.C, y)
    if not all(0 <= u <= view.yden for u in view.u):
        raise InvariantError("input y outside [0, 1]")
    state = RoundingState(instance=inst, discarded=set(), selected=set(view.ones),
                          remaining={}, count_rows=set(), y=y, view=view)
    for iv, need in sorted(state.unmet(inst.R)):
        if need <= 0:
            continue
        count_ok = view.holds(iv[0], iv[1], need, count=1)
        if not count_ok and not view.holds(iv[0], iv[1], need, mass=2):
            raise InvariantError(f"input y fails both cover conditions on {iv}")
        state.remaining[iv] = need
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
    """The shrinking LP: min K.y subject to the active interval rows."""
    inst = state.instance
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
        need = state.remaining[(a, b)]
        coeffs = {s - 1: min(inst.C[s - 1], need)
                  for s in range(a + 1, b + 1) if s not in state.selected}
        lp.add_row(coeffs, lp_core.GE, 2 * need)
    for a, b in sorted(state.count_rows):
        need = state.remaining[(a, b)]
        coeffs = {s - 1: 1
                  for s in range(a + 1, b + 1)
                  if s not in state.selected and inst.C[s - 1] >= need}
        lp.add_row(coeffs, lp_core.GE, 1)
    return lp


def _assert_state_feasible(state: RoundingState, where: str) -> None:
    """Check state.y against the bounds and rows build_iter_lp would write,
    and that every period at y = 1 is selected.

    Discarded periods must sit at 0, selected ones at 1 and the others in
    [0, 1), read on state.view's integers y_s = u_s / yden with yden > 0.
    The selection is then exactly the view's periods at 1, which
    ScaledCover.holds leaves out: a mass row on (a, b] is its capped-mass
    side with threshold 2, a count row its count side with threshold 1,
    both evaluated on integers without building the LP.
    """
    view = state.view
    u, yden = view.u, view.yden
    feasible = all(
        u[s - 1] == yden if s in state.selected else
        u[s - 1] == 0 if s in state.discarded else
        0 <= u[s - 1] < yden
        for s in range(1, state.instance.T + 1)
    ) and all(
        view.holds(a, b, need, count=1) if (a, b) in state.count_rows else
        view.holds(a, b, need, mass=2)
        for (a, b), need in state.remaining.items()
    )
    if not feasible:
        raise InvariantError(f"current y infeasible for the rounding LP ({where})")


def solve(inst: LaminarKcInstance, y, trace: Trace = None,
          view: Optional[ScaledCover] = None) -> frozenset[int]:
    """Round y to a selected set covering every member requirement.

    The selection contains every locked period: it starts as the locked
    set and only grows.  Each round discards its vertex's zeros and selects
    its new ones together; every active interval that contains a pick then
    has its remainder derived anew, and retires or migrates on it.  The
    state is checked at the end of every round.  Checked before returning:
    the selection covers each requirement and costs no more than K.y for
    the input y.  The outer loop fixes at least one new period per round
    and therefore runs at most T times.  view, if given, is
    ScaledCover(inst.C, y), whose tables the checks on the input y then
    share.
    """
    state = init_state(inst, y, view)
    cden, yden = state.view.cden, state.view.yden
    # K . y for the input y is budget / (kden * yden): K_s = k_s / kden, y_s = u_s / yden
    k, kden = scale_caps(inst.K)
    budget = sum(map(mul, k, state.view.u))
    prev_cost = Fraction(budget, kden * yden)
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
        state.set_y(sol.values)
        if trace:
            trace(f"iter={rounds} event=lp cost={cost}")

        fixed_before = len(state.discarded) + len(state.selected)
        for s in range(1, inst.T + 1):
            if s not in state.discarded and state.y[s - 1] == 0:
                state.discarded.add(s)
                if trace:
                    trace(f"iter={rounds} event=discard s={s}")
        picks = sorted(state.view.ones - state.selected)
        state.selected.update(picks)
        if trace:
            for s in picks:
                trace(f"iter={rounds} event=select s={s}")
        hit = {(a, b): inst.R[(a, b)] for a, b in state.active()
               if any(a < s <= b for s in picks)}
        for iv, left in state.unmet(hit):
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
    for iv, _, gap in uncovered(inst.R, state.view.c, cden, selected):
        if gap > 0:
            raise InvariantError(f"requirement on {iv} left uncovered")
    if yden * sum(k[s - 1] for s in selected) > budget:
        raise InvariantError("selection costs more than the fractional budget")
    return selected
