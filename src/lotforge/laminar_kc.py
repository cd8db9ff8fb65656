"""Iterative rounding for laminar knapsack covering.

Input: knapsacks 1..T with capacities C and costs K, a laminar family of
intervals each demanding some capacity inside it, and a fractional opening
vector y.  The solver locks the periods at y = 1 into the selection
(ScaledCover.ones), takes each member's residual requirement from
intervals.residuals, repeatedly re-optimizes a shrinking LP to a vertex,
permanently discards periods that hit 0 and selects periods that hit 1, and
returns a selected set covering every requirement at cost at most the
fractional cost of the input y.

Active intervals live in one of two pools, mirroring the two row shapes of
the LP: "mass" rows ask the capped fractional capacity inside the interval
to reach twice the remaining requirement; "count" rows ask the fractional
openings of large-enough periods to reach one.  Each round selects all of
its vertex's new ones together, as in Jain's iterative rounding, so the
selection is always the periods at y = 1 when the rows are evaluated.
Pool membership, migration between the pools and the state check evaluate
those rows with intervals.ScaledCover, on integers; the state keeps one
view per y, built when y is replaced, or handed in for the input y by
interval rounding, whose rank tables it then shares.  The stale-remaining
check and the final cover check read each requirement less the selected
capacity as an integer from intervals.uncovered.  The budget K . y of the
input y and the selection's cost are integer sums over K's and y's common
denominators; the budget becomes a Fraction once, as the bound on the
first rounding LP's cost.  The rounding LP, built only to be solved, takes
the instance's values as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Optional

from . import lp_core
from .errors import InvariantError
from .instance import Rat
from .intervals import ScaledCover, residuals, scale_caps, uncovered

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
    remaining: dict[Interval, Rat]
    mass_active: set[Interval]
    count_active: set[Interval]
    y: list[Rat]
    # the integer view of (C, y), built once per y: set_y replaces both
    view: Optional[ScaledCover] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.view is None:
            self.set_y(self.y)

    def active(self) -> list[Interval]:
        return sorted(self.mass_active | self.count_active)

    def set_y(self, y) -> None:
        self.y = list(y)
        self.view = ScaledCover(self.instance.C, self.y)


def init_state(inst: LaminarKcInstance, y,
               view: Optional[ScaledCover] = None) -> RoundingState:
    """Set up the rounding state; rejects inputs that break the contract.

    view, if given, is ScaledCover(inst.C, y) and becomes the state's view.
    """
    inst.check()
    y = list(y)
    if len(y) != inst.T:
        raise ValueError("y must have one entry per period")
    if view is None:
        view = ScaledCover(inst.C, y)
    locked = view.ones
    state = RoundingState(instance=inst, discarded=set(), selected=set(locked),
                          remaining={}, mass_active=set(), count_active=set(), y=y,
                          view=view)
    for iv, need in sorted(residuals(inst.R, inst.C, locked).items()):
        if need <= 0:
            continue
        count_ok = view.holds(iv[0], iv[1], need, count=1)
        if not count_ok and not view.holds(iv[0], iv[1], need, mass=2):
            raise InvariantError(f"input y fails both cover conditions on {iv}")
        state.remaining[iv] = need
        (state.count_active if count_ok else state.mass_active).add(iv)
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
                state.mass_active.discard(iv)
                state.count_active.discard(iv)
                del state.remaining[iv]
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
    for a, b in sorted(state.mass_active):
        need = state.remaining[(a, b)]
        coeffs = {s - 1: min(inst.C[s - 1], need)
                  for s in range(a + 1, b + 1) if s not in state.selected}
        lp.add_row(coeffs, lp_core.GE, 2 * need)
    for a, b in sorted(state.count_active):
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
        view.holds(a, b, state.remaining[(a, b)], mass=2)
        for a, b in state.mass_active
    ) and all(
        view.holds(a, b, state.remaining[(a, b)], count=1)
        for a, b in state.count_active
    )
    if not feasible:
        raise InvariantError(f"current y infeasible for the rounding LP ({where})")


def solve(inst: LaminarKcInstance, y, trace: Trace = None,
          view: Optional[ScaledCover] = None) -> frozenset[int]:
    """Round y to a selected set covering every member requirement.

    The selection contains every locked period: it starts as the locked
    set and only grows.  Each round discards its vertex's zeros and selects
    its new ones together; every active interval then loses the capacity
    of the picks inside it once, and retires or migrates on what is left.
    Checked before returning: the selection covers each requirement and
    costs no more than K.y for the input y.  The outer loop fixes at least
    one new period per round and therefore runs at most T times.  view, if
    given, is ScaledCover(inst.C, y), whose tables the checks on the input
    y then share.
    """
    state = init_state(inst, y, view)
    cden, yden = state.view.cden, state.view.yden
    # K . y for the input y is budget / (kden * yden): K_s = k_s / kden, y_s = u_s / yden
    k, kden = scale_caps(inst.K)
    budget = sum(map(mul, k, state.view.u))
    prev_cost = Fraction(budget, kden * yden)
    rounds = 0
    while state.mass_active or state.count_active:
        rounds += 1
        if rounds > inst.T:
            raise InvariantError("rounding exceeded its T-iteration bound")
        if trace:
            trace(f"iter={rounds} event=head active={len(state.active())}")
        # remaining must be R less the selected capacity, and positive
        active = {iv: inst.R[iv] for iv in state.active()}
        for iv, need, gap in uncovered(active, state.view.c, cden, state.selected):
            left = state.remaining[iv]
            if gap <= 0 or (left.numerator * need.denominator * cden
                            != gap * left.denominator):
                raise InvariantError(f"stale remaining requirement on {iv}")
        _assert_state_feasible(state, "loop head")
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
        if picks:
            state.selected.update(picks)
            if trace:
                for s in picks:
                    trace(f"iter={rounds} event=select s={s}")
            for iv in state.active():
                a, b = iv
                taken = [inst.C[s - 1] for s in picks if a < s <= b]
                if not taken:
                    continue
                state.remaining[iv] -= sum(taken)
                if trace:
                    trace(f"iter={rounds} event=update iv={iv} left={state.remaining[iv]}")
                if state.remaining[iv] <= 0:
                    state.mass_active.discard(iv)
                    state.count_active.discard(iv)
                    del state.remaining[iv]
                    if trace:
                        trace(f"iter={rounds} event=retire iv={iv}")
                elif iv in state.mass_active and state.view.holds(
                        a, b, state.remaining[iv], count=1):
                    state.mass_active.discard(iv)
                    state.count_active.add(iv)
                    if trace:
                        trace(f"iter={rounds} event=migrate iv={iv}")
            _assert_state_feasible(state, "after select")
        if len(state.discarded) + len(state.selected) == fixed_before:
            raise InvariantError("vertex solution fixed no new period")

    selected = frozenset(state.selected)
    for iv, _, gap in uncovered(inst.R, state.view.c, cden, selected):
        if gap > 0:
            raise InvariantError(f"requirement on {iv} left uncovered")
    if yden * sum(k[s - 1] for s in selected) > budget:
        raise InvariantError("selection costs more than the fractional budget")
    return selected
