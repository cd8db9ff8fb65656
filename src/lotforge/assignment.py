"""Final demand placement by an earliest-deadline-first sweep.

The fractional x of the master LP is first stretched into a profile x' by
scaling each item's distribution by 5/2 and truncating once the cumulative
mass reaches 1, so prefix-wise x'[<=t, i] = min((5/2) x[<=t, i], 1).  Each
profile entry (s, i) is a supply of x'[(s, i)] * d_i units that may only go
to a selected order period in [s, r_i].  Every supply's periods form an
interval, so this is a convex bipartite transportation problem, which an
earliest-deadline-first sweep solves exactly (Glover, 1967): walk the
periods in order, release each supply at its period, and pour each
selected period's capacity into the released supplies with the earliest
deadline.  A supply still unserved at its deadline proves a coverage
shortfall.  Supplies are only served at or after their release, so the
placement x* is prefix-dominated by x' and therefore holds at most 5/2
times the holding cost of x.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping, Optional

from .errors import InvariantError
from .instance import CmilsInstance

SCALE = Fraction(5, 2)


def scaled_profile(x: Mapping[tuple[int, int], Fraction],
                   inst: CmilsInstance) -> dict[tuple[int, int], Fraction]:
    """Per item: scale by 5/2, truncating when the running mass hits 1."""
    profile: dict[tuple[int, int], Fraction] = {}
    for i in inst.items():
        run_x = Fraction(0)
        run_p = Fraction(0)
        for s in range(1, inst.deadline(i) + 1):
            xv = x.get((s, i), Fraction(0))
            step = min(SCALE * xv, 1 - run_p)
            run_x += xv
            run_p += step
            if step:
                profile[(s, i)] = step
            if run_p != min(SCALE * run_x, 1):
                raise InvariantError(f"profile prefix identity broke at ({s}, {i})")
    return profile


def solve_assignment(inst: CmilsInstance, selected,
                     profile: Mapping[tuple[int, int], Fraction]
                     ) -> Optional[dict[tuple[int, int], Fraction]]:
    """Place every unit within the selected periods, or report infeasibility.

    Returns x*[(s', i)] fractions with sum 1 per item, respecting period
    capacities and the deadline/selection support rule, and prefix-dominated
    by the profile.  None when some supply cannot be served by its deadline.
    """
    selected = frozenset(selected)
    released: dict[int, list[int]] = {}
    for s, i in sorted(profile):
        if profile[(s, i)]:
            released.setdefault(s, []).append(i)
    heap: list[list] = []  # [r_i, s, i, units left]; the key (r_i, s, i) is unique
    units: dict[tuple[int, int], Fraction] = {}
    for t in inst.periods():
        for i in released.get(t, ()):
            heapq.heappush(heap, [inst.deadline(i), t, i, profile[(t, i)] * inst.demand(i)])
        room = inst.cap(t) if t in selected else Fraction(0)
        while heap and room:
            entry = heap[0]
            i = entry[2]
            sent = min(entry[3], room)
            units[(t, i)] = units.get((t, i), Fraction(0)) + sent
            room -= sent
            entry[3] -= sent
            if not entry[3]:
                heapq.heappop(heap)
        if heap and heap[0][0] <= t:
            return None
    placement = {(t, i): qty / inst.demand(i) for (t, i), qty in units.items()}
    _check_placement(inst, selected, profile, placement)
    return placement


def _check_placement(inst, selected, profile, placement) -> None:
    selected = frozenset(selected)
    for i in inst.items():
        total = Fraction(0)
        run_prof = Fraction(0)
        run_place = Fraction(0)
        for t in range(1, inst.deadline(i) + 1):
            run_prof += profile.get((t, i), Fraction(0))
            run_place += placement.get((t, i), Fraction(0))
            if run_place > run_prof:
                raise InvariantError(f"placement prefix exceeds profile at ({t}, {i})")
        for (t, j), v in placement.items():
            if j != i:
                continue
            total += v
            if t not in selected or t > inst.deadline(i) or v < 0:
                raise InvariantError(f"placement support violation at ({t}, {i})")
        if total != 1:
            raise InvariantError(f"placement of item {i} sums to {total}")
    for t in selected:
        used = sum((placement.get((t, i), Fraction(0)) * inst.demand(i)
                    for i in inst.items()), Fraction(0))
        if used > inst.cap(t):
            raise InvariantError(f"placement overloads period {t}")
