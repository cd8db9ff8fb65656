"""Final demand placement by an exact min-cost flow on integers.

Placing demand into a fixed order set is a transportation problem: item i
ships d_i units to selected periods s <= r_i at h_i(s) per unit, and period
s takes at most C_s units.  solve_assignment solves it by successive
shortest paths, each found by Bellman-Ford.  Demands and capacities are put
over the lcm of their denominators, and holding costs over the lcm of
theirs, so the flow runs on Python ints; the returned units and cost are
read off them, each an int when it is whole.

The holding bound of the paper still holds for this placement.  Stretching
each item's x by 5/2 and truncating at mass 1 (scaled_profile) gives
supplies that an earliest-deadline-first sweep places into any order set
covering every interval requirement, holding at most 5/2 hcost(x).  That
placement is feasible for the flow, so the min-cost placement is never
dearer; run_pipeline's certificate checks the bound on every run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional

from .errors import InvariantError
from .instance import CmilsInstance, Rat, rat

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


def solve_assignment(inst: CmilsInstance, orders
                     ) -> Optional[tuple[Rat, dict[tuple[int, int], Rat]]]:
    """Cheapest placement of every demand into the order periods.

    Returns (holding cost, units per (s, i)), or None when the orders
    cannot hold the demand by its deadlines.
    """
    orders = sorted(set(orders))
    pairs = [(s, i) for i in inst.items() for s in orders if s <= inst.deadline(i)]
    unit = math.lcm(*(d.denominator for d in inst.d),
                    *(inst.cap(s).denominator for s in orders))
    price = math.lcm(*(inst.hold(i, s).denominator for s, i in pairs))

    def scaled(value: Rat, den: int) -> int:
        return value.numerator * (den // value.denominator)

    # Nodes: 0 is the source, 1..N the items, then the order periods, then
    # the sink.  Edge e runs to to[e] with room[e] left; its reverse is e ^ 1.
    node = {s: inst.N + k for k, s in enumerate(orders, start=1)}
    n = inst.N + len(orders) + 2
    sink = n - 1
    to: list[int] = []
    room: list[int] = []
    cost: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]

    def edge(u: int, v: int, cap: int, c: int) -> int:
        out[u].append(len(to))
        out[v].append(len(to) + 1)
        to.extend((v, u))
        room.extend((cap, 0))
        cost.extend((c, -c))
        return len(to) - 2

    demand = [scaled(d, unit) for d in inst.d]
    for i in inst.items():
        edge(0, i, demand[i - 1], 0)
    pair_edge = {(s, i): edge(i, node[s], demand[i - 1], scaled(inst.hold(i, s), price))
                 for s, i in pairs}
    for s in orders:
        edge(node[s], sink, scaled(inst.cap(s), unit), 0)

    need = sum(demand)
    paid = 0
    while need:
        dist: list[Optional[int]] = [None] * n
        via = [-1] * n
        dist[0] = 0
        for _ in range(n - 1):
            changed = False
            for u in range(n):
                du = dist[u]
                if du is None:
                    continue
                for e in out[u]:
                    if room[e]:
                        v = to[e]
                        dv = du + cost[e]
                        if dist[v] is None or dv < dist[v]:
                            dist[v] = dv
                            via[v] = e
                            changed = True
            if not changed:
                break
        if dist[sink] is None:
            return None
        push = need
        v = sink
        while v:
            push = min(push, room[via[v]])
            v = to[via[v] ^ 1]
        v = sink
        while v:
            room[via[v]] -= push
            room[via[v] ^ 1] += push
            v = to[via[v] ^ 1]
        need -= push
        paid += push * dist[sink]

    units = {key: rat(room[e ^ 1], unit) for key, e in pair_edge.items() if room[e ^ 1]}
    return rat(paid, unit * price), units
