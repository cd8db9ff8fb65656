"""Instance model for capacitated multi-item lot sizing.

An instance has T periods and N items.  Placing an order at period s costs
K_s and provides C_s units of capacity for that period; item i needs d_i
units delivered by its deadline r_i, and a unit of item i ordered at period
s <= r_i pays a holding cost h_i(s).  Holding costs are stored as explicit
per-item tables, non-increasing in s with h_i(r_i) = 0.

All quantities are exact rationals of type Rat: an int when the value is
whole, else a Fraction.  Both are exact, so whole data (the usual case)
pays no Fraction arithmetic.  Rationals serialize as "p/q" strings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Mapping, Optional

from .errors import InstanceFormatError, InvariantError

# An exact rational: an int when whole, else a Fraction.
Rat = int | Fraction


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


# Longest repr of an offending value that an error message shows.
SHOWN = 40


def _show(value) -> str:
    """An offending JSON value for a one-line error message: a list or an
    object by its type and length, anything else by its repr cut to SHOWN
    characters."""
    if isinstance(value, (list, dict)):
        return f"{type(value).__name__} of length {len(value)}"
    text = repr(value)
    return text if len(text) <= SHOWN else f"{text[:SHOWN]}... ({len(text)} characters)"


def rat(num: int, den: int) -> Rat:
    """num / den for den > 0: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def all_exact(values) -> bool:
    """Whether every value is an int or a Fraction.  It tests the set of the
    values' types, not each value, so a long list of ints costs one test."""
    return all(issubclass(kind, (int, Fraction)) for kind in set(map(type, values)))


def parse_rat(text) -> Rat:
    """Parse "p/q" (or any string Fraction reads, or an int) into a Rat.

    The canonical "p/q" that format_rat writes -- ASCII digits, an optional
    leading "-" and q > 0 -- is read with int(); any other string goes to
    Fraction, so it means what it means to Fraction or is rejected.
    """
    if isinstance(text, Fraction):
        return text
    if _is_int(text):
        return text
    if not isinstance(text, str):
        raise InstanceFormatError(f"expected rational string, got {_show(text)}")
    try:
        p, _, q = text.partition("/")
        digits = p[1:] if p[:1] == "-" else p
        if digits.isascii() and digits.isdigit() and q.isascii() and q.isdigit() \
                and (den := int(q)) > 0:
            return rat(int(p), den)
        value = Fraction(text)
        return value.numerator if value.denominator == 1 else value
    except ValueError:
        raise InstanceFormatError(f"bad rational {_show(text)}") from None
    except ZeroDivisionError:
        raise InstanceFormatError(f"bad rational {_show(text)}: zero denominator") from None


def format_rat(value: Rat) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class CmilsInstance:
    T: int
    N: int
    K: tuple[Rat, ...]  # ordering cost per period
    C: tuple[Rat, ...]  # capacity per period
    d: tuple[Rat, ...]  # demand per item
    r: tuple[int, ...]  # deadline per item
    h: tuple[tuple[Rat, ...], ...]  # h[i-1][s-1], s in 1..r_i

    def order_cost(self, s: int) -> Rat:
        return self.K[s - 1]

    def cap(self, s: int) -> Rat:
        return self.C[s - 1]

    def demand(self, i: int) -> Rat:
        return self.d[i - 1]

    def deadline(self, i: int) -> int:
        return self.r[i - 1]

    def hold(self, i: int, s: int) -> Rat:
        return self.h[i - 1][s - 1]

    def periods(self) -> range:
        return range(1, self.T + 1)

    def items(self) -> range:
        return range(1, self.N + 1)

    def total_demand(self) -> Rat:
        return sum(self.d)


@dataclass(frozen=True)
class FractionalSolution:
    """An (x, y) pair: x[(s, i)] is the fraction of item i ordered at s."""

    x: Mapping[tuple[int, int], Rat]
    y: tuple[Rat, ...]


@dataclass(frozen=True)
class OrderSchedule:
    orders: frozenset[int]
    assignment: Mapping[tuple[int, int], Rat]  # (s, i) -> units
    ordering_cost: Rat
    holding_cost: Rat
    total_cost: Rat


# The exact types of a Rat; a bool, an int subclass, is not one of them.
_RAT_TYPES = frozenset((int, Fraction))


def _mistyped(inst: CmilsInstance) -> list[str]:
    """One message per K, C, d or h entry whose type is not a Rat's and per
    r entry that is not an int."""
    bad = []
    for name, seq in (("K", inst.K), ("C", inst.C), ("d", inst.d)):
        bad += [f"{name}[{k}] = {_show(v)} is not an int or a Fraction"
                for k, v in enumerate(seq, start=1) if type(v) not in _RAT_TYPES]
    bad += [f"r[{i}] = {_show(v)} is not an int"
            for i, v in enumerate(inst.r, start=1) if type(v) is not int]
    for i, row in enumerate(inst.h, start=1):
        bad += [f"h[{i}][{s}] = {_show(v)} is not an int or a Fraction"
                for s, v in enumerate(row, start=1) if type(v) not in _RAT_TYPES]
    return bad


def validate(inst: CmilsInstance) -> list[str]:
    """Return every violated structural invariant; empty means valid.

    Every K, C, d and h entry must be of type int or Fraction, and every r
    of type int; a bool is neither.  If one is not, only the type and
    length messages are returned, as the value checks would compare it.
    """
    bad: list[str] = []
    if inst.T < 1:
        bad.append("T must be a positive integer")
    if inst.N < 1:
        bad.append("N must be a positive integer")
    for name, seq, want in (("K", inst.K, inst.T), ("C", inst.C, inst.T),
                            ("d", inst.d, inst.N), ("r", inst.r, inst.N),
                            ("h", inst.h, inst.N)):
        if len(seq) != want:
            bad.append(f"{name} has length {len(seq)}, expected {want}")
    if not (_RAT_TYPES.issuperset(map(type, chain(inst.K, inst.C, inst.d, *inst.h)))
            and all(type(v) is int for v in inst.r)):
        return bad + _mistyped(inst)
    if len(inst.K) == inst.T:
        for s in inst.periods():
            if inst.order_cost(s) < 0:
                bad.append(f"K[{s}] is negative")
    if len(inst.C) == inst.T:
        for s in inst.periods():
            if inst.cap(s) <= 0:
                bad.append(f"C[{s}] must be strictly positive")
    if len(inst.d) == inst.N:
        for i in inst.items():
            if inst.demand(i) <= 0:
                bad.append(f"d[{i}] must be strictly positive")
    if len(inst.r) == inst.N:
        for i in inst.items():
            if not (1 <= inst.deadline(i) <= inst.T):
                bad.append(f"r[{i}] = {inst.deadline(i)} outside [1, {inst.T}]")
    if len(inst.h) == inst.N and len(inst.r) == inst.N:
        for i in inst.items():
            ri = inst.deadline(i)
            if not (1 <= ri <= inst.T):
                continue
            tab = inst.h[i - 1]
            if len(tab) != ri:
                bad.append(f"h[{i}] has length {len(tab)}, expected r_{i} = {ri}")
                continue
            if any(tab[s] < 0 for s in range(ri)):
                bad.append(f"h[{i}] has a negative entry")
            if any(tab[s] < tab[s + 1] for s in range(ri - 1)):
                bad.append(f"h[{i}] is not non-increasing")
            if tab[ri - 1] != 0:
                bad.append(f"h[{i}] must end at 0 (h_i(r_i)=0), got {tab[ri - 1]}")
    return bad


def check_feasible(inst: CmilsInstance, sched: OrderSchedule) -> tuple[bool, list[str]]:
    """Check a schedule against the instance: deadlines, coverage, capacity."""
    bad: list[str] = []
    for (s, i), qty in sched.assignment.items():
        if qty < 0:
            bad.append(f"assignment[{s},{i}] is negative")
        if qty > 0:
            if s not in sched.orders:
                bad.append(f"assignment[{s},{i}] > 0 but period {s} has no order")
            if not (1 <= i <= inst.N):
                bad.append(f"assignment references unknown item {i}")
                continue
            if s > inst.deadline(i):
                bad.append(f"assignment[{s},{i}] > 0 past deadline r_{i}={inst.deadline(i)}")
    for i in inst.items():
        got = sum(q for (s, j), q in sched.assignment.items() if j == i)
        if got != inst.demand(i):
            bad.append(f"item {i}: assigned {got}, demand {inst.demand(i)}")
    for s in sorted(sched.orders):
        if not (1 <= s <= inst.T):
            bad.append(f"order at unknown period {s}")
            continue
        used = sum(q for (t, _i), q in sched.assignment.items() if t == s)
        if used > inst.cap(s):
            bad.append(f"period {s}: load {used} exceeds capacity {inst.cap(s)}")
    return (not bad, bad)


def cost(inst: CmilsInstance, sched: OrderSchedule) -> tuple[Rat, Rat, Rat]:
    """Ordering, holding and total cost of a schedule that check_feasible
    accepts."""
    ordering = sum(inst.order_cost(s) for s in sched.orders)
    holding = sum(qty * inst.hold(i, s) for (s, i), qty in sched.assignment.items() if qty)
    return ordering, holding, ordering + holding


def make_schedule(inst: CmilsInstance, orders, assignment) -> OrderSchedule:
    """Package a solver's order set plus unit assignment, computing its
    costs; InvariantError if the schedule is infeasible."""
    sched = OrderSchedule(orders=frozenset(orders),
                          assignment=dict(assignment),
                          ordering_cost=0, holding_cost=0, total_cost=0)
    ok, bad = check_feasible(inst, sched)
    if not ok:
        raise InvariantError("infeasible schedule: " + "; ".join(bad))
    ordering, holding, total = cost(inst, sched)
    return OrderSchedule(orders=sched.orders, assignment=sched.assignment,
                         ordering_cost=ordering, holding_cost=holding,
                         total_cost=total)


def hcost(inst: CmilsInstance, x: Mapping[tuple[int, int], Rat]) -> Rat:
    """Holding cost of a fractional assignment: sum_i d_i sum_s x[s,i] h_i(s)."""
    return sum(inst.demand(i) * frac * inst.hold(i, s)
               for (s, i), frac in x.items() if frac and s <= inst.deadline(i))


def short_prefix(inst: CmilsInstance, orders=None) -> Optional[tuple[int, Rat, Rat]]:
    """The first period t whose due demand, that of the items with deadline
    <= t, exceeds the capacity of the order periods up to t, as (t, due
    demand, capacity); None if no period does.

    Item i may only use periods <= r_i, so usable periods always form a
    prefix and this condition is exact for the given order set, every
    period when orders is None.
    """
    chosen = set(inst.periods()) if orders is None else set(orders)
    prefix_cap = 0
    due: dict[int, Rat] = {}
    for i in inst.items():
        due[inst.deadline(i)] = due.get(inst.deadline(i), 0) + inst.demand(i)
    cum_demand = 0
    for t in inst.periods():
        if t in chosen:
            prefix_cap += inst.cap(t)
        cum_demand += due.get(t, 0)
        if cum_demand > prefix_cap:
            return t, cum_demand, prefix_cap
    return None


def prefix_feasible(inst: CmilsInstance, orders=None) -> bool:
    """True iff every deadline-prefix demand fits in the prefix capacity."""
    return short_prefix(inst, orders) is None


def gen_random(seed: int, *, T: int, N: int,
               capacity_range: tuple[int, int] = (3, 12),
               cost_range: tuple[int, int] = (1, 20),
               demand_range: tuple[int, int] = (1, 8),
               slack_factor: Fraction = Fraction(3, 2)) -> CmilsInstance:
    """Deterministic random instance, feasible by construction.

    Holding tables are suffix sums of non-negative per-period rates, so they
    are non-increasing and end at zero.  Capacities are bumped until every
    deadline prefix holds slack_factor times the demand due by then.
    """
    if T < 1:
        raise ValueError("T must be a positive integer")
    if N < 1:
        raise ValueError("N must be a positive integer")
    if Fraction(slack_factor) < 1:
        raise ValueError("slack_factor must be >= 1")
    for name, (lo, hi) in (("capacity_range", capacity_range),
                           ("cost_range", cost_range),
                           ("demand_range", demand_range)):
        if lo > hi or hi < 1:
            raise ValueError(f"{name} is empty or non-positive")
    if cost_range[0] < 0:
        raise ValueError("cost_range must not go below 0")
    rng = random.Random(seed)
    K = tuple(rng.randint(*cost_range) for _ in range(T))
    C = [max(1, rng.randint(*capacity_range)) for _ in range(T)]
    d = tuple(max(1, rng.randint(*demand_range)) for _ in range(N))
    r = tuple(rng.randint(1, T) for _ in range(N))
    h = []
    for i in range(N):
        rates = [rng.randint(0, 3) for _ in range(r[i] - 1)]
        h.append(tuple(accumulate(reversed(rates), initial=0))[::-1])
    # enforce the prefix-capacity slack so the instance is always feasible
    slack = Fraction(slack_factor)
    cum_demand = 0
    prefix_cap = 0
    for t in range(1, T + 1):
        cum_demand += sum(d[i] for i in range(N) if r[i] == t)
        prefix_cap += C[t - 1]
        need = slack * cum_demand
        if prefix_cap < need:
            deficit = need - prefix_cap
            bump = -(-deficit.numerator // deficit.denominator)  # ceil
            C[t - 1] += bump
            prefix_cap += bump
    return CmilsInstance(T=T, N=N, K=K, C=tuple(C), d=d, r=r, h=tuple(h))


def gen_kc_gap(R: Rat) -> CmilsInstance:
    """Two-period knapsack-cover gap embed: C=(R-1, R), K=(0, 1), one demand R.

    R must be exact, an int or a Fraction (a bool is neither), and at least
    2; else ValueError.
    """
    if type(R) not in _RAT_TYPES:
        raise ValueError(f"R = {_show(R)} is not an int or a Fraction")
    R = rat(R.numerator, R.denominator)
    if R < 2:
        raise ValueError("R must be >= 2")
    return CmilsInstance(T=2, N=1, K=(0, 1), C=(R - 1, R), d=(R,), r=(2,), h=((0, 0),))


# ---------------------------------------------------------------------------
# JSON interchange

def to_json_dict(inst: CmilsInstance) -> dict:
    return {
        "T": inst.T,
        "N": inst.N,
        "K": [format_rat(v) for v in inst.K],
        "C": [format_rat(v) for v in inst.C],
        "items": [
            {"d": format_rat(inst.d[i]), "r": inst.r[i],
             "h": [format_rat(v) for v in inst.h[i]]}
            for i in range(inst.N)
        ],
    }


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where} must be a JSON object, got {_show(obj)}")
    if key not in obj:
        raise InstanceFormatError(f"missing field {key!r} in {where}")
    return obj[key]


def _int_field(obj, key: str, where: str) -> int:
    value = _field(obj, key, where)
    if not _is_int(value):
        raise InstanceFormatError(f"{where}.{key} must be an integer, got {_show(value)}")
    return value


def _list_field(obj, key: str, where: str) -> list:
    value = _field(obj, key, where)
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where}.{key} must be a list, got {_show(value)}")
    return value


def from_json_dict(doc: dict) -> CmilsInstance:
    T = _int_field(doc, "T", "instance")
    N = _int_field(doc, "N", "instance")
    K = tuple(parse_rat(v) for v in _list_field(doc, "K", "instance"))
    C = tuple(parse_rat(v) for v in _list_field(doc, "C", "instance"))
    items = _list_field(doc, "items", "instance")
    if len(items) != N:
        raise InstanceFormatError(f"items has length {len(items)}, expected N={N}")
    d, r, h = [], [], []
    for idx, item in enumerate(items, start=1):
        where = f"items[{idx}]"
        d.append(parse_rat(_field(item, "d", where)))
        r.append(_int_field(item, "r", where))
        h.append(tuple(parse_rat(v) for v in _list_field(item, "h", where)))
    return CmilsInstance(T=T, N=N, K=K, C=C, d=tuple(d), r=tuple(r), h=tuple(h))


def _write_json(doc, path) -> None:
    """Write doc as indented, key-sorted JSON and a newline, in one write."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save(inst: CmilsInstance, path) -> None:
    _write_json(to_json_dict(inst), path)


def _read_json(path):
    """The JSON document in path; malformed or too deeply nested text is an
    InstanceFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise InstanceFormatError(f"{path}: JSON nested too deeply") from None


def load(path) -> CmilsInstance:
    return from_json_dict(_read_json(path))


def schedule_to_json_dict(sched: OrderSchedule) -> dict:
    return {
        "orders": sorted(sched.orders),
        "assignment": [
            {"s": s, "i": i, "qty": format_rat(q)}
            for (s, i), q in sorted(sched.assignment.items()) if q
        ],
        "costs": {
            "ordering": format_rat(sched.ordering_cost),
            "holding": format_rat(sched.holding_cost),
            "total": format_rat(sched.total_cost),
        },
    }


def schedule_from_json_dict(doc: dict) -> OrderSchedule:
    orders = _list_field(doc, "orders", "schedule")
    periods = set()
    for s in orders:
        if not _is_int(s):
            raise InstanceFormatError(f"schedule.orders must hold integers, got {_show(s)}")
        if s in periods:
            raise InstanceFormatError(f"schedule.orders lists period {_show(s)} twice")
        periods.add(s)
    assignment = {}
    for entry in _list_field(doc, "assignment", "schedule"):
        where = "assignment entry"
        key = (_int_field(entry, "s", where), _int_field(entry, "i", where))
        if key in assignment:
            raise InstanceFormatError(f"assignment lists (s, i) = {_show(key)} twice")
        assignment[key] = parse_rat(_field(entry, "qty", where))
    costs = _field(doc, "costs", "schedule")
    ordering, holding, total = (parse_rat(_field(costs, key, "schedule costs"))
                                for key in ("ordering", "holding", "total"))
    return OrderSchedule(orders=frozenset(periods), assignment=assignment,
                         ordering_cost=ordering, holding_cost=holding,
                         total_cost=total)


def save_schedule(sched: OrderSchedule, path) -> None:
    _write_json(schedule_to_json_dict(sched), path)


def load_schedule(path) -> OrderSchedule:
    return schedule_from_json_dict(_read_json(path))
