"""Shared test utilities: independent oracles and random case generators."""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Optional

import pytest
from hypothesis import strategies as st

from lotforge import cmils_master, lp_core
from lotforge.assignment import SCALE
from lotforge.errors import InvariantError, RoundLimitError, SizeCapError
from lotforge.instance import (CmilsInstance, FractionalSolution, OrderSchedule, Rat,
                               hcost)
from lotforge.interval_kc import IntervalKcInstance, max_coverable, solve_interval_kc
from lotforge.intervals import ScaledCover, locked_periods, residuals, scale_y
from lotforge.laminar_kc import LaminarFamily, LaminarKcInstance
from lotforge.oracles import OracleResult

KC_CAP = 16


def all_intervals(T: int) -> Iterator[tuple[int, int]]:
    """Yield every (a, b] over [T], ascending by a then b."""
    for a in range(T):
        for b in range(a + 1, T + 1):
            yield (a, b)


def cap_within(C, a: int, b: int, chosen: Iterable[int]) -> Rat:
    """Total capacity of the chosen periods that fall inside (a, b]."""
    return sum(C[s - 1] for s in chosen if a < s <= b)


def invert_square(rows: list[list[Fraction]]):
    """Inverse of a k x k rational matrix, or None if it is singular."""
    k = len(rows)
    aug = [rows[i][:] + [Fraction(int(i == c)) for c in range(k)] for i in range(k)]
    for col in range(k):
        pivot = next((i for i in range(col, k) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, aug[col][col])
        aug[col] = [v * inv for v in aug[col]]
        for i in range(k):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]


def eval_row(row: lp_core.Row, values) -> Fraction:
    """A row's left-hand side at a point."""
    return sum((v * values[j] for j, v in row.coeffs.items()), Fraction(0))


def tight_sets(lp: lp_core.LinearProgram, values) -> tuple[frozenset, frozenset]:
    """Indices of the rows met with equality and of the variables at a bound."""
    tight_rows = frozenset(idx for idx, row in enumerate(lp.rows)
                           if eval_row(row, values) == row.rhs)
    at_bound = frozenset(j for j, (lo, hi) in enumerate(lp.bounds)
                         if values[j] == lo or values[j] == hi)
    return tight_rows, at_bound


def matrix_rank(matrix: list[list[Fraction]], width: int) -> int:
    """Rank of a rational matrix, by exact Gauss-Jordan elimination."""
    rank = 0
    rows = [row[:] for row in matrix]
    for col in range(width):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        inv = Fraction(1, prow[col])
        rows[rank] = prow = [v * inv for v in prow]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == width:
            break
    return rank


def is_feasible(lp: lp_core.LinearProgram, values) -> bool:
    """Exact feasibility check of a point against rows and bounds."""
    for j in range(lp.num_vars):
        lo, hi = lp.bounds[j]
        if not (lo <= values[j] <= hi):
            return False
    for row in lp.rows:
        lhs = eval_row(row, values)
        if row.relation == lp_core.LE and lhs > row.rhs:
            return False
        if row.relation == lp_core.GE and lhs < row.rhs:
            return False
        if row.relation == lp_core.EQ and lhs != row.rhs:
            return False
    return True


def verify_vertex(lp: lp_core.LinearProgram, sol: lp_core.LpSolution) -> bool:
    """True iff sol is feasible and its tight constraints span the space."""
    if sol.status != lp_core.OPTIMAL or sol.values is None:
        return False
    values = sol.values
    if len(values) != lp.num_vars or not is_feasible(lp, values):
        return False
    tight_rows, at_bound = tight_sets(lp, values)
    tight: list[list[Fraction]] = []
    for idx in sorted(tight_rows):
        dense = [Fraction(0)] * lp.num_vars
        for j, v in lp.rows[idx].coeffs.items():
            dense[j] = v
        tight.append(dense)
    for j in sorted(at_bound):
        unit = [Fraction(0)] * lp.num_vars
        unit[j] = Fraction(1)
        tight.append(unit)
    return matrix_rank(tight, lp.num_vars) == lp.num_vars


def full_master_lp(inst: CmilsInstance) -> lp_core.LinearProgram:
    """The master LP with every per-pair row seeded.

    Rows in the order the master once seeded them: coverage, per-pair in
    x_col order, per-period.  Its lexicographically least optimum is the
    one the row-generated master reaches.
    """
    layout = cmils_master.MasterLayout(inst)
    seeded = cmils_master.build_base_lp(inst, layout)
    lp = lp_core.LinearProgram(num_vars=seeded.num_vars, objective=seeded.objective,
                               rows=seeded.rows[:inst.N], bounds=seeded.bounds)
    for pair in layout.x_col:
        lp.add_row(cmils_master.pair_row(inst, layout, pair), lp_core.GE, 0)
    lp.rows += seeded.rows[inst.N:]
    return lp


@contextlib.contextmanager
def warm_solves_checked_cold():
    """Patch lp_core.solve_to_vertex so every warm solve is checked against
    a cold solve of a copy of its LP; yields the list of each call's start.
    """
    real = lp_core.solve_to_vertex
    starts = []

    def checked(lp, start=None):
        sol = real(lp, start=start)
        starts.append(start)
        if start is not None:
            fresh = lp_core.LinearProgram(num_vars=lp.num_vars,
                                          objective=list(lp.objective),
                                          rows=list(lp.rows), bounds=list(lp.bounds))
            cold = real(fresh)
            assert sol.status == cold.status == lp_core.OPTIMAL
            assert sol.objective_value == cold.objective_value
            assert sol.values == cold.values
            assert verify_vertex(lp, sol)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_core, "solve_to_vertex", checked)
        yield starts


def dump_lp(lp: lp_core.LinearProgram) -> str:
    """Plain-text inequality rendering of an LP, for debugging and digests."""
    out = ["min " + " + ".join(f"{c}*x{j}" for j, c in enumerate(lp.objective) if c)]
    for idx, row in enumerate(lp.rows):
        lhs = " + ".join(f"{v}*x{j}" for j, v in sorted(row.coeffs.items()))
        out.append(f"r{idx}: {lhs or '0'} {row.relation} {row.rhs}")
    for j, (lo, hi) in enumerate(lp.bounds):
        out.append(f"x{j} in [{lo}, {hi}]")
    return "\n".join(out)


def feasible_basic_points(lp: lp_core.LinearProgram):
    """Every feasible basic point, by enumerating each vertex candidate basis.

    A vertex fixes some variables at bounds and pins the rest by tight rows;
    all (free set, tight row subset, bound pattern) choices are tried and
    each candidate re-checked for feasibility.  A vertex may come up more
    than once.
    """
    n, m = lp.num_vars, len(lp.rows)
    dense_rows = []
    for row in lp.rows:
        dense = [Fraction(0)] * n
        for j, v in row.coeffs.items():
            dense[j] = v
        dense_rows.append((dense, row.rhs))
    for k in range(0, min(n, m) + 1):
        for free in combinations(range(n), k):
            free_set = set(free)
            fixed = [j for j in range(n) if j not in free_set]
            for tight in combinations(range(m), k):
                # The square system depends only on (free, tight): invert it
                # once, then each bound pattern costs one matrix-vector product.
                inverse = invert_square([[dense_rows[r][0][j] for j in free] for r in tight])
                if inverse is None:
                    continue
                for pattern in product((0, 1), repeat=len(fixed)):
                    values = [Fraction(0)] * n
                    for j, side in zip(fixed, pattern):
                        values[j] = lp.bounds[j][side]
                    rhs = []
                    for r in tight:
                        adj = dense_rows[r][1]
                        for j in fixed:
                            adj -= dense_rows[r][0][j] * values[j]
                        rhs.append(adj)
                    for j, inv_row in zip(free, inverse):
                        values[j] = sum((a * b for a, b in zip(inv_row, rhs)), Fraction(0))
                    if is_feasible(lp, values):
                        yield values


def _objective(lp: lp_core.LinearProgram, values) -> Fraction:
    return sum((c * v for c, v in zip(lp.objective, values)), Fraction(0))


def enumerate_optimum(lp: lp_core.LinearProgram):
    """Optimal value over every feasible basic point; None means infeasible."""
    return min((_objective(lp, values) for values in feasible_basic_points(lp)),
               default=None)


def enumerate_lex_optimum(lp: lp_core.LinearProgram):
    """The lexicographically least optimal point, or None if infeasible.

    A polytope's lexicographically least point is a vertex, so the least
    (objective, values) pair over every feasible basic point is it.
    """
    return min(((_objective(lp, values), values) for values in feasible_basic_points(lp)),
               default=(None, None))[1]


def random_lp(seed: int) -> lp_core.LinearProgram:
    """Small random LP with box bounds; row count shrinks as vars grow."""
    rng = random.Random(seed)
    n = 1 + seed % 8
    m = rng.randint(0, 6 if n <= 4 else 3)
    lp = lp_core.LinearProgram(
        num_vars=n,
        objective=[Fraction(rng.randint(-5, 5)) for _ in range(n)],
        bounds=[(Fraction(0), Fraction(rng.randint(1, 3))) for _ in range(n)],
    )
    for _ in range(m):
        coeffs = {j: Fraction(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.7}
        coeffs = {j: v for j, v in coeffs.items() if v}
        if not coeffs:
            continue
        rel = rng.choice([lp_core.LE, lp_core.GE, lp_core.EQ])
        lp.add_row(coeffs, rel, Fraction(rng.randint(-4, 6)))
    return lp


def schedule_to_fractional(inst: CmilsInstance, sched: OrderSchedule) -> FractionalSolution:
    """Integral (x, y) encoding of a feasible schedule."""
    x = {(s, i): Fraction(qty, inst.demand(i)) for (s, i), qty in sched.assignment.items() if qty}
    y = tuple(Fraction(1) if s in sched.orders else Fraction(0) for s in inst.periods())
    return FractionalSolution(x=x, y=y)


def naive_requirements(sol: FractionalSolution, inst: CmilsInstance) -> dict:
    """Direct double-loop evaluation of the interval requirements."""
    out = {}
    for a, b in all_intervals(inst.T):
        total = Fraction(0)
        for i in inst.items():
            if a < inst.deadline(i) <= b:
                prefix = sum((sol.x_val(s, i) for s in range(1, a + 1)), Fraction(0))
                total += max(1 - Fraction(5, 2) * prefix, Fraction(0)) * inst.demand(i)
        out[(a, b)] = total
    return out


def fraction_residuals(R: dict, C, locked) -> dict:
    """Fraction reference for intervals.residuals: the same formula over
    Fraction prefix sums of the locked capacity."""
    held = [Fraction(0)]
    for s, cap in enumerate(C, start=1):
        held.append(held[-1] + cap if s in locked else held[-1])
    return {(a, b): max(need - (held[b] - held[a]), Fraction(0))
            for (a, b), need in R.items()}


def fraction_integer_row(tab, row: lp_core.Row, size: int) -> tuple[list[int], int]:
    """Fraction reference for lp_core._Tableau._integer_row on tableau tab.

    The constant takes each fixed value and active bound as Fraction
    products; the row is then scaled by the lcm of the denominators.
    """
    coeffs: dict[int, Fraction] = {}
    resid = Fraction(row.rhs)
    for j, v in row.coeffs.items():
        if j in tab.fixed:
            resid -= v * tab.fixed[j]
            continue
        col = tab.col_of_var[j]
        resid -= v * tab.lo[col]
        if tab.comp[col]:
            resid -= v * Fraction(*tab.width[col])
            v = -v
        coeffs[col] = v
    den = math.lcm(resid.denominator, *(v.denominator for v in coeffs.values()))
    ints = [0] * (size + 1)
    for col, v in coeffs.items():
        ints[col] = v.numerator * (den // v.denominator)
    ints[-1] = resid.numerator * (den // resid.denominator)
    return ints, den


def capped_mass_and_count(C, a: int, b: int, need: Fraction, y,
                          skip) -> tuple[Fraction, Fraction]:
    """Fraction reference for ScaledCover.holds on (a, b], skip left out
    (holds itself leaves out the periods at y = 1).

    mass  = sum of min(C_s, need) * y_s: capacity capped at the requirement;
    count = sum of y_s over the periods with C_s >= need.
    """
    mass = Fraction(0)
    count = Fraction(0)
    for s in range(a + 1, b + 1):
        if s in skip:
            continue
        mass += min(C[s - 1], need) * y[s - 1]
        if C[s - 1] >= need:
            count += y[s - 1]
    return mass, count


@st.composite
def rank_table_cases(draw, max_T: int = 24):
    """(C, y, intervals) for ScaledCover's rank tables.

    T is up to max_T; C repeats a few distinct capacities, ints and
    Fractions; y takes 0, 1 (both as ints) and fractions in (0, 1);
    intervals are up to 30 of the (a, b] over [T].
    """
    T = draw(st.integers(1, max_T))
    capacity = st.one_of(st.integers(1, 30),
                         st.builds(Fraction, st.integers(1, 60), st.integers(2, 7)))
    pool = draw(st.lists(capacity, min_size=1, max_size=5))
    C = tuple(draw(st.lists(st.sampled_from(pool), min_size=T, max_size=T)))
    opening = st.one_of(st.sampled_from((0, 1)), st.integers(2, 13).flatmap(
        lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d))))
    y = tuple(draw(st.lists(opening, min_size=T, max_size=T)))
    intervals = draw(st.lists(st.sampled_from(list(all_intervals(T))),
                              min_size=1, max_size=30))
    return C, y, intervals


def coverable(a: int, b: int, view: ScaledCover) -> Fraction:
    """interval_kc.max_coverable's integer pair as a Fraction."""
    return Fraction(*max_coverable(a, b, view))


def grid_scan_coverable(a, b, y, locked, C) -> Fraction:
    """Independent supremum check for max_coverable over a provably complete
    candidate grid: every capacity, plus the roots of the capped-mass slack
    interpolated segment by segment."""
    def mass_ok(W):
        total = sum((min(C[s - 1], W) * y[s - 1] for s in range(a + 1, b + 1)
                     if s not in locked), Fraction(0))
        return total >= 2 * W

    def count_ok(W):
        total = sum((y[s - 1] for s in range(a + 1, b + 1)
                     if s not in locked and C[s - 1] >= W), Fraction(0))
        return total >= 1

    def f(W):
        total = sum((min(C[s - 1], W) * y[s - 1] for s in range(a + 1, b + 1)
                     if s not in locked), Fraction(0))
        return total - 2 * W

    caps = sorted({C[s - 1] for s in range(a + 1, b + 1) if s not in locked})
    candidates = {Fraction(0)} | set(caps)
    points = [Fraction(0)] + caps + [(caps[-1] if caps else Fraction(0)) + 1 +
                                     max(caps, default=Fraction(0))]
    for u, v in zip(points, points[1:]):
        fu, fv = f(u), f(v)
        if fu != fv:
            root = u + fu * (v - u) / (fu - fv)
            if u <= root <= v:
                candidates.add(root)
    if caps:
        fz = f(points[-1])
        candidates.add(points[-1] + fz / 2)
    best = Fraction(0)
    for W in sorted(candidates):
        if W >= 0 and (mass_ok(W) or count_ok(W)):
            best = max(best, W)
    # probe midpoints above the claimed best: none may satisfy either test
    above = sorted(w for w in candidates if w > best)
    for w in above + [best + 1]:
        probe = (best + w) / 2
        assert not (mass_ok(probe) or count_ok(probe))
    return best


def random_laminar_case(seed: int):
    """Laminar instance plus an opening vector y meeting the entry contract.

    Requirements are beyond the periods at y = 1: a member that gets one
    asks for a quarter, a half, three quarters or all of its score.
    """
    rng = random.Random(seed)
    T = rng.randint(3, 10)
    C = tuple(Fraction(rng.randint(1, 10)) for _ in range(T))
    K = tuple(Fraction(rng.randint(0, 9)) for _ in range(T))
    intervals = {(0, T)}

    def split(a, b):
        if b - a >= 2 and rng.random() < 0.8:
            c = rng.randint(a + 1, b - 1)
            intervals.add((a, c))
            intervals.add((c, b))
            split(a, c)
            split(c, b)

    split(0, T)
    y = tuple(rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                          Fraction(3, 4), Fraction(9, 10), Fraction(1)])
              for _ in range(T))
    family = LaminarFamily.from_intervals(T, intervals)
    req: dict = {}
    for iv in family.members:
        room = coverable(iv[0], iv[1], ScaledCover(C, y))
        if room > 0 and rng.random() < 0.9:
            req[iv] = room * Fraction(rng.randint(1, 4), 4)
        else:
            rng.random()  # no requirement; one draw, as for a member with one
    inst = LaminarKcInstance(T=T, C=C, K=K, family=family, R=req)
    return inst, y


def random_interval_kc(seed: int, max_T: int = 10) -> IntervalKcInstance:
    rng = random.Random(seed)
    T = rng.randint(3, max_T)
    C = tuple(Fraction(rng.randint(2, 10)) for _ in range(T))
    K = tuple(Fraction(rng.randint(1, 9)) for _ in range(T))
    R = {}
    for a, b in all_intervals(T):
        if rng.random() < 0.3:
            capsum = sum((C[s - 1] for s in range(a + 1, b + 1)), Fraction(0))
            R[(a, b)] = Fraction(rng.randint(1, int(capsum)))
    return IntervalKcInstance(T=T, C=C, K=K, R=R)


@dataclass(frozen=True)
class IntervalCase:
    ikc: IntervalKcInstance
    y_scaled: tuple[Rat, ...]
    locked: frozenset[int]
    residual: dict


def random_positive_interval_case(seed: int) -> IntervalCase:
    """Interval rounding input with positive residuals, C and K whole
    Fractions.

    Each interval's residual is a random need halved until the
    tenfold-mass-or-count-of-six test admits it, or 0 after a few halvings;
    its requirement adds the locked capacity inside it.
    """
    rng = random.Random(seed)
    T = rng.randint(10, 16)
    C = tuple(Fraction(rng.randint(1, 12)) for _ in range(T))
    K = tuple(Fraction(rng.randint(1, 9)) for _ in range(T))
    y = tuple(rng.choice([Fraction(0), Fraction(1, 2), Fraction(3, 4),
                          Fraction(9, 10), Fraction(9, 10), Fraction(1)])
              for _ in range(T))
    view, locked = ScaledCover(C, y), locked_periods(y)
    R, residual = {}, {}
    for a, b in all_intervals(T):
        need = Fraction(rng.randint(1, 24), rng.choice([1, 2, 3]))
        for _ in range(6):
            if view.holds(a, b, need, mass=10, count=6):
                break
            need /= 2
        else:
            need = Fraction(0)
        residual[(a, b)] = need
        R[(a, b)] = need + cap_within(C, a, b, locked)
    return IntervalCase(IntervalKcInstance(T=T, C=C, K=K, R=R), y, locked, residual)


def transportation_lp(inst: CmilsInstance, orders) -> lp_core.LinearProgram:
    """The placement of all demand into an order set, as an LP over units.

    Every pair s <= r_i gets a column, fixed at 0 unless s is an order
    period, so an item with no usable period makes the LP infeasible.  The
    optimum is the least holding cost of a placement; the LP is integral.
    """
    chosen = set(orders)
    cols = [(s, i) for i in inst.items() for s in range(1, inst.deadline(i) + 1)]
    lp = lp_core.LinearProgram(
        num_vars=len(cols),
        objective=[inst.hold(i, s) for s, i in cols],
        bounds=[(Fraction(0), inst.demand(i) if s in chosen else Fraction(0))
                for s, i in cols],
    )
    for i in inst.items():
        lp.add_row({j: Fraction(1) for j, (_s, k) in enumerate(cols) if k == i},
                   lp_core.EQ, inst.demand(i))
    for s in sorted(chosen):
        row = {j: Fraction(1) for j, (t, _i) in enumerate(cols) if t == s}
        if row:
            lp.add_row(row, lp_core.LE, inst.cap(s))
    return lp


def check_placement(inst: CmilsInstance, orders, units) -> None:
    """Assert a placement's support, deadlines, capacities and demand totals."""
    for (t, i), qty in units.items():
        assert qty > 0 and t in orders and t <= inst.deadline(i), (t, i)
    for t in orders:
        load = sum((q for (s, _i), q in units.items() if s == t), Fraction(0))
        assert load <= inst.cap(t), t
    for i in inst.items():
        got = sum((q for (_s, j), q in units.items() if j == i), Fraction(0))
        assert got == inst.demand(i), i


def hcost_bound_check(inst: CmilsInstance, x, placement) -> bool:
    """Exact check that the placement holds at most 5/2 the cost of x."""
    return hcost(inst, placement) <= SCALE * hcost(inst, x)


def requirements_csv(req: dict, residual: dict) -> str:
    """Debug dump of the requirement table."""
    lines = ["a,b,requirement,residual"]
    for (a, b) in sorted(req):
        lines.append(f"{a},{b},{req[(a, b)]},{residual[(a, b)]}")
    return "\n".join(lines)


def scan_laminar_family(view: ScaledCover) -> LaminarFamily:
    """Reference for interval_kc.construct_laminar_family: each non-unit
    member (a, b] scores every cut c in (a, b), both children, and splits
    at the first cut whose smaller child score is largest.  Scores are
    max_coverable's pairs, memoized, and the members' pairs are kept."""
    scores: dict = {}

    def score(a: int, b: int) -> tuple[int, int]:
        if (a, b) not in scores:
            scores[(a, b)] = max_coverable(a, b, view)
        return scores[(a, b)]

    members: list = []

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

    T = len(view.u)
    build(0, T)
    return LaminarFamily.from_intervals(
        T, members, scores={iv: scores[iv] for iv in members})


def family_links(family: LaminarFamily) -> tuple[dict, dict]:
    """(parent, children): parent[m] is the shortest other member that
    contains m, None for the root, and children[m] the members whose parent
    is m, in the family's order."""
    parent = {m: min((p for p in family.members
                      if p != m and p[0] <= m[0] and m[1] <= p[1]),
                     key=lambda p: p[1] - p[0], default=None)
              for m in family.members}
    children = {m: tuple(k for k in family.members if parent[k] == m)
                for m in family.members}
    return parent, children


def is_binary_with_unit_leaves(family: LaminarFamily) -> bool:
    """Every member is a unit leaf or splits into exactly two adjacent halves."""
    _, children = family_links(family)
    for m in family.members:
        kids = children[m]
        if not kids:
            if m[1] - m[0] != 1:
                return False
        else:
            if len(kids) != 2:
                return False
            (a, b), (la, lb), (ra, rb) = m, kids[0], kids[1]
            if not (la == a and lb == ra and rb == b):
                return False
    return True


def render_tree(family: LaminarFamily) -> str:
    """Indented listing of the family, children under their parent."""
    lines: list[str] = []
    parent, children = family_links(family)

    def walk(iv, depth: int) -> None:
        mark = family.scores.get(iv)
        note = f"  coverable={Fraction(*mark)}" if mark is not None else ""
        lines.append("  " * depth + f"({iv[0]}, {iv[1]}]{note}")
        for kid in children[iv]:
            walk(kid, depth + 1)

    for m in family.members:
        if parent[m] is None:
            walk(m, 0)
    return "\n".join(lines)


def family_dominates_requirements(family: LaminarFamily, residual: dict) -> bool:
    """Every interval with unmet requirement has a nested member whose
    score is at least that requirement."""
    for (a, b), need in residual.items():
        if need <= 0:
            continue
        hit = any(a <= ma and mb <= b and Fraction(*family.scores[(ma, mb)]) >= need
                  for (ma, mb) in family.members)
        if not hit:
            return False
    return True


def _covers(C, selected, requirements: dict) -> bool:
    return all(cap_within(C, a, b, selected) >= need
               for (a, b), need in requirements.items() if need > 0)


def _brute_force_cover(T: int, C, K, requirements: dict,
                       ones: frozenset[int] = frozenset()) -> OracleResult:
    """Cheapest superset of ones whose periods beyond them cover every
    requirement, by enumerating every subset of [T]."""
    if T > KC_CAP:
        raise SizeCapError(f"T={T} exceeds the oracle cap {KC_CAP}")
    best_cost: Optional[Rat] = None
    best_set: frozenset[int] = frozenset()
    explored = 0
    for mask in range(1 << T):
        explored += 1
        selected = frozenset(s for s in range(1, T + 1) if mask >> (s - 1) & 1)
        cost = sum(K[s - 1] for s in selected)
        if best_cost is not None and cost >= best_cost:
            continue
        if ones <= selected and _covers(C, selected - ones, requirements):
            best_cost = cost
            best_set = selected
    if best_cost is None:
        raise ValueError("covering instance is infeasible")
    return OracleResult(optimum_cost=best_cost, witness=best_set, explored=explored)


def brute_force_laminar_kc(inst: LaminarKcInstance, ones: frozenset[int]) -> OracleResult:
    """Cheapest superset of ones, the periods at y = 1, whose periods beyond
    them cover every member requirement, by enumeration."""
    return _brute_force_cover(inst.T, inst.C, inst.K, inst.R, ones)


def brute_force_interval_kc(inst: IntervalKcInstance) -> OracleResult:
    """Cheapest selection covering every interval requirement, by enumeration."""
    return _brute_force_cover(inst.T, inst.C, inst.K, inst.R)


@dataclass
class IntervalKcRun:
    selected: frozenset[int]
    lp_value: Rat
    rounds: int
    y_scaled: tuple[Rat, ...]
    locked: frozenset[int]
    residual: dict


def approx_interval_kc_details(ikc: IntervalKcInstance,
                               max_rounds: int = 200) -> IntervalKcRun:
    """Cutting-plane loop over the naive covering LP, then interval rounding.

    Rows capping each period's usable capacity at the residual requirement
    are added while the current fractional solution violates one; once none
    is violated, the tenfold-scaled solution certifiably feeds the interval
    solver and the result costs at most 10 times the final LP value.  A
    row's test is tenfold capped mass on y_scaled, whose unlocked periods
    are exactly tenfold y.
    """
    T = ikc.T
    lp = lp_core.LinearProgram(
        num_vars=T,
        objective=list(ikc.K),
        bounds=[(0, 1)] * T,
    )
    for (a, b), need in sorted(ikc.R.items()):
        if need > 0:
            lp.add_row({s - 1: ikc.C[s - 1] for s in range(a + 1, b + 1)},
                       lp_core.GE, need)
    seen_cuts: set = set()
    rounds = 0
    while True:
        sol = lp_core.solve_to_vertex(lp)
        if sol.status != lp_core.OPTIMAL:
            raise ValueError(f"covering LP is {sol.status}; instance infeasible?")
        y = sol.values
        y_scaled = scale_y(y)
        locked = locked_periods(y_scaled)
        residual = residuals(ikc.R, ikc.C, locked)
        view = ScaledCover(ikc.C, y_scaled)
        violated = None
        for (a, b), need in sorted(residual.items()):
            if need > 0 and not view.holds(a, b, need, mass=10):
                violated = (a, b, frozenset(locked & set(range(a + 1, b + 1))))
                break
        if violated is None:
            selected = solve_interval_kc(ikc, y_scaled, locked, residual)
            return IntervalKcRun(selected=selected, lp_value=sol.objective_value,
                                 rounds=rounds, y_scaled=y_scaled, locked=locked,
                                 residual=residual)
        rounds += 1
        if rounds > max_rounds:
            raise RoundLimitError(f"no rounding after {max_rounds} cut rounds",
                                  state={"lp_value": sol.objective_value,
                                         "rounds": rounds, "y": y})
        if violated in seen_cuts:
            raise InvariantError("separation returned an already-pooled cut")
        seen_cuts.add(violated)
        a, b, inside = violated
        need = residual[(a, b)]
        lp.add_row({s - 1: min(ikc.C[s - 1], need)
                    for s in range(a + 1, b + 1) if s not in inside},
                   lp_core.GE, need)
