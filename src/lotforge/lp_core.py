"""Exact-rational linear programming to optimal vertex solutions.

Minimization LPs with sparse rows and finite box bounds are solved by a
two-phase primal simplex in exact arithmetic.  Bland's least-index rule
governs both the entering and the leaving choice, so the solver cannot
cycle and is fully deterministic.  Variables fixed by their bounds are
substituted out; the remaining bounds are handled natively (nonbasic
variables rest at a bound), which keeps the tableau small.

The tableau is fraction-free (after Bareiss elimination and the
integer-preserving simplex of Azulay and Pique): each row is a list of
Python ints over one positive row denominator, divided by its gcd after
every update, and a pivot touches only the rows with a nonzero in the
entering column, at the pivot row's nonzero columns.  `Fraction` appears
only at the API boundary -- the LP's data in, the solution out -- and in
the column values and step lengths that the ratio test compares, so every
pivot choice is the same exact comparison a rational tableau would make.

The optimum returned is always a basic solution: the constraints tight at
it span the full variable space, which `verify_vertex` re-checks from
scratch by exact Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .errors import InvariantError

LE = "<="
GE = ">="
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Row:
    coeffs: Mapping[int, Fraction]
    relation: str
    rhs: Fraction


@dataclass
class LinearProgram:
    num_vars: int
    objective: list[Fraction]
    rows: list[Row] = field(default_factory=list)
    bounds: list[tuple[Fraction, Fraction]] = field(default_factory=list)

    def add_row(self, coeffs: Mapping[int, Fraction], relation: str, rhs) -> None:
        clean = {j: Fraction(v) for j, v in coeffs.items() if v}
        for j in clean:
            if not (0 <= j < self.num_vars):
                raise ValueError(f"row references unknown variable {j}")
        if relation not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {relation!r}")
        self.rows.append(Row(coeffs=clean, relation=relation, rhs=Fraction(rhs)))

    def check_well_formed(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        if len(self.bounds) != self.num_vars:
            raise ValueError("bounds length mismatch")
        for j, (lo, hi) in enumerate(self.bounds):
            if lo > hi:
                raise ValueError(f"variable {j}: lo {lo} > hi {hi}")
        for row in self.rows:
            for j in row.coeffs:
                if not (0 <= j < self.num_vars):
                    raise ValueError(f"row references unknown variable {j}")


@dataclass
class LpSolution:
    status: str
    values: Optional[list[Fraction]]
    objective_value: Optional[Fraction]
    tight_rows: frozenset[int] = frozenset()
    at_bound: frozenset[int] = frozenset()


class _Tableau:
    """Bounded-variable simplex working state over integer rows.

    Columns: free structural variables first, then one slack per non-equality
    row, then phase-1 artificials.  Row i is the integer list `tab[i]` over
    the positive integer `den[i]`: its entry in column k is tab[i][k] / den[i],
    and its basic column holds exactly den[i].  Every row is divided by the
    gcd of its entries and its denominator after each update, so the pair is
    the row's lowest-terms form and never grows past its rational content.
    `val` holds the current value of every column as a Fraction; nonbasic
    columns always sit at a bound.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.num_vars
        self.fixed: dict[int, Fraction] = {}
        self.col_of_var: dict[int, int] = {}
        self.lo: list[Fraction] = []
        self.hi: list[Optional[Fraction]] = []
        for j in range(n):
            lo, hi = lp.bounds[j]
            if lo == hi:
                self.fixed[j] = lo
            else:
                self.col_of_var[j] = len(self.lo)
                self.lo.append(lo)
                self.hi.append(hi)
        n_struct = len(self.lo)
        n_slack = sum(1 for row in lp.rows if row.relation != EQ)
        self.ncols = n_struct + n_slack
        self.lo += [_ZERO] * n_slack
        self.hi += [None] * n_slack
        # Start every column at its lower bound; slacks start at 0.
        self.val: list[Fraction] = list(self.lo)

        # Rows: fixed variables move to the rhs, coefficients are scaled to
        # integers by the lcm of their denominators (which leaves the row in
        # lowest terms), and each row is signed so that its initial basic
        # column -- its slack when the slack's value comes out >= 0,
        # otherwise a new artificial -- has coefficient +den.
        self.tab: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.art_cols: list[int] = []
        art_rows: list[int] = []
        scol = n_struct
        for i, row in enumerate(lp.rows):
            coeffs: dict[int, Fraction] = {}
            resid = Fraction(row.rhs)
            for j, v in row.coeffs.items():
                if j in self.fixed:
                    resid -= v * self.fixed[j]
                else:
                    col = self.col_of_var[j]
                    coeffs[col] = v
                    resid -= v * self.lo[col]
            den = lcm(*(v.denominator for v in coeffs.values()))
            ints = [0] * self.ncols
            for col, v in coeffs.items():
                ints[col] = v.numerator * (den // v.denominator)
            rel = row.relation
            if rel != EQ:
                ints[scol] = den if rel == LE else -den
            if (rel == LE and resid >= 0) or (rel == GE and resid <= 0):
                sign, basic = (1 if rel == LE else -1), scol
            else:
                sign, basic = (-1 if resid < 0 else 1), -1
                art_rows.append(i)
            if rel != EQ:
                scol += 1
            if sign < 0:
                ints = [-v for v in ints]
                resid = -resid
            self.tab.append(ints)
            self.den.append(den)
            self.basis.append(basic)
            if basic >= 0:
                self.val[basic] = resid
            else:
                self.val.append(resid)
        n_art = len(art_rows)
        for row in self.tab:
            row.extend([0] * n_art)
        for i in art_rows:
            acol = self.ncols
            self.tab[i][acol] = self.den[i]
            self.basis[i] = acol
            self.art_cols.append(acol)
            self.ncols += 1
        self.lo += [_ZERO] * n_art
        self.hi += [None] * n_art
        self.in_basis: list[bool] = [False] * self.ncols
        for b in self.basis:
            self.in_basis[b] = True
        self.banned: set[int] = set()

    # -- simplex machinery ------------------------------------------------

    def reduced_costs(self, cost: list[Fraction]) -> tuple[list[int], int]:
        """Integer row and positive denominator of cost - c_B B^-1 A."""
        cden = lcm(*(c.denominator for c in cost))
        cbar = [c.numerator * (cden // c.denominator) for c in cost]
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                # cbar/cden - cb * tab[i]/den[i], over the lcm of the denominators
                q = cb.denominator * self.den[i]
                g = gcd(cden, q)
                sx, sy = q // g, cb.numerator * (cden // g)
                cbar = [x * sx - y * sy for x, y in zip(cbar, self.tab[i])]
                cden *= sx
        return _lowest_terms(cbar, cden)

    def _pivot(self, r: int, j: int) -> list[tuple[int, int]]:
        """Make column j basic in row r; returns the pivot row's nonzeros.

        The pivot row takes its pivot entry as denominator, so its entry in
        column j reads exactly 1.  Only the rows with a nonzero in column j
        are updated, each at the pivot row's nonzero columns (see
        `_eliminate`).
        """
        prow = self.tab[r]
        piv = prow[j]
        if piv < 0:
            prow = [-v for v in prow]
            piv = -piv
        prow, piv = _lowest_terms(prow, piv)
        self.tab[r] = prow
        self.den[r] = piv
        nz = [(k, v) for k, v in enumerate(prow) if v]
        for i, row in enumerate(self.tab):
            if i != r and row[j]:
                self.tab[i], self.den[i] = _eliminate(row, self.den[i], piv, j, nz)
        self.in_basis[self.basis[r]] = False
        self.basis[r] = j
        self.in_basis[j] = True
        return nz

    def run(self, cost: list[Fraction]) -> str:
        """Minimize cost over the current basis; returns OPTIMAL or UNBOUNDED."""
        cbar, cden = self.reduced_costs(cost)
        tab, den, basis = self.tab, self.den, self.basis
        val, lo, hi = self.val, self.lo, self.hi
        guard = 2000 + 200 * (len(tab) + self.ncols)
        for _ in range(guard):
            # Bland: the lowest-index column whose move improves the cost
            # (only the sign of a reduced cost matters, and cden > 0).
            enter = -1
            direction = 0
            for j in range(self.ncols):
                if self.in_basis[j] or j in self.banned:
                    continue
                if cbar[j] < 0 and val[j] == lo[j]:
                    enter, direction = j, 1
                    break
                if cbar[j] > 0 and hi[j] is not None and val[j] == hi[j]:
                    enter, direction = j, -1
                    break
            if enter < 0:
                return OPTIMAL

            # Ratio test: how far can the entering column move?  The step
            # bound of row i is an exact Fraction, the same value the
            # rational tableau entry coef / den[i] gives.
            hi_e = hi[enter]
            best_t: Optional[Fraction] = None if hi_e is None else hi_e - lo[enter]
            best_row = -1  # -1 means a bound flip of the entering column
            for i, row in enumerate(tab):
                coef = direction * row[enter]
                if not coef:
                    continue
                b = basis[i]
                if coef > 0:
                    t = (val[b] - lo[b]) * den[i] / coef
                elif hi[b] is not None:
                    t = (hi[b] - val[b]) * den[i] / -coef
                else:
                    continue
                # ties: a bound flip beats a pivot, otherwise the blocking
                # basic variable with the smallest index leaves (Bland)
                if best_t is None or t < best_t or (t == best_t and best_row >= 0
                                                    and b < basis[best_row]):
                    best_t = t
                    best_row = i
            if best_t is None:
                return UNBOUNDED

            t = best_t
            if t:
                step = direction * t
                val[enter] += step
                for i, row in enumerate(tab):
                    c = row[enter]
                    if c:
                        val[basis[i]] -= step * c / den[i]
            if best_row >= 0:
                leaving = basis[best_row]
                coef = direction * tab[best_row][enter]
                val[leaving] = lo[leaving] if coef > 0 else hi[leaving]
                nz = self._pivot(best_row, enter)
                if cbar[enter]:
                    cbar, cden = _eliminate(cbar, cden, den[best_row], enter, nz)
        raise InvariantError("simplex failed to terminate (cycling guard tripped)")

    def drop_artificials(self) -> None:
        """Pivot zero-valued artificials out of the basis; delete dead rows."""
        arts = set(self.art_cols)
        for i in range(len(self.tab) - 1, -1, -1):
            b = self.basis[i]
            if b not in arts:
                continue
            if self.val[b] != 0:
                raise InvariantError("artificial variable basic at nonzero value")
            row = self.tab[i]
            target = next((j for j in range(self.ncols)
                           if row[j] and j not in arts and not self.in_basis[j]), -1)
            if target >= 0:
                self._pivot(i, target)
            else:
                # Row only touches artificials: redundant.
                self.in_basis[b] = False
                del self.tab[i]
                del self.den[i]
                del self.basis[i]
        self.banned |= arts

    def solution_values(self) -> list[Fraction]:
        out = []
        for j in range(self.lp.num_vars):
            if j in self.fixed:
                out.append(self.fixed[j])
            else:
                out.append(self.val[self.col_of_var[j]])
        return out


def _lowest_terms(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide an integer row and its positive denominator by their gcd."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _eliminate(row: list[int], den: int, piv: int, j: int,
               nz: list[tuple[int, int]]) -> tuple[list[int], int]:
    """row/den minus row[j]/den times the pivot row, whose entry j is 1.

    The pivot row is nz (its nonzero (column, integer) pairs) over piv.
    Over the common denominator den * piv / g, with g = gcd(row[j], piv),
    the row is scaled by piv / g and the pivot row by row[j] / g; when piv
    divides row[j] the row keeps its denominator and is updated in place.
    """
    a = row[j]
    g = gcd(a, piv)
    scale, f = piv // g, a // g
    if scale != 1:
        row = [v * scale for v in row]
        den *= scale
    for k, v in nz:
        row[k] -= f * v
    return _lowest_terms(row, den)


def _eval_row(row: Row, values: Sequence[Fraction]) -> Fraction:
    return sum((v * values[j] for j, v in row.coeffs.items()), _ZERO)


def solve_to_vertex(lp: LinearProgram) -> LpSolution:
    """Solve to an optimal basic (vertex) solution, exactly.

    Same LP in, same solution out: the pivot rule has no randomness.
    """
    lp.check_well_formed()
    tab = _Tableau(lp)

    if tab.art_cols:
        phase1 = [_ZERO] * tab.ncols
        for a in tab.art_cols:
            phase1[a] = _ONE
        status = tab.run(phase1)
        if status != OPTIMAL:
            raise InvariantError("phase-1 objective cannot be unbounded")
        if sum((tab.val[a] for a in tab.art_cols), _ZERO) != 0:
            return LpSolution(status=INFEASIBLE, values=None, objective_value=None)
        tab.drop_artificials()

    cost = [_ZERO] * tab.ncols
    for j, col in tab.col_of_var.items():
        cost[col] = Fraction(lp.objective[j])
    status = tab.run(cost)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, values=None, objective_value=None)

    values = tab.solution_values()
    obj = sum((lp.objective[j] * values[j] for j in range(lp.num_vars)), _ZERO)
    tight = frozenset(
        idx for idx, row in enumerate(lp.rows) if _eval_row(row, values) == row.rhs
    )
    at_bound = frozenset(
        j for j in range(lp.num_vars)
        if values[j] == lp.bounds[j][0] or values[j] == lp.bounds[j][1]
    )
    return LpSolution(status=OPTIMAL, values=values, objective_value=obj,
                      tight_rows=tight, at_bound=at_bound)


def _rank(matrix: list[list[Fraction]], width: int) -> int:
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
        inv = 1 / prow[col]
        rows[rank] = prow = [v * inv for v in prow]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == width:
            break
    return rank


def is_feasible(lp: LinearProgram, values: Sequence[Fraction]) -> bool:
    """Exact feasibility check of a point against rows and bounds."""
    for j in range(lp.num_vars):
        lo, hi = lp.bounds[j]
        if not (lo <= values[j] <= hi):
            return False
    for row in lp.rows:
        lhs = _eval_row(row, values)
        if row.relation == LE and lhs > row.rhs:
            return False
        if row.relation == GE and lhs < row.rhs:
            return False
        if row.relation == EQ and lhs != row.rhs:
            return False
    return True


def verify_vertex(lp: LinearProgram, sol: LpSolution) -> bool:
    """True iff sol is feasible and its tight constraints span the space."""
    if sol.status != OPTIMAL or sol.values is None:
        return False
    values = sol.values
    if len(values) != lp.num_vars or not is_feasible(lp, values):
        return False
    tight: list[list[Fraction]] = []
    for row in lp.rows:
        if _eval_row(row, values) == row.rhs:
            dense = [_ZERO] * lp.num_vars
            for j, v in row.coeffs.items():
                dense[j] = v
            tight.append(dense)
    for j in range(lp.num_vars):
        lo, hi = lp.bounds[j]
        if values[j] == lo or values[j] == hi:
            unit = [_ZERO] * lp.num_vars
            unit[j] = _ONE
            tight.append(unit)
    return _rank(tight, lp.num_vars) == lp.num_vars
