"""Exact-rational linear programming to optimal vertex solutions.

Minimization LPs with sparse rows and finite box bounds are solved by the
simplex method in exact arithmetic, with no phase 1.  Variables fixed by
their bounds are substituted out; the remaining bounds are handled natively
by the classic bounded-variable simplex: each column is measured by its
offset from one of its bounds.  When the offset reaches the column's width
-- a bound flip, or a basic column leaving at its far bound -- the column is
complemented, that is measured from its other bound instead, so every
nonbasic offset is 0.

A cold solve starts from the slack basis (after Bixby).  The structural
columns are set up first, each at a start bound: its upper bound when
raising it only loosens the rows it is in (no EQ row, positive in every GE
row, negative in every LE row), its lower bound otherwise, a crash start.
Every row then enters as a warm start's rows do (below), basic in a new
column: an LE/GE row in its slack, an EQ row in an artificial of width 0.
The artificial is a fixed column, as an equality row's logical is in the
bounded dual simplex (after Koberstein): it never enters, and in a feasible
basis one still basic sits at 0.  A ratio-test step of length 0 takes it
out of its row when an entering column needs that row; a redundant EQ row
simply keeps it basic.  If every row holds at the start (every basic offset
is in range), the primal simplex starts from it.  Otherwise each column with
a negative reduced cost moves to its other, cheaper bound.  Every structural
column is boxed, so that basis is dual feasible, and Lemke's dual simplex
(below) runs from it to a feasible basis or proves that none exists.  From a
feasible basis the primal simplex prices by the most negative reduced cost
(Dantzig's rule); after a run of DEGENERATE_RUN zero-length steps, Bland's
least-index rule takes over until a step moves, so it cannot cycle.

The tableau is fraction-free (after Bareiss elimination and the
integer-preserving simplex of Azulay and Pique): each row is a list of
Python ints over one positive row denominator, divided by its gcd after
every update, and ends in a constant column whose entry over the
denominator is the row's basic offset.  A pivot touches only the rows with
a nonzero in the entering column, at the pivot row's nonzero columns, and
carries the constants along, so basic values need no update of their own.
The ratio test compares integer (numerator, denominator) step pairs by
cross-multiplication.  Rationals (an int, or a Fraction when not whole)
appear only at the API boundary: a row enters the tableau in one integer
pass that reads its coefficients' numerators and denominators (as does the
crash start's sign test), the objective is scaled to integers once, and the
solution is read off as an int where a value is whole and a Fraction
elsewhere.  Every pivot choice is the same exact comparison a rational
tableau would make.  The LP takes exact entries only: check_well_formed
rejects any other number, a float or a Decimal, with ValueError instead
of converting it.

The objective is a row of the tableau too (after Bixby and Koberstein):
its reduced costs are an integer row over a positive denominator, with one
entry per column and no constant.  A cold solve prices it once: the slack
basis costs 0, so it is the objective, negated at complemented columns.
Every pivot, complement and appended row then updates it as it does the
other rows, so a warm re-solve prices nothing.  No pricing reads a
constant, and the objective value is summed from the solution at the end.

The optimum returned is the lexicographically least optimal point (after
the lexicographic rule of Dantzig, Orden and Wolfe): once the objective is
optimal, each structural variable in index order is minimized over the
optimal face left by the ones before it.  That point is unique, so the
vertex returned does not depend on the pivot path: not on the pricing rule,
and not on whether the solve started warm or cold.  It is a basic solution:
the constraints tight at it span the full variable space.

An optimal solution keeps its final tableau, so that rows appended to its
LP afterwards -- the cutting-plane master's per-pair rows and cuts -- are
re-solved warm rather than from scratch.  Only the new rows are checked for
form; the older ones, the bounds and the objective are matched by identity.
Each appended LE/GE row gets a new slack column basic in it and is reduced
by the current basis; the basis stays dual feasible, and a violated row
leaves its slack's offset negative.  The dual simplex, cold or warm,
restores primal feasibility under a dual least-index rule (after Bland):
the leaving row is the one whose basic column has the lowest index among
all offsets below 0 or above their width, and the entering column has the
least ratio of reduced cost to the row's entry, ties to the lowest index.
The primal simplex that follows prices from the reduced-cost row the dual
simplex left, so an optimum reached by the dual simplex passes the same
test as one reached by the primal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import is_
from typing import Mapping, Optional

from .errors import InvariantError
from .instance import Rat, rat

LE = "<="
GE = ">="
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# Zero-length primal steps in a row after which pricing falls back from
# Dantzig's rule to Bland's until a step moves.
DEGENERATE_RUN = 50


@dataclass(frozen=True)
class Row:
    coeffs: Mapping[int, Rat]
    relation: str
    rhs: Rat


@dataclass
class LinearProgram:
    num_vars: int
    objective: list[Rat]
    rows: list[Row] = field(default_factory=list)
    bounds: list[tuple[Rat, Rat]] = field(default_factory=list)

    def add_row(self, coeffs: Mapping[int, Rat], relation: str, rhs: Rat) -> None:
        """Append a row; its values are kept as given, zeros dropped."""
        clean = {j: v for j, v in coeffs.items() if v}
        for j in clean:
            if not (0 <= j < self.num_vars):
                raise ValueError(f"row references unknown variable {j}")
        if relation not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {relation!r}")
        self.rows.append(Row(coeffs=clean, relation=relation, rhs=rhs))

    def check_well_formed(self, since: int = 0) -> None:
        """Raise ValueError if the LP is malformed.

        Every objective entry, bound, row coefficient and rhs must be exact:
        an int or a Fraction.  With since > 0 the objective, the bounds and
        rows[:since] are taken as checked: a warm start has matched them, by
        identity, to ones it checked before.
        """
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        if len(self.bounds) != self.num_vars:
            raise ValueError("bounds length mismatch")
        if not since:
            _check_exact("the objective", self.objective)
            _check_exact("the bounds", [v for bound in self.bounds for v in bound])
            for j, (lo, hi) in enumerate(self.bounds):
                if lo > hi:
                    raise ValueError(f"variable {j}: lo {lo} > hi {hi}")
        for k, row in enumerate(self.rows[since:], start=since):
            _check_exact(f"row {k}", (row.rhs, *row.coeffs.values()))
            for j in row.coeffs:
                if not (0 <= j < self.num_vars):
                    raise ValueError(f"row references unknown variable {j}")


def _check_exact(where: str, values) -> None:
    for value in values:
        if not isinstance(value, (int, Fraction)):
            raise ValueError(f"in {where}: {value!r} is not an int or a Fraction")


@dataclass
class LpSolution:
    """A solve's outcome.

    pivots counts the basis changes the solve made, in the dual and primal
    simplex and the lexicographic stage alike.  tableau is the final tableau
    of an OPTIMAL solve, an opaque handle for `solve_to_vertex`'s start, and
    None otherwise or once it has been used.
    """
    status: str
    values: Optional[list[Rat]]
    objective_value: Optional[Rat]
    pivots: int = field(default=0, compare=False)
    tableau: Optional["_Tableau"] = field(default=None, compare=False, repr=False)


class _Tableau:
    """Bounded-variable simplex working state over integer rows.

    Columns: free structural variables first, then one per row, basic in it
    as the row enters (`append_rows`): a slack for an LE/GE row, an
    artificial of width 0 for an EQ row, banned from entering; every row
    stays, and its artificial may stay basic.  Column k's value is
    lo[k] + z_k, or lo[k] + width[k] - z_k once it is complemented (comp[k]);
    every nonbasic z is 0, so a nonbasic column sits at its lower bound, or at
    its upper bound when complemented.  width[k] is the integer pair
    (numerator, denominator) of hi - lo, or None for a slack, which has no
    upper bound.

    Row i is the integer list tab[i] over the positive integer den[i]; its
    last entry is the row's constant, so the row reads

        den[i] * z_basis[i] + sum_(k nonbasic) tab[i][k] * z_k = tab[i][-1]

    Its basic column holds exactly den[i], and the basic offset is
    tab[i][-1] / den[i].  Every row is divided by the gcd of its entries,
    constant included, and its denominator after each update, so the pair is
    the row's lowest-terms form and never grows past its rational content.

    The ratio test reads its step bounds off these integers: a row whose
    entry a in the entering column is positive lets the entering offset grow
    to tab[i][-1] / a, one with a < 0 to (w * den[i] - tab[i][-1]) / -a,
    where w is its basic column's width, so each bound is an integer pair.

    cbar over cden > 0 is the objective's reduced-cost row: one integer per
    column, 0 at every basic column, and no constant.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.fixed: dict[int, Rat] = {}
        self.col_of_var: dict[int, int] = {}
        self.lo: list[Rat] = []
        self.width: list[Optional[tuple[int, int]]] = []
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo == hi:
                self.fixed[j] = lo
            else:
                w = hi - lo
                self.col_of_var[j] = len(self.lo)
                self.lo.append(lo)
                self.width.append((w.numerator, w.denominator))
        self.ncols = len(self.lo)

        # Crash start (after Bixby): a structural column starts at its upper
        # bound, complemented, when raising it only loosens its rows -- it is
        # in no EQ row, positive in every GE row and negative in every LE row
        # -- and every other column at its lower bound.  A start at the bound
        # that loosens every row leaves fewer rows violated, and none in the
        # rounding LPs, which the primal simplex then solves from here; the
        # optimum returned is unique (see `lex_min`), so only the pivot path
        # changes, never the vertex.
        tightens: set[int] = set()
        for row in lp.rows:
            rel = row.relation
            tightens.update(j for j, v in row.coeffs.items()
                            if rel == EQ or (v.numerator < 0 if rel == GE
                                             else v.numerator > 0))
        self.comp: list[bool] = [j not in tightens for j in self.col_of_var]

        # Each row will be basic in a column of its own, which costs nothing,
        # so the start basis's reduced costs are the objective, negated where
        # a column is complemented (its z runs against its value); the lcm of
        # the denominators leaves the row in lowest terms.
        cost = []
        for j, col in self.col_of_var.items():
            c = lp.objective[j]
            cost.append(-c if self.comp[col] else c)
        self.cden = lcm(*(c.denominator for c in cost))
        self.cbar: list[int] = [c.numerator * (self.cden // c.denominator) for c in cost]

        self.tab: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.in_basis: list[bool] = [False] * self.ncols
        self.art_cols: list[int] = []
        self.banned: set[int] = set()
        self.pivots = 0
        # What a warm start checks the LP against (see `_resume`).
        self.rows_seen: list[Row] = []
        self.bounds_seen = list(lp.bounds)
        self.objective_seen = list(lp.objective)
        self.append_rows(lp.rows)

    def _integer_row(self, row: Row, size: int) -> tuple[list[int], int]:
        """An LP row over the current columns: (integer entries, den).

        Fixed variables and each column's active bound move into the
        constant, and a complemented column's coefficient is negated.  The
        coefficients and the constant are scaled to integers by the lcm of
        their denominators, which leaves the row in lowest terms; the list
        has `size` column entries, all 0 but the row's, then the constant.

        One pass over the nonzeros, on integers and numerators and
        denominators only: the constant is a pair num / cd over a running
        common denominator, reduced once at the end.  No Fraction is built.
        """
        fixed, col_of_var, lo, comp = self.fixed, self.col_of_var, self.lo, self.comp
        num, cd = row.rhs.numerator, row.rhs.denominator
        entries: list[tuple[int, int, int]] = []  # (column, numerator, denominator)
        den = 1  # lcm of the column entries' denominators
        for j, v in row.coeffs.items():
            p, q = v.numerator, v.denominator
            if j in fixed:
                bn, bd = fixed[j].numerator, fixed[j].denominator
            else:
                col = col_of_var[j]
                bn, bd = lo[col].numerator, lo[col].denominator
                if comp[col]:  # measured from its upper bound lo + width
                    wn, wd = self.width[col]
                    bn, bd = bn * wd + wn * bd, bd * wd
                    entries.append((col, -p, q))
                else:
                    entries.append((col, p, q))
                if q != 1:
                    den = lcm(den, q)
            if bn:  # the constant less v * bound
                step = q * bd
                g = gcd(cd, step)
                num = num * (step // g) - p * bn * (cd // g)
                cd *= step // g
        g = gcd(num, cd)
        num, cd = num // g, cd // g
        den = lcm(den, cd)
        ints = [0] * (size + 1)
        for col, p, q in entries:
            ints[col] = p * (den // q)
        ints[-1] = num * (den // cd)
        return ints, den

    def append_rows(self, rows: list[Row]) -> None:
        """Add LP rows, cold or warm, each with a new column basic in it.

        An LE/GE row gets a slack, an EQ row a banned artificial of width 0.
        LE/GE rows go first, so a cold tableau's columns are the
        structurals, the slacks in row order, then the artificials in row
        order: pricing and the ratio test break ties by column index, so
        that order keeps the pivot path.  Each basic column is eliminated
        from a new row by its own row, which is in pivot-row form, and the
        row is signed so that its column is basic at +den; a row the basis
        violates leaves that offset out of range.
        """
        slack = [row for row in rows if row.relation != EQ]
        eq = [row for row in rows if row.relation == EQ]
        k = len(rows)
        first = self.ncols
        self.ncols += k
        self.lo += [0] * k
        self.width += [None] * len(slack) + [(0, 1)] * len(eq)
        self.comp += [False] * k
        self.in_basis += [True] * k
        self.cbar += [0] * k  # a basic column costs nothing
        arts = range(first + len(slack), self.ncols)
        self.art_cols += arts
        self.banned.update(arts)
        zeros = [0] * k
        for r in self.tab:
            r[-1:-1] = zeros
        old = list(enumerate(self.basis))
        for col, row in enumerate(slack + eq, start=first):
            ints, den = self._integer_row(row, self.ncols)
            ints[col] = -den if row.relation == GE else den
            for i, b in old:
                if ints[b]:
                    nz = [(j, v) for j, v in enumerate(self.tab[i]) if v]
                    ints, den = _eliminate(ints, den, self.den[i], b, nz)
            if ints[col] < 0:
                ints = [-v for v in ints]
            self.tab.append(ints)
            self.den.append(den)
            self.basis.append(col)
        self.rows_seen += rows

    # -- simplex machinery ------------------------------------------------

    def _pivot(self, r: int, j: int) -> None:
        """Make column j basic in row r.

        The pivot row takes its pivot entry as denominator, so its entry in
        column j reads exactly 1.  Only the rows with a nonzero in column j
        are updated, each at the pivot row's nonzero columns (see
        `_eliminate`); the constants ride along, which moves every basic
        value by the step.  The cost row cbar is updated the same way,
        without the constant, unless its entry in column j is 0.
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
        if self.cbar[j]:
            # the constant, if nonzero, is the last of nz
            cols = nz[:-1] if prow[-1] else nz
            self.cbar, self.cden = _eliminate(self.cbar, self.cden, piv, j, cols)
        self.in_basis[self.basis[r]] = False
        self.basis[r] = j
        self.in_basis[j] = True
        self.pivots += 1

    def complement(self, j: int, rows: list[int]) -> None:
        """Measure column j from its other bound in the given rows and cbar.

        The rows must be all that have a nonzero in column j: every row with
        one for a nonbasic column, the row it is basic in for a basic one.
        The cost row has no constant, so only its entry j changes sign.
        """
        wn, wd = self.width[j]
        for i in rows:
            self.tab[i], self.den[i] = _complement(self.tab[i], self.den[i], j, wn, wd)
        self.cbar[j] = -self.cbar[j]
        self.comp[j] = not self.comp[j]

    def run(self) -> None:
        """Minimize from the reduced-cost row cbar / cden of the current basis.

        The basis must be primal feasible.  Every pivot and bound flip
        updates cbar, so it ends as the optimum's reduced-cost row.  Every
        structural column is boxed and a slack is a function of them, so no
        step can be unbounded; one that is raises InvariantError.
        """
        tab, den, basis, width = self.tab, self.den, self.basis, self.width
        banned = self.banned
        ncols = self.ncols
        degenerate = 0  # zero-length steps in a row
        guard = 2000 + 200 * (len(tab) + ncols)
        for _ in range(guard):
            # Dantzig: the column whose increase lowers the cost fastest; the
            # row shares one denominator cden > 0, so integers compare, and
            # ties go to the lowest index.  After DEGENERATE_RUN zero-length
            # steps in a row, Bland's lowest-index rule takes over until a
            # step moves, so the loop cannot cycle.  A basic column's reduced
            # cost is exactly 0.
            cbar = self.cbar
            enter, most = -1, 0
            if degenerate < DEGENERATE_RUN:
                for k in range(ncols):
                    c = cbar[k]
                    if c < most and k not in banned:
                        enter, most = k, c
            else:
                for k in range(ncols):
                    if cbar[k] < 0 and k not in banned:
                        enter = k
                        break
            if enter < 0:
                return

            # Ratio test: how far can z_enter grow?  Each bound is a pair
            # (num, dn) with dn > 0, compared by cross-multiplication; dn == 0
            # marks no bound yet.  Ties: a bound flip beats a pivot, otherwise
            # the blocking basic column with the smallest index leaves (Bland).
            w = width[enter]
            best_n, best_d = (0, 0) if w is None else w
            best_row = -1  # -1 means a bound flip of the entering column
            for i, row in enumerate(tab):
                a = row[enter]
                if not a:
                    continue
                if a > 0:
                    # the basic offset falls to 0
                    num, dn = row[-1], a
                else:
                    # the basic offset rises to its width
                    wb = width[basis[i]]
                    if wb is None:
                        continue
                    num, dn = wb[0] * den[i] - row[-1] * wb[1], -a * wb[1]
                if best_d:
                    lhs, rhs = num * best_d, best_n * dn
                    if lhs > rhs or (lhs == rhs and (best_row < 0
                                                     or basis[i] > basis[best_row])):
                        continue
                best_n, best_d, best_row = num, dn, i
            if not best_d:
                raise InvariantError("unbounded simplex step although every column is boxed")

            # a bound flip moves by the column's width, which is positive
            degenerate = degenerate + 1 if best_row >= 0 and not best_n else 0
            if best_row < 0:
                self.complement(enter, [i for i, row in enumerate(tab) if row[enter]])
            else:
                if tab[best_row][enter] < 0:
                    # the leaving column stops at its far bound; being basic,
                    # it has a nonzero in its own row only
                    self.complement(basis[best_row], [best_row])
                self._pivot(best_row, enter)
        raise InvariantError("simplex failed to terminate (cycling guard tripped)")

    def lex_min(self) -> None:
        """Move an optimal basis to the lexicographically least optimal point.

        The optimal face is where every column with a positive reduced cost
        in cbar stays at its bound, so those columns are banned.  Each
        structural variable in index order is then minimized over the face,
        and the columns with a positive reduced cost for that stage are
        banned in turn, until every nonbasic column is.  A stage's entering
        columns have reduced cost 0 for every earlier objective, so no
        earlier reduced-cost row changes and the basis stays optimal (dual
        feasible) for the true one.  A stage therefore runs with its own row
        in place of cbar, and cbar is put back unchanged at the end.

        A unit objective's reduced costs are read off the tableau: for a
        basic column, its row over den with the column's own entry 0 and the
        constant left out, negated unless the column is complemented (then
        its z runs against its value); a nonbasic column at its lower bound
        is already least.  The bans are lifted again at the end, back to the
        artificials.

        Every nonbasic column is banned exactly when len(banned) + len(tab)
        is ncols plus the number of banned basic columns.  Only artificials
        are both: no ban here falls on a basic column, and a banned column
        never enters.  full counts the artificials basic as the stage
        starts; one that a stage pivots out leaves it too high, which only
        delays the stop.
        """
        tab, den, basis, comp, banned = self.tab, self.den, self.basis, self.comp, self.banned
        full = self.ncols + sum(self.in_basis[k] for k in self.art_cols)
        ncols = self.ncols
        true_row = self.cbar, self.cden

        def ban_positive(row: list[int]) -> bool:
            """Ban every column with a positive entry; True once all nonbasic are."""
            banned.update(k for k in range(ncols) if row[k] > 0)
            return len(banned) + len(tab) == full

        done = ban_positive(self.cbar)
        for col in range(len(self.col_of_var)):
            if done:
                break
            if self.in_basis[col]:
                i = basis.index(col)
                sign = 1 if comp[col] else -1
                row, rden = [sign * v for v in tab[i]], den[i]
                del row[-1]
                row[col] = 0
            elif comp[col]:
                row, rden = [0] * ncols, 1
                row[col] = -1
            else:
                banned.add(col)
                done = len(banned) + len(tab) == full
                continue
            self.cbar, self.cden = row, rden
            self.run()
            done = ban_positive(self.cbar)
        self.cbar, self.cden = true_row
        self.banned = set(self.art_cols)

    def out_of_range(self) -> tuple[int, bool]:
        """The first row whose basic offset is out of range, and whether above.

        Of the rows whose basic offset is below 0 or above its width, the
        one whose basic column has the lowest index; (-1, False) if there is
        none.
        """
        tab, den, basis, width = self.tab, self.den, self.basis, self.width
        r, above = -1, False
        for i, row in enumerate(tab):
            b = basis[i]
            if r >= 0 and b > basis[r]:
                continue
            if row[-1] < 0:
                r, above = i, False
            elif (w := width[b]) is not None and row[-1] * w[1] > w[0] * den[i]:
                r, above = i, True
        return r, above

    def in_range(self) -> bool:
        """True iff the basis is primal feasible."""
        return self.out_of_range()[0] < 0

    def cheaper_bounds(self) -> None:
        """Move each column with a negative reduced cost to its other bound.

        On the start basis that is its cheaper bound, and `complement`
        negates the reduced cost: the basis is then dual feasible.
        """
        for k, c in enumerate(self.cbar):
            if c < 0:
                self.complement(k, [i for i, row in enumerate(self.tab) if row[k]])

    def dual(self) -> bool:
        """Dual simplex to a feasible basis; False if the LP has none.

        The basis must be dual feasible: no unbanned column has a negative
        entry in cbar.  Each step takes the out-of-range offset whose basic
        column has the lowest index and pivots that column out at the bound
        it violates; the pivot updates cbar, which the primal simplex then
        goes on from.
        """
        tab, basis, banned = self.tab, self.basis, self.banned
        guard = 2000 + 200 * (len(tab) + self.ncols)
        for _ in range(guard):
            r, above = self.out_of_range()
            if r < 0:
                return True
            if above:
                # Measured from its other bound the basic offset is below 0;
                # negating the row gives its basic entry +den again.  The
                # reduced costs stay: the column's own is 0, and its cost and
                # its row change sign together.
                self.complement(basis[r], [r])
                tab[r] = [-v for v in tab[r]]

            # Entering: the least cbar[k] / -row[k] over row[k] < 0, ties to
            # the lowest k; with none, the row cannot reach its range.
            row, cbar = tab[r], self.cbar
            enter, best_n, best_d = -1, 0, 1
            for k in range(self.ncols):
                a = row[k]
                if a < 0 and k not in banned and (enter < 0 or cbar[k] * best_d < best_n * -a):
                    enter, best_n, best_d = k, cbar[k], -a
            if enter < 0:
                return False
            self._pivot(r, enter)
        raise InvariantError("dual simplex failed to terminate (cycling guard tripped)")

    def solution_values(self) -> list[Rat]:
        """Every variable's value, read off the integer rows: an int where
        it is whole, a Fraction elsewhere."""
        offset = {b: (row[-1], d)
                  for row, d, b in zip(self.tab, self.den, self.basis) if row[-1]}
        out = []
        for j in range(self.lp.num_vars):
            if j in self.fixed:
                v = self.fixed[j]
                out.append(rat(v.numerator, v.denominator))
                continue
            col = self.col_of_var[j]
            zn, zd = offset.get(col, (0, 1))  # the offset z = zn / zd
            if self.comp[col]:
                wn, wd = self.width[col]
                zn, zd = wn * zd - zn * wd, wd * zd
            lo = self.lo[col]
            out.append(rat(lo.numerator * zd + zn * lo.denominator, lo.denominator * zd))
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


def _complement(row: list[int], den: int, j: int, wn: int,
                wd: int) -> tuple[list[int], int]:
    """row/den with z_j replaced by wn/wd - z_j.

    Column j is negated and wn/wd times its entry moves into the constant.
    A fractional width first scales the row by wd; an integer one changes
    the row in place and keeps its gcd.
    """
    a = row[j]
    if wd == 1:
        row[j] = -a
        row[-1] -= a * wn
        return row, den
    row = [v * wd for v in row]
    row[j] = -a * wd
    row[-1] -= a * wn
    return _lowest_terms(row, den * wd)


def solve_to_vertex(lp: LinearProgram, start: Optional[LpSolution] = None) -> LpSolution:
    """Solve to the lexicographically least optimal point, exactly.

    Among the optimal points, the one returned has the least x_0, then the
    least x_1 among those, and so on.  It is unique and a vertex, so the
    same LP gives the same solution whatever the pivot path: cold or warm,
    under Dantzig's pricing or Bland's.

    start, when given, is the OPTIMAL solution that an earlier call returned
    for this same LinearProgram object, and every row added since then must
    be an LE or GE row added by `add_row`.  The solve then goes on from
    start's final tableau: the new rows are appended to it and the dual
    simplex re-optimizes.  That uses the tableau up, and the new solution
    carries it on.  The tableau keeps a row for every LP row: a redundant EQ
    row stays too, its artificial basic at 0.  A start from another LP or
    already used, replaced earlier rows (or bounds, or objective) and an
    appended EQ row raise ValueError.
    """
    if start is None:
        lp.check_well_formed()
        tab = _Tableau(lp)
        # A cold basis that violates a row becomes dual feasible once every
        # column sits at its cheaper bound.  A feasible crash start goes to
        # the primal simplex instead: on the rounding LPs that takes under
        # half the pivots of the dual simplex from the cheaper bounds.
        needs_dual = not tab.in_range()
        if needs_dual:
            tab.cheaper_bounds()
    else:
        # a warm basis is dual feasible already and carries its cbar
        tab = _resume(lp, start)
        needs_dual = True
    if needs_dual and not tab.dual():
        return LpSolution(status=INFEASIBLE, values=None, objective_value=None,
                          pivots=tab.pivots)
    tab.run()
    tab.lex_min()

    values = tab.solution_values()
    obj = sum(c * v for c, v in zip(lp.objective, values) if c and v)
    obj = rat(obj.numerator, obj.denominator)
    return LpSolution(status=OPTIMAL, values=values, objective_value=obj,
                      pivots=tab.pivots, tableau=tab)


def _same(seen: list, now: list) -> bool:
    return len(seen) == len(now) and all(map(is_, seen, now))


def _resume(lp: LinearProgram, start: LpSolution) -> _Tableau:
    """Take start's tableau for lp and append the rows added since."""
    tab = start.tableau
    if tab is None:
        raise ValueError("start has no tableau: it is not optimal or was already used")
    if tab.lp is not lp:
        raise ValueError("start was solved for another LinearProgram")
    seen = len(tab.rows_seen)
    if not (_same(tab.rows_seen, lp.rows[:seen]) and _same(tab.bounds_seen, lp.bounds)
            and _same(tab.objective_seen, lp.objective)):
        raise ValueError("start is stale: the LP's rows, bounds or objective were replaced")
    lp.check_well_formed(seen)
    new = lp.rows[seen:]
    if any(row.relation == EQ for row in new):
        raise ValueError("a warm start takes appended LE and GE rows only")
    start.tableau = None
    tab.pivots = 0
    tab.append_rows(new)
    return tab
