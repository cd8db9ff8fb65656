"""Exact-rational linear programming to optimal vertex solutions.

Minimization LPs with sparse rows and finite box bounds are solved by the
simplex method in exact arithmetic.  Variables fixed by their bounds are
substituted out; the remaining bounds are handled natively by the classic
bounded-variable simplex: each column is measured by its offset from one of
its bounds.  When the offset reaches the column's width -- a bound flip, or
a basic column leaving at its far bound -- the column is complemented, that
is measured from its other bound instead, so every nonbasic offset is 0.

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

The tableau is fraction-free and sparse (after Bareiss elimination, the
integer-preserving simplex of Azulay and Pique, and the row-wise storage of
Koberstein's and Bixby's dual simplex codes): each row keeps only its
nonzero ints, its constant among them, over one positive row denominator,
and is divided by its gcd after every update (see `_Tableau`).  A pivot
touches only the rows with an entry in the entering column, at the pivot
row's keys, and carries the constants along, so basic values need no
update of their own.  Ties go to the lowest column index, written out
rather than read off a row's order, so every pivot choice is the same
exact comparison a dense rational tableau would make.  Rationals (an int,
or a Fraction when not whole) appear only at the API boundary.
check_well_formed rejects any other number, a float or a Decimal, and any
key that is no variable, with ValueError; it reads the new rows' value
types as one set and each row's least and greatest key.  Every row, and the
objective as the start's reduced-cost row, then enters the tableau in one
integer pass over its entries' numerators and denominators, int and
Fraction alike, with gcd work only for a denominator other than 1.  The
solution is read off as an int where a value is whole and a Fraction
elsewhere.

The objective is a row of the tableau too (after Bixby and Koberstein), in
the same form: its entries are the reduced costs, and its constant carries
the objective value.  A cold solve prices it once: the slack basis costs 0,
so it is the objective, negated at complemented columns.  Every pivot,
complement and appended row then updates it as it does the other rows, so
a warm re-solve prices nothing, and the optimum's value is read off it.

The optimum returned is the lexicographically least optimal point (after
the lexicographic rule of Dantzig, Orden and Wolfe): once the objective is
optimal, each structural variable in index order is minimized over the
optimal face left by the ones before it.  That point is unique, so the
vertex returned does not depend on the pivot path: not on the pricing rule,
and not on whether the solve started warm or cold.  It is a basic solution:
the constraints tight at it span the full variable space.

Rows can also be generated inside one solve (row generation, after Dantzig,
Fulkerson and Johnson): a separate callback is shown each optimum and
returns rows it violates, which are appended to the tableau in place and
re-solved warm.  Any optimum serves to find violated rows, so the
lexicographic pass runs only once separate finds none, and separate is
asked once more at the lex-least point if the pass moved.  If that point
violates no row it is the lex-least optimum of every LP between the final
one and the one with all the rows separate could return, so each call
makes one lexicographic pass unless that last question finds rows.

An optimal solution keeps its final tableau, so that rows appended to its
LP afterwards -- the cutting-plane master's cuts -- are re-solved warm
rather than from scratch.  Only the new rows are checked for form; the
older ones, the bounds and the objective are matched by identity.
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
from itertools import chain, starmap
from math import gcd
from operator import gt, is_
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .errors import InvariantError
from .instance import Rat, all_exact, rat

LE = "<="
GE = ">="
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# A row generator for `solve_to_vertex`: an optimum's values to the rows to
# append, as (coeffs, relation, rhs) triples.
Separate = Callable[[list[Rat]], Iterable[tuple[Mapping[int, Rat], str, Rat]]]

# The key of a tableau row's constant; no column has it.
CONST = -1

# Zero-length primal steps in a row after which pricing falls back from
# Dantzig's rule to Bland's until a step moves.
DEGENERATE_RUN = 50


class Row(NamedTuple):
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
        _check_keys(clean, self.num_vars)
        if relation not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {relation!r}")
        self.rows.append(Row(coeffs=clean, relation=relation, rhs=rhs))

    def check_well_formed(self, since: int = 0) -> None:
        """Raise ValueError if the LP is malformed.

        Every objective entry, bound, row coefficient and rhs must be exact:
        an int or a Fraction, and every row key a variable index.  The rows
        are checked exact together, by the set of their values' types, and
        each row's keys by its least and greatest one; only a failure walks
        the rows again, to name the first bad value or key.  With since > 0
        the objective, the bounds and rows[:since] are taken as checked: a
        warm start has matched them, by identity, to ones it checked before.
        """
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        if len(self.bounds) != self.num_vars:
            raise ValueError("bounds length mismatch")
        if not since:
            _check_exact("the objective", self.objective)
            _check_exact("the bounds", list(chain.from_iterable(self.bounds)))
            if any(starmap(gt, self.bounds)):
                j, (lo, hi) = next((j, b) for j, b in enumerate(self.bounds) if gt(*b))
                raise ValueError(f"variable {j}: lo {lo} > hi {hi}")
        rows = self.rows[since:]
        if not all_exact(chain([row.rhs for row in rows],
                               *[row.coeffs.values() for row in rows])):
            for k, row in enumerate(rows, start=since):
                _check_exact(f"row {k}", (row.rhs, *row.coeffs.values()))
        for row in rows:
            _check_keys(row.coeffs, self.num_vars)


def _check_exact(where: str, values) -> None:
    """ValueError naming the first value that is not exact, if any is."""
    if not all_exact(values):
        bad = next(v for v in values if not isinstance(v, (int, Fraction)))
        raise ValueError(f"in {where}: {bad!r} is not an int or a Fraction")


def _check_keys(coeffs: Mapping[int, Rat], n: int) -> None:
    """ValueError naming the first key outside 0 .. n - 1, if any is; the
    least and the greatest key tell whether one is."""
    if coeffs and (min(coeffs) < 0 or max(coeffs) >= n):
        bad = next(j for j in coeffs if not 0 <= j < n)
        raise ValueError(f"row references unknown variable {bad}")


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
    """Bounded-variable simplex working state over sparse integer rows.

    Columns: free structural variables first, then one per row, basic in it
    as the row enters (`append_rows`): a slack for an LE/GE row, an
    artificial of width 0 for an EQ row; every row stays, and its
    artificial may stay basic.  Column k's value is lo[k] + z_k, or
    lo[k] + width[k] - z_k once it is complemented (comp[k]); every
    nonbasic z is 0, so a nonbasic column sits at its lower bound, or at its
    upper bound when complemented.  width[k] is the integer pair
    (numerator, denominator) of hi - lo, or None for a slack, which has no
    upper bound.

    Row i is the dict tab[i] from column to nonzero int, with the row's
    constant under the key CONST, over the positive integer den[i]:

        den[i] * z_basis[i] + sum_(k nonbasic) tab[i][k] * z_k = tab[i][CONST]

    No entry stored is 0, and an absent key reads 0.  The basic column
    holds exactly den[i], and the basic offset is tab[i][CONST] / den[i].
    Every row is divided by the gcd of its entries, constant included, and
    its denominator after each update, so the pair is the row's lowest-terms
    form and never grows past its rational content.

    The ratio test reads its step bounds off these integers: a row whose
    entry a in the entering column is positive lets the entering offset grow
    to tab[i][CONST] / a, one with a < 0 to (w * den[i] - tab[i][CONST]) / -a,
    where w is its basic column's width, so each bound is an integer pair.

    cbar over cden > 0 is the objective's row in the same form, with -cden
    at the objective in place of a basic column:

        -cden * objective + sum_(k nonbasic) cbar[k] * z_k = cbar[CONST]

    so its entries are the reduced costs, none at a basic column, and the
    objective value at the basic point is -cbar[CONST] / cden.  banned holds
    the keys that may not enter the basis: CONST, which is no column, and
    the artificials.
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
            if row.relation == EQ:
                tightens.update(row.coeffs)
            elif row.relation == GE:
                tightens.update([j for j, v in row.coeffs.items() if v < 0])
            else:
                tightens.update([j for j, v in row.coeffs.items() if v > 0])
        self.comp: list[bool] = [j not in tightens for j in self.col_of_var]

        # Each row will be basic in a column of its own, which costs nothing,
        # so the start basis's reduced-cost row is the objective's own row
        # over the columns, rhs 0: negated where a column is complemented
        # (its z runs against its value), with minus the objective at the
        # start point as its constant, in lowest terms.
        self.cbar, self.cden = self._integer_row(Row(dict(enumerate(lp.objective)), EQ, 0))

        self.tab: list[dict[int, int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.in_basis: list[bool] = [False] * self.ncols
        self.art_cols: list[int] = []
        self.banned: set[int] = {CONST}
        self.pivots = 0
        # What a warm start checks the LP against (see `_resume`).
        self.rows_seen: list[Row] = []
        self.bounds_seen = list(lp.bounds)
        self.objective_seen = list(lp.objective)
        self.append_rows(lp.rows)

    def _integer_row(self, row: Row, sign: int = 1) -> tuple[dict[int, int], int]:
        """An LP row, times sign (1 or -1), over the current columns:
        (integer entries, den).

        Fixed variables and each column's active bound move into the
        constant, and a complemented column's coefficient is negated.  The
        coefficients and the constant are scaled to integers by the lcm of
        their denominators, which leaves the row in lowest terms.

        One pass over the entries, int and Fraction alike, on numerators
        and denominators only; a zero entry writes nothing.  Each entry is
        written over den, the lcm of the denominators so far, and the
        constant is a pair num / cd.  Only a denominator other than 1 costs
        gcd work: den then grows, and the entries written so far are scaled
        up to it.  No Fraction is built.
        """
        fixed, col_of_var, lo, comp, width = (self.fixed, self.col_of_var, self.lo,
                                              self.comp, self.width)
        num, cd = row.rhs.numerator, row.rhs.denominator
        ints: dict[int, int] = {}
        den = 1
        for j, v in row.coeffs.items():
            p, q = v.numerator, v.denominator
            col = col_of_var.get(j)
            bound = fixed[j] if col is None else lo[col]
            bn, bd = bound.numerator, bound.denominator
            if col is not None:
                e = sign * p
                if comp[col]:  # measured from its upper bound lo + width
                    wn, wd = width[col]
                    bn, bd = bn * wd + wn * bd, bd * wd
                    e = -e
                if q == 1:
                    if e:
                        ints[col] = e * den
                else:
                    den = _widen(ints, den, q)
                    ints[col] = e * (den // q)
            if bn:  # the constant less v * bound
                step = q * bd
                if step == 1:
                    num -= p * bn * cd
                else:
                    g = gcd(cd, step)
                    num = num * (step // g) - p * bn * (cd // g)
                    cd *= step // g
        if num:
            if cd != 1:
                g = gcd(num, cd)
                num, cd = num // g, cd // g
                den = _widen(ints, den, cd)
            ints[CONST] = sign * num * (den // cd)
        return ints, den

    def append_rows(self, rows: list[Row]) -> None:
        """Add LP rows, cold or warm, each with a new column basic in it.

        An LE/GE row gets a slack, an EQ row a banned artificial of width 0.
        LE/GE rows go first, so a cold tableau's columns are the
        structurals, the slacks in row order, then the artificials in row
        order: pricing and the ratio test break ties by column index, so
        that order keeps the pivot path.  Each basic column is eliminated
        from a new row by its own row, which is in pivot-row form, and the
        row is signed so that its column is basic at +den: a GE row enters
        negated, and an elimination keeps that entry's sign.  A row the basis
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
        arts = range(first + len(slack), self.ncols)
        self.art_cols += arts
        self.banned.update(arts)
        old = list(zip(self.basis, self.tab, self.den))
        for col, row in enumerate(slack + eq, start=first):
            ints, den = self._integer_row(row, -1 if row.relation == GE else 1)
            ints[col] = den
            for b, brow, bden in old:
                if b in ints:
                    ints, den = _eliminate(ints, den, bden, b, brow)
            self.tab.append(ints)
            self.den.append(den)
            self.basis.append(col)
        self.rows_seen += rows

    # -- simplex machinery ------------------------------------------------

    def _pivot(self, r: int, j: int) -> None:
        """Make column j basic in row r.

        The pivot row takes its pivot entry as denominator, so its entry in
        column j reads exactly 1.  Only the rows with an entry in column j,
        cbar among them, are updated, each at the pivot row's keys (see
        `_eliminate`); the constants ride along, which moves every basic
        value and the objective by the step.
        """
        prow, piv = _lowest_terms(self.tab[r], self.tab[r][j])
        self.tab[r] = prow
        self.den[r] = piv
        for i, row in enumerate(self.tab):
            if i != r and j in row:
                self.tab[i], self.den[i] = _eliminate(row, self.den[i], piv, j, prow)
        if j in self.cbar:
            self.cbar, self.cden = _eliminate(self.cbar, self.cden, piv, j, prow)
        self.in_basis[self.basis[r]] = False
        self.basis[r] = j
        self.in_basis[j] = True
        self.pivots += 1

    def complement(self, j: int, rows: list[int]) -> None:
        """Measure column j from its other bound in the given rows and cbar.

        The rows must be all that have an entry in column j: every row with
        one for a nonbasic column, the row it is basic in for a basic one.
        """
        wn, wd = self.width[j]
        for i in rows:
            self.tab[i], self.den[i] = _complement(self.tab[i], self.den[i], j, wn, wd)
        if j in self.cbar:
            self.cbar, self.cden = _complement(self.cbar, self.cden, j, wn, wd)
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
        degenerate = 0  # zero-length steps in a row
        guard = 2000 + 200 * (len(tab) + self.ncols)
        for _ in range(guard):
            # Dantzig: the column whose increase lowers the cost fastest; the
            # row shares one denominator cden > 0, so integers compare, and
            # ties go to the lowest index.  After DEGENERATE_RUN zero-length
            # steps in a row, Bland's lowest-index rule takes over until a
            # step moves, so the loop cannot cycle.
            cbar = self.cbar
            enter, most = -1, 0
            if degenerate < DEGENERATE_RUN:
                for k, c in cbar.items():
                    if (c < most or c == most and k < enter) and k not in banned:
                        enter, most = k, c
            else:
                enter = min((k for k, c in cbar.items() if c < 0 and k not in banned),
                            default=-1)
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
                a = row.get(enter)
                if not a:
                    continue
                if a > 0:
                    # the basic offset falls to 0
                    num, dn = row.get(CONST, 0), a
                else:
                    # the basic offset rises to its width
                    wb = width[basis[i]]
                    if wb is None:
                        continue
                    num, dn = wb[0] * den[i] - row.get(CONST, 0) * wb[1], -a * wb[1]
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
                self.complement(enter, [i for i, row in enumerate(tab) if enter in row])
            else:
                if tab[best_row][enter] < 0:
                    # the leaving column stops at its far bound; being basic,
                    # it has an entry in its own row only
                    self.complement(basis[best_row], [best_row])
                self._pivot(best_row, enter)
        raise InvariantError("simplex failed to terminate (cycling guard tripped)")

    def lex_min(self) -> bool:
        """Move an optimal basis to the lexicographically least optimal point;
        False if no stage ran the simplex, so the point did not move.

        The optimal face is where every column with a positive reduced cost
        in cbar stays at its bound, so those columns are banned.  Each
        structural variable in index order is then minimized over the face,
        and the columns with a positive reduced cost for that stage are
        banned in turn, until every nonbasic column is.  A stage's entering
        columns have reduced cost 0 for every earlier objective, so no
        earlier reduced-cost row changes and the basis stays optimal (dual
        feasible) for the true one.  A stage therefore runs with its own row
        in place of cbar, and cbar is put back unchanged at the end.

        A unit objective's row is read off the tableau: for a basic column,
        its row over den without the column's own entry, and for a nonbasic
        one its own z alone; either is negated unless the column is
        complemented (then its z runs against its value).  A stage whose row
        is negative at no column that may enter, such as a nonbasic column
        at its lower bound, is least already: it runs no simplex and only
        bans the columns where its row is positive.  The bans are lifted
        again at the end, back to CONST and the artificials.

        Every nonbasic column is banned exactly when len(banned) + len(tab)
        is ncols plus the number of banned keys that are no nonbasic column:
        CONST, and the artificials still basic.  No ban here falls on a
        basic column, and a banned column never enters.  full counts the
        artificials basic as the stage starts; one that a stage pivots out
        leaves it too high, which only delays the stop.
        """
        tab, den, basis, comp, banned = self.tab, self.den, self.basis, self.comp, self.banned
        full = self.ncols + 1 + sum(self.in_basis[k] for k in self.art_cols)
        moved = False
        true_row = self.cbar, self.cden

        def ban_positive(row: dict[int, int]) -> bool:
            """Ban every key with a positive entry; True once all nonbasic are."""
            banned.update(k for k, v in row.items() if v > 0)
            return len(banned) + len(tab) == full

        done = ban_positive(self.cbar)
        for col in range(len(self.col_of_var)):
            if done:
                break
            sign = 1 if comp[col] else -1
            if self.in_basis[col]:
                i = basis.index(col)
                row, rden = {k: sign * v for k, v in tab[i].items() if k != col}, den[i]
            else:
                row, rden = {col: -sign}, 1
            if any(v < 0 and k not in banned for k, v in row.items()):
                self.cbar, self.cden = row, rden
                self.run()
                moved = True
                row = self.cbar
            done = ban_positive(row)
        self.cbar, self.cden = true_row
        self.banned = {CONST, *self.art_cols}
        return moved

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
            c = row.get(CONST, 0)
            if c < 0:
                r, above = i, False
            elif (w := width[b]) is not None and c * w[1] > w[0] * den[i]:
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
        for k in [k for k, c in self.cbar.items() if c < 0 and k not in self.banned]:
            self.complement(k, [i for i, row in enumerate(self.tab) if k in row])

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
                # reduced costs stay: the column has none, and its cost and
                # its row change sign together.
                self.complement(basis[r], [r])
                tab[r] = {k: -v for k, v in tab[r].items()}

            # Entering: the least cbar[k] / -row[k] over row[k] < 0, ties to
            # the lowest k; with none, the row cannot reach its range.
            cbar = self.cbar
            enter, best_n, best_d = -1, 0, 1
            for k, a in tab[r].items():
                if a < 0 and k not in banned:
                    c = cbar.get(k, 0)
                    lhs, rhs = c * best_d, best_n * -a
                    if enter < 0 or lhs < rhs or lhs == rhs and k < enter:
                        enter, best_n, best_d = k, c, -a
            if enter < 0:
                return False
            self._pivot(r, enter)
        raise InvariantError("dual simplex failed to terminate (cycling guard tripped)")

    def solution_values(self) -> list[Rat]:
        """Every variable's value, read off the integer rows: an int where
        it is whole, a Fraction elsewhere.

        Every variable starts at a bound, read as it is: a fixed one at its
        value, a column at lo, or at hi once complemented.  Only a basic
        column with a nonzero offset then takes arithmetic.
        """
        bounds, comp, lo = self.lp.bounds, self.comp, self.lo
        out = [b[0] for b in bounds]
        for j, col in self.col_of_var.items():
            if comp[col]:
                out[j] = bounds[j][1]
        out = [v.numerator if v.denominator == 1 else v for v in out]
        var_of_col = list(self.col_of_var)  # free variables in index order
        nfree = len(var_of_col)
        for row, d, col in zip(self.tab, self.den, self.basis):
            zn = row.get(CONST)  # the offset z = zn / d
            if zn and col < nfree:
                zd = d
                if comp[col]:
                    wn, wd = self.width[col]
                    zn, zd = wn * zd - zn * wd, wd * zd
                low = lo[col]
                out[var_of_col[col]] = rat(low.numerator * zd + zn * low.denominator,
                                           low.denominator * zd)
        return out


def _widen(ints: dict[int, int], den: int, q: int) -> int:
    """lcm(den, q), the entries of ints over den scaled up to it in place."""
    f = q // gcd(den, q)
    if f != 1:
        for k in ints:
            ints[k] *= f
    return den * f


def _lowest_terms(row: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Divide an integer row and its nonzero denominator by their gcd,
    negated if den < 0, so that the denominator comes out positive."""
    g = gcd(den, *row.values())
    if den < 0:
        g = -g
    if g == 1:
        return row, den
    return {k: v // g for k, v in row.items()}, den // g


def _eliminate(row: dict[int, int], den: int, piv: int, j: int,
               prow: dict[int, int]) -> tuple[dict[int, int], int]:
    """row/den minus row[j]/den times the pivot row prow/piv, whose entry j
    is 1.

    Over the common denominator den * piv / g, with g = gcd(row[j], piv),
    the row is scaled by piv / g and the pivot row by row[j] / g; when piv
    divides row[j] the row keeps its denominator and is updated in place.
    Only the pivot row's keys change, and an entry that cancels is dropped.
    """
    a = row[j]
    g = gcd(a, piv)
    scale, f = piv // g, a // g
    if scale != 1:
        row = {k: v * scale for k, v in row.items()}
        den *= scale
    for k, v in prow.items():
        x = row.get(k, 0) - f * v
        if x:
            row[k] = x
        else:
            del row[k]
    return _lowest_terms(row, den)


def _complement(row: dict[int, int], den: int, j: int, wn: int,
                wd: int) -> tuple[dict[int, int], int]:
    """row/den with z_j replaced by wn/wd - z_j.

    Entry j is negated and wn/wd times it moves into the constant.  A
    fractional width first scales the row by wd; an integer one changes
    the row in place and keeps its gcd.
    """
    a = row[j]
    if wd != 1:
        row = {k: v * wd for k, v in row.items()}
    row[j] = -a * wd
    c = row.get(CONST, 0) - a * wn
    if c:
        row[CONST] = c
    else:
        row.pop(CONST, None)
    return (row, den) if wd == 1 else _lowest_terms(row, den * wd)


def solve_to_vertex(lp: LinearProgram, start: Optional[LpSolution] = None,
                    separate: Optional[Separate] = None) -> LpSolution:
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

    separate, when given, generates rows (after Dantzig, Fulkerson and
    Johnson).  It is called with each optimum's values and returns the rows
    to append, (coeffs, relation, rhs) triples, or none.  Each one goes
    through `add_row`, is checked as a warm start's rows are, and must be
    violated by the point it was asked at, else ValueError.  The rows are
    appended to the tableau in place and the dual simplex re-optimizes, as
    from a start.  Only once separate returns none does the lexicographic
    pass run, and separate is asked again at the lex-least point if the
    pass moved; if it returns rows there, the loop goes on.  So the
    lexicographic pass runs once per call unless that last question finds
    rows, and the point returned is the lex-least optimum of the final LP,
    which lp now holds: it satisfies every row separate can return, so it
    is also the least of the LP with all of them.  pivots counts every
    re-solve of the call.
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
    while True:
        if needs_dual and not tab.dual():
            return LpSolution(status=INFEASIBLE, values=None, objective_value=None,
                              pivots=tab.pivots)
        tab.run()
        needs_dual = True  # the loop comes back only after appended rows
        if separate:
            values = tab.solution_values()
            if _separated(lp, tab, separate(values)):
                continue
        # a pass that ran no simplex left the point that separate has seen
        if tab.lex_min() or not separate:
            values = tab.solution_values()
            if separate and _separated(lp, tab, separate(values)):
                continue
        break

    return LpSolution(status=OPTIMAL, values=values,
                      objective_value=rat(-tab.cbar.get(CONST, 0), tab.cden),
                      pivots=tab.pivots, tableau=tab)


def _separated(lp: LinearProgram, tab: _Tableau, rows) -> bool:
    """Add separate's rows to lp and append them to tab; False if none.

    A row that the tableau's point satisfies raises ValueError: asked at
    the same point again, separate could return it forever.
    """
    since = len(lp.rows)
    for coeffs, relation, rhs in rows:
        lp.add_row(coeffs, relation, rhs)
    if len(lp.rows) == since:
        return False
    _append_new(lp, tab, since)
    if tab.in_range():
        raise ValueError("separate returned only rows that the point satisfies")
    return True


def _append_new(lp: LinearProgram, tab: _Tableau, since: int) -> None:
    """Check lp.rows[since:], LE and GE rows only, and append them to tab."""
    lp.check_well_formed(since)
    new = lp.rows[since:]
    if any(row.relation == EQ for row in new):
        raise ValueError("a warm start takes appended LE and GE rows only")
    tab.append_rows(new)


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
    _append_new(lp, tab, seen)
    start.tableau = None
    tab.pivots = 0
    return tab
