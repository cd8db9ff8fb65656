import contextlib
import hashlib
import json
import os
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (dump_lp, enumerate_lex_optimum, enumerate_optimum,
                     fraction_integer_row, full_master_lp, random_laminar_case,
                     random_lp, tight_sets, verify_vertex)
from lotforge import cmils_master, instance, laminar_kc, lp_core
from lotforge.intervals import ScaledCover
from lotforge.lp_core import (CONST, EQ, GE, INFEASIBLE, LE, OPTIMAL, LinearProgram,
                              LpSolution, solve_to_vertex)

F = Fraction
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_vertices.json")


def box_lp(n, objective, bounds=None):
    return LinearProgram(num_vars=n,
                         objective=[F(c) for c in objective],
                         bounds=bounds or [(F(0), F(1))] * n)


def test_min_x_with_floor():
    lp = box_lp(1, [1], bounds=[(F(0), F(2))])
    lp.add_row({0: F(1)}, GE, 1)
    sol = solve_to_vertex(lp)
    assert sol.status == OPTIMAL
    assert sol.values == [F(1)]
    assert sol.objective_value == 1


def test_zero_objective_ends_at_a_corner():
    lp = box_lp(1, [0])
    sol = solve_to_vertex(lp)
    assert sol.values[0] in (F(0), F(1))
    assert verify_vertex(lp, sol)


def test_infeasible_detected():
    lp = box_lp(1, [1])
    lp.add_row({0: F(1)}, GE, 2)
    assert solve_to_vertex(lp).status == INFEASIBLE


def test_equality_pins_interior_point():
    lp = box_lp(2, [0, 0])
    lp.add_row({0: F(1), 1: F(1)}, EQ, 1)
    lp.add_row({0: F(1), 1: F(-1)}, EQ, F(1, 3))
    sol = solve_to_vertex(lp)
    assert sol.values == [F(2, 3), F(1, 3)]
    assert verify_vertex(lp, sol)


def test_redundant_rows_are_harmless():
    lp = box_lp(2, [1, 1])
    for _ in range(3):
        lp.add_row({0: F(1), 1: F(1)}, GE, 1)
        lp.add_row({0: F(2), 1: F(2)}, GE, 2)
    sol = solve_to_vertex(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == 1
    assert verify_vertex(lp, sol)


def test_fixed_variables_substituted():
    lp = box_lp(3, [1, 1, 1], bounds=[(F(1), F(1)), (F(0), F(1)), (F(1, 2), F(1, 2))])
    lp.add_row({0: F(1), 1: F(1), 2: F(2)}, GE, F(5, 2))
    sol = solve_to_vertex(lp)
    assert sol.status == OPTIMAL
    assert sol.values[0] == 1 and sol.values[2] == F(1, 2)
    assert sol.values[1] == F(1, 2)
    assert verify_vertex(lp, sol)


def test_determinism():
    for seed in range(30):
        lp1, lp2 = random_lp(seed), random_lp(seed)
        s1, s2 = solve_to_vertex(lp1), solve_to_vertex(lp2)
        assert s1.status == s2.status
        assert s1.values == s2.values
        assert s1.objective_value == s2.objective_value


def test_4var_lp_matches_enumeration():
    lp = box_lp(4, [3, -2, 1, -1], bounds=[(F(0), F(2))] * 4)
    lp.add_row({0: F(1), 1: F(2), 2: F(1)}, LE, 3)
    lp.add_row({1: F(1), 3: F(1)}, GE, 1)
    lp.add_row({0: F(1), 2: F(-1), 3: F(2)}, EQ, 1)
    sol = solve_to_vertex(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == enumerate_optimum(lp)
    assert verify_vertex(lp, sol)


def test_random_lps_match_enumeration_and_verify():
    for seed in range(120):
        lp = random_lp(seed)
        sol = solve_to_vertex(lp)
        best = enumerate_optimum(lp)
        if best is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective_value == best
            assert verify_vertex(lp, sol)


def test_verify_vertex_rejects_midpoint():
    lp = box_lp(2, [0, 0])
    lp.add_row({0: F(1), 1: F(1)}, EQ, 1)
    mid = LpSolution(status=OPTIMAL, values=[F(1, 2), F(1, 2)],
                     objective_value=F(0))
    assert not verify_vertex(lp, mid)


def test_verify_vertex_rejects_off_polytope_point():
    lp = box_lp(1, [1])
    lp.add_row({0: F(1)}, GE, 1)
    sol = solve_to_vertex(lp)
    nudged = LpSolution(status=OPTIMAL, values=[sol.values[0] - F(1, 7)],
                        objective_value=sol.objective_value)
    assert not verify_vertex(lp, nudged)


def test_tight_rows_and_bounds_reported():
    lp = box_lp(2, [1, 0])
    lp.add_row({0: F(1), 1: F(1)}, GE, 1)
    sol = solve_to_vertex(lp)
    assert sol.status == OPTIMAL
    tight_rows, at_bound = tight_sets(lp, sol.values)
    assert tight_rows == {0}
    assert at_bound == {0, 1}
    assert sol.values == [F(0), F(1)]


def test_well_formed_rejects_bad_rows():
    lp = box_lp(1, [1])
    with pytest.raises(ValueError):
        lp.add_row({3: F(1)}, GE, 0)
    lp.bounds[0] = (F(2), F(1))
    with pytest.raises(ValueError):
        solve_to_vertex(lp)
    # a warm start checks the rows appended since its solve
    lp = warm_start_lp()
    sol = solve_to_vertex(lp)
    lp.rows.append(lp_core.Row(coeffs={5: F(1)}, relation=GE, rhs=F(0)))
    with pytest.raises(ValueError, match="unknown variable 5"):
        solve_to_vertex(lp, start=sol)
    # just past the last variable, and -1, which is also the key of a
    # tableau row's constant (CONST): refused cold, warm and from separate
    for key in (2, CONST):
        message = f"^row references unknown variable {key}$"
        lp = warm_start_lp()
        lp.rows.append(lp_core.Row(coeffs={0: F(1), key: F(1)}, relation=GE, rhs=F(1)))
        with pytest.raises(ValueError, match=message):
            solve_to_vertex(lp)
        lp = warm_start_lp()
        sol = solve_to_vertex(lp)
        lp.rows.append(lp_core.Row(coeffs={key: F(1), 1: F(1)}, relation=LE, rhs=F(0)))
        with pytest.raises(ValueError, match=message):
            solve_to_vertex(lp, start=sol)
        lp = warm_start_lp()
        with pytest.raises(ValueError, match=message):
            solve_to_vertex(lp, separate=lambda values: [({key: F(1)}, GE, 1)])


def test_add_row_keeps_fractions_and_solve_rejects_other_numbers():
    lp = box_lp(3, [1, 1, 1])
    half, rhs, big = F(1, 2), F(3, 2), 10 ** 30
    lp.add_row({0: half, 1: big, 2: 0}, GE, rhs)
    row = lp.rows[-1]
    assert row.coeffs[0] is half and row.coeffs[1] is big and row.rhs is rhs
    assert row.coeffs == {0: half, 1: big}
    lp.add_row({0: F(1)}, LE, big)
    assert lp.rows[-1].rhs is big
    lp.add_row({0: 0.5, 1: Decimal("1.25")}, LE, 2.5)
    assert lp.rows[-1] == lp_core.Row({0: 0.5, 1: Decimal("1.25")}, LE, 2.5)
    for coeffs, rhs, bad in (({0: 0.5, 1: Decimal("1.25")}, 2.5, "2.5"),
                             ({0: 0.5, 1: F(5, 4)}, F(5, 2), "0.5"),
                             ({0: F(1, 2), 1: Decimal("1.25")}, F(5, 2), "Decimal('1.25')")):
        lp.rows[-1] = lp_core.Row(coeffs=coeffs, relation=LE, rhs=rhs)
        with pytest.raises(ValueError, match=re.escape(f"in row 2: {bad} is not")):
            solve_to_vertex(lp)


INEXACT = [pytest.param(0.5, id="float"), pytest.param(Decimal("0.5"), id="decimal")]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("value", INEXACT)
@pytest.mark.parametrize("place", ["objective", "bound", "coefficient", "rhs"])
def test_solve_takes_exact_entries_only(place, value, warm):
    """A float or a Decimal anywhere in the LP is refused, never converted.

    A warm start checks the rows appended since its solve; an objective entry
    or a bound replaced since then makes the start stale.
    """
    lp = warm_start_lp()
    start = solve_to_vertex(lp) if warm else None
    message = re.escape(f"{value!r} is not an int or a Fraction")
    if place == "objective":
        lp.objective[1] = value
    elif place == "bound":
        lp.bounds[1] = (F(0), value)
    elif place == "coefficient":
        lp.add_row({0: value}, LE, 1)
    else:
        lp.add_row({0: F(1)}, LE, value)
    if warm and place in ("objective", "bound"):
        message = "stale"
    with pytest.raises(ValueError, match=message):
        solve_to_vertex(lp, start=start)


def test_dump_lp_mentions_rows():
    lp = box_lp(1, [1])
    lp.add_row({0: F(1)}, GE, 1)
    text = dump_lp(lp)
    assert ">= 1" in text and "x0 in [0, 1]" in text


# -- tableau invariant -----------------------------------------------------------

@contextlib.contextmanager
def recording_tableaus(dual_start=False):
    """Collect every _Tableau that solve_to_vertex builds, with its events.

    An event is ("flip", wd) when a nonbasic column is complemented (a bound
    flip or, before a cold dual simplex, a move to the cheaper bound),
    ("leave", wd) when a basic one is (it leaves at its upper bound) and
    ("above", wd) when the dual simplex complements a basic column that
    stands above its width; wd is the denominator of the column's width.
    after_dual and before_lex are (pivots, events) as the dual simplex ends
    (None if it never runs) and as the lexicographic stage starts.  With
    dual_start, a cold solve takes the dual start even where the crash start
    is feasible.

    The carried reduced-cost row is checked against a fresh pricing as the
    dual simplex ends, as the primal one ends and after the lexicographic
    stage.
    """
    made = []

    class Recording(lp_core._Tableau):
        def __init__(self, lp):
            super().__init__(lp)
            self.events = []
            self.in_dual = False
            self.in_lex = False
            self.after_dual = None
            made.append(self)

        def in_range(self):
            return not dual_start and super().in_range()

        def complement(self, j, rows):
            kind = "above" if self.in_dual else "leave" if self.in_basis[j] else "flip"
            self.events.append((kind, self.width[j][1]))
            super().complement(j, rows)

        def dual(self):
            self.in_dual = True
            try:
                return super().dual()
            finally:
                self.in_dual = False
                self.after_dual = (self.pivots, len(self.events))
                check_carried_costs(self)

        def run(self):
            super().run()
            if not self.in_lex:
                check_carried_costs(self)

        def lex_min(self):
            self.before_lex = (self.pivots, len(self.events))
            self.in_lex = True
            try:
                super().lex_min()
            finally:
                self.in_lex = False
            check_carried_costs(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_core, "_Tableau", Recording)
        yield made


def column_values(tab, lp, values):
    """Value of every tableau column at an optimal solution's variable values."""
    x = [F(0)] * tab.ncols
    for j, col in tab.col_of_var.items():
        x[col] = values[j]
    # Slacks of the first solve's rows precede its artificials, and the
    # slacks of rows appended for a warm start follow them.
    arts = set(tab.art_cols)
    slack_cols = [k for k in range(len(tab.col_of_var), tab.ncols) if k not in arts]
    slack_rows = [row for row in lp.rows if row.relation != EQ]
    assert len(slack_cols) == len(slack_rows)
    for col, row in zip(slack_cols, slack_rows):
        lhs = sum((v * values[j] for j, v in row.coeffs.items()), F(0))
        x[col] = row.rhs - lhs if row.relation == LE else lhs - row.rhs
    return x


def check_rows(tab, x=None, in_range=True):
    """Check the integer row invariant of a solved tableau.

    Each row stores no 0 and no key but a column or CONST, is in lowest
    terms over den > 0, and its basic column is den times a unit column.
    Its constant / den is the basic column's offset from its active bound:
    equal to the offset at the column values x when they are given,
    otherwise within the column's width unless in_range is false (a dual
    simplex that found no feasible basis stops out of range).
    At x, every nonbasic column sits at its active bound.
    """
    def offset(k):
        z = x[k] - tab.lo[k]
        return F(*tab.width[k]) - z if tab.comp[k] else z

    for i, (row, den, b) in enumerate(zip(tab.tab, tab.den, tab.basis)):
        assert all(k == CONST or 0 <= k < tab.ncols for k in row)
        assert 0 not in row.values()
        assert den > 0 and gcd(den, *row.values()) == 1
        assert row[b] == den
        assert all(b not in other for r, other in enumerate(tab.tab) if r != i)
        z = F(row.get(CONST, 0), den)
        if in_range:
            assert z >= 0 and (tab.width[b] is None or z <= F(*tab.width[b]))
        if x is not None:
            assert z == offset(b)
    if x is not None:
        basic = set(tab.basis)
        assert all(offset(k) == 0 for k in range(tab.ncols) if k not in basic)


def reduced_costs(tab, lp):
    """Integer row and positive denominator of the objective over z, priced
    afresh for any basis of tab, in the tableau's row form.

    In Fractions: a complemented column's cost is negated, because its z
    runs against its value; the constant is minus the objective where every
    z is 0, so every variable at its active bound; and each basic column's
    cost times its row, constant included, is taken off.  The row is then
    put over the lcm of its denominators, which leaves it in lowest terms,
    and keeps only its nonzeros.  The solver never prices this way: a cold
    tableau's basic columns all cost 0, so its row is the objective itself,
    and every basis change after that updates the row.
    """
    row = {CONST: F(0)}
    for j, c in enumerate(lp.objective):
        if j in tab.fixed:
            row[CONST] -= c * tab.fixed[j]
            continue
        col = tab.col_of_var[j]
        at = tab.lo[col] + (F(*tab.width[col]) if tab.comp[col] else 0)
        row[CONST] -= c * at
        row[col] = -c if tab.comp[col] else c
    for trow, den, b in zip(tab.tab, tab.den, tab.basis):
        cb = row.get(b, 0)
        if cb:
            for k, v in trow.items():
                row[k] = row.get(k, 0) - cb * F(v, den)
    cden = lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (cden // v.denominator) for k, v in row.items() if v}, cden


def check_carried_costs(tab):
    """The tableau's carried reduced-cost row is a fresh pricing's row.

    Both are in lowest terms over a positive denominator and store no 0, so
    they agree up to a positive factor exactly when they are equal.
    """
    assert (tab.cbar, tab.cden) == reduced_costs(tab, tab.lp)


def check_still_optimal(tab, lp, values):
    """The lexicographic stage left a basis that is optimal for the objective.

    Its bans are lifted back to the artificials, the carried reduced-cost
    row is a fresh pricing's, and a primal run from the final basis neither
    pivots nor flips a bound: every reduced cost of an unbanned column is
    still >= 0, which the next warm start relies on.
    """
    assert tab.banned == {CONST, *tab.art_cols}
    check_carried_costs(tab)
    before = (tab.pivots, len(tab.events))
    tab.run()
    assert (tab.pivots, len(tab.events)) == before
    assert tab.solution_values() == values


def solve_and_check_rows(lp, dual_start=False):
    with recording_tableaus(dual_start) as made:
        sol = solve_to_vertex(lp)
    tab = made[-1]
    check_carried_costs(tab)
    if sol.status == OPTIMAL:
        check_rows(tab, column_values(tab, lp, sol.values))
    else:
        # a cold solve proves infeasibility by the dual simplex, which stops
        # with a row out of range
        check_rows(tab, in_range=False)
    return sol, tab


def test_tableau_rows_keep_their_invariant():
    for seed in range(200):
        solve_and_check_rows(random_lp(seed))


def test_fractional_widths_flip_and_leave_at_upper_bound():
    # The row's positive coefficients tighten it, so both columns start at
    # their lower bounds, where the row holds: the primal simplex starts
    # there.  x0 enters first and meets its upper bound 5/3 (width 2/3) before
    # the slack reaches 0, a bound flip; x1 then enters and the slack leaves.
    # Lowering x0 again raises the basic x1 twice as fast, to its upper bound
    # 3/2 (width 3/2), so x1 leaves there: both complements scale rows by a
    # width denominator.
    lp = LinearProgram(num_vars=2, objective=[F(-3), F(-2)],
                       bounds=[(F(1), F(5, 3)), (F(0), F(3, 2))])
    lp.add_row({0: F(2), 1: F(1)}, LE, 4)
    sol, tab = solve_and_check_rows(lp)
    assert sol.status == OPTIMAL
    assert sol.values == [F(5, 4), F(3, 2)]
    assert sol.objective_value == enumerate_optimum(lp) == F(-27, 4)
    assert verify_vertex(lp, sol)
    assert tab.events == [("flip", 3), ("leave", 2)]
    assert tab.after_dual is None


def test_bound_flip_wins_a_ratio_tie():
    # x0 may grow by 1 before it meets its upper bound and before the row's
    # slack reaches 0: the tie goes to the bound flip, so x0 stays nonbasic.
    lp = box_lp(2, [-1, 0])
    lp.add_row({0: F(1), 1: F(1)}, LE, 1)
    sol, tab = solve_and_check_rows(lp)
    assert sol.values == [F(1), F(0)]
    assert tab.events == [("flip", 1)]
    assert tab.col_of_var[0] not in tab.basis


def start_bounds(lp):
    """For each variable that is not fixed: True iff it starts at its upper bound."""
    tab = lp_core._Tableau(lp)
    return {j: tab.comp[col] for j, col in tab.col_of_var.items()}


def test_crash_start_puts_only_loosening_columns_at_their_upper_bound():
    lp = box_lp(6, [0] * 6)
    lp.add_row({0: F(1), 1: F(2), 2: F(-1)}, GE, 1)
    lp.add_row({0: F(-3), 3: F(1), 4: F(-1)}, LE, 1)
    lp.add_row({4: F(-1), 5: F(-1)}, EQ, -1)
    # x0 and x1 only loosen their rows; x2 tightens the GE row and x3 the
    # LE row; x4 loosens the LE row but is in an EQ row, and so is x5.
    assert start_bounds(lp) == {0: True, 1: True, 2: False, 3: False, 4: False, 5: False}
    assert start_bounds(box_lp(2, [1, -1])) == {0: True, 1: True}
    fixed = box_lp(2, [0, 0], bounds=[(F(1), F(1)), (F(0), F(1))])
    fixed.add_row({0: F(-1), 1: F(1)}, GE, 0)
    assert start_bounds(fixed) == {1: True}


def base_masters():
    for seed in range(1, 11):
        inst = instance.gen_random(seed, T=10, N=6)
        yield inst, full_master_lp(inst)


def test_crash_start_on_base_masters():
    # Each y_s is positive in GE rows only, so it starts at 1; each x is in
    # its item's coverage EQ row, so it starts at 0.  Every GE row's slack is
    # then >= 0, and only the N coverage rows, basic in their artificials at
    # 1, are out of range.
    for inst, lp in base_masters():
        layout = cmils_master.MasterLayout(inst)
        tab = lp_core._Tableau(lp)
        assert len(tab.art_cols) == inst.N
        assert all(tab.comp[tab.col_of_var[col]] for col in layout.y_col.values())
        assert not any(tab.comp[tab.col_of_var[col]] for col in layout.x_col.values())
        out = [i for i, row in enumerate(tab.tab)
               if row.get(CONST, 0) < 0 or (tab.basis[i] in tab.art_cols and CONST in row)]
        assert out == [i for i, b in enumerate(tab.basis) if b in tab.art_cols]
        assert all(tab.tab[i].get(CONST) == tab.den[i] for i in out)


def test_base_masters_take_the_dual_start_and_rounding_lps_the_primal_one():
    for _, lp in base_masters():
        with recording_tableaus() as made:
            assert solve_to_vertex(lp).status == OPTIMAL
        assert made[0].after_dual[0] > 0
    # A rounding LP's rows are GE rows with positive coefficients, so its
    # crash start puts every free y at 1, where the rows hold.  The primal
    # simplex from there takes fewer pivots than the dual simplex from the
    # cheaper bounds (52 against 70 on these LPs), which is why the cold
    # path keeps both starts.
    pivots = {}
    for dual_start in (False, True):
        with recording_tableaus(dual_start) as made:
            for seed in range(40):
                inst, y = random_laminar_case(seed)
                laminar_kc.solve(inst, ScaledCover(inst.C, y))
        assert len(made) >= 30
        assert all((tab.after_dual is None) != dual_start for tab in made)
        pivots[dual_start] = sum(tab.pivots for tab in made)
    assert pivots[False] < pivots[True]


def test_crash_start_pivot_ceiling_on_base_masters():
    # The pivot path is deterministic: these ten masters take 230 pivots in
    # all by the dual simplex from the crash start at the cheaper bounds
    # (26, 17, 16, 26, 28, 19, 17, 20, 27, 34).  Phase 1 from the crash
    # start took 392, and 701 when every column started at its lower bound.
    assert sum(solve_to_vertex(lp).pivots for _, lp in base_masters()) <= 250


# -- golden vertices ---------------------------------------------------------
#
# GOLDEN pins the vertex returned for each case below: the lexicographically
# least optimal point, which is unique.  Any correct pivot rule must reproduce
# it byte for byte, however it prices and whatever basis it starts from, so
# a change to pricing, the tableau or the warm start leaves the file as it
# is.  Rewrite the file (`PYTHONPATH=src python tests/test_lp_core.py`) only
# in a change that means to alter which optimum is returned, and say so in
# its notes.

def golden_cases():
    """(name, LP) pairs: small random LPs plus first and cut master LPs."""
    for seed in range(200):
        yield f"random_lp-{seed}", random_lp(seed)
    for seed in range(10):
        slack = F(1) if seed % 2 else F(3, 2)
        inst = instance.gen_random(seed, T=10, N=6, slack_factor=slack)
        yield f"gen_random-{seed}-T10-N6-slack{slack}", full_master_lp(inst)
    for R in ("10", "1000", "1000000", "7/2", "123457/3"):
        inst = instance.gen_kc_gap(instance.parse_rat(R))
        yield f"kc-gap-{R}", full_master_lp(inst)
        cuts = cmils_master.run_pipeline(inst).cuts
        if cuts:
            lp = full_master_lp(inst)
            layout = cmils_master.MasterLayout(inst)
            for cut in cuts:
                coeffs, rhs = cmils_master.cut_row(cut, inst, layout)
                lp.add_row(coeffs, GE, rhs)
            yield f"kc-gap-{R}-with-cuts", lp


def golden_record(name, lp):
    sol = solve_to_vertex(lp)
    tight_rows, at_bound = tight_sets(lp, sol.values) if sol.values is not None else ((), ())
    return {
        "name": name,
        "lp_sha256": hashlib.sha256(dump_lp(lp).encode()).hexdigest(),
        "status": sol.status,
        "values": None if sol.values is None else [str(v) for v in sol.values],
        "objective_value": None if sol.objective_value is None else str(sol.objective_value),
        "tight_rows": sorted(tight_rows),
        "at_bound": sorted(at_bound),
    }


def golden_text(records) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def test_golden_vertices_are_byte_identical():
    with open(GOLDEN, encoding="utf-8") as fh:
        text = fh.read()
    expected = json.loads(text)
    records = [golden_record(name, lp) for name, lp in golden_cases()]
    assert [r["name"] for r in records] == [r["name"] for r in expected]
    for got, want in zip(records, expected):
        assert got["lp_sha256"] == want["lp_sha256"], f"{got['name']}: input LP changed"
        assert got == want, got["name"]
    assert golden_text(records) == text


def test_bland_pricing_returns_the_golden_vertices(monkeypatch):
    # With DEGENERATE_RUN = 0 every primal step prices by Bland's rule.
    with open(GOLDEN, encoding="utf-8") as fh:
        text = fh.read()
    monkeypatch.setattr(lp_core, "DEGENERATE_RUN", 0)
    assert golden_text([golden_record(name, lp) for name, lp in golden_cases()]) == text


# The pivot path, which GOLDEN leaves free, is pinned here: the pivots each
# golden case takes, in case order, as their total and the sha256 of their
# JSON list.  A change that means to alter pricing, the start basis or the
# column order re-pins both and says in its notes why the path moved.
GOLDEN_PIVOTS = (471, "763eee8d4dbe732a6141b47ca75b290a7ec619050eaebc11a8f34e969bcb6899")


def test_golden_cases_keep_their_pivot_path():
    pivots = [solve_to_vertex(lp).pivots for _, lp in golden_cases()]
    digest = hashlib.sha256(json.dumps(pivots).encode()).hexdigest()
    assert (sum(pivots), digest) == GOLDEN_PIVOTS


# -- property test -------------------------------------------------------------

def _rationals(bound):
    """Plain ints, whole Fractions and Fractions, as an LP may hold them."""
    ints = st.integers(-bound, bound)
    return st.one_of(ints, ints.map(F), st.builds(F, ints, st.integers(1, 1000)))


def _maybe_int(draw, value):
    """value, or as a plain int half the time when it is whole."""
    return value.numerator if value.denominator == 1 and draw(st.booleans()) else value


@st.composite
def small_lps(draw):
    """LE/GE/EQ rows over n <= 4 boxed variables, some fixed, some rows doubled.

    Each rhs is the row's value at a point of the box plus an offset that is
    zero half the time, so both feasible and infeasible LPs come up; an exact
    or scaled copy of an earlier EQ row leaves a redundant row, which stays.
    """
    n = draw(st.integers(1, 4))
    bounds, point = [], []
    for _ in range(n):
        lo = draw(_rationals(100))
        fixed = draw(st.integers(0, 3)) == 0
        width = 0 if fixed else abs(draw(_rationals(1000)))
        bounds.append((lo, lo + width))
        point.append(lo + width * draw(st.fractions(0, 1, max_denominator=7)))
    # zero coefficients make optima tie, which gives the lexicographic stage work
    objective = draw(st.lists(st.one_of(st.sampled_from([0, F(0)]), _rationals(10**6)),
                              min_size=n, max_size=n))
    lp = LinearProgram(num_vars=n, objective=objective, bounds=bounds)
    for _ in range(draw(st.integers(1, 5))):
        if lp.rows and draw(st.booleans()):
            row = draw(st.sampled_from(lp.rows))
            scale = draw(st.sampled_from([F(1), F(3), F(-2, 7)]))
            relation = row.relation if scale > 0 else {LE: GE, GE: LE, EQ: EQ}[row.relation]
            lp.add_row({j: scale * v for j, v in row.coeffs.items()}, relation,
                       scale * row.rhs)
            continue
        coeffs = draw(st.dictionaries(st.integers(0, n - 1), _rationals(10**6),
                                      min_size=1, max_size=n))
        at_point = sum((v * point[j] for j, v in coeffs.items()), F(0))
        offset = draw(st.one_of(st.just(F(0)), _rationals(10**6)))
        lp.add_row(coeffs, draw(st.sampled_from([LE, GE, EQ, EQ])),
                   _maybe_int(draw, at_point + offset))
    return lp


def test_integer_row_matches_the_fraction_reference():
    """Fixed variables, fractional lower bounds and widths, and any pattern
    of complemented columns: the one integer pass gives the Fraction form,
    on rows of plain ints as the master and rounding LPs write them, of
    Fractions, and of both."""
    reached = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_lps(), st.data())
    def check(lp, data):
        tab = lp_core._Tableau(lp)
        for col in tab.col_of_var.values():
            tab.comp[col] = data.draw(st.booleans())
        for row in lp.rows:
            kinds = {type(v) for v in (row.rhs, *row.coeffs.values())}
            reached.add("ints" if kinds == {int} else "mixed" if int in kinds else "fractions")
            assert tab._integer_row(row) == fraction_integer_row(tab, row)

    check()
    assert reached == {"ints", "mixed", "fractions"}


def test_cold_columns_are_structurals_then_slacks_then_artificials():
    """Every row enters a cold tableau the way a warm row does, LE/GE rows
    first: the columns are the structurals, one slack per LE/GE row in row
    order, then one banned artificial of width 0 per EQ row in row order.
    Each row is the LP row over the start bounds, basic in its own column,
    and the reduced costs are the fresh pricing of that basis."""
    reached = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_lps())
    def check(lp):
        tab = lp_core._Tableau(lp)
        n, m = len(tab.col_of_var), len(lp.rows)
        slack = [row for row in lp.rows if row.relation != EQ]
        eq = [row for row in lp.rows if row.relation == EQ]
        if slack and eq and lp.rows != slack + eq:
            reached.add("interleaved")
        assert tab.ncols == n + m and tab.basis == list(range(n, n + m))
        assert tab.width[n:] == [None] * len(slack) + [(0, 1)] * len(eq)
        assert tab.art_cols == list(range(n + len(slack), n + m))
        assert tab.banned == {CONST, *tab.art_cols}
        assert tab.rows_seen == lp.rows
        for basic, row, ints, den in zip(tab.basis, slack + eq, tab.tab, tab.den):
            want, wden = fraction_integer_row(tab, row)
            if row.relation == GE:  # row - slack = rhs, negated
                want = {k: -v for k, v in want.items()}
            want[basic] = wden
            assert (ints, den) == (want, wden)
        check_carried_costs(tab)

    check()
    assert reached == {"interleaved"}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_lps())
def test_random_mixed_lps_match_enumeration(lp):
    sol, tab = solve_and_check_rows(lp)
    best = enumerate_optimum(lp)
    if best is None:
        assert sol.status == INFEASIBLE
    else:
        assert sol.status == OPTIMAL
        # exact, never a float, and an int exactly where the value is whole
        assert all(type(v) in (int, Fraction) and (type(v) is int) == (v.denominator == 1)
                   for v in sol.values)
        assert sol.objective_value == best
        assert sol.values == enumerate_lex_optimum(lp)
        assert verify_vertex(lp, sol)
        check_still_optimal(tab, lp, sol.values)


def test_dual_start_matches_the_primal_start():
    """Forced onto the dual start, every cold solve ends where it would
    have: same status and vertex, and the optimum the enumeration finds.
    Every row stays in the tableau: a redundant EQ row, which touches only
    artificials, keeps its artificial basic at 0."""
    reached = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_lps())
    def check(lp):
        crash = lp_core._Tableau(lp)
        if crash.in_range():
            reached.add("crash start feasible")
        if crash.fixed:
            reached.add("fixed")
        usual = solve_to_vertex(lp)
        sol, tab = solve_and_check_rows(lp, dual_start=True)
        assert tab.after_dual is not None
        assert sol.status == usual.status and sol.values == usual.values
        best = enumerate_optimum(lp)
        if best is None:
            assert sol.status == INFEASIBLE
            reached.add("infeasible")
            return
        assert sol.objective_value == best
        assert verify_vertex(lp, sol)
        check_still_optimal(tab, lp, sol.values)
        if crash.art_cols:
            reached.add("EQ")
        assert len(tab.tab) == len(lp.rows)
        arts = set(tab.art_cols)
        for row, b in zip(tab.tab, tab.basis):
            if b in arts and all(k in arts or k == CONST for k in row):
                assert row.get(CONST, 0) == 0
                reached.add("redundant row kept")

    check()
    assert reached == {"crash start feasible", "fixed", "infeasible", "EQ",
                       "redundant row kept"}


def test_lex_min_stops_only_once_every_nonbasic_column_is_banned(monkeypatch):
    """An EQ row's artificial may still be basic, at 0, when the
    lexicographic stage starts.  It is banned and basic at once, so the
    stage's stop must not count it as a banned nonbasic column: here x3,
    in no row and free of cost, starts at its upper bound and must still
    be lowered to 0."""
    basic_arts = []
    real_lex_min = lp_core._Tableau.lex_min

    def lex_min(tab):
        basic_arts.append([k for k in tab.art_cols if tab.in_basis[k]])
        real_lex_min(tab)

    monkeypatch.setattr(lp_core._Tableau, "lex_min", lex_min)
    lp = random_lp(315)
    sol = solve_to_vertex(lp)
    assert len(basic_arts) == 1 and basic_arts[0]
    assert sol.values == [0, 0, F(1, 3), 0] == enumerate_lex_optimum(lp)
    assert verify_vertex(lp, sol)


# -- warm re-solves --------------------------------------------------------------

@st.composite
def warm_cases(draw):
    """A small_lps() LP, 1-3 LE/GE rows to append after its first solve, and
    whether to re-solve after each row (chained warm starts) or once.

    Each rhs is the row's value at a point of the box plus an offset that is
    zero half the time, so an appended row may cut the optimum off, keep it,
    or leave the LP infeasible.
    """
    lp = draw(small_lps())
    point = [lo + (hi - lo) * draw(st.fractions(0, 1, max_denominator=7))
             for lo, hi in lp.bounds]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.dictionaries(st.integers(0, lp.num_vars - 1), _rationals(1000),
                                      min_size=1, max_size=lp.num_vars))
        at_point = sum((v * point[j] for j, v in coeffs.items()), F(0))
        offset = draw(st.one_of(st.just(F(0)), _rationals(1000)))
        rows.append((coeffs, draw(st.sampled_from([LE, GE])), at_point + offset))
    return lp, rows, draw(st.booleans())


def copy_lp(lp):
    return LinearProgram(num_vars=lp.num_vars, objective=list(lp.objective),
                         rows=list(lp.rows), bounds=list(lp.bounds))


def test_warm_resolves_match_enumeration():
    reached = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(warm_cases())
    def check(case):
        lp, rows, chained = case
        with recording_tableaus():
            sol = solve_to_vertex(lp)
        if sol.status != OPTIMAL:
            assert sol.tableau is None
            return
        tab = sol.tableau
        if tab.banned:
            reached.add("banned artificials")
        batches = [[row] for row in rows] if chained else [rows]
        for batch in batches:
            for coeffs, relation, rhs in batch:
                lp.add_row(coeffs, relation, rhs)
            sol = solve_to_vertex(lp, start=sol)
            best = enumerate_optimum(lp)
            if best is None:
                assert sol.status == INFEASIBLE and sol.tableau is None
                check_rows(tab, in_range=False)
                reached.add("infeasible")
                break
            assert sol.status == OPTIMAL and sol.tableau is tab
            # the dual simplex keeps the basis dual feasible, so it ends at
            # an optimum: the primal phase 2 after it neither pivots nor flips
            assert tab.before_lex == tab.after_dual
            assert sol.objective_value == best
            # the optimum returned does not depend on the start
            assert sol.values == solve_to_vertex(copy_lp(lp)).values
            assert verify_vertex(lp, sol)
            check_rows(tab, column_values(tab, lp, sol.values))
            check_still_optimal(tab, lp, sol.values)
        if any(kind == "above" and wd > 1 for kind, wd in tab.events):
            reached.add("above a fractional width")

    check()
    assert reached == {"banned artificials", "infeasible", "above a fractional width"}


def warm_start_lp():
    lp = box_lp(2, [1, 2])
    lp.add_row({0: F(1), 1: F(1)}, GE, 1)
    return lp


def test_warm_resolve_of_a_cut_row():
    lp = warm_start_lp()
    sol = solve_to_vertex(lp)
    assert sol.values == [F(1), F(0)] and sol.tableau is not None
    lp.add_row({0: F(1)}, LE, F(1, 3))
    warm = solve_to_vertex(lp, start=sol)
    assert warm.values == [F(1, 3), F(2, 3)] and warm.pivots == 1
    assert sol.tableau is None and warm.tableau is not None
    again = solve_to_vertex(lp, start=warm)
    assert again == warm and again.pivots == 0


def test_warm_resolve_moves_to_the_least_optimal_point():
    # Every point is optimal for a zero objective.  Both columns tighten the
    # LE row, so the cold solve starts and stays at (0, 0).  The dual simplex
    # meets the cut x0 + 2 x1 >= 1 by raising x0, the lowest-index tie, to 1;
    # the lexicographic stage then moves to the least point (0, 1/2), which
    # is what a cold solve returns.
    lp = box_lp(2, [0, 0], bounds=[(F(0), F(2))] * 2)
    lp.add_row({0: F(1), 1: F(2)}, LE, 2)
    with recording_tableaus():
        sol = solve_to_vertex(lp)
    assert sol.values == [F(0), F(0)]
    tab = sol.tableau
    lp.add_row({0: F(1), 1: F(2)}, GE, 1)
    warm = solve_to_vertex(lp, start=sol)
    assert tab.after_dual == tab.before_lex == (1, 0) and warm.pivots == 2
    assert warm.values == [F(0), F(1, 2)] == solve_to_vertex(copy_lp(lp)).values
    check_still_optimal(tab, lp, warm.values)


@pytest.mark.parametrize("inst", [
    pytest.param(instance.gen_kc_gap(F(1000)), id="kc-gap-1000"),
    pytest.param(instance.gen_random(19, T=6, N=4), id="random-19-T6-N4")])
def test_only_a_cold_solve_prices_from_scratch(inst):
    """A tableau is built, and its reduced costs priced, once per cold solve
    and never in a warm one: a warm re-solve goes on from the reduced-cost
    row its start carries."""
    real_solve, real_init = lp_core.solve_to_vertex, lp_core._Tableau.__init__
    solves = []  # [warm, tableaus built] per solve_to_vertex call

    def build(tab, lp):
        solves[-1][1] += 1
        real_init(tab, lp)

    def solve(lp, start=None, separate=None):
        solves.append([start is not None, 0])
        return real_solve(lp, start=start, separate=separate)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_core._Tableau, "__init__", build)
        mp.setattr(lp_core, "solve_to_vertex", solve)
        result = cmils_master.run_pipeline(inst)
    assert result.certificate.rounds == 1
    assert solves[0] == [False, 1]
    assert any(warm for warm, _ in solves)  # the cut round re-solves warm
    assert all(built == (0 if warm else 1) for warm, built in solves)


def test_warm_start_from_another_lp_rejected():
    sol = solve_to_vertex(warm_start_lp())
    with pytest.raises(ValueError, match="another LinearProgram"):
        solve_to_vertex(warm_start_lp(), start=sol)


def test_warm_start_used_twice_rejected():
    lp = warm_start_lp()
    sol = solve_to_vertex(lp)
    solve_to_vertex(lp, start=sol)
    with pytest.raises(ValueError, match="already used"):
        solve_to_vertex(lp, start=sol)


def test_warm_start_without_an_optimum_rejected():
    lp = box_lp(1, [1])
    lp.add_row({0: F(1)}, GE, 2)
    sol = solve_to_vertex(lp)
    assert sol.status == INFEASIBLE and sol.tableau is None
    with pytest.raises(ValueError, match="not optimal"):
        solve_to_vertex(lp, start=sol)


def test_warm_start_after_replaced_rows_rejected():
    lp = warm_start_lp()
    sol = solve_to_vertex(lp)
    lp.rows[0] = lp_core.Row(coeffs=lp.rows[0].coeffs, relation=GE, rhs=F(3, 2))
    with pytest.raises(ValueError, match="replaced"):
        solve_to_vertex(lp, start=sol)
    lp = warm_start_lp()
    sol = solve_to_vertex(lp)
    lp.bounds[1] = (F(0), F(2))
    with pytest.raises(ValueError, match="replaced"):
        solve_to_vertex(lp, start=sol)


def test_warm_start_with_an_appended_eq_row_rejected():
    lp = warm_start_lp()
    sol = solve_to_vertex(lp)
    lp.add_row({0: F(1)}, EQ, F(1, 2))
    with pytest.raises(ValueError, match="LE and GE rows only"):
        solve_to_vertex(lp, start=sol)
    assert sol.tableau is not None  # a rejected start is not used up


# -- row generation --------------------------------------------------------------

def rows_once(*rows):
    """A separate that returns the given rows on its first call and none after."""
    calls = []

    def separate(values):
        calls.append(values)
        return rows if len(calls) == 1 else []

    return separate


def test_separated_rows_are_appended_and_re_solved_in_place(monkeypatch):
    # Every point of x0 + x1 = 1 is optimal for min x0 + x1 over
    # x0 + x1 >= 1.  The separator cuts each coordinate above 1/2 down to it,
    # in the same tableau, and the lexicographic pass runs once, at the end.
    lp = warm_start_lp()
    lp.objective[1] = F(1)
    seen = []

    def separate(values):
        seen.append(values)
        return [({j: F(1)}, LE, F(1, 2)) for j, v in enumerate(values) if v > F(1, 2)]

    real_lex, lex_runs = lp_core._Tableau.lex_min, []
    monkeypatch.setattr(lp_core._Tableau, "lex_min",
                        lambda tab: lex_runs.append(tab) or real_lex(tab))
    with recording_tableaus() as made:
        sol = solve_to_vertex(lp, separate=separate)
    assert len(made) == 1 and lex_runs == [sol.tableau] == made
    # the pass leaves the unique optimum where it is, so separate is not
    # asked there again
    assert seen[0] in ([0, 1], [1, 0]) and seen[1:] == [[F(1, 2), F(1, 2)]]
    assert sol.values == [F(1, 2), F(1, 2)] == solve_to_vertex(copy_lp(lp)).values
    assert len(lp.rows) == 2 and lp.rows[1].relation == LE
    assert verify_vertex(lp, sol)


def test_separate_may_not_append_an_eq_row():
    lp = warm_start_lp()
    with pytest.raises(ValueError, match="LE and GE rows only"):
        solve_to_vertex(lp, separate=rows_once(({0: F(1)}, EQ, F(1, 2))))


def test_separate_must_return_a_violated_row():
    lp = warm_start_lp()
    with pytest.raises(ValueError, match="satisfies"):
        solve_to_vertex(lp, separate=rows_once(({0: F(1)}, LE, 1)))


def test_separated_rows_are_checked_exact():
    lp = warm_start_lp()
    with pytest.raises(ValueError, match=re.escape("in row 1: 0.5 is not")):
        solve_to_vertex(lp, separate=rows_once(({0: F(1)}, LE, 0.5)))


def test_separated_rows_that_leave_no_feasible_point_give_infeasible():
    lp = warm_start_lp()
    sol = solve_to_vertex(lp, separate=rows_once(({0: F(1), 1: F(1)}, LE, F(1, 2))))
    assert sol.status == INFEASIBLE and sol.values is None and sol.tableau is None
    assert solve_to_vertex(copy_lp(lp)).status == INFEASIBLE


def test_values_at_bounds_are_read_as_given_with_whole_ones_as_ints():
    # x0 sits at its upper bound (complemented), x1 at its lower, x2 is fixed
    # and x3 is basic at 5/2; every whole value comes back an int.
    lp = box_lp(4, [-1, 1, 0, 0], bounds=[(F(0), F(2)), (F(1), F(4)), (F(3), F(3)),
                                           (F(1), F(4))])
    lp.add_row({3: F(2)}, EQ, 5)
    sol = solve_to_vertex(lp)
    assert sol.values == [2, 1, 3, F(5, 2)]
    assert [type(v) for v in sol.values] == [int, int, int, Fraction]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(golden_text([golden_record(name, lp) for name, lp in golden_cases()]))
