import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_intervals, cap_within, capped_mass_and_count,
                     fraction_residuals, rank_table_cases)
from lotforge import laminar_kc
from lotforge.errors import InvariantError
from lotforge.interval_kc import IntervalKcInstance, solve_interval_kc
from lotforge.intervals import (ScaledCover, check_selection, locked_periods, prefix_caps,
                                residuals, scale_caps, scale_y)
from lotforge.laminar_kc import LaminarFamily, LaminarKcInstance

F = Fraction

# (mass, count): interval rounding's entry, laminar rounding's pool test,
# its count and mass rows, and a fractional pair.
THRESHOLDS = ((10, 6), (2, 1), (None, 1), (2, None), (1, F(3, 5)))


def fractions(max_num: int, max_den: int, low: int = 0):
    return st.builds(F, st.integers(low, max_num), st.integers(1, max_den))


def ones(y) -> frozenset:
    """The periods at y = 1, which ScaledCover.holds leaves out."""
    return frozenset(s for s in range(1, len(y) + 1) if y[s - 1] == 1)


@st.composite
def cover_cases(draw):
    """C with denominators up to 7, y in [0, 1] with denominators up to 13,
    and needs that include capacities themselves."""
    T = draw(st.integers(1, 9))
    C = tuple(draw(st.lists(fractions(40, 7, low=1), min_size=T, max_size=T)))
    y = tuple(min(v, F(1)) for v in draw(st.lists(fractions(13, 13), min_size=T,
                                                 max_size=T)))
    needs = draw(st.lists(st.one_of(st.sampled_from(C), fractions(60, 11, low=1)),
                          min_size=1, max_size=4))
    return C, y, needs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cover_cases())
def test_holds_matches_the_fraction_sums(case):
    C, y, needs = case
    view = ScaledCover(C, y)
    skip = ones(y)
    assert view.ones == skip
    for a, b in all_intervals(len(C)):
        for need in needs:
            mass, count = capped_mass_and_count(C, a, b, need, y, skip)
            for k, c in THRESHOLDS:
                want = ((k is not None and mass >= k * need)
                        or (c is not None and count >= c))
                assert view.holds(a, b, need, mass=k, count=c) == want, \
                    (a, b, need, k, c)


def _check_holds(view, C, y, a, b, need):
    mass, count = capped_mass_and_count(C, a, b, need, y, ones(y))
    for k, c in ((2, 1), (10, 6), (1, F(3, 5))):
        want = mass >= k * need or count >= c
        assert view.holds(a, b, need, mass=k, count=c) == want, (a, b, need, k, c)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rank_table_cases(), st.data())
def test_holds_on_the_rank_tables_matches_the_fraction_sums(case, data):
    """The table-backed test, which leaves out the view's periods at 1,
    on needs at a capacity, at one, above every capacity and drawn."""
    C, y, intervals = case
    view = ScaledCover(C, y)
    above_all = max(C) + F(1, 3)
    for a, b in intervals:
        needs = [data.draw(st.sampled_from(C)), 1, above_all,
                 data.draw(st.builds(F, st.integers(1, 90), st.integers(1, 11)))]
        for need in needs:
            _check_holds(view, C, y, a, b, need)


def test_holds_on_the_rank_tables_edge_cases():
    C = (3, F(7, 2), 3, 5)
    for y in ((0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0)):  # no fractional period
        view = ScaledCover(C, y)
        assert view.tables()[0] == []
        for a, b in all_intervals(4):
            for need in (1, 3, 6):
                _check_holds(view, C, y, a, b, need)
    for y in ((F(1, 2), 1, F(3, 4), F(1, 5)), (1, F(1, 2), F(3, 4), 1)):
        view = ScaledCover(C, y)
        for a, b in all_intervals(4):
            for need in (F(1), 1, F(11, 2), 100):  # equal to one, above every capacity
                _check_holds(view, C, y, a, b, need)


def test_holds_is_inclusive_at_both_boundaries():
    # C = (3, 3/2), y = (1/2, 1/2): at need 3 the count is exactly 1/2
    # (period 1 only) and the capped mass exactly 3/2 + 3/4 = 9/4.
    view = ScaledCover((F(3), F(3, 2)), (F(1, 2), F(1, 2)))
    assert view.holds(0, 2, F(3), count=F(1, 2))
    assert not view.holds(0, 2, F(3), count=F(1, 2) + F(1, 100))
    assert view.holds(0, 2, F(3), mass=F(3, 4))
    assert not view.holds(0, 2, F(3), mass=F(3, 4) + F(1, 100))
    # with period 1 at y = 1 it is left out, and period 2 is below the need
    assert not ScaledCover((F(3), F(3, 2)), (1, F(1, 2))).holds(0, 2, F(3), count=F(1, 2))


# Each caller of an opening vector y, on C = (3, 3) with period 2 locked.
# R = 1 on (0, 2] is covered by the locked period, so no covering test
# reads y_1 and only the view's own checks can reject it: interval
# rounding then takes its locked-only path.  R = 4 leaves a residual of 1
# for its laminar route.
Y_CALLERS = {
    "interval-locked-only": lambda y: solve_interval_kc(
        IntervalKcInstance(T=2, C=(3, 3), K=(0, 1), R={(0, 2): 1}),
        y, frozenset({2}), {}),
    "interval-laminar": lambda y: solve_interval_kc(
        IntervalKcInstance(T=2, C=(3, 3), K=(0, 1), R={(0, 2): 4}),
        y, frozenset({2}), {(0, 2): 1}),
    "laminar": lambda y: laminar_kc.solve(
        LaminarKcInstance(T=2, C=(3, 3), K=(0, 1), R={(0, 2): 1},
                          family=LaminarFamily.from_intervals(2, {(0, 2)})),
        ScaledCover((3, 3), y)),
}


@pytest.mark.parametrize("caller", Y_CALLERS)
@pytest.mark.parametrize("y, error, message", [
    ((F(-1, 2), 1), InvariantError, r"^input y outside \[0, 1\]$"),
    ((F(3, 2), 1), InvariantError, r"^input y outside \[0, 1\]$"),
    ((1,), ValueError, "^y must have one entry per period$"),
    ((0.5, 1), ValueError, "^y entries must be int or Fraction$"),
], ids=["below-0", "above-1", "short", "float"])
def test_every_caller_checks_y_through_the_view(caller, y, error, message):
    with pytest.raises(error, match=message):
        Y_CALLERS[caller](y)


@pytest.mark.parametrize("C, y, message", [
    ((3, 2), (0.1, F(1, 2)), "^y entries must be int or Fraction$"),
    ((3.0, 2), (F(1, 10), F(1, 2)), "^C entries must be int or Fraction$"),
], ids=["float-y", "float-C"])
def test_view_takes_only_exact_entries(C, y, message):
    # a float would otherwise be scaled as its binary expansion: 0.1 with
    # 1/2 gives yden = 2**55
    with pytest.raises(ValueError, match=message):
        ScaledCover(C, y)


def test_with_y_shares_the_scaled_capacities_and_checks_y():
    view = ScaledCover((F(3, 2), 4, F(5, 3)), (F(1, 2), 1, 0))
    other = view.with_y((F(1, 4), F(2, 3), 1))
    assert other.c is view.c and other.cden == view.cden and other.C is view.C
    fresh = ScaledCover(view.C, (F(1, 4), F(2, 3), 1))
    assert (other.u, other.yden, other.ones) == (fresh.u, fresh.yden, fresh.ones)
    assert other.tables() == fresh.tables()
    assert view.ones == {2} and view.u == [1, 2, 0]  # the view itself is unchanged
    for y, error, message in (((F(1, 2),), ValueError, "one entry per period"),
                              ((0.5, 0, 0), ValueError, "int or Fraction"),
                              ((F(3, 2), 0, 0), InvariantError, r"outside \[0, 1\]")):
        with pytest.raises(error, match=message):
            view.with_y(y)


def interval_locked_only(K0, R, inside, outside):
    # period 1 is locked on C = (3, 3) and covers R on (0, 1]; (1, 2] has
    # a residual but no requirement
    ikc = IntervalKcInstance(T=2, C=(3, 3), K=(K0, 1), R={(0, 1): R})
    return solve_interval_kc(ikc, (1, 0), frozenset({1}),
                             {(0, 1): inside, (1, 2): outside})


def interval_laminar(K0, R, inside, outside):
    # ten periods at 3/5 carry the residual on (0, 10] (count 6 >= 6), so
    # interval rounding builds its family and runs laminar rounding
    ikc = IntervalKcInstance(T=10, C=(5,) * 10, K=(K0, 2, 3, 4, 1, 2, 3, 4, 1, 2),
                             R={(0, 10): R})
    return solve_interval_kc(ikc, (F(3, 5),) * 10, frozenset(),
                             {(0, 10): inside, (0, 1): outside})


def laminar(K0, R):
    return laminar_kc.solve(
        LaminarKcInstance(T=2, C=(3, 3), K=(K0, 1), R={(0, 2): R},
                          family=LaminarFamily.from_intervals(2, {(0, 2)})),
        ScaledCover((3, 3), (F(1, 2), F(1, 2))))


# Each rounding entry with exact data it accepts, and what it selects.
# "inside" is a residual on an interval with a requirement, "outside" one
# on an interval without.
EXACT_ENTRIES = {
    "interval-locked-only": (interval_locked_only,
                             {"K0": 0, "R": 1, "inside": 0, "outside": 0}, {1}),
    "interval-laminar": (interval_laminar, {"K0": 1, "R": 4, "inside": 4, "outside": 0},
                         {1, 2, 5, 6, 9, 10}),
    "laminar": (laminar, {"K0": 0, "R": 1}, {1}),
}
ERROR_NAME = {"K0": "K", "R": "R", "inside": "residual", "outside": "residual"}


@pytest.mark.parametrize("entry", EXACT_ENTRIES)
def test_each_rounding_entry_runs_on_its_exact_data(entry):
    run, data, selected = EXACT_ENTRIES[entry]
    assert run(**data) == selected


@pytest.mark.parametrize("entry, field, kind", [
    (entry, field, kind) for entry, (_, data, _) in EXACT_ENTRIES.items()
    for field in data for kind in (float, str)])
def test_every_rounding_entry_takes_exact_costs_requirements_and_residuals(
        entry, field, kind):
    # the accepted value as a float or a str: only its type is wrong, and a
    # float would otherwise be read as its binary expansion
    run, data, _ = EXACT_ENTRIES[entry]
    name = ERROR_NAME[field]
    with pytest.raises(ValueError, match=f"^{name} entries must be int or Fraction$"):
        run(**{**data, field: kind(data[field])})


def test_check_selection_keeps_every_period_at_one():
    # y = (1, 1/2) on C = (3, 3) and K = (1, 0), so K . y = 1.  Period 2
    # alone covers the requirement of 3 within that budget, but it leaves
    # out period 1, which is at y = 1: only {1, 2} passes.
    view = ScaledCover((F(3), F(3)), (F(1), F(1, 2)))
    R, K = {(0, 2): (3, 1)}, (F(1), F(0))
    check_selection(R, K, view, frozenset({1, 2}))
    with pytest.raises(InvariantError, match=r"^selection leaves out a period at y = 1$"):
        check_selection(R, K, view, frozenset({2}))


def test_holds_without_thresholds_is_false():
    view = ScaledCover((F(1),), (F(1, 2),))
    assert not view.holds(0, 1, F(1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(fractions(30, 7), min_size=1, max_size=10), st.data())
def test_prefix_caps_difference_is_the_chosen_capacity(C, data):
    chosen = frozenset(data.draw(st.sets(st.integers(1, len(C)))))
    c, cden = scale_caps(C)
    assert cden == math.lcm(*(v.denominator for v in C))
    assert all(type(v) is int and F(v, cden) == cap for v, cap in zip(c, C))
    P = prefix_caps(c, chosen)
    assert len(P) == len(C) + 1 and P[0] == 0
    assert all(type(v) is int for v in P)
    for a, b in all_intervals(len(C)):
        assert F(P[b] - P[a], cden) == cap_within(C, a, b, chosen)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(fractions(30, 13, low=1),
                          st.one_of(st.sampled_from((F(1, 10), F(1))),
                                    fractions(13, 50))),
                min_size=1, max_size=10), st.data())
def test_hand_off_matches_the_reference(periods, data):
    """scale_y, locked_periods and residuals against a per-period rescan
    and the Fraction formula; y = 1/10, the least opening that scales to 1,
    is drawn on purpose, and C and R have denominators up to 13."""
    C = tuple(c for c, _ in periods)
    y = tuple(min(v, F(1)) for _, v in periods)
    T = len(C)
    R = {iv: data.draw(fractions(80, 13)) for iv in data.draw(
        st.sets(st.sampled_from(list(all_intervals(T)))))}
    y_scaled = scale_y(y)
    assert y_scaled == tuple(F(1) if 10 * v >= 1 else 10 * v for v in y)
    locked = locked_periods(y_scaled)
    assert locked == {s for s in range(1, T + 1) if y[s - 1] >= F(1, 10)}
    got = residuals(R, C, locked)
    want = fraction_residuals(R, C, locked)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is (int if v.denominator == 1 else F) for v in got.values())
    for (a, b), need in R.items():
        assert got[(a, b)] == max(need - cap_within(C, a, b, locked), 0)
