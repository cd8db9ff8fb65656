"""Half-open period intervals.

An interval (a, b] with 0 <= a < b <= T stands for the periods a+1 .. b.
Intervals are passed around as plain (a, b) tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator


def all_intervals(T: int) -> Iterator[tuple[int, int]]:
    """Yield every (a, b] over [T], ascending by a then b."""
    for a in range(T):
        for b in range(a + 1, T + 1):
            yield (a, b)


def cap_within(C, a: int, b: int, chosen: Iterable[int]) -> Fraction:
    """Total capacity of the chosen periods that fall inside (a, b]."""
    total = Fraction(0)
    for s in chosen:
        if a < s <= b:
            total += C[s - 1]
    return total


def capped_mass_and_count(C, a: int, b: int, need: Fraction, y,
                          skip) -> tuple[Fraction, Fraction]:
    """The two sides of every covering test on (a, b], periods in skip left out.

    mass  = sum of min(C_s, need) * y_s: capacity capped at the requirement;
    count = sum of y_s over the periods with C_s >= need: openings of
            periods that could cover the requirement alone.

    Each caller compares them to its own thresholds "mass >= k * need or
    count >= c": separation (1, 3/5) on the master y, interval rounding
    (10, 6) on the scaled y and (2, 1) for family members, laminar rounding
    (2, 1) for its mass and count rows.
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
