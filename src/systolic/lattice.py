"""Exact coordinates on the equilateral triangulation of the plane.

Vertices live on horizontal rows spaced sqrt(3)/2 apart and are stored as
(row, x) with row an integer and x a Fraction; 2*x is an integer with the
same parity as the row.  sqrt(3) is never materialized, so every predicate
is a rational comparison.  A flat disc is a `RowStack`, whose row ends are
integers in half-units (2x).  The lattice-distance and point-group oracles
live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

HALF = Fraction(1, 2)

Point = tuple[int, Fraction]


def lattice_adjacent(p: Point, q: Point) -> bool:
    dr = abs(q[0] - p[0])
    dx = abs(q[1] - p[1])
    return (dr == 0 and dx == 1) or (dr == 1 and dx == HALF)


@dataclass(frozen=True)
class RowStack:
    """A stack of horizontal row intervals (rows sqrt(3)/2 apart, straight
    boundary segments between consecutive rows).  `rows[k]` = (lo, hi) spans
    x in [lo/2, hi/2] on row `first_row + k`: the ends are in half-units.
    Degenerate rows (points) are legal; lattice parity is not a rule here."""
    first_row: int
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.rows:
            if hi < lo:
                raise ValueError("row with rightX < leftX")

    @property
    def last_row(self) -> int:
        return self.first_row + len(self.rows) - 1
