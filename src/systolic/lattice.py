"""Exact coordinates on the equilateral triangulation of the plane.

Vertices live on horizontal rows spaced sqrt(3)/2 apart and are stored as
(row, x) with row an integer and x a Fraction; 2*x is an integer with the
same parity as the row.  sqrt(3) is never materialized, so every predicate
is a rational comparison.  A flat disc is a `RowStack`, whose row ends are
integers in half-units (2x); it numbers the disc's vertices and joins them.
The lattice-distance and point-group oracles live with the tests.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

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
    Degenerate rows (points) are legal; lattice parity is not a rule here.
    A lattice stack numbers its vertices row by row from 0, left to right
    (`ids`); edges join row neighbours and the `cross_pairs` of two rows."""
    first_row: int
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.rows:
            if hi < lo:
                raise ValueError("row with rightX < leftX")

    @property
    def last_row(self) -> int:
        return self.first_row + len(self.rows) - 1

    @cached_property
    def widths(self) -> list[int]:
        """Lattice steps per row."""
        return [(hi - lo) // 2 for lo, hi in self.rows]

    @cached_property
    def ids(self) -> list[list[int]]:
        """The vertex ids of each row, left to right."""
        ends = accumulate(a + 1 for a in self.widths)
        return [list(range(end - a - 1, end)) for a, end in zip(self.widths, ends)]

    def cross_pairs(self, k: int) -> list[tuple[int, int]]:
        """Edges between rows k and k+1 as (index in row k, index in row k+1),
        computed once per stack (`_crosses`); read them, never change them."""
        return self._crosses[k]

    @cached_property
    def _crosses(self) -> list[list[tuple[int, int]]]:
        """`cross_pairs` of every pair of consecutive rows: p lies 1/2 from
        p + shift and p + shift + 1, where those exist (`_shifts`)."""
        return [[(p, q) for p in range(a + 1)
                 for q in (p + shift, p + shift + 1) if 0 <= q <= last]
                for a, last, shift in zip(self.widths, self.widths[1:], self._shifts)]

    @cached_property
    def _shifts(self) -> list[int]:
        """The shift of each pair of consecutive rows, in `_crosses`."""
        return [(lo - nxt - 1) // 2 for (lo, _), (nxt, _) in zip(self.rows, self.rows[1:])]

    @cached_property
    def _starts(self) -> list[int]:
        """The id of each row's first vertex."""
        return [row[0] for row in self.ids]

    def place(self, vid: int) -> tuple[int, int]:
        """(row relative to the first row, index in the row) of vid."""
        k = bisect_right(self._starts, vid) - 1
        if k < 0 or vid > self.ids[k][-1]:
            raise ValueError(f"{vid} is not a disc vertex")
        return k, vid - self._starts[k]

    def neighbours(self, vid: int) -> set[int]:
        """Disc vertices adjacent to vid: row neighbours, and cross ones by shift."""
        k, a = self.place(vid)
        near = [(k, a - 1), (k, a + 1)]
        if k > 0:
            shift = self._shifts[k - 1]
            near += [(k - 1, a - shift - 1), (k - 1, a - shift)]
        if k + 1 < len(self.rows):
            shift = self._shifts[k]
            near += [(k + 1, a + shift), (k + 1, a + shift + 1)]
        return {self.ids[r][b] for r, b in near if 0 <= b <= self.widths[r]}
