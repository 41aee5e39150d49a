"""Exact coordinates on the equilateral triangulation of the plane.

Vertices live on horizontal rows spaced sqrt(3)/2 apart and are stored as
(row, x) with row an integer and x a Fraction; 2*x is an integer with the
same parity as the row.  sqrt(3) is never materialized, so every predicate
is a rational comparison.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)

Point = tuple[int, Fraction]


def lattice_adjacent(p: Point, q: Point) -> bool:
    dr = abs(q[0] - p[0])
    dx = abs(q[1] - p[1])
    return (dr == 0 and dx == 1) or (dr == 1 and dx == HALF)


def lattice_dist(p: Point, q: Point) -> int:
    """1-skeleton distance between two lattice vertices (closed form)."""
    dr = abs(q[0] - p[0])
    dx = abs(Fraction(q[1]) - Fraction(p[1]))
    extra = dx - Fraction(dr, 2)
    if extra <= 0:
        return dr
    if extra.denominator != 1:
        raise ValueError(f"not lattice vertices: {p}, {q}")
    return dr + extra.numerator


# Cube coordinates (a + b + c = 0) for applying the 12-element point group.

def to_cube(p: Point) -> tuple[int, int, int]:
    row, x = p
    a = Fraction(x) - Fraction(row, 2)
    if a.denominator != 1:
        raise ValueError(f"not a lattice vertex: {p}")
    a = a.numerator
    return (a, -a - row, row)


def from_cube(c: tuple[int, int, int]) -> Point:
    a, _, row = c
    return (row, Fraction(2 * a + row, 2))


def _rot60(c):
    a, b, cc = c
    return (-b, -cc, -a)


def _mirror(c):
    a, b, cc = c
    return (b, a, cc)


def point_group() -> list:
    """The 12 transforms of the hexagonal point group, as cube-coordinate maps."""
    maps = []
    for use_mirror in (False, True):
        for k in range(6):
            def f(c, k=k, use_mirror=use_mirror):
                if use_mirror:
                    c = _mirror(c)
                for _ in range(k):
                    c = _rot60(c)
                return c
            maps.append(f)
    return maps


_POINT_GROUP = point_group()


def canonical_placement(points) -> tuple:
    """Canonical form of a finite vertex set modulo lattice isometries.

    Minimizes over the 12 point-group transforms followed by the translation
    that moves the lexicographically least image to the origin.  Two
    placements are congruent iff their canonical forms are equal.
    """
    cubes = [to_cube(p) for p in points]
    best = None
    for f in _POINT_GROUP:
        imgs = sorted(f(c) for c in cubes)
        a0, b0, c0 = imgs[0]
        shifted = tuple((a - a0, b - b0, c - c0) for a, b, c in imgs)
        if best is None or shifted < best:
            best = shifted
    return best
