"""Generators for systolic test complexes.

Two families: induced regions of the flat plane on a `RowStack`, whose
vertex numbering and edges they take (flat by construction, with the
lattice embedding retained), and randomly grown planar triangulated discs
whose interior vertices all have degree >= 6 (systolic, generally non-flat).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from .complex import FlagComplex
from .lattice import RowStack


def gen_flat_region(stack: RowStack) -> FlagComplex:
    """Induced subcomplex of the flat plane on a stack of row intervals.

    Each row's ends, in half-units, must match the row parity, and its
    width must be a whole number of lattice steps.  Consecutive rows must
    share at least one lattice adjacency, so the region is connected: each
    row is a path, and a cross edge joins each pair of consecutive rows.
    Vertex ids and edges are the stack's (`RowStack.ids`,
    `RowStack.cross_pairs`), passed to `FlagComplex.from_edges`, row edges
    first, then cross edges row by row; the lattice embedding is kept in
    `coords`, with one Fraction per half-integer x.
    """
    if not stack.rows:
        raise ValueError("empty row spec")
    for row, (lo, hi) in enumerate(stack.rows, start=stack.first_row):
        if (lo - row) % 2:
            raise ValueError(f"row {row}: leftX {Fraction(lo, 2)} violates row parity")
        if (hi - lo) % 2:
            raise ValueError(f"row {row}: width {Fraction(hi - lo, 2)} not an integer")
    for row, ((lo1, hi1), (lo2, hi2)) in enumerate(zip(stack.rows, stack.rows[1:]),
                                                   start=stack.first_row):
        if max(lo1, lo2) - min(hi1, hi2) > 1:
            raise ValueError(f"rows {row} and {row + 1} share no lattice adjacency")

    # x by its value in half-units, one Fraction each
    halves = {x2: Fraction(x2, 2) for x2 in range(min(lo for lo, _ in stack.rows),
                                                  max(hi for _, hi in stack.rows) + 1)}
    coords = {v: (row, halves[lo + 2 * h])
              for row, ((lo, _), ids) in enumerate(zip(stack.rows, stack.ids),
                                                   start=stack.first_row)
              for h, v in enumerate(ids)}
    edges = [(a, b) for ids in stack.ids for a, b in zip(ids, ids[1:])]
    for k, (ids_a, ids_b) in enumerate(zip(stack.ids, stack.ids[1:])):
        edges += [(ids_a[p], ids_b[q]) for p, q in stack.cross_pairs(k)]
    return FlagComplex.from_edges(edges, vertices=coords, coords=coords)


def flat_parallelogram(height: int, width: int) -> FlagComplex:
    """Flat parallelogram with 60-degree sides: row k spans [k/2, k/2 + width].

    Convex as a subcomplex of the flat plane.
    """
    return gen_flat_region(RowStack(0, tuple((k, k + 2 * width) for k in range(height + 1))))


def flat_rectangle(height: int, width: int) -> FlagComplex:
    """Flat region with zigzag vertical sides: row k spans [(k mod 2)/2, ... + width]."""
    return gen_flat_region(RowStack(0, tuple((k % 2, k % 2 + 2 * width)
                                             for k in range(height + 1))))


def gen_disc_with_degrees(seed: int, rings: int = 2, bulge: float = 0.5) -> FlagComplex:
    """Random planar triangulated disc with all interior degrees >= 6.

    Grows ring by ring from a triangle: every old boundary edge gets one new
    vertex, and each old boundary vertex b gets max(0, 3 - t(b)) fan vertices
    plus a random extra with probability `bulge` (extras create negative
    curvature).  Each ring turns the previous boundary interior with >= 6
    incident triangles, so the result is systolic and in general not flat.
    Its triangles' edges go to `FlagComplex.from_edges` in the order they
    are added, so vertex ids and neighbourhoods follow the growth.
    """
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    tri_count: Counter[int] = Counter()

    def add_triangle(a: int, b: int, c: int) -> None:
        edges.extend(((a, b), (b, c), (a, c)))
        tri_count.update((a, b, c))

    add_triangle(0, 1, 2)
    boundary = [0, 1, 2]
    next_id = 3
    for _ in range(rings):
        m = len(boundary)
        edge_vertex = []
        for idx in range(m):
            b0, b1 = boundary[idx], boundary[(idx + 1) % m]
            w = next_id
            next_id += 1
            add_triangle(b0, b1, w)
            edge_vertex.append(w)
        new_boundary = []
        for idx in range(m):
            b = boundary[idx]
            need = max(0, 3 - (tri_count[b] - 2))  # defect before this ring
            fans = need + (1 if rng.random() < bulge else 0)
            prev_w = edge_vertex[(idx - 1) % m]
            new_boundary.append(prev_w)
            chain = prev_w
            for _ in range(fans):
                u = next_id
                next_id += 1
                add_triangle(b, chain, u)
                new_boundary.append(u)
                chain = u
            add_triangle(b, chain, edge_vertex[idx])
        boundary = new_boundary

    return FlagComplex.from_edges(edges)
