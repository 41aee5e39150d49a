"""Generators for systolic test complexes.

Two families: induced regions of the flat plane on a `RowStack`, whose
vertex numbering and edges they take (flat by construction, with the
lattice embedding retained), and randomly grown planar triangulated discs
whose interior vertices all have degree >= 6 (systolic, generally non-flat).
"""

from __future__ import annotations

import random
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
    `RowStack.cross_pairs`); the lattice embedding is kept in `coords`, with
    one Fraction per half-integer x.  Each neighbourhood is frozen from its
    neighbours in the order `FlagComplex.from_edges` would add them (row
    edges, then cross edges row by row), so its iteration order is the one
    that build gives.
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
    nbrs: dict[int, list[int]] = {v: [] for v in coords}
    for ids in stack.ids:
        for a, b in zip(ids, ids[1:]):
            nbrs[a].append(b)
            nbrs[b].append(a)
    for k, (ids_a, ids_b) in enumerate(zip(stack.ids, stack.ids[1:])):
        for p, q in stack.cross_pairs(k):
            a, b = ids_a[p], ids_b[q]
            nbrs[a].append(b)
            nbrs[b].append(a)
    # frozen from a set, as from_edges does: a frozenset copied from a set
    # can iterate in another order than one built from the list
    return FlagComplex({v: frozenset(set(ns)) for v, ns in nbrs.items()}, coords)


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
    """
    rng = random.Random(seed)
    adjacency: dict[int, set[int]] = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    tri_count = {0: 1, 1: 1, 2: 1}
    boundary = [0, 1, 2]
    next_id = 3

    def add_edge(a: int, b: int) -> None:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    def add_triangle(a: int, b: int, c: int) -> None:
        add_edge(a, b)
        add_edge(b, c)
        add_edge(a, c)
        for v in (a, b, c):
            tri_count[v] = tri_count.get(v, 0) + 1

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

    frozen = {v: frozenset(ns) for v, ns in adjacency.items()}
    return FlagComplex(frozen)
