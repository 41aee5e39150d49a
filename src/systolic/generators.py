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
    `RowStack.cross_pairs`); the lattice embedding is kept in `coords`.
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

    coords = {v: (stack.first_row + k, Fraction(lo + 2 * h, 2))
              for k, ((lo, _), ids) in enumerate(zip(stack.rows, stack.ids))
              for h, v in enumerate(ids)}
    edges = [(a, b) for ids in stack.ids for a, b in zip(ids, ids[1:])]
    for k, (ids_a, ids_b) in enumerate(zip(stack.ids, stack.ids[1:])):
        edges += [(ids_a[p], ids_b[q]) for p, q in stack.cross_pairs(k)]

    return FlagComplex.from_edges(edges, vertices=coords.keys(), coords=coords)


def flat_parallelogram(height: int, width: int) -> FlagComplex:
    """Flat parallelogram with 60-degree sides: row k spans [k/2, k/2 + width].

    Convex as a subcomplex of the flat plane.
    """
    return gen_flat_region(RowStack(0, tuple((k, k + 2 * width) for k in range(height + 1))))


def flat_rectangle(height: int, width: int) -> FlagComplex:
    """Flat region with zigzag vertical sides: row k spans [(k mod 2)/2, ... + width]."""
    return gen_flat_region(RowStack(0, tuple((k % 2, k % 2 + 2 * width)
                                             for k in range(height + 1))))


def random_flat_disc(seed: int, max_vertices: int = 400) -> FlagComplex:
    """Random flat disc: a row stack with unit-step side offsets and mild
    width changes, rejection-sampled against the defect characterization of
    flatness."""
    from .flatgeom import as_disc, is_flat

    rng = random.Random(seed)
    for _ in range(100):
        height = rng.randint(2, 9)
        width = rng.randint(2, 6)
        lo = 0
        rows = [(lo, lo + 2 * width)]
        for k in range(1, height + 1):
            lo += rng.choice([-1, 1])
            if rng.random() < 0.25:
                width = max(1, width + rng.choice([-1, 1]))
            rows.append((lo, lo + 2 * width))
        try:
            X = gen_flat_region(RowStack(0, tuple(rows)))
        except ValueError:
            continue
        if len(X) > max_vertices:
            continue
        try:
            disc = as_disc(X)
        except ValueError:
            continue
        if is_flat(disc).ok:
            return X
    raise RuntimeError(f"no flat disc found for seed {seed}")


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
