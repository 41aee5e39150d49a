"""Generators for systolic test complexes.

Two families: induced regions of the flat plane (flat by construction, with
the lattice embedding retained) and randomly grown planar triangulated discs
whose interior vertices all have degree >= 6 (systolic, generally non-flat).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complex import FlagComplex
from .lattice import HALF


def gen_flat_region(rows, first_row: int = 0) -> FlagComplex:
    """Induced subcomplex of the flat plane on a stack of row intervals.

    `rows[k]` = (leftX, rightX) for lattice row `first_row + k`; both are
    integers or half-integers matching the row parity and rightX - leftX is a
    nonnegative integer.  Consecutive rows must share at least one lattice
    adjacency.  The lattice embedding is kept in `coords`.
    """
    if not rows:
        raise ValueError("empty row spec")
    spans = []
    for k, (lo, hi) in enumerate(rows):
        row = first_row + k
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise ValueError(f"row {row}: rightX < leftX")
        if (2 * lo).denominator != 1 or ((2 * lo).numerator - row) % 2 != 0:
            raise ValueError(f"row {row}: leftX {lo} violates row parity")
        if (hi - lo).denominator != 1:
            raise ValueError(f"row {row}: width {hi - lo} not an integer")
        spans.append((row, lo, hi))
    for (r1, lo1, hi1), (r2, lo2, hi2) in zip(spans, spans[1:]):
        if max(lo1, lo2) - min(hi1, hi2) > HALF:
            raise ValueError(f"rows {r1} and {r2} share no lattice adjacency")

    coords = {}
    ids_by_row = []
    vid = 0
    for row, lo, hi in spans:
        ids = []
        x = lo
        while x <= hi:
            coords[vid] = (row, x)
            ids.append(vid)
            vid += 1
            x += 1
        ids_by_row.append(ids)

    edges = []
    for ids in ids_by_row:
        edges += [(a, b) for a, b in zip(ids, ids[1:])]
    for (_, lo1, _), (_, lo2, _), ids_a, ids_b in zip(spans, spans[1:],
                                                      ids_by_row, ids_by_row[1:]):
        # index p of the lower row meets indices p + shift and p + shift + 1
        shift = int(lo1 - lo2 - HALF)
        edges += [(a, ids_b[q]) for p, a in enumerate(ids_a)
                  for q in (p + shift, p + shift + 1) if 0 <= q < len(ids_b)]

    X = FlagComplex.from_edges(edges, vertices=coords.keys(), coords=coords)
    if not X.is_connected():
        raise ValueError("row spec produces a disconnected region")
    return X


def flat_parallelogram(height: int, width: int, first_row: int = 0) -> FlagComplex:
    """Flat parallelogram with 60-degree sides: row k spans [k/2, k/2 + width].

    Convex as a subcomplex of the flat plane.
    """
    rows = [(Fraction(k, 2), Fraction(k, 2) + width) for k in range(height + 1)]
    return gen_flat_region(rows, first_row)


def flat_rectangle(height: int, width: int, first_row: int = 0) -> FlagComplex:
    """Flat region with zigzag vertical sides: row k spans [(k mod 2)/2, ... + width]."""
    rows = [(Fraction(k % 2, 2), Fraction(k % 2, 2) + width) for k in range(height + 1)]
    return gen_flat_region(rows, first_row)


def random_flat_disc(seed: int, max_vertices: int = 400) -> FlagComplex:
    """Random flat disc: a row stack with unit-step side offsets and mild
    width changes, rejection-sampled against the defect characterization of
    flatness."""
    from .flatgeom import as_disc, is_flat

    rng = random.Random(seed)
    for _ in range(100):
        height = rng.randint(2, 9)
        width = rng.randint(2, 6)
        lo = Fraction(0)
        rows = [(lo, lo + width)]
        for k in range(1, height + 1):
            lo = lo + rng.choice([-HALF, HALF])
            if rng.random() < 0.25:
                width = max(1, width + rng.choice([-1, 1]))
            rows.append((lo, lo + width))
        try:
            X = gen_flat_region(rows)
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
