"""Exact geometry of the flat plane: discs, defects, embeddings, and the
CAT(0) geodesic through a stack of horizontal row intervals.

All plane geometry is exact-rational: a point is (row, x) with x a Fraction,
rows are sqrt(3)/2 apart, and sqrt(3) is never materialized (slope tests
factor it out, squared lengths are dx^2 + 3/4 dr^2).  Bit-exact tie
detection at edge barycenters depends on this.  The geodesic is a taut
string pulled through the rows' doors, one slope window at a time;
`polygon_geodesic_bruteforce` is its break-point oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

from .complex import FlagComplex, Simplex
from .lattice import canonical_placement, lattice_dist
from .metric import dist_map


class DiscError(ValueError):
    """The complex is not a triangulated 2-disc."""


class EmbedError(ValueError):
    """Flat embedding failed; falsifies flatness of the disc."""


@dataclass(frozen=True)
class TriangulatedDisc:
    complex: FlagComplex
    boundary_cycle: tuple[int, ...]
    triangles: tuple[Simplex, ...]

    @property
    def boundary_set(self) -> frozenset[int]:
        return frozenset(self.boundary_cycle)


def as_disc(X: FlagComplex) -> TriangulatedDisc:
    """Validate that X is a triangulated 2-disc and orient its boundary.

    Checks: connected, every edge in one or two triangles, boundary edges
    form a single embedded cycle, Euler characteristic V - E + F = 1, and
    every vertex link is a path (boundary) or a cycle (interior).
    """
    if not X.adjacency or not X.is_connected():
        raise DiscError("not a nonempty connected complex")
    tris = X.triangles()
    edge_tris: dict[tuple[int, int], list[Simplex]] = {}
    for t in tris:
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edge_tris.setdefault(e, []).append(t)
    edges = X.edges()
    for e in edges:
        k = len(edge_tris.get(e, ()))
        if k == 0 or k > 2:
            raise DiscError(f"edge {e} lies in {k} triangles")
    boundary_edges = [e for e in edges if len(edge_tris[e]) == 1]
    if not boundary_edges:
        raise DiscError("no boundary edges")
    succ: dict[int, list[int]] = {}
    for u, v in boundary_edges:
        succ.setdefault(u, []).append(v)
        succ.setdefault(v, []).append(u)
    if any(len(ns) != 2 for ns in succ.values()):
        raise DiscError("boundary is not a union of disjoint cycles")
    start = min(succ)
    cycle = [start, min(succ[start])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = succ[cur][0] if succ[cur][0] != prev else succ[cur][1]
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(boundary_edges):
        raise DiscError("boundary has more than one cycle")
    if len(X) - len(edges) + len(tris) != 1:
        raise DiscError("Euler characteristic is not 1")
    bset = frozenset(cycle)
    for v in X.vertices:
        link = X.induced(X.adjacency[v])
        deg2 = sum(1 for w in link.vertices if link.degree(w) == 2)
        deg1 = sum(1 for w in link.vertices if link.degree(w) == 1)
        if not link.is_connected():
            raise DiscError(f"vertex {v} link disconnected")
        if v in bset:
            if not (deg1 == 2 and deg1 + deg2 == len(link)) and len(link) != 1:
                raise DiscError(f"boundary vertex {v} link is not a path")
        else:
            if deg2 != len(link) or deg2 < 3:
                raise DiscError(f"interior vertex {v} link is not a cycle")
    return TriangulatedDisc(X, tuple(cycle), tuple(tris))


def triangle_count(disc: TriangulatedDisc, v: int) -> int:
    return sum(1 for t in disc.triangles if v in t)


def defect(disc: TriangulatedDisc, v: int) -> int:
    """6 - t(v) at interior vertices, 3 - t(v) at boundary vertices."""
    t = triangle_count(disc, v)
    return 3 - t if v in disc.boundary_set else 6 - t


def gauss_bonnet_sum(disc: TriangulatedDisc) -> int:
    return sum(defect(disc, v) for v in disc.complex.vertices)


class FlatResult(NamedTuple):
    ok: bool
    witness: tuple | None


def is_flat(disc: TriangulatedDisc) -> FlatResult:
    """Defect characterization of flatness: interior defects >= 0, boundary
    defects >= -1, and negative-defect boundary stretches broken by a
    positive defect."""
    for v in disc.complex.vertices:
        if v not in disc.boundary_set and defect(disc, v) < 0:
            return FlatResult(False, ("interior", v))
        if v in disc.boundary_set and defect(disc, v) < -1:
            return FlatResult(False, ("boundary", v))
    cyc = disc.boundary_cycle
    m = len(cyc)
    for a in range(m):
        if defect(disc, cyc[a]) >= 0:
            continue
        for step in range(1, m):
            d = defect(disc, cyc[(a + step) % m])
            if d > 0:
                break
            if d < 0:
                return FlatResult(False, ("segment", cyc[a], cyc[(a + step) % m]))
    return FlatResult(True, None)


def embed_flat_disc(disc: TriangulatedDisc) -> dict[int, tuple[int, Fraction]]:
    """Isometric lattice placement of a flat disc.

    Fixes one triangle and propagates across shared edges (the third vertex
    of a neighboring triangle is the reflection a + b - c).  Verifies
    injectivity and, at desk scale, that every pairwise 1-skeleton distance
    matches the closed-form lattice distance.
    """
    X = disc.complex
    tris = list(disc.triangles)
    edge_to_tris: dict[tuple[int, int], list[int]] = {}
    for idx, t in enumerate(tris):
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edge_to_tris.setdefault(e, []).append(idx)
    pos: dict[int, tuple[int, Fraction]] = {}
    a, b, c = tris[0]
    pos[a] = (0, Fraction(0))
    pos[b] = (0, Fraction(1))
    pos[c] = (1, Fraction(1, 2))
    placed = [False] * len(tris)
    placed[0] = True
    stack = [0]
    while stack:
        t = tris[stack.pop()]
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            third_here = next(v for v in t if v not in e)
            for nidx in edge_to_tris[e]:
                if placed[nidx]:
                    continue
                nt = tris[nidx]
                third = next(v for v in nt if v not in e)
                pa, pb, pd = pos[e[0]], pos[e[1]], pos[third_here]
                cand = (pa[0] + pb[0] - pd[0], pa[1] + pb[1] - pd[1])
                if third in pos:
                    if pos[third] != cand:
                        raise EmbedError(f"inconsistent placement at vertex {third}")
                else:
                    pos[third] = cand
                placed[nidx] = True
                stack.append(nidx)
    if len(pos) != len(X):
        raise EmbedError("disc triangles do not cover all vertices")
    if len(set(pos.values())) != len(pos):
        raise EmbedError("placement is not injective")
    verts = X.vertices
    if len(verts) <= 400:
        pairs = ((u, v) for i, u in enumerate(verts) for v in verts[i + 1:])
    else:
        rng = random.Random(0)
        pairs = ((rng.choice(verts), rng.choice(verts)) for _ in range(500))
    for u, v in pairs:
        if u == v:
            continue
        if dist_map(X, (u,)).get(v) != lattice_dist(pos[u], pos[v]):
            raise EmbedError(f"distance mismatch between {u} and {v}")
    return pos


def placements_congruent(p1, p2) -> bool:
    """Whether two lattice placements agree up to a lattice isometry."""
    return canonical_placement(p1.values()) == canonical_placement(p2.values())


# ---------------------------------------------------------------------------
# Generalized characteristic discs and exact CAT(0) geodesics through them.


@dataclass(frozen=True)
class GenCharDisc:
    """A stack of horizontal row intervals (rows sqrt(3)/2 apart, straight
    boundary segments between consecutive rows).  Degenerate rows (points)
    are legal."""
    first_row: int
    rows: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for lo, hi in self.rows:
            if hi < lo:
                raise ValueError("row with rightX < leftX")

    @property
    def last_row(self) -> int:
        return self.first_row + len(self.rows) - 1


@dataclass(frozen=True)
class PolyPath:
    """A path through a row stack, one exact crossing x per row."""
    first_row: int
    xs: tuple[Fraction, ...]

    def x_at(self, row: int) -> Fraction:
        return self.xs[row - self.first_row]


def d_close(a: PolyPath, b: PolyPath) -> Fraction:
    """Max horizontal distance between two paths over their shared rows."""
    if a.first_row != b.first_row or len(a.xs) != len(b.xs):
        raise ValueError("paths cover different row ranges")
    return max((abs(x - y) for x, y in zip(a.xs, b.xs)), default=Fraction(0))


def polygon_geodesic(disc: GenCharDisc, p, q) -> PolyPath:
    """Exact shortest path from p on the first row to q on the last row.

    A taut string over the doors: the interior rows, then the point q.  The
    slab between consecutive rows is the convex hull of its two doors, so
    the path is straight between bends, and it bends only at door ends.
    From the last bend (the apex) two rows bound the window of feasible
    slopes: the left door end that needs the steepest slope and the right
    door end that allows the shallowest.  A door wholly past one bound
    makes that bound's door end the next bend, and the rows after it are
    read again.  Bends sit on strictly increasing rows.  The x values are
    scaled to integers by their common denominator and slopes compared by
    cross-multiplying, so every crossing is an exact Fraction.
    """
    m = len(disc.rows) - 1
    pr, px = p
    qr, qx = q
    if pr != disc.first_row or qr != disc.last_row:
        raise ValueError("endpoints must lie on the first and last rows")
    lo, hi = disc.rows[0]
    if not lo <= px <= hi:
        raise ValueError("start point outside its row interval")
    lo, hi = disc.rows[-1]
    if not lo <= qx <= hi:
        raise ValueError("end point outside its row interval")
    if m == 0:
        if px != qx:
            raise ValueError("degenerate disc with distinct endpoints")
        return PolyPath(pr, (Fraction(px),))

    start, goal = Fraction(px), Fraction(qx)
    ends = (*disc.rows[:-1], (goal, goal))      # ends[k] is row k's door; row 0 unused
    den = lcm(start.denominator, *(x.denominator for door in ends for x in door))
    doors = [(lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator))
             for lo, hi in ends]
    k0, x0 = 0, start.numerator * (den // start.denominator)
    bends = [(k0, x0)]
    left = right = k = 1    # rows of the steepest left end and shallowest right end
    while k <= m:
        lo, hi = doors[k]
        if (lo - x0) * (right - k0) > (doors[right][1] - x0) * (k - k0):
            k0, x0 = right, doors[right][1]
        elif (hi - x0) * (left - k0) < (doors[left][0] - x0) * (k - k0):
            k0, x0 = left, doors[left][0]
        else:
            if (lo - x0) * (left - k0) >= (doors[left][0] - x0) * (k - k0):
                left = k
            if (hi - x0) * (right - k0) <= (doors[right][1] - x0) * (k - k0):
                right = k
            k += 1
            continue
        bends.append((k0, x0))
        left = right = k = k0 + 1
    bends.append((m, doors[m][0]))

    xs = []
    for (k1, x1), (k2, x2) in zip(bends, bends[1:]):
        n = k2 - k1
        xs.extend(Fraction(x1 * n + (x2 - x1) * j, n * den) for j in range(n))
    xs.append(goal)
    return PolyPath(disc.first_row, tuple(xs))


def polygon_geodesic_bruteforce(disc: GenCharDisc, p, q) -> PolyPath:
    """Oracle: enumerate boundary-vertex break subsequences and select the
    optimal one by exact convexity conditions.

    The geodesic is the unique minimizer of sum_k sqrt(dx_k^2 + 3/4) over
    per-row crossings boxed to the row intervals; a candidate (a set of rows
    pinned to their left or right ends, straight in between) is optimal iff
    it is feasible and at every pinned row the slope comparison holds
    (t -> t/sqrt(t^2+3/4) is increasing, so the stationarity tests reduce to
    rational comparisons).  No lengths are ever computed.
    """
    m = len(disc.rows) - 1
    pr, px = p
    qr, qx = q
    if pr != disc.first_row or qr != disc.last_row:
        raise ValueError("endpoints must lie on the first and last rows")
    if m == 0:
        return PolyPath(pr, (Fraction(px),))
    solutions = set()
    for choice in product((None, "L", "R"), repeat=m - 1):
        pinned = [(0, Fraction(px))]
        ok = True
        for k, side in enumerate(choice, start=1):
            lo, hi = disc.rows[k]
            if side == "L":
                pinned.append((k, lo))
            elif side == "R":
                if hi == lo:
                    ok = False  # point rows are canonically pinned "L"
                    break
                pinned.append((k, hi))
        if not ok:
            continue
        pinned.append((m, Fraction(qx)))
        xs: list[Fraction] = [Fraction(0)] * (m + 1)
        for (k1, x1), (k2, x2) in zip(pinned, pinned[1:]):
            for k in range(k1, k2 + 1):
                xs[k] = x1 + (x2 - x1) * Fraction(k - k1, k2 - k1) if k2 > k1 else x1
        if any(not disc.rows[k][0] <= xs[k] <= disc.rows[k][1] for k in range(m + 1)):
            continue
        optimal = True
        for k in range(1, m):
            lo, hi = disc.rows[k]
            u = xs[k] - xs[k - 1]
            v = xs[k + 1] - xs[k]
            if lo == hi:
                continue
            if xs[k] == lo and xs[k] == hi:
                continue
            if xs[k] == lo:
                if u < v:
                    optimal = False
                    break
            elif xs[k] == hi:
                if u > v:
                    optimal = False
                    break
            else:
                if u != v:
                    optimal = False
                    break
        if optimal:
            solutions.add(tuple(xs))
    if len(solutions) != 1:
        raise AssertionError(f"oracle found {len(solutions)} stationary paths")
    return PolyPath(disc.first_row, solutions.pop())
