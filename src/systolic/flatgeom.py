"""Exact geometry of the flat plane: discs, defects, flatness, and the
CAT(0) geodesic through a stack of horizontal row intervals.

All plane geometry is exact: a point is (row, x) with x a Fraction, rows are
sqrt(3)/2 apart, and sqrt(3) is never materialized (slope tests factor it
out).  Bit-exact tie detection at edge barycenters depends on this.  The
geodesic runs through a `RowStack`, whose row ends are integers in
half-units; it is a taut string pulled through the rows' doors, one slope
window at a time, on integers.  Its break-point oracle and the isometric
lattice embedding of flat discs live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .complex import FlagComplex, Simplex
from .lattice import RowStack


class DiscError(ValueError):
    """The complex is not a triangulated 2-disc."""


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


# ---------------------------------------------------------------------------
# Exact CAT(0) geodesics through row stacks.


@dataclass(frozen=True)
class PolyPath:
    """A path through a row stack, one exact crossing x per row."""
    first_row: int
    xs: tuple[Fraction, ...]

    def x_at(self, row: int) -> Fraction:
        return self.xs[row - self.first_row]


def polygon_geodesic(stack: RowStack, p, q) -> PolyPath:
    """Exact shortest path from p on the first row to q on the last row.

    A taut string over the doors: the interior rows, then the point q.  The
    slab between consecutive rows is the convex hull of its two doors, so
    the path is straight between bends, and it bends only at door ends.
    From the last bend (the apex) two rows bound the window of feasible
    slopes: the left door end that needs the steepest slope and the right
    door end that allows the shallowest.  A door wholly past one bound
    makes that bound's door end the next bend, and the rows after it are
    read again.  Bends sit on strictly increasing rows.  The endpoints' x
    are Fractions; all x values are scaled to integers by den = lcm(2, the
    endpoints' denominators) and slopes compared by cross-multiplying, so
    every crossing is an exact Fraction.
    """
    m = len(stack.rows) - 1
    pr, px = p
    qr, qx = q
    if pr != stack.first_row or qr != stack.last_row:
        raise ValueError("endpoints must lie on the first and last rows")
    lo, hi = stack.rows[0]
    if not lo <= 2 * px <= hi:
        raise ValueError("start point outside its row interval")
    lo, hi = stack.rows[-1]
    if not lo <= 2 * qx <= hi:
        raise ValueError("end point outside its row interval")
    if m == 0:
        if px != qx:
            raise ValueError("degenerate disc with distinct endpoints")
        return PolyPath(pr, (Fraction(px),))

    start, goal = Fraction(px), Fraction(qx)
    den = lcm(2, start.denominator, goal.denominator)
    k0, x0, xq = 0, int(start * den), int(goal * den)
    # doors[k] is row k's door, scaled; row 0 is unused
    doors = [(lo * den // 2, hi * den // 2) for lo, hi in stack.rows[:-1]] + [(xq, xq)]
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
    bends.append((m, xq))

    xs = []
    for (k1, x1), (k2, x2) in zip(bends, bends[1:]):
        n = k2 - k1
        xs.extend(Fraction(x1 * n + (x2 - x1) * j, n * den) for j in range(n))
    xs.append(goal)
    return PolyPath(stack.first_row, tuple(xs))
