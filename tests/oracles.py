"""Oracles that cross-check the library, kept off its production path.

A whole-component deque BFS; the induced-path DFS for induced cycles;
closed-form lattice distance and the point-group canonicalization of
lattice placements; the isometric embedding of flat discs; the break-point
enumeration oracle of `flatgeom.polygon_geodesic`; the all-surfaces
enumeration, characteristic-image span and preimage decoder for
characteristic discs; the minimal-surface search and the no-interior-vertex
triangulability test.  Tests import them from here.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

from systolic.charsurf import (CharDisc, CharDiscError, SurfaceError, _surfaces,
                               characteristic_image)
from systolic.complex import FlagComplex, Simplex
from systolic.flatgeom import PolyPath, TriangulatedDisc
from systolic.lattice import Point, RowStack
from systolic.layers import maximizing_pairs
from systolic.metric import dist, dist_map


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


def bfs_oracle(adjacency, sources) -> dict[int, int]:
    """Distances from a source set to its whole component, by a deque BFS
    that labels vertices in the order the library's maps hold them."""
    key = frozenset(sources)
    dist = {v: 0 for v in key}
    queue = deque(key)
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def find_induced_cycle(X: FlagComplex, min_len: int, max_len: int):
    """Some induced (full) cycle of length in [min_len, max_len], or None.

    DFS over induced paths anchored at their least vertex; prunes on any
    chord to an earlier path vertex.  Exponential in max_len: the oracle
    for `complex.shortest_hole` and `complex.chordless_cycle`.
    """
    adj = X.adjacency
    for s in sorted(adj):
        # path[0] == s; extensions use vertices > s only.
        stack = [(s,)]
        while stack:
            path = stack.pop()
            last = path[-1]
            for w in sorted(adj[last]):
                if w <= s or w in path:
                    continue
                if len(path) == 1:
                    stack.append(path + (w,))
                    continue
                # w may touch the path only at `last` (and possibly s to close)
                if any(x in adj[w] for x in path[1:-1]):
                    continue
                if s in adj[w]:
                    if len(path) >= min_len - 1 and path[1] < w:
                        return path + (w,)  # one orientation per cycle
                    continue
                if len(path) < max_len - 1:
                    stack.append(path + (w,))
    return None


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


class EmbedError(ValueError):
    """Flat embedding failed; falsifies flatness of the disc."""


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


def d_close(a: PolyPath, b: PolyPath) -> Fraction:
    """Max horizontal distance between two paths over their shared rows."""
    if a.first_row != b.first_row or len(a.xs) != len(b.xs):
        raise ValueError("paths cover different row ranges")
    return max((abs(x - y) for x, y in zip(a.xs, b.xs)), default=Fraction(0))


def polygon_geodesic_bruteforce(stack: RowStack, p, q) -> PolyPath:
    """Oracle: enumerate boundary-vertex break subsequences and select the
    optimal one by exact convexity conditions.

    The geodesic is the unique minimizer of sum_k sqrt(dx_k^2 + 3/4) over
    per-row crossings boxed to the row intervals; a candidate (a set of rows
    pinned to their left or right ends, straight in between) is optimal iff
    it is feasible and at every pinned row the slope comparison holds
    (t -> t/sqrt(t^2+3/4) is increasing, so the stationarity tests reduce to
    rational comparisons).  No lengths are ever computed.
    """
    rows = [(Fraction(lo, 2), Fraction(hi, 2)) for lo, hi in stack.rows]
    m = len(rows) - 1
    pr, px = p
    qr, qx = q
    if pr != stack.first_row or qr != stack.last_row:
        raise ValueError("endpoints must lie on the first and last rows")
    if m == 0:
        return PolyPath(pr, (Fraction(px),))
    solutions = set()
    for choice in product((None, "L", "R"), repeat=m - 1):
        pinned = [(0, Fraction(px))]
        ok = True
        for k, side in enumerate(choice, start=1):
            lo, hi = rows[k]
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
        if any(not rows[k][0] <= xs[k] <= rows[k][1] for k in range(m + 1)):
            continue
        optimal = True
        for k in range(1, m):
            lo, hi = rows[k]
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
    return PolyPath(stack.first_row, solutions.pop())


def enumerate_char_surfaces(X: FlagComplex, cd: CharDisc, limit: int = 100000):
    """All characteristic surfaces (oracle-grade, small discs only), over
    every choice of thickness-realizing boundary representatives."""
    count = 0
    choices = [maximizing_pairs(X, sig, tau)[1]
               for sig, tau in zip(cd.sigma_seq, cd.tau_seq)]
    for combo in product(*choices):
        alt = replace(cd, s=[c[0] for c in combo], t=[c[1] for c in combo])
        for surface in _surfaces(X, alt):
            yield surface
            count += 1
            if count >= limit:
                raise SurfaceError("surface enumeration limit hit")


def char_image_oracle(X: FlagComplex, cd: CharDisc, rho, limit: int = 100000) -> Simplex:
    """Span of images of rho over exhaustively enumerated surfaces."""
    rho = tuple(sorted(rho))
    out: set[int] = set()
    for surf in enumerate_char_surfaces(X, cd, limit):
        out |= {surf[u] for u in rho}
    return tuple(sorted(out))


def char_preimage(X: FlagComplex, sigma, tau, cd: CharDisc,
                  surface: dict[int, int], x: int) -> int:
    """The unique disc vertex whose characteristic image contains x.

    Decodes by layer and image membership; ambiguity or absence raises (the
    preimage is single-valued on the characteristic image).
    """
    n = dist(X, sigma, tau)
    k = dist(X, (x,), sigma)
    if dist(X, (x,), tau) != n - k or not cd.interval[0] <= k <= cd.interval[1]:
        raise ValueError(f"vertex {x} lies outside the disc's layers")
    matches = [u for u in cd.stack.ids[k - cd.interval[0]]
               if x in characteristic_image(X, sigma, tau, cd, surface, (u,))]
    if len(matches) != 1:
        raise CharDiscError(f"preimage of {x} is not unique: {matches}")
    return matches[0]


# ---------------------------------------------------------------------------
# Minimal-surface search (oracle-grade).


@dataclass(frozen=True)
class FillingResult:
    area: int | None
    triangles: tuple[Simplex, ...] | None
    capped: bool


def _canon_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    m = len(cycle)
    best = None
    for rev in (cycle, cycle[::-1]):
        for r in range(m):
            rot = rev[r:] + rev[:r]
            if best is None or rot < best:
                best = rot
    return best


def minimal_surface_bruteforce(X: FlagComplex, loop, max_area: int = 24) -> FillingResult:
    """Minimum-area simplicial disc spanned on an embedded loop.

    Recursion on the triangle attached to a fixed edge of the hole: ears,
    chord splits (memoized on the canonical cycle), or an interior vertex
    insertion.  Explores fillings whose intermediate boundaries stay
    embedded; exhaustive at oracle scale, capped by `max_area`.
    """
    loop = tuple(loop)
    if len(loop) < 3 or len(set(loop)) != len(loop):
        raise ValueError("loop must be an embedded cycle")
    for a, b in zip(loop, loop[1:] + loop[:1]):
        if not X.is_edge(a, b):
            raise ValueError(f"loop edge ({a}, {b}) missing")

    memo: dict[tuple, tuple[int, object]] = {}

    def fill(cycle: tuple[int, ...], budget: int):
        if budget < 1:
            return None
        if len(cycle) == 3:
            return [cycle] if X.is_simplex(cycle) else None
        key = _canon_cycle(cycle)
        if key in memo:
            known_budget, known = memo[key]
            if known is not None and len(known) <= budget:
                return known
            if known is None and known_budget >= budget:
                return None
        cycle = key
        c0, c1 = cycle[0], cycle[1]
        cset = set(cycle)
        index = {v: idx for idx, v in enumerate(cycle)}
        best = None
        for z in sorted(X.adjacency[c0] & X.adjacency[c1]):
            tri = tuple(sorted((c0, c1, z)))
            sub_budget = (budget if best is None else len(best) - 1) - 1
            if sub_budget < 0:
                break
            if z in cset:
                pos = index[z]
                if pos == 2:
                    rest = fill(cycle[:1] + cycle[2:], sub_budget)
                    cand = None if rest is None else [tri] + rest
                elif pos == len(cycle) - 1:
                    rest = fill(cycle[1:], sub_budget)
                    cand = None if rest is None else [tri] + rest
                else:
                    part_a = fill(cycle[1:pos + 1], sub_budget)
                    if part_a is None:
                        continue
                    part_b = fill(cycle[pos:] + cycle[:1],
                                  sub_budget - len(part_a))
                    cand = None if part_b is None else [tri] + part_a + part_b
            else:
                rest = fill((c0, z) + cycle[1:], sub_budget)
                cand = None if rest is None else [tri] + rest
            if cand is not None and (best is None or len(cand) < len(best)):
                best = cand
        memo[key] = (budget, best)
        return best

    result = fill(loop, max_area)
    if result is None:
        return FillingResult(None, None, True)
    return FillingResult(len(result), tuple(result), False)


def is_triangulable(X: FlagComplex, loop) -> bool:
    """Whether the loop bounds a filling with no interior vertices (chord DP)."""
    loop = tuple(loop)
    m = len(loop)
    if m < 3 or len(set(loop)) != m:
        raise ValueError("loop must be an embedded cycle")
    for a, b in zip(loop, loop[1:] + loop[:1]):
        if not X.is_edge(a, b):
            raise ValueError(f"loop edge ({a}, {b}) missing")

    @lru_cache(maxsize=None)
    def arc(i: int, j: int) -> bool:
        # arc loop[i..j] closed by the (present) edge loop[i]-loop[j]
        if j - i == 1:
            return True
        return any(
            (k == i + 1 or X.is_edge(loop[i], loop[k]))
            and (k == j - 1 or X.is_edge(loop[k], loop[j]))
            and arc(i, k) and arc(k, j)
            for k in range(i + 1, j))

    return arc(0, m - 1)
