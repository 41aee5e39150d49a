"""The one module the tests share: oracles that cross-check the library,
kept off its production path, and the complexes, pairs and call counter
that several test modules use.  No test module imports another.

Oracles: a whole-component deque BFS, the interval and layer map that two
of its runs give, the geodesics it grades and the geodesic test of a path;
random flat discs; the induced-path DFS for induced cycles, the
bridged-graph test of systolicity and the set-based collapse by free
faces; closed-form lattice distance and the point-group canonicalization
of lattice placements; the isometric embedding of flat discs; the
break-point enumeration oracle of `flatgeom.polygon_geodesic`; reordered
realizing pairs, the all-surfaces enumeration over the product-of-rows
reference, the all-simplex projection sweep, characteristic-image span
and preimage decoder for characteristic discs; the minimal-surface search
and the no-interior-vertex triangulability test.

Shared fixtures: cycles, the octahedron, the hexagon wheel, triangular
tori, suspensions, disjoint unions, chordal subtree graphs, perturbed
complexes, the flat-good regions and twins of vertices, which make
3-dimensional inputs; corner, far and directed pairs; `scrambled`, a
copy of a complex whose maps iterate in a seeded order of their own;
`outcome`, a call's result or its error; and `counting_calls`, the one
counter of calls by code object.

The oracles import no `_`-prefixed name from `systolic`
(`test_oracles.py` checks it): they reach the library through its public
names only.
"""

from __future__ import annotations

import random
import sys
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from systolic.charsurf import CharDisc, CharDiscError, SurfaceError, characteristic_image
from systolic.complex import FlagComplex, Simplex
from systolic.flatgeom import PolyPath, TriangulatedDisc, as_disc, is_flat
from systolic.generators import flat_parallelogram, flat_rectangle, gen_flat_region
from systolic.lattice import Point, RowStack
from systolic.layers import ThicknessProfile
from systolic.metric import directed_geodesic, dist_map


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


def rising_cone(adjacency, level, v, step) -> set[int]:
    """The vertices reached from v along edges that change the map `level`
    by `step` at each edge (+1: v's up cone, -1: its down cone), by a
    plain BFS inside the map's vertices."""
    cone, frontier = {v}, {v}
    while frontier:
        frontier = {u for x in frontier for u in adjacency[x]
                    if u in level and level[u] == level[x] + step} - cone
        cone |= frontier
    return cone


def is_geodesic_path(X: FlagComplex, path: list[int]) -> bool:
    """Whether path is a 1-skeleton geodesic: a nonempty walk along edges
    whose ends lie len(path) - 1 apart by `bfs_oracle`."""
    if len(path) < 1:
        return False
    if any(not X.is_edge(a, b) for a, b in zip(path, path[1:])):
        return False
    return bfs_oracle(X.adjacency, (path[0],))[path[-1]] == len(path) - 1


def interval_oracle(adjacency, V, W):
    """(n, d(V, .) on {x : d(x, V) + d(x, W) = n}) from two plain BFS runs,
    n = d(V, W); None when V and W lie in different components."""
    dv, dw = bfs_oracle(adjacency, V), bfs_oracle(adjacency, W)
    sums = [dv[x] + dw[x] for x in dv if x in dw]
    if not sums:
        return None
    n = min(sums)
    return n, {x: dv[x] for x in dv if x in dw and dv[x] + dw[x] == n}


def random_flat_disc(seed: int, max_vertices: int = 400) -> FlagComplex:
    """Random flat disc: a row stack with unit-step side offsets and mild
    width changes, rejection-sampled against the defect characterization of
    flatness."""
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


def is_bridged(X: FlagComplex) -> bool:
    """Whether X is systolic, by brute force on its 1-skeleton: nonempty,
    connected, and no isometric cycle of length >= 4.  Bridged graphs are
    exactly the 1-skeleta of systolic complexes (Chepoi, "Graphs of some
    CAT(0) complexes", Adv. Appl. Math. 24, 2000).

    DFS over induced paths anchored at their least vertex; each induced
    cycle they close is tested against whole-component BFS distances.
    Exponential in the vertex count: for graphs of a few vertices.
    """
    adj = X.adjacency
    if not adj or len(bfs_oracle(adj, (min(adj),))) < len(adj):
        return False
    dist = {v: bfs_oracle(adj, (v,)) for v in adj}
    for s in adj:
        stack = [(s,)]
        while stack:
            path = stack.pop()
            for w in adj[path[-1]]:
                if w <= s or w in path or any(x in adj[w] for x in path[1:-1]):
                    continue
                if len(path) == 1 or s not in adj[w]:
                    stack.append(path + (w,))
                    continue
                cycle = path + (w,)
                m = len(cycle)
                if m >= 4 and all(dist[a][b] == min(j - i, m - j + i) for (i, a), (j, b)
                                  in combinations(enumerate(cycle), 2)):
                    return False
    return True


def collapse_reference(X: FlagComplex) -> str:
    """"verified" if X is connected and collapses to a point by free faces,
    else "unknown": a second prover of simple connectivity, independent of
    the projection sweep behind `complex.simply_connected_heuristic`.

    A face with exactly one present coface is free: it goes with that
    coface, and the facets of both may become free in turn.  Sound but
    incomplete, and it lists every simplex, so it is exponential in the
    dimension.  The queue runs in the iteration order of
    `set(X.simplices())`; from dimension 3 on that order could decide the
    verdict, but no such input is known: on the 27 twins and 300 random
    complexes of `test_heuristic_is_the_projection_sweep_from_the_least_vertex`,
    30 shuffles each of the queue and of each removal's facets gave one
    verdict per input."""
    if not X.is_connected():
        return "unknown"
    simplices = set(X.simplices())
    cofaces: dict[Simplex, set[Simplex]] = {s: set() for s in simplices}
    for s in simplices:
        if len(s) < 2:
            continue
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            cofaces[face].add(s)
    queue = deque(s for s in simplices if len(cofaces[s]) == 1)
    while queue:
        face = queue.popleft()
        if face not in simplices or len(cofaces[face]) != 1:
            continue
        # a removed simplex leaves the coface sets of its faces, so top is present
        (top,) = cofaces[face]
        for s in (face, top):
            simplices.discard(s)
            for i in range(len(s)):
                sub = s[:i] + s[i + 1:]
                if sub in cofaces:
                    cofaces[sub].discard(s)
                    if sub in simplices and len(cofaces[sub]) == 1:
                        queue.append(sub)
    return "verified" if len(simplices) == 1 else "unknown"


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


def shuffled_pairs(profile: ThicknessProfile, seed: int) -> ThicknessProfile:
    """The profile with each layer's realizing pairs in a seeded random
    order, so a characteristic disc takes other representatives."""
    rng = random.Random(seed)
    return replace(profile, pairs=[rng.sample(p, len(p)) for p in profile.pairs])


def geodesics_oracle(adjacency, u: int, v: int) -> list[list[int]]:
    """Every geodesic from u to v, sorted: each step moves one level closer
    to v in the deque-BFS distance map of v."""
    dv = bfs_oracle(adjacency, (v,))
    paths = [[u]]
    for _ in range(dv[u]):
        paths = [p + [w] for p in paths for w in adjacency[p[-1]]
                 if dv[w] == dv[p[-1]] - 1]
    return sorted(paths)


def surfaces_reference(X: FlagComplex, cd: CharDisc, limit: int = 100000) -> list[dict]:
    """The characteristic surfaces on cd's representatives, in the library's
    order: the product of the rows' sorted geodesics, taken row by row,
    keeping the combinations whose cross pairs all map to edges."""
    rows = [geodesics_oracle(X.adjacency, s, t) for s, t in zip(cd.s, cd.t)]
    crosses = [cd.stack.cross_pairs(k) for k in range(len(rows) - 1)]
    surfaces = []
    for count, combo in enumerate(product(*rows)):
        if count >= limit:
            raise SurfaceError("surface reference limit hit")
        if all(combo[k + 1][b] in X.adjacency[combo[k][a]]
               for k, pairs in enumerate(crosses) for a, b in pairs):
            surfaces.append({vid: combo[r][idx] for r, ids in enumerate(cd.stack.ids)
                             for idx, vid in enumerate(ids)})
    return surfaces


def enumerate_char_surfaces(X: FlagComplex, cd: CharDisc, limit: int = 100000):
    """All characteristic surfaces (oracle-grade, small discs only), over
    every choice of thickness-realizing boundary representatives, each
    choice's surfaces listed by `surfaces_reference`."""
    count = 0
    for combo in product(*cd.pairs):
        alt = replace(cd, s=[c[0] for c in combo], t=[c[1] for c in combo])
        for surface in surfaces_reference(X, alt, limit):
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


def projection_witness_reference(X: FlagComplex, o: int) -> tuple[Simplex, int, str] | None:
    """The first failed projection onto a ball around o, found by projecting
    every simplex of the full subcomplex on each sphere S_{k+1}(o), by
    dimension and then lexicographically: the all-simplex sweep that
    `metric.projection_witness` replaces by one over vertices and edges.
    Each projection is taken by its definition on `bfs_oracle` distances:
    the common neighbours of sigma at distance k from o, which must be
    nonempty and span a simplex."""
    dm = bfs_oracle(X.adjacency, (o,))
    for k in range(max(dm.values())):
        for sigma in X.induced([v for v in dm if dm[v] == k + 1]).simplices():
            common = frozenset.intersection(*(X.adjacency[v] for v in sigma))
            pi = tuple(sorted(u for u in common if dm[u] == k))
            if not pi:
                return sigma, k, f"projection of {sigma} is empty"
            if any(b not in X.adjacency[a] for a, b in combinations(pi, 2)):
                return sigma, k, f"projection of {sigma} is not a simplex: {pi}"
    return None


def layer_map(X: FlagComplex, sigma, tau) -> dict[int, int]:
    """The layer of each vertex of the interval between sigma and tau, its
    distance from sigma, by `interval_oracle`: the map
    `characteristic_image` takes."""
    return interval_oracle(X.adjacency, sigma, tau)[1]


def char_preimage(X: FlagComplex, sigma, tau, cd: CharDisc,
                  surface: dict[int, int], x: int) -> int:
    """The unique disc vertex whose characteristic image contains x.

    Decodes by layer and image membership; ambiguity or absence raises (the
    preimage is single-valued on the characteristic image).
    """
    level = layer_map(X, sigma, tau)
    k = level.get(x)
    if k is None or not cd.interval[0] <= k <= cd.interval[1]:
        raise ValueError(f"vertex {x} lies outside the disc's layers")
    matches = [u for u in cd.stack.ids[k - cd.interval[0]]
               if x in characteristic_image(X, level, cd, surface, (u,))]
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


# ---------------------------------------------------------------------------
# Complexes, vertex pairs and a call counter shared by the test modules.


def cycle(n, start=0):
    return FlagComplex.from_edges([(start + i, start + (i + 1) % n) for i in range(n)])


def octahedron():
    """Two poles joined to an equatorial 4-cycle: every vertex link is a
    4-cycle."""
    edges = [(0, i) for i in (2, 3, 4, 5)] + [(1, i) for i in (2, 3, 4, 5)]
    edges += [(2, 3), (3, 4), (4, 5), (5, 2)]
    return FlagComplex.from_edges(edges)


def hexagon_wheel():
    """Hub 0 coned onto the hexagon 1..6: a flat disc of six triangles."""
    return FlagComplex.from_edges([(0, i) for i in range(1, 7)]
                                  + [(i, i % 6 + 1) for i in range(1, 7)])


def triangular_torus(n):
    """The triangular lattice n x n mod n: locally 6-large, not simply
    connected."""
    def vid(i, j):
        return (i % n) * n + (j % n)
    return FlagComplex.from_edges({tuple(sorted((vid(i, j), vid(i + a, j + b))))
                                   for i in range(n) for j in range(n)
                                   for a, b in ((1, 0), (0, 1), (1, 1))})


def suspension(n, poles, ring_start):
    """The cycle ring_start .. ring_start+n-1, coned off by two poles."""
    ring = [ring_start + i for i in range(n)]
    edges = [(ring[i - 1], ring[i]) for i in range(n)]
    return FlagComplex.from_edges(edges + [(pole, r) for pole in poles for r in ring])


def disjoint_union(*complexes):
    edges, vertices, offset = [], [], 0
    for X in complexes:
        vertices += [offset + v for v in X.vertices]
        edges += [(offset + u, offset + v) for u, v in X.edges()]
        offset += max(X.vertices, default=-1) + 1
    return FlagComplex.from_edges(edges, vertices=vertices)


def twin(X, *vertices):
    """X with a twin of each given vertex m: a new vertex joined to m and to
    m's neighbours in X, so that it spans a simplex with each simplex of m's
    closed star, and a twin of a vertex of a triangle spans a tetrahedron.
    New ids run from max(X) + 1, in argument order; the result has no
    coords."""
    first = max(X.vertices) + 1
    edges = X.edges()
    for new, m in enumerate(vertices, start=first):
        edges += [(new, w) for w in (m, *X.adjacency[m])]
    return FlagComplex.from_edges(edges, vertices=X.vertices)


def subtree_chordal(seed, n=40, tree_size=25, max_nodes=5):
    """Intersection graph of n random subtrees, of at most max_nodes nodes
    each, of a random tree: chordal (Gavril 1974), so every link passes."""
    rng = random.Random(seed)
    tree = {0: set()}
    for t in range(1, tree_size):
        s = rng.randrange(t)
        tree[t], tree[s] = {s}, tree[s] | {t}
    subtrees = []
    for _ in range(n):
        nodes = {rng.randrange(tree_size)}
        for _ in range(rng.randrange(max_nodes)):
            frontier = sorted(set().union(*(tree[x] for x in nodes)) - nodes)
            nodes.add(rng.choice(frontier))
        subtrees.append(nodes)
    return FlagComplex.from_edges(
        [(i, j) for i, j in combinations(range(n), 2)
         if subtrees[i] & subtrees[j]], vertices=range(n))


def perturbed(X, rng, k):
    """X with k seeded edges removed and k seeded distance-2 pairs joined."""
    edges = sorted(X.edges())
    for e in rng.sample(edges, k):
        edges.remove(e)
    joinable = [(u, w) for u in X.vertices for w, d in dist_map(X, (u,), radius=2).items()
                if u < w and d == 2]
    return FlagComplex.from_edges(edges + rng.sample(sorted(joinable), k))


FLAT_GOOD_SHAPES = {"rect-30x6": (flat_rectangle, 30, 6), "rect-10x4": (flat_rectangle, 10, 4),
                    "rect-9x6": (flat_rectangle, 9, 6), "rect-8x6": (flat_rectangle, 8, 6),
                    "rect-8x4": (flat_rectangle, 8, 4), "rect-7x7": (flat_rectangle, 7, 7),
                    "rect-6x8": (flat_rectangle, 6, 8), "par-9x5": (flat_parallelogram, 9, 5),
                    "par-8x6": (flat_parallelogram, 8, 6)}


def flat_good_regions():
    """(name, region, height) for the nine regions of the benchmark's
    flat-good workload (perfbench/workloads.py)."""
    for name, (make, height, width) in FLAT_GOOD_SHAPES.items():
        yield name, make(height, width), height


def corner_pair(X):
    """The least and the greatest vertex of X by lattice coordinates."""
    return (min(X.vertices, key=lambda v: X.coords[v]),
            max(X.vertices, key=lambda v: X.coords[v]))


def far_pair(X):
    """Two vertices far apart, by two `bfs_oracle` runs: the least vertex
    farthest from X's least vertex, and the least vertex farthest from that
    one."""
    def farthest(v):
        dm = bfs_oracle(X.adjacency, (v,))
        return min(dm, key=lambda w: (-dm[w], w))
    u = farthest(X.vertices[0])
    return u, farthest(u)


class ScrambledSet(frozenset):
    """A frozenset that iterates in a fixed order of its own, the same on
    every pass.  Set algebra on it (`&`, `-`, `set(...)`) reads its hash
    table, which it fills in that order, and returns plain frozensets."""

    __slots__ = ("order",)

    def __new__(cls, order):
        self = super().__new__(cls, order)
        self.order = tuple(order)
        return self

    def __iter__(self):
        return iter(self.order)


def scrambled(X: FlagComplex, seed: int) -> FlagComplex:
    """X rebuilt with its adjacency and coords keys in a seeded shuffled
    order, and each neighbourhood a `ScrambledSet` in a seeded shuffled
    order of its own; the complex, and so every output, is X's."""
    rng = random.Random(seed)
    keys = list(X.adjacency)
    rng.shuffle(keys)
    adjacency = {}
    for v in keys:
        order = list(X.adjacency[v])
        rng.shuffle(order)
        adjacency[v] = ScrambledSet(order)
    coords = None if X.coords is None else {v: X.coords[v] for v in keys if v in X.coords}
    return FlagComplex(adjacency, coords)


def directed_pair(X, u, v):
    """The directed geodesics from u to v and, reversed, from v to u."""
    sseq = directed_geodesic(X, (u,), frozenset({v}))
    tseq = list(reversed(directed_geodesic(X, (v,), frozenset({u}))))
    return sseq, tseq


def outcome(fn):
    """fn's result, or the type and message of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # the type and message are what the caller compares
        return type(exc), str(exc)


@contextmanager
def counting_calls(functions, key=None):
    """Count the calls of `functions`, a dict from label to function, by
    code object, so that a call counts whichever module namespace makes it.

    Yields a Counter from label to calls, filled under `sys.setprofile`.
    With `key`, each call also adds 1 to (label, key(frame)), a key read
    off the called frame; key may raise, which stops the run at that call.
    The profile function in place before is restored on exit: a Python
    one by `sys.setprofile`, and a C-level profiler such as cProfile's,
    which `sys.getprofile` returns but `sys.setprofile` cannot reinstall,
    by its own `enable()`; the calls made while counting are missing from
    its profile.
    """
    labels = {f.__code__: label for label, f in functions.items()}
    calls = Counter()

    def profile(frame, event, arg):
        label = labels.get(frame.f_code) if event == "call" else None
        if label is not None:
            calls[label] += 1
            if key is not None:
                calls[label, key(frame)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        if previous is None or callable(previous):
            sys.setprofile(previous)
        else:
            previous.enable()
