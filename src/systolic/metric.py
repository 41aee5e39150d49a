"""Combinatorial metric structure on flag complexes.

Distances are 1-skeleton path lengths from multi-source BFS; every query is
a pure function of an immutable complex.  Each complex caches one resumable
BFS sweep per source set, grown level by level only as far as a reader asks
(`dist_map`'s `radius`, or the level where `dist` meets its target), and
evicts least recently used sweeps once they label more than
`_LABEL_BOUND` vertices in all.

The radius contract: `dist_map(X, Y, radius=r)` holds every vertex within
r of Y with its true distance, and may hold farther vertices, also with
their true distances.  Such a partial map grows in place when a later call
asks for more, so its readers look vertices up, or keep only the entries
within r; only a map asked for with `radius=None` is complete, never
changes again, and may be iterated.

Geodesics come from one lazy, uncapped lexicographic walk, `graded_paths`.
Intervals are walked back from one end on the other's sweep alone.
"""

from __future__ import annotations

from typing import Iterable

from .complex import FlagComplex, Simplex

_LABEL_BOUND = 2 ** 21   # labelled vertices over one complex's sweeps
_WHOLE = float("inf")    # the radius of a sweep that labels its whole component


class ProjectionError(ValueError):
    """Residue-intersection is empty or not a simplex: input is not systolic."""


class _Sweep:
    """A BFS from one source set, paused after a whole level.

    `dist` labels exactly the vertices within `radius` of the sources, in
    the order of a deque BFS; `frontier` lists those at distance `radius`.
    When a level comes out empty, the sweep is complete and `radius` is
    infinite.
    """

    __slots__ = ("dist", "frontier", "radius")

    def __init__(self, sources: frozenset[int]):
        self.dist = dict.fromkeys(sources, 0)
        self.frontier = list(self.dist)
        self.radius = 0


def _sweep(X: FlagComplex, key: frozenset[int]) -> _Sweep:
    """The cached sweep from key, made the most recent, or a new one."""
    sweep = X._dist_cache.get(key)
    if sweep is not None:
        X._dist_cache.move_to_end(key)
        return sweep
    if not key:
        raise ValueError("empty source set")
    for v in key:
        if v not in X.adjacency:
            raise KeyError(v)
    sweep = X._dist_cache[key] = _Sweep(key)
    X._dist_labelled += len(key)
    _evict(X)
    return sweep


def _evict(X: FlagComplex) -> None:
    """Drop least recently used sweeps, never the most recent one, while the
    cache labels more than _LABEL_BOUND vertices."""
    cache = X._dist_cache
    while X._dist_labelled > _LABEL_BOUND and len(cache) > 1:
        X._dist_labelled -= len(cache.popitem(last=False)[1].dist)


def _grow(X: FlagComplex, sweep: _Sweep, radius: float) -> None:
    """Label whole levels until the most recent sweep reaches radius or
    completes."""
    adjacency = X.adjacency
    dm, frontier, r = sweep.dist, sweep.frontier, sweep.radius
    before = len(dm)
    while r < radius:
        r += 1
        level = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dm:
                    dm[w] = r
                    level.append(w)
        if not level:
            r = _WHOLE
        frontier = level
    sweep.frontier, sweep.radius = frontier, r
    X._dist_labelled += len(dm) - before
    _evict(X)


def dist_map(X: FlagComplex, sources: Iterable[int], *,
             radius: int | None = None) -> dict[int, int]:
    """BFS distances from a vertex set, complete through `radius`.

    Every vertex within `radius` of the sources is present with its true
    distance; farther ones may be present, also with true distances.  The
    map is shared with the cache and grows in place, so iterate it only
    when asked with `radius=None`: then it holds the sources' whole
    component and never changes again.  Otherwise look vertices up.
    """
    sweep = _sweep(X, frozenset(sources))
    if radius is None:
        radius = _WHOLE
    if sweep.radius < radius:
        _grow(X, sweep, radius)
    return sweep.dist


def dist(X: FlagComplex, A: Iterable[int] | int, B: Iterable[int] | int) -> int:
    """Minimum 1-skeleton distance between two nonempty vertex sets: A's
    sweep grows until a level holds a vertex of B.  An empty or unknown
    target set raises before any sweep is made or grown."""
    key = frozenset((A,) if isinstance(A, int) else A)
    targets = frozenset((B,) if isinstance(B, int) else B)
    if not targets:
        raise ValueError("empty target set")
    for b in targets:
        if b not in X.adjacency:
            raise KeyError(b)
    sweep = _sweep(X, key)
    dm = sweep.dist
    best = None
    for b in targets:
        d = dm.get(b)
        if d is not None and (best is None or d < best):
            best = d
    # every labelled vertex lies within the radius, so a target found is nearest
    while best is None:
        if sweep.radius == _WHOLE:
            raise ValueError("vertex sets lie in different components")
        _grow(X, sweep, sweep.radius + 1)
        if not targets.isdisjoint(sweep.frontier):
            best = sweep.radius
    return best


def ball(X: FlagComplex, Y: Iterable[int], n: int) -> frozenset[int]:
    """Vertex set of the combinatorial ball B_n(Y)."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    dm = dist_map(X, Y, radius=n)
    return frozenset(v for v, d in dm.items() if d <= n)


def sphere(X: FlagComplex, Y: Iterable[int], n: int) -> frozenset[int]:
    """Vertex set of the combinatorial sphere S_n(Y)."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    dm = dist_map(X, Y, radius=n)
    return frozenset(v for v, d in dm.items() if d == n)


def is_convex(X: FlagComplex, Y: Iterable[int]) -> bool:
    """Geodesic convexity: every vertex on a geodesic between Y-vertices is in Y.

    Interval containment is equivalent to all geodesics lying in Y^(1).
    """
    ys = sorted(set(Y))
    if not ys:
        raise ValueError("empty subcomplex")
    if not X.induced(ys).is_connected():
        return False
    yset = frozenset(ys)
    return all(yset.issuperset(_interval_dist(X, (u,), (v,), dist(X, u, v)))
               for i, u in enumerate(ys) for v in ys[i + 1:])


def residue(X: FlagComplex, sigma: Iterable[int]) -> list[Simplex]:
    """All simplices of X containing sigma, one per simplex of its link:
    exponential in the dimension, as it lists every one."""
    sigma = tuple(sorted(sigma))
    if not X.is_simplex(sigma):
        raise ValueError(f"{sigma} is not a simplex")
    out = [sigma]
    link = X.link(sigma)
    for tau in link.simplices():
        out.append(tuple(sorted(sigma + tau)))
    return sorted(out, key=lambda s: (len(s), s))


def _checked_projection(X: FlagComplex, sigma: Simplex, pi: Iterable[int]) -> Simplex:
    """The projection pi of sigma, sorted: a ProjectionError if empty or no simplex."""
    pi = tuple(sorted(pi))
    if not pi:
        raise ProjectionError(f"projection of {sigma} is empty")
    if not X.is_simplex(pi):
        raise ProjectionError(f"projection of {sigma} is not a simplex: {pi}")
    return pi


def _project(X: FlagComplex, sigma: Simplex, dm: dict[int, int], m: int) -> Simplex:
    """Projection of sigma, inside S_{m+1}(Y), onto B_m(Y), where dm is Y's
    distance map: the common neighbours of sigma with dm <= m, as d(v, B_m(Y))
    = max(0, d(v, Y) - m) in any graph.  `projection` checks where sigma
    lies; directed-geodesic steps and `projection_witness` place it there.
    """
    common = X.adjacency[sigma[0]]
    for v in sigma[1:]:
        common = common & X.adjacency[v]
    return _checked_projection(X, sigma, (u for u in common if dm.get(u, m + 1) <= m))


def projection_witness(X: FlagComplex, o: int) -> tuple[Simplex, int, str] | None:
    """The first failed projection onto a ball around vertex o, or None.

    For each k, the vertices of S_{k+1}(o) in id order, then its edges in
    lexicographic order, are projected onto B_k(o), all read off one
    distance map of o; a failure is returned as (sigma, k, message).  In a
    systolic complex balls are convex, and a projection onto a convex
    subcomplex is one nonempty simplex; a connected, simply connected,
    locally 6-large complex is systolic (Januszkiewicz-Swiatkowski,
    "Simplicial nonpositive curvature", Publ. IHES 104, 2006).  So when the
    links are 6-large, a failure proves that o's component is not simply
    connected.

    * Vertices and edges find what every simplex would.  Let no vertex link
      hold an induced 4-cycle, and let sigma = {v_0..v_m}, m >= 2, be a
      simplex of S_{k+1}(o) whose proper faces all project, by induction
      from its vertices and edges.  pi(sigma) lies in the simplex
      pi(sigma - v_m), so it is one if it is nonempty.  Take x in
      pi(sigma - v_m) and y in pi(sigma - v_0); both lie in the simplex
      pi(v_1), so x = y or x ~ y.  If neither lies in pi(sigma), then x is
      not adjacent to v_m nor y to v_0, so x is not y, and v_0-x-y-v_m is
      an induced 4-cycle in lk(v_1).  So at each level the first failure
      of a sweep over every simplex of S_{k+1}(o), by dimension and then
      lexicographically, is a vertex or an edge, and this sweep returns it
      whenever `is_locally_6_large` passes.
    * A pass proves that o's component is simply connected.  Every vertex
      of S_{k+1}(o) then has pairwise adjacent neighbours in S_k(o), and
      every edge of S_{k+1}(o) a common neighbour there.  Let k + 1 be the
      largest distance from o on an edge loop, and z_1..z_m a run of loop
      vertices at level k + 1, entered from u and left to w at level k.
      With x_i a common S_k-neighbour of z_i and z_{i+1}, consecutive
      members of u, x_1, .., x_{m-1}, w share an S_k-neighbour z, so they
      are equal or adjacent: the run is homotopic, through triangles, to a
      path at level <= k.  By induction on k the loop contracts to o.
    """
    dm = dist_map(X, (o,))
    spheres: list[list[int]] = [[] for _ in range(max(dm.values()) + 1)]
    for v in sorted(dm):
        spheres[dm[v]].append(v)
    for k, level in enumerate(spheres[1:]):
        edges = [(u, w) for u in level for w in sorted(X.adjacency[u])
                 if w > u and dm[w] == k + 1]
        for sigma in [(v,) for v in level] + edges:
            try:
                _project(X, sigma, dm, k)
            except ProjectionError as exc:
                return sigma, k, str(exc)
    return None


def projection(X: FlagComplex, sigma: Iterable[int], Y: Iterable[int]) -> Simplex:
    """Projection of simplex sigma onto the (convex) subcomplex Y.

    The intersection of the residue of sigma with Y; validated to be a
    nonempty simplex rather than assumed, so failures diagnose non-systolic
    (or non-convex) input.
    """
    sigma = tuple(sorted(sigma))
    if not X.is_simplex(sigma):
        raise ValueError(f"{sigma} is not a simplex")
    dm = dist_map(X, Y, radius=1)
    if any(dm.get(v) != 1 for v in sigma):
        raise ValueError(f"{sigma} is not contained in S_1(Y)")
    return _project(X, sigma, dm, 0)


def directed_geodesic(X: FlagComplex, sigma: Iterable[int], W: Iterable[int]) -> list[Simplex]:
    """Simplex sequence from sigma to the convex subcomplex W by iterated
    projection onto shrinking balls around W.

    With m = d(sigma, W), sigma lies in the sphere S_m(W), or meets S_m(W)
    and S_{m+1}(W): its vertices lie within 1 of each other.  In the second
    case the sequence goes on with the inner part, sigma & S_m(W).  Every
    ball B_k(W), k < m, is read off the one distance map of W, which need
    reach only m.
    """
    sigma = tuple(sorted(sigma))
    wset = frozenset(W)
    if not X.is_simplex(sigma):
        raise ValueError(f"{sigma} is not a simplex")
    m = dist(X, wset, sigma)
    return _directed(X, sigma, dist_map(X, wset, radius=m), m)


def _directed(X: FlagComplex, sigma: Simplex, dm: dict[int, int], m: int) -> list[Simplex]:
    """`directed_geodesic` from sigma, m = d(sigma, W), with dm giving d(., W)."""
    inner = tuple(v for v in sigma if dm.get(v) == m)
    seq = [sigma] if inner == sigma else [sigma, inner]
    for k in range(m - 1, -1, -1):
        seq.append(_project(X, seq[-1], dm, k))
    return seq


def _interval_dist(X: FlagComplex, V: Iterable[int], W: Iterable[int], n: int) -> dict[int, int]:
    """d(., W) on I = {x : d(x, V) + d(x, W) = n}, n = d(V, W), from V's
    sweep alone: walk back from W & S_n(V) to neighbours one level nearer
    V, each in I, as k from V and within n - k of W.  In any graph, from x
    in I, k from V, a neighbour u with d(u, W) < n - k lies in I, k + 1
    from V: so the walk reaches all of I, and the projections of a directed
    geodesic from V to W find on I every vertex they keep.  Symmetrically,
    a neighbour u of x in I, m + 1 from V, with d(u, V) <= m has d(u, V) = m
    and d(u, W) <= n - m, so u is in I: from W, inner part W & S_n(V) too, the
    layer map {x: n - d} on I gives V's sweep's projections and errors.
    """
    dv = dist_map(X, V, radius=n)
    level = {w for w in W if dv.get(w) == n}
    out = dict.fromkeys(level, 0)
    for k in range(n - 1, -1, -1):
        level = {u for x in level for u in X.adjacency[x] if dv.get(u) == k}
        out.update(dict.fromkeys(level, n - k))
    return out


def spans_simplex(X: FlagComplex, *simplices: Iterable[int]) -> bool:
    """Whether the union of the given vertex sets spans a simplex."""
    vs = sorted(set().union(*map(set, simplices)))
    return X.is_simplex(vs)


def graded_paths(X: FlagComplex, u: int, level: dict[int, int], step: int,
                 length: int):
    """Every path of `length` edges from u along which the distance map
    `level` changes by `step` (-1 or +1) at each edge, yielded lazily in
    lexicographic order by a DFS of the distance-graded DAG."""
    stack = [[u]]
    while stack:
        path = stack.pop()
        if len(path) == length + 1:
            yield path
            continue
        want = level[path[-1]] + step
        for w in sorted(X.adjacency[path[-1]], reverse=True):
            if level.get(w) == want:
                stack.append(path + [w])


def all_geodesics(X: FlagComplex, u: int, v: int):
    """Every 1-skeleton geodesic from u to v, as the lazy lexicographic walk
    of `graded_paths`; a reader takes as many as it needs."""
    try:
        n = dist(X, v, u)
    except ValueError:
        raise ValueError("u and v lie in different components") from None
    return graded_paths(X, u, dist_map(X, (v,), radius=n), -1, n)


def is_geodesic_path(X: FlagComplex, path: list[int]) -> bool:
    if len(path) < 1:
        return False
    if any(not X.is_edge(a, b) for a, b in zip(path, path[1:])):
        return False
    return dist(X, path[0], path[-1]) == len(path) - 1
