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


def _new_sweep(X: FlagComplex, key: frozenset[int]) -> _Sweep:
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
    key = frozenset(sources)
    cache = X._dist_cache
    sweep = cache.get(key)
    if sweep is None:
        sweep = _new_sweep(X, key)
    else:
        cache.move_to_end(key)
    if radius is None:
        radius = _WHOLE
    if sweep.radius < radius:
        _grow(X, sweep, radius)
    return sweep.dist


def dist(X: FlagComplex, A: Iterable[int] | int, B: Iterable[int] | int) -> int:
    """Minimum 1-skeleton distance between two nonempty vertex sets: A's
    sweep grows until a level holds a vertex of B."""
    key = frozenset((A,) if isinstance(A, int) else A)
    targets = frozenset((B,) if isinstance(B, int) else B)
    sweep = X._dist_cache.get(key)
    if sweep is None:
        sweep = _new_sweep(X, key)
    else:
        X._dist_cache.move_to_end(key)
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
    for i, u in enumerate(ys):
        du = dist_map(X, (u,))
        for v in ys[i + 1:]:
            duv = du[v]
            dv = dist_map(X, (v,))
            for w in du:
                if w not in yset and du[w] + dv.get(w, duv + 1) == duv:
                    return False
    return True


def residue(X: FlagComplex, sigma: Iterable[int]) -> list[Simplex]:
    """All simplices of X containing sigma."""
    sigma = tuple(sorted(sigma))
    if not X.is_simplex(sigma):
        raise ValueError(f"{sigma} is not a simplex")
    out = [sigma]
    link = X.link(sigma)
    for tau in link.simplices():
        out.append(tuple(sorted(sigma + tau)))
    return sorted(out, key=lambda s: (len(s), s))


def _project(X: FlagComplex, sigma: Simplex, dm: dict[int, int], m: int) -> Simplex:
    """Projection of sigma onto the ball B_m(Y), where dm is Y's distance map.

    d(v, B_m(Y)) = max(0, d(v, Y) - m) in any graph, so the ball and its
    first sphere are read off dm: sigma must lie where dm == m + 1, and the
    projection is the set of common neighbours of sigma with dm <= m,
    validated to be a nonempty simplex.
    """
    if any(dm.get(v) != m + 1 for v in sigma):
        raise ValueError(f"{sigma} is not contained in S_1(Y)")
    common = X.adjacency[sigma[0]]
    for v in sigma[1:]:
        common = common & X.adjacency[v]
    pi = tuple(sorted(u for u in common if dm.get(u, m + 1) <= m))
    if not pi:
        raise ProjectionError(f"projection of {sigma} is empty")
    if not X.is_simplex(pi):
        raise ProjectionError(f"projection of {sigma} is not a simplex: {pi}")
    return pi


def projection_witness(X: FlagComplex, o: int) -> tuple[Simplex, int, str] | None:
    """The first failed projection onto a ball around vertex o, or None.

    For each k, every simplex of the full subcomplex on S_{k+1}(o) is
    projected onto B_k(o), reading one distance map of o; a failure is
    returned as (sigma, k, message).  In a systolic complex balls are
    convex, and a projection onto a convex subcomplex is one nonempty
    simplex; a connected, simply connected, locally 6-large complex is
    systolic (Januszkiewicz-Swiatkowski, "Simplicial nonpositive
    curvature", Publ. IHES 104, 2006).  So when the links are 6-large, a
    failure proves that o's component is not simply connected.  A pass
    proves nothing on its own.
    """
    dm = dist_map(X, (o,))
    for k in range(max(dm.values())):
        for sigma in X.induced(sphere(X, (o,), k + 1)).simplices():
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
    return _project(X, sigma, dist_map(X, Y, radius=1), 0)


def directed_geodesic(X: FlagComplex, sigma: Iterable[int], W: Iterable[int]) -> list[Simplex]:
    """Simplex sequence from sigma to the convex subcomplex W by iterated
    projection onto shrinking balls around W.

    Requires sigma inside a single sphere S_n(W), or meeting S_n(W) and
    S_{n-1}(W) (then the sequence starts with the inner intersection).
    Every ball B_m(W) is read off the one distance map of W, which need
    reach only m = d(sigma, W): sigma's vertices lie at m or m + 1.
    """
    sigma = tuple(sorted(sigma))
    wset = frozenset(W)
    if not X.is_simplex(sigma):
        raise ValueError(f"{sigma} is not a simplex")
    m = dist(X, wset, sigma)
    dm = dist_map(X, wset, radius=m)
    dists = {dm.get(v, m + 1) for v in sigma}
    n = max(dists)
    if dists == {n} or (n > 0 and dists == {n, n - 1}):
        pass
    else:
        raise ValueError(f"sigma spreads over spheres {sorted(dists)} around W")
    seq = [sigma]
    if len(dists) == 2:
        sigma = tuple(v for v in sigma if dm.get(v) == n - 1)
        n -= 1
        seq.append(sigma)
    for m in range(n - 1, -1, -1):
        sigma = _project(X, sigma, dm, m)
        seq.append(sigma)
    return seq


def spans_simplex(X: FlagComplex, *simplices: Iterable[int]) -> bool:
    """Whether the union of the given vertex sets spans a simplex."""
    vs = sorted(set().union(*map(set, simplices)))
    return X.is_simplex(vs)


def graded_paths(X: FlagComplex, u: int, level: dict[int, int], step: int,
                 length: int, cap: int):
    """Every path of `length` edges from u along which the distance map
    `level` changes by `step` (-1 or +1) at each edge: the lexicographic,
    capped DFS of a distance-graded DAG.  Returns (paths, truncated)."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    paths: list[list[int]] = []
    stack = [[u]]
    while stack:
        path = stack.pop()
        if len(path) == length + 1:
            paths.append(path)
            if len(paths) >= cap:
                return paths, bool(stack)
            continue
        want = level[path[-1]] + step
        for w in sorted(X.adjacency[path[-1]], reverse=True):
            if level.get(w) == want:
                stack.append(path + [w])
    return paths, False


def all_geodesics(X: FlagComplex, u: int, v: int, cap: int = 10000):
    """Every 1-skeleton geodesic from u to v, truncated at `cap` paths.

    Returns (paths, truncated).  Exponential on flat regions; the cap keeps
    oracle uses bounded.
    """
    try:
        n = dist(X, v, u)
    except ValueError:
        raise ValueError("u and v lie in different components") from None
    return graded_paths(X, u, dist_map(X, (v,), radius=n), -1, n, cap)


def is_geodesic_path(X: FlagComplex, path: list[int]) -> bool:
    if len(path) < 1:
        return False
    if any(not X.is_edge(a, b) for a, b in zip(path, path[1:])):
        return False
    return dist(X, path[0], path[-1]) == len(path) - 1
