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
An interval I(V, W) is one map, its layer map d(V, .), found by two half
sweeps that meet in the middle and walked down to each end (`_interval`);
directed geodesics step along it either way (`_directed`).
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


def _targets(X: FlagComplex, B: Iterable[int] | int) -> frozenset[int]:
    """B as a frozen set of known vertices: an empty or unknown target set
    raises before any sweep is made or grown."""
    targets = frozenset((B,) if isinstance(B, int) else B)
    if not targets:
        raise ValueError("empty target set")
    for b in targets:
        if b not in X.adjacency:
            raise KeyError(b)
    return targets


def dist(X: FlagComplex, A: Iterable[int] | int, B: Iterable[int] | int) -> int:
    """Minimum 1-skeleton distance between two nonempty vertex sets: A's
    sweep grows until a level holds a vertex of B (`_targets` checks B
    first).  This one-sided growth stays beside `_halves`, which grows
    both sides, because the disc-egeo workload pays for it: computing
    `dist` through `_halves` slowed that workload by 5 to 10% (two runs)."""
    key = frozenset((A,) if isinstance(A, int) else A)
    targets = _targets(X, B)
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
    return all(yset.issuperset(_interval(X, (u,), (v,))[1])
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
    """The projection pi of sigma, sorted: a ProjectionError if empty or no
    simplex.  Its vertices are neighbours, so vertices of X, and one alone
    is a simplex with no test."""
    pi = tuple(sorted(pi))
    if not pi:
        raise ProjectionError(f"projection of {sigma} is empty")
    if len(pi) > 1 and not X.is_simplex(pi):
        raise ProjectionError(f"projection of {sigma} is not a simplex: {pi}")
    return pi


def _project(X: FlagComplex, sigma: Simplex, labels: dict[int, int], target: int) -> Simplex:
    """Projection of sigma, wholly one label beyond `target`, onto a ball
    B around Y: the common neighbours of sigma labelled `target`, on Y's
    distance map with B = B_target(Y), as d(v, B_m(Y)) = max(0, d(v, Y) - m)
    in any graph, or on a layer map read toward Y (`_directed`).  They lie
    within one label of sigma's, so those labelled `target` are those in B.
    `projection` checks where sigma lies; its other callers place it."""
    common = X.adjacency[sigma[0]]
    for v in sigma[1:]:
        common = common & X.adjacency[v]
    return _checked_projection(X, sigma, [u for u in common if labels.get(u) == target])


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

    With n = d(sigma, W), sigma lies in the sphere S_n(W), or meets S_n(W)
    and S_{n+1}(W): its vertices lie within 1 of each other.  In the second
    case the sequence goes on with the inner part, sigma & S_n(W).  Each
    ball B_k(W) is read off the layer map of I(sigma, W), with every
    projection and error of a full sweep of W (`_interval`).

    On input that is not systolic a projection can be empty or not a
    simplex: ProjectionError, a ValueError, which `check`'s verdict rules
    out.  Input errors raise too: ValueError for a sigma that is not a
    simplex, an empty W or ends in different components, KeyError for an
    unknown vertex.
    """
    sigma = tuple(sorted(sigma))
    wset = frozenset(W)
    if not X.is_simplex(sigma):
        raise ValueError(f"{sigma} is not a simplex")
    n, labels = _interval(X, sigma, wset)
    return _directed(X, sigma, labels, 0, n, {})


def _directed(X: FlagComplex, sigma: Simplex, labels: dict[int, int], first: int,
              last: int, steps: dict[Simplex, Simplex]) -> list[Simplex]:
    """The directed geodesic from sigma, at label `first` of the layer map
    `labels` = d(V, .) on I(V, W), to the end at label `last` (0 to n, or
    n to 0).  Its inner part is the vertices of sigma labelled `first`, and
    each step keeps the common neighbours labelled one nearer `last`: the
    projection onto a ball around that end (`_interval`).  Steps are read
    from or written to `steps`, which the caller keeps for that end alone,
    as a step is a function of its simplex and the end."""
    inner = tuple([v for v in sigma if labels.get(v) == first])
    seq = [sigma] if inner == sigma else [sigma, inner]
    step = 1 if first < last else -1
    for target in range(first + step, last + step, step):
        s = seq[-1]
        nxt = steps.get(s)
        if nxt is None:
            nxt = steps[s] = _project(X, s, labels, target)
        seq.append(nxt)
    return seq


def _touch(X: FlagComplex, key: frozenset[int], sweep: _Sweep) -> None:
    """Make sweep key's cached sweep, the most recent, before it grows: put
    back and counted if it was never cached or has been evicted."""
    cache = X._dist_cache
    if key in cache:
        cache.move_to_end(key)
    else:
        cache[key] = sweep
        X._dist_labelled += len(sweep.dist)


def _least(level: Iterable[int], labels: dict[int, int]) -> tuple[int, list[int]]:
    """(m, the vertices of level labelled m), m the least label on level,
    for a level that holds a labelled vertex."""
    m = min(labels[x] for x in level if x in labels)
    return m, [x for x in level if labels.get(x) == m]


def _halves(X: FlagComplex, vkey: frozenset[int], wkey: frozenset[int]) -> tuple[int, int, list[int]]:
    """(a, b, S_a(V) & S_b(W)) with a + b = d(V, W), from V's and W's
    sweeps grown until they meet, as `_interval` sets out.  W's sweep, if
    not cached, enters the cache when it first grows."""
    sv = _sweep(X, vkey)
    if not sv.dist.keys().isdisjoint(wkey):
        m, mid = _least(wkey, sv.dist)
        return m, 0, mid
    sw = X._dist_cache.get(wkey)
    if sw is None:
        sw = _Sweep(wkey)
    elif not sw.dist.keys().isdisjoint(vkey):
        m, mid = _least(vkey, sw.dist)
        return 0, m, mid
    while True:
        grown, key, other = ((sw, wkey, sv.dist) if len(sw.frontier) < len(sv.frontier)
                             else (sv, vkey, sw.dist))
        if grown.radius == _WHOLE:
            raise ValueError("vertex sets lie in different components")
        _touch(X, key, grown)
        _grow(X, grown, grown.radius + 1)
        if not other.keys().isdisjoint(grown.frontier):
            m, mid = _least(grown.frontier, other)
            return (grown.radius, m, mid) if grown is sv else (m, grown.radius, mid)


def _levels(X: FlagComplex, labels: dict[int, int], start: Iterable[int], k: int, step: int):
    """(label, level set) for each next nonempty level reached from `start`,
    at label k, through neighbours whose label changes by `step` (+1 or
    -1), in order, until a level comes out empty."""
    adjacency, level = X.adjacency, start
    while True:
        k += step
        level = {u for x in level for u in adjacency[x] if labels.get(u) == k}
        if not level:
            return
        yield k, level


def _interval(X: FlagComplex, V: Iterable[int], W: Iterable[int]) -> tuple[int, dict[int, int]]:
    """n = d(V, W) and the layer map d(V, .) on the interval I = {x :
    d(x, V) + d(x, W) = n}, from two half sweeps that meet in the middle
    (bidirectional search; Pohl, Machine Intelligence 6, 1971).

    A cached sweep that already labels the other end is used as is: V's
    gives a = n, b = 0, else W's gives a = 0, b = n, and no other sweep
    grows.  Otherwise V's and W's sweeps grow a level at a time, the one
    with the smaller frontier first (V's on a tie), until the level S_r
    just labelled meets the other sweep's labels, the least of them m:
    then n = r + m and {a, b} = {r, m}.  The middle level is the set of
    level vertices labelled m, S_a(V) & S_b(W).  While neither sweep
    labels the other end, n exceeds both radii, so a geodesic from V to W
    has a vertex x in S_r; if n - r is within the other radius, x is
    labelled n - r, and a labelled vertex y of S_r has n <= r + d(y); if
    not, no vertex of S_r is labelled, and n again exceeds both radii.  An
    empty level, a complete sweep, means V and W lie in different
    components.  `_targets` checks W before any sweep is made.

    I is walked from the middle level (`_levels`), down to V on V's map
    and down to W on W's (j from W is n - j from V), each read through
    `dist_map` to its half radius.
    * In any graph a neighbour u of x in I one level nearer either end
      stays in I: with d(u, V) = d(x, V) - 1, d(u, W) <= d(x, W) + 1 while
      d(u, V) + d(u, W) >= n, so equality holds; W's side is symmetric.
    * Every x in I lies on a geodesic from V to W (one to x, then one on),
      which crosses the middle level at y, a from V and b from W.  Between
      x and y the geodesic moves one level nearer V, or W, at each step, so
      one of the walks reaches x.
    So the map is I with d(V, .), whatever a + b = n the search stops at.
    A directed geodesic read off it toward either end (`_directed`) makes
    the projections and errors of a full sweep of that end: each keeps
    neighbours one level nearer it, which stay in I by the first point.
    """
    vkey, wkey = frozenset(V), _targets(X, W)
    a, b, mid = _halves(X, vkey, wkey)
    n = a + b
    out = dict.fromkeys(mid, a)
    if b:
        for j, level in _levels(X, dist_map(X, wkey, radius=b), mid, b, -1):
            out.update(dict.fromkeys(level, n - j))
    if a:
        for j, level in _levels(X, dist_map(X, vkey, radius=a), mid, a, -1):
            out.update(dict.fromkeys(level, j))
    return n, out


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
