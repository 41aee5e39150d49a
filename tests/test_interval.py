"""The interval I(V, W) and its layer map d(V, .), from two half sweeps
that meet in the middle (`metric._interval`), and between two vertices of
a geodesic from the cones of the path's layer map
(`boundary._cone_interval`), against two plain BFS runs."""

import itertools
import random
from collections import Counter

from systolic import boundary, eucgeo, metric
from systolic.complex import FlagComplex
from systolic.generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from systolic.layers import layers
from systolic.metric import directed_geodesic, dist, dist_map

from oracles import bfs_oracle, cycle, disjoint_union, outcome, perturbed, triangular_torus

COMPONENTS = "vertex sets lie in different components"


def interval_oracle(adjacency, V, W):
    """(n, d(V, .) on {x : d(x, V) + d(x, W) = n}) from two plain BFS runs,
    n = d(V, W); None when V and W lie in different components."""
    dv, dw = bfs_oracle(adjacency, V), bfs_oracle(adjacency, W)
    sums = [dv[x] + dw[x] for x in dv if x in dw]
    if not sums:
        return None
    n = min(sums)
    return n, {x: dv[x] for x in dv if x in dw and dv[x] + dw[x] == n}


def interval_cases(rng):
    """Per complex, seeded ordered pairs of vertex, edge and triangle ends,
    with overlapping pairs (n = 0): a disc, two flats, a triangular torus
    (locally 6-large, not simply connected), a perturbed flat (not
    systolic) and a disconnected complex."""
    complexes = (gen_disc_with_degrees(2, rings=3), flat_rectangle(6, 4),
                 flat_parallelogram(5, 3), triangular_torus(7),
                 perturbed(flat_rectangle(7, 5), random.Random(1), 2),
                 disjoint_union(gen_disc_with_degrees(4, rings=2), flat_rectangle(3, 3)))
    for X in complexes:
        ends = ([(v,) for v in rng.sample(X.vertices, 4)] + rng.sample(X.edges(), 3)
                + rng.sample(X.triangles(), 3))
        pairs = [(s, t) for s in ends for t in ends]
        pairs += [(s, s[1:]) for s in ends if len(s) > 1]
        pairs += [(s[:1], s) for s in ends if len(s) > 1]
        yield X, pairs


def warmed(X, V, W, rng, state):
    """A fresh complex over X whose sweeps from V and from W are pre-grown,
    as `state` says, each to a seeded radius or to the whole component."""
    Y = FlagComplex(X.adjacency)
    for end, side in ((V, "V"), (W, "W")):
        if side in state:
            dist_map(Y, end, radius=rng.choice((None, 0, 1, 2, 3, 5)))
    return Y


STATES = ("", "V", "W", "VW", "WV")


def test_interval_matches_two_bfs_runs_on_cold_and_warm_caches():
    """Every case, on a cold cache and on caches pre-grown on either side
    or both, gives the oracle's n and map, or the components error; the
    cache keeps counting exactly the labels its sweeps hold."""
    rng = random.Random(25)
    seen = Counter()
    for X, pairs in interval_cases(rng):
        for V, W in pairs:
            truth = interval_oracle(X.adjacency, V, W)
            for state in STATES:
                Y = warmed(X, V, W, rng, state)
                got = outcome(lambda: metric._interval(Y, V, W))
                if truth is None:
                    assert got == (ValueError, COMPONENTS), (V, W, state)
                    seen["apart"] += 1
                else:
                    assert got == truth, (V, W, state)
                    seen["n = 0" if truth[0] == 0 else "n > 0"] += 1
                labelled = sum(len(sweep.dist) for sweep in Y._dist_cache.values())
                assert Y._dist_labelled == labelled
    assert seen["apart"] >= 100 and seen["n = 0"] >= 100 and seen["n > 0"] >= 1000, seen


def test_interval_map_is_the_layer_map_of_two_bfs_runs():
    """On every interval case the map labels x with i exactly when x lies
    in the layer L_i = S_i(V) & S_{n-i}(W) of two plain BFS runs, and
    `layers` reads layer i off it as label i."""
    rng = random.Random(28)
    checked = 0
    for X, pairs in interval_cases(rng):
        for V, W in pairs:
            dv, dw = bfs_oracle(X.adjacency, V), bfs_oracle(X.adjacency, W)
            common = [x for x in dv if x in dw]
            if not common:
                continue
            n = min(dv[x] + dw[x] for x in common)
            truth = tuple(frozenset(x for x in common if dv[x] == i and dw[x] == n - i)
                          for i in range(n + 1))
            got, level = metric._interval(FlagComplex(X.adjacency), V, W)
            assert got == n and set(level) == set().union(*truth), (V, W)
            assert tuple(frozenset(x for x, l in level.items() if l == i)
                         for i in range(n + 1)) == truth, (V, W)
            assert layers(FlagComplex(X.adjacency), V, W).layers == truth, (V, W)
            checked += n > 0
    assert checked >= 300, checked


def test_directed_geodesic_labels_what_its_interval_labels():
    """A directed geodesic reads the interval of its own ends and grows no
    sweep of its own: between vertices 0 and 353 of a rings-5 disc, 6
    apart, it labels exactly the 56 vertices of the two half sweeps that
    `_interval` alone grows on a fresh complex, not the 71 of B_6(353)."""
    X = gen_disc_with_degrees(3, rings=5)
    alone, walked = FlagComplex(X.adjacency), FlagComplex(X.adjacency)
    n, _ = metric._interval(alone, (0,), (353,))
    assert len(directed_geodesic(walked, (0,), (353,))) == n + 1 == 7
    radii = [{key: sweep.radius for key, sweep in Y._dist_cache.items()} for Y in (alone, walked)]
    assert radii[0] == radii[1] == {frozenset((353,)): 4, frozenset((0,)): 2}
    assert walked._dist_labelled == alone._dist_labelled == 56
    assert sum(d <= n for d in bfs_oracle(X.adjacency, (353,)).values()) == 71


def test_interval_checks_its_ends_before_any_sweep():
    """An empty or unknown target raises as `dist` does, before any sweep
    is made; an empty or unknown source raises as `dist` does, and leaves
    no sweep."""
    X = flat_rectangle(3, 3)
    for V, W, error in (((0,), (), ValueError), ((0,), (99,), KeyError),
                        ((), (0,), ValueError), ((99,), (0,), KeyError)):
        for fn in (metric._interval, dist):
            Y = FlagComplex(X.adjacency)
            assert outcome(lambda: fn(Y, V, W))[0] is error
            assert not Y._dist_cache and Y._dist_labelled == 0


def test_interval_grows_the_smaller_frontier_until_the_sweeps_meet():
    """Between antipodes of the cycle C_2n, from a cold cache, V's sweep
    grows first; then W's frontier, one vertex, is the smaller, and from
    radius 1 on both frontiers hold two vertices, so V's wins every tie:
    the sweeps meet at a = n - 1, b = 1.
    A sweep that already reaches the other end grows no further, and no
    sweep of the other end is made or grown."""
    for n in range(2, 9):
        C = cycle(2 * n)
        assert metric._interval(C, (0,), (n,)) == (n, {i: min(i, 2 * n - i) for i in range(2 * n)})
        radii = {tuple(key): sweep.radius for key, sweep in C._dist_cache.items()}
        assert radii == {(0,): n - 1, (n,): 1}
        warm = FlagComplex(C.adjacency)
        dist_map(warm, (0,))
        assert metric._interval(warm, (0,), (n,))[0] == n
        assert list(warm._dist_cache) == [frozenset((0,))]
        dist_map(warm, (n,), radius=n)
        assert metric._interval(warm, (n // 2,), (n,))[0] == n - n // 2
        assert warm._dist_cache[frozenset((n // 2,))].radius == 0
        assert warm._dist_cache[frozenset((n,))].radius == n


def test_interval_cache_accounting_with_two_live_sweeps(monkeypatch):
    """With the label bound small, growing one end's sweep evicts the
    other's; each is put back, counted, before it grows again, so after
    every call the cache counts exactly the labels its sweeps hold, and the
    map still equals the oracle."""
    X = gen_disc_with_degrees(2, rings=3)
    monkeypatch.setattr(metric, "_LABEL_BOUND", 12)
    rng = random.Random(26)
    Y = FlagComplex(X.adjacency)
    far = 0
    for _ in range(300):
        V, W = (tuple(rng.sample(X.vertices, rng.randint(1, 2))) for _ in range(2))
        truth = interval_oracle(X.adjacency, V, W)
        assert metric._interval(Y, V, W) == truth
        labelled = sum(len(sweep.dist) for sweep in Y._dist_cache.values())
        assert Y._dist_labelled == labelled
        far += truth[0] >= 4
    assert far >= 100


def test_euclidean_geodesic_equals_its_dist_and_bfs_interval_reference(monkeypatch):
    """On every interval case, cold and warm, euclidean_geodesic's deltas, or
    its error type and message, equal those of a build whose interval comes
    from `dist` and two plain BFS runs on a fresh complex."""
    def reference(X, V, W):
        n = dist(X, V, W)
        return n, interval_oracle(X.adjacency, V, W)[1]

    rng = random.Random(27)
    seen = Counter()
    for X, pairs in interval_cases(rng):
        for V, W in pairs:
            with monkeypatch.context() as patch:
                patch.setattr(eucgeo, "_interval", reference)
                expected = outcome(
                    lambda: eucgeo.euclidean_geodesic(FlagComplex(X.adjacency), V, W).deltas)
            for state in STATES:
                Y = warmed(X, V, W, rng, state)
                got = outcome(lambda: eucgeo.euclidean_geodesic(Y, V, W).deltas)
                assert got == expected, (V, W, state)
            seen[expected[0] if isinstance(expected, tuple) else "built"] += 1
    assert seen["built"] >= 150 and seen[metric.ProjectionError] >= 10, seen
    assert seen[ValueError] >= 100, seen


def cone_paths(X, rng):
    """Geodesics of X: threaded Euclidean geodesics between seeded pairs,
    where the build returns, and every `graded_paths` ray of a seeded
    length from a seeded vertex, grouped by their first vertex."""
    groups = []
    for _ in range(4):
        u, w = rng.sample(X.vertices, 2)
        built = outcome(lambda: eucgeo.euclidean_geodesic(X, (u,), (w,)))
        if isinstance(built, eucgeo.EuclideanGeodesic):
            groups.append((u, [eucgeo.thread_vertex_path(X, built)]))
    O = rng.choice(X.vertices)
    dm = dist_map(X, (O,))
    N = min(max(dm.values()), rng.choice((4, 5)))
    groups.append((O, list(metric.graded_paths(X, O, dm, 1, N))))
    return groups


def test_cone_intervals_match_interval_and_two_bfs_runs():
    """For every i < j of every path, the cone interval read off the layer
    map l = d(v_0, .) is the layer map d(v_i, .) of `_interval` and of two
    plain BFS runs, at n = j - i.  l is either complete or cut to
    I(v_0, v_n) (for the rays, to the union of theirs), and one memo serves
    each group of paths from one vertex: flats, discs of rings, a perturbed
    flat, and the triangular tori of sides 4 to 9, locally 6-large but not
    systolic."""
    rng = random.Random(26)
    complexes = {"rectangle": flat_rectangle(6, 4), "parallelogram": flat_parallelogram(5, 3),
                 "disc 2": gen_disc_with_degrees(2, rings=3),
                 "disc 5": gen_disc_with_degrees(5, rings=2),
                 "perturbed": perturbed(flat_rectangle(7, 5), random.Random(1), 2)}
    complexes.update((f"torus {n}", triangular_torus(n)) for n in range(4, 10))
    seen, threaded = Counter(), Counter()
    for name, X in complexes.items():
        bfs = {}

        def d(v):
            if v not in bfs:
                bfs[v] = bfs_oracle(X.adjacency, (v,))
            return bfs[v]

        for o, paths in cone_paths(X, rng):
            threaded[name] += len(paths) == 1
            ends = {p[-1] for p in paths}
            n = len(paths[0]) - 1
            cut = {x: l for x, l in d(o).items() if any(l + d(e)[x] == n for e in ends)}
            for level in (dist_map(X, (o,)), cut):
                memo = boundary._CertMemo(level)
                for p in paths:
                    for i, j in itertools.combinations(range(len(p)), 2):
                        a, c = p[i], p[j]
                        got = boundary._cone_interval(X, a, c, memo)
                        truth = {x: d(a)[x] for x, dc in d(c).items() if d(a)[x] + dc == j - i}
                        assert got == truth, (a, c)
                        assert metric._interval(X, (a,), (c,)) == (j - i, got)
                        seen[name] += 1
    assert min(seen.values()) >= 100 and sum(seen.values()) >= 8000, seen
    assert sum(threaded.values()) >= 40, threaded
