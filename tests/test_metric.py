"""Distances, balls, convexity, residues, projections, directed geodesics."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from systolic import metric
from systolic.complex import FlagComplex, is_locally_6_large, simply_connected_heuristic
from systolic.generators import (flat_parallelogram, flat_rectangle,
                                 gen_disc_with_degrees, gen_flat_region)
from systolic.lattice import RowStack, lattice_adjacent
from systolic.metric import (ProjectionError, all_geodesics, ball, dist,
                             directed_geodesic, dist_map, is_convex, projection,
                             projection_witness, residue, sphere)

from oracles import (bfs_oracle, corner_pair, counting_calls, cycle, hexagon_wheel,
                     is_geodesic_path, lattice_dist, octahedron, outcome, perturbed,
                     projection_witness_reference, subtree_chordal, suspension,
                     triangular_torus)


def test_dist_basics():
    X = hexagon_wheel()
    assert dist(X, (1,), (1,)) == 0
    assert dist(X, (1,), (2,)) == 1
    assert dist(X, (1,), (4,)) == 2


def test_dist_matches_lattice_closed_form():
    X = flat_rectangle(6, 6)
    rng = random.Random(1)
    verts = X.vertices
    for _ in range(200):
        u, v = rng.choice(verts), rng.choice(verts)
        assert dist(X, (u,), (v,)) == lattice_dist(X.coords[u], X.coords[v])


def test_dist_disconnected_errors():
    X = FlagComplex.from_edges([(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        dist(X, (0,), (3,))


def test_ball_and_sphere():
    X = hexagon_wheel()
    assert ball(X, (1,), 0) == frozenset({1})
    assert ball(X, (0,), 1) == frozenset(range(7))
    flat = flat_rectangle(8, 8)
    center = next(v for v in flat.vertices if flat.coords[v] == (4, Fraction(4)))
    ring = sphere(flat, (center,), 2)
    expected = {v for v in flat.vertices
                if lattice_dist(flat.coords[v], flat.coords[center]) == 2}
    assert ring == expected
    assert len(ring) == 12


def test_metric_axioms_on_random_triples():
    X = flat_parallelogram(5, 4)
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = (rng.choice(X.vertices) for _ in range(3))
        assert dist(X, (a,), (b,)) == dist(X, (b,), (a,))
        assert dist(X, (a,), (c,)) <= dist(X, (a,), (b,)) + dist(X, (b,), (c,))


def test_balls_around_simplices_are_convex():
    X = flat_parallelogram(4, 3)
    rng = random.Random(3)
    for _ in range(6):
        v = rng.choice(X.vertices)
        sigma = (v,)
        w = next((w for w in sorted(X.adjacency[v])), None)
        if w is not None and rng.random() < 0.5:
            sigma = tuple(sorted((v, w)))
        n = rng.randint(0, 3)
        assert is_convex(X, ball(X, sigma, n))


def test_hexagon_pair_not_convex():
    X = flat_rectangle(6, 6)
    center = next(v for v in X.vertices if X.coords[v] == (3, Fraction(7, 2)))
    ring = sorted(sphere(X, (center,), 1))
    opposite = [v for v in ring
                if any(w != v and lattice_dist(X.coords[v], X.coords[w]) == 2
                       and X.coords[w][0] == X.coords[v][0] for w in ring)]
    u = opposite[0]
    w = next(w for w in ring if lattice_dist(X.coords[u], X.coords[w]) == 2
             and X.coords[w][0] == X.coords[u][0])
    assert not is_convex(X, {u, w})
    assert is_convex(X, {u})


def test_residue_counts():
    X = flat_rectangle(4, 4)
    interior = next(v for v in X.vertices if X.degree(v) == 6)
    res = residue(X, (interior,))
    assert sum(1 for s in res if len(s) == 1) == 1
    assert sum(1 for s in res if len(s) == 2) == 6
    assert sum(1 for s in res if len(s) == 3) == 6
    tri = X.triangles()[0]
    assert residue(X, tri) == [tri]
    boundary_edge = next(
        e for e in X.edges()
        if sum(1 for t in X.triangles() if set(e) <= set(t)) == 1)
    res_edge = residue(X, boundary_edge)
    assert len(res_edge) == 2


def test_projection_single_vertex():
    X = FlagComplex.from_edges([(0, 1)])
    assert projection(X, (0,), {1}) == (1,)


def test_projection_lattice_shapes():
    X = flat_rectangle(8, 8)
    w = next(v for v in X.vertices if X.coords[v] == (4, Fraction(4)))
    # diagonal direction: projection of a far vertex onto the ball is an edge
    v_diag = next(v for v in X.vertices if X.coords[v] == (4, Fraction(1)))
    n = dist(X, (v_diag,), (w,))
    pi = projection(X, (v_diag,), ball(X, (w,), n - 1))
    assert len(pi) == 1  # straight along the row: a single vertex
    v_off = next(v for v in X.vertices if X.coords[v] == (6, Fraction(4)))
    n = dist(X, (v_off,), (w,))
    pi = projection(X, (v_off,), ball(X, (w,), n - 1))
    assert len(pi) == 2  # strictly between lattice directions: an edge


def test_projection_antitone():
    X = flat_rectangle(6, 6)
    rng = random.Random(4)
    w = next(v for v in X.vertices if X.coords[v] == (3, Fraction(5, 2)))
    checked = 0
    for v in X.vertices:
        n = dist(X, (v,), (w,))
        if n < 2:
            continue
        Y = ball(X, (w,), n - 1)
        bigger = [u for u in sorted(X.adjacency[v])
                  if dist(X, (u,), (w,)) == n]
        for u in bigger:
            pi_small = projection(X, (v,), Y)
            pi_big = projection(X, tuple(sorted((v, u))), Y)
            assert set(pi_big) <= set(pi_small)
            checked += 1
    assert checked >= 10


def test_projection_error_diagnoses_bad_input():
    # 4-cycle: not systolic; projection onto the far pair fails the simplex test
    X = FlagComplex.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ProjectionError):
        projection(X, (1,), {0, 2})


def test_projection_witness_rejects_tori_and_short_cycles():
    assert projection_witness(triangular_torus(4), 0) == (
        (2,), 1, "projection of (2,) is not a simplex: (1, 3)")
    assert projection_witness(triangular_torus(5), 0) == (
        (2, 3), 1, "projection of (2, 3) is empty")
    for X in [triangular_torus(n) for n in range(4, 8)] + [cycle(4), cycle(5), octahedron()]:
        assert_failed_projection(X, 0, projection_witness(X, 0))


def assert_failed_projection(X, o, failed):
    """The residue of sigma, on S_{k+1}(o), meets B_k(o) in no simplex, by a
    BFS of its own."""
    sigma, k, _ = failed
    dm = bfs_oracle(X.adjacency, (o,))
    assert all(dm[v] == k + 1 for v in sigma)
    common = set.intersection(*(set(X.adjacency[v]) for v in sigma))
    pi = [u for u in common if dm[u] <= k]
    assert not pi or any(b not in X.adjacency[a] for a in pi for b in pi if a != b)


def test_projection_witness_passes_generator_outputs():
    # systolic inputs: every projection is a nonempty simplex, and the sweep
    # agrees with the collapse wherever the collapse verifies
    discs = [gen_disc_with_degrees(s, rings=r) for s in range(3) for r in (3, 5)]
    flats = [flat_rectangle(n, n) for n in (5, 10, 20)] + [flat_parallelogram(12, 6)]
    # chordal complexes of 40 vertices, with simplices of dimension up to 18
    chordal = [X for X in map(subtree_chordal, range(30)) if X.is_connected()]
    for X in discs + flats + chordal:
        assert projection_witness(X, min(X.vertices)) is None
    for X in discs[::2] + flats[:2]:
        assert is_locally_6_large(X).ok and simply_connected_heuristic(X) == "verified"


def projection_sweep_inputs():
    for s in range(30):
        X = subtree_chordal(s, n=24, tree_size=15, max_nodes=4)
        if X.is_connected():
            yield "chordal", X
    yield from (("disc", gen_disc_with_degrees(s, rings=r)) for s in range(3) for r in (2, 3))
    yield from (("other", triangular_torus(n)) for n in range(4, 9))
    yield from (("other", suspension(n, (0, 1), 2)) for n in range(4, 9))
    yield from (("other", X) for X in (octahedron(), cycle(4), cycle(5)))
    rng = random.Random(29)
    for _ in range(240):
        n = rng.randint(4, 12)
        density = rng.uniform(0.2, 0.85)
        yield "random", FlagComplex.from_edges(
            [(a, b) for a, b in itertools.combinations(range(n), 2)
             if rng.random() < density], vertices=range(n))


def test_projection_witness_matches_the_all_simplex_sweep():
    # With 6-large links, the vertex-and-edge sweep returns what projecting
    # every simplex of every sphere returns; elsewhere its witness still fails.
    seen = Counter()
    for kind, X in projection_sweep_inputs():
        o = min(X.vertices)
        failed = projection_witness(X, o)
        if is_locally_6_large(X).ok:
            assert failed == projection_witness_reference(X, o), (kind, X.edges())
        elif failed is not None:
            assert_failed_projection(X, o, failed)
        seen[kind] += 1
        seen["witness"] += failed is not None
    assert seen["chordal"] >= 15 and seen["witness"] >= 5, seen


def test_projection_witness_lists_no_clique():
    """The sweep reads one distance map: no sphere, induced complex or
    clique listing.  Calls are counted by code object."""
    counted = {"simplices": FlagComplex.simplices, "induced": FlagComplex.induced,
               "sphere": metric.sphere}
    inputs = [gen_disc_with_degrees(3, rings=4), subtree_chordal(26), triangular_torus(4)]
    with counting_calls(counted) as calls:
        found = [projection_witness(X, 0) for X in inputs]
    assert found[:2] == [None, None] and found[2] is not None
    assert not calls, calls


def test_directed_geodesic_adjacent():
    X = FlagComplex.from_edges([(0, 1)])
    assert directed_geodesic(X, (0,), frozenset({1})) == [(0,), (1,)]


def test_directed_geodesic_on_lattice_line():
    X = gen_flat_region(RowStack(0, ((0, 8),)))
    left = min(X.vertices, key=lambda v: X.coords[v][1])
    right = max(X.vertices, key=lambda v: X.coords[v][1])
    seq = directed_geodesic(X, (left,), frozenset({right}))
    assert [s for (s,) in seq] == sorted(X.vertices, key=lambda v: X.coords[v][1])


def test_directed_geodesic_parallelogram_alternation():
    X = flat_parallelogram(2, 2)
    c0, c1 = corner_pair(X)
    seq = directed_geodesic(X, (c0,), frozenset({c1}))
    assert [len(s) for s in seq] == [1, 2, 1, 2, 1]


def test_directed_geodesic_split_start():
    X = flat_parallelogram(3, 3)
    c0, c1 = corner_pair(X)
    n = dist(X, (c0,), (c1,))
    mixed = tuple(sorted((c0, min(X.adjacency[c0] & sphere(X, (c1,), n - 1)))))
    seq = directed_geodesic(X, mixed, frozenset({c1}))
    assert seq[0] == mixed and len(seq[1]) == 1
    assert dist(X, seq[1], (c1,)) == n - 1


def lattice_projection_oracle(X, v, w):
    """Directed geodesic recomputed from coordinates and the closed-form
    distance (no graph search)."""
    coords = X.coords
    n = lattice_dist(coords[v], coords[w])
    seq = [(v,)]
    current = (v,)
    for i in range(1, n + 1):
        ball_pts = {u for u in X.vertices
                    if lattice_dist(coords[u], coords[w]) <= n - i}
        cands = sorted(u for u in ball_pts
                       if all(lattice_adjacent(coords[u], coords[c])
                              for c in current))
        current = tuple(cands)
        seq.append(current)
    return seq


def test_directed_geodesic_matches_lattice_oracle():
    for X in (flat_parallelogram(4, 3), flat_rectangle(5, 4), flat_parallelogram(6, 2)):
        c0, c1 = corner_pair(X)
        assert directed_geodesic(X, (c0,), frozenset({c1})) == \
            lattice_projection_oracle(X, c0, c1)
        assert directed_geodesic(X, (c1,), frozenset({c0})) == \
            lattice_projection_oracle(X, c1, c0)


def test_directed_geodesic_length_and_spanning():
    X = flat_rectangle(5, 5)
    rng = random.Random(5)
    for _ in range(10):
        u, v = rng.choice(X.vertices), rng.choice(X.vertices)
        if u == v:
            continue
        seq = directed_geodesic(X, (u,), frozenset({v}))
        assert len(seq) - 1 == dist(X, (u,), (v,))
        for a, b in zip(seq, seq[1:]):
            assert X.is_simplex(sorted(set(a) | set(b)))


def residue_ball_projection(X, sigma, B):
    """The residue of sigma intersected with the vertex set B, validated as
    projection() validates it, but with B's own BFS and set intersections:
    it shares no code with metric's projection helper."""
    dm = dist_map(X, B)
    if any(dm.get(v) != 1 for v in sigma):
        raise ValueError(f"{sigma} is not contained in S_1(B)")
    common = set(X.adjacency[sigma[0]])
    for v in sigma[1:]:
        common &= X.adjacency[v]
    pi = tuple(sorted(common & B))
    if not pi:
        raise ProjectionError(f"projection of {sigma} is empty")
    if not X.is_simplex(pi):
        raise ProjectionError(f"projection of {sigma} is not a simplex: {pi}")
    return pi


def ball_projection_oracle(X, sigma, W):
    """Directed geodesic by iterated projection onto explicitly built balls,
    each projection running its own BFS from the ball."""
    sigma = tuple(sorted(sigma))
    W = frozenset(W)
    if not X.is_simplex(sigma):
        raise ValueError(f"{sigma} is not a simplex")
    dists = {dist(X, (v,), W) for v in sigma}
    n = max(dists)
    if not (dists == {n} or (n > 0 and dists == {n, n - 1})):
        raise ValueError(f"sigma spreads over spheres {sorted(dists)} around W")
    seq = [sigma]
    if len(dists) == 2:
        n -= 1
        sigma = tuple(v for v in sigma if dist(X, (v,), W) == n)
        seq.append(sigma)
    for m in range(n - 1, -1, -1):
        sigma = residue_ball_projection(X, sigma, ball(X, W, m))
        seq.append(sigma)
    return seq


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type is what the caller compares
        return type(exc)
    return None


def stacked_tetrahedra(seed, count):
    """A 3-dimensional tree of tetrahedra: each new vertex cones off a random
    triangle.  Chordal, hence systolic, and its spheres contain triangles."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, 4 + count):
        a, b, c = rng.choice(triangles)
        edges += [(a, v), (b, v), (c, v)]
        triangles += [(a, b, v), (a, c, v), (b, c, v)]
    return FlagComplex.from_edges(edges)


TWO_DIM_KINDS = {(1, 1), (2, 1), (2, 2), (3, 2)}


@pytest.mark.parametrize("X, kinds", [
    *((gen_disc_with_degrees(seed, rings=rings), TWO_DIM_KINDS)
      for seed in range(1, 7) for rings in (3, 4)),
    (flat_rectangle(6, 5), TWO_DIM_KINDS),
    (flat_parallelogram(5, 4), TWO_DIM_KINDS),
    (stacked_tetrahedra(1, 40), TWO_DIM_KINDS | {(3, 1)}),
], ids=[*(f"disc{seed}r{rings}" for seed in range(1, 7) for rings in (3, 4)),
        "rect6x5", "par5x4", "tetra40"])
def test_directed_geodesic_matches_ball_projection_oracle(X, kinds):
    """sigma runs over vertices, edges and triangles, inside one sphere
    around W or across two; (|sigma|, spheres met) records what was seen."""
    rng = random.Random(len(X))
    simplices = [(v,) for v in X.vertices] + X.edges() + X.triangles()
    seen = set()
    for W in rng.sample(simplices, 4):
        dm = {v: dist(X, (v,), W) for v in X.vertices}
        for sigma in rng.sample(simplices, 60):
            spheres = {dm[v] for v in sigma}
            if max(spheres) == 0 or max(spheres) - min(spheres) > 1:
                continue
            seq = directed_geodesic(X, sigma, frozenset(W))
            assert seq == ball_projection_oracle(X, sigma, W)
            seen.add((len(sigma), len(spheres)))
    assert kinds <= seen


def test_directed_geodesic_oracle_agrees_on_failures():
    c5 = FlagComplex.from_edges([(i, (i + 1) % 5) for i in range(5)])
    octahedron = FlagComplex.from_edges(
        [(0, v) for v in range(2, 6)] + [(1, v) for v in range(2, 6)]
        + [(2, 3), (3, 4), (4, 5), (5, 2)])
    for X, sigma, W in ((c5, (2, 3), {0}), (octahedron, (1,), {0})):
        expected = raised(ball_projection_oracle, X, sigma, W)
        assert expected is not None
        assert raised(directed_geodesic, X, sigma, frozenset(W)) is expected
    assert raised(directed_geodesic, c5, (2, 3), frozenset({0})) is ProjectionError


def test_all_geodesics_counts():
    X = flat_rectangle(6, 6)
    a = next(v for v in X.vertices if X.coords[v] == (2, Fraction(2)))
    b = next(v for v in X.vertices if X.coords[v] == (2, Fraction(3)))
    assert list(all_geodesics(X, a, b)) == [[a, b]]
    # along a lattice row the geodesic is unique
    c = next(v for v in X.vertices if X.coords[v] == (2, Fraction(4)))
    assert len(list(all_geodesics(X, a, c))) == 1
    # opposite apexes of a unit rhombus: exactly the two length-2 routes
    top = next(v for v in X.vertices if X.coords[v] == (1, Fraction(5, 2)))
    bottom = next(v for v in X.vertices if X.coords[v] == (3, Fraction(5, 2)))
    paths = list(all_geodesics(X, top, bottom))
    assert len(paths) == 2 and all(len(p) == 3 for p in paths)


def count_paths_oracle(X, u, v):
    """DP on closed-form lattice distance levels."""
    coords = X.coords
    n = lattice_dist(coords[u], coords[v])
    counts = {u: 1}
    for level in range(n - 1, -1, -1):
        nxt = {}
        for p, c in counts.items():
            for q in X.adjacency[p]:
                if lattice_dist(coords[q], coords[v]) == level:
                    nxt[q] = nxt.get(q, 0) + c
        counts = nxt
    return counts.get(v, 0)


def test_all_geodesics_against_dp_oracle():
    X = flat_rectangle(6, 6)
    rng = random.Random(6)
    for _ in range(15):
        u, v = rng.choice(X.vertices), rng.choice(X.vertices)
        if u == v:
            continue
        paths = list(all_geodesics(X, u, v))
        assert len(paths) == count_paths_oracle(X, u, v)
        assert all(is_geodesic_path(X, p) for p in paths)


def test_all_geodesics_walks_lazily():
    # opposite corners of flat_parallelogram(8, 8): distance 16 and
    # C(16, 8) = 12,870 geodesics, with no cap on the walk
    X = flat_parallelogram(8, 8)
    walk = all_geodesics(X, 0, 80)
    assert next(walk) == list(range(9)) + list(range(17, 81, 9))
    paths = list(all_geodesics(X, 0, 80))
    assert len(paths) == math.comb(16, 8) == count_paths_oracle(X, 0, 80)
    assert paths == sorted(paths)
    for k in (1, 2, 7, 100):
        assert list(itertools.islice(all_geodesics(X, 0, 80), k)) == paths[:k]


def test_all_geodesics_lists_paths_in_lexicographic_order():
    # characteristic surfaces backtrack over this walk in the order it yields
    rng = random.Random(11)
    checked = 0
    for X in (flat_rectangle(6, 6), gen_disc_with_degrees(4, rings=3)):
        for _ in range(40):
            u, v = rng.choice(X.vertices), rng.choice(X.vertices)
            paths = list(all_geodesics(X, u, v))
            assert paths == sorted(paths)
            checked += len(paths) > 1
            assert list(itertools.islice(all_geodesics(X, u, v), 3)) == paths[:3]
    assert checked >= 20


def _sweep_cases(rng):
    """Generator outputs and a disconnected complex, each with seeded
    vertices, edges and triangles as source sets."""
    disconnected = FlagComplex.from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (6, 7), (7, 8), (6, 8)], vertices=(9,))
    for X in (gen_disc_with_degrees(2, rings=3), flat_rectangle(6, 4),
              flat_parallelogram(5, 3), disconnected):
        vertices, edges, triangles = X.vertices, X.edges(), X.triangles()
        sources = ([(v,) for v in rng.sample(vertices, 4)] + rng.sample(edges, 3)
                   + rng.sample(triangles, 2))
        yield X, sources


def test_sweep_radius_contract_against_bfs():
    rng = random.Random(11)
    for X, sources in _sweep_cases(rng):
        for src in sources:
            truth = bfs_oracle(X.adjacency, src)
            grown = FlagComplex(X.adjacency)
            for r in range(max(truth.values()) + 2):
                for Y in (grown, FlagComplex(X.adjacency)):
                    dm = dist_map(Y, src, radius=r)
                    assert all(dm.get(v) == d for v, d in truth.items() if d <= r), (src, r)
                    assert all(truth.get(v) == d for v, d in dm.items()), (src, r)
            whole = dist_map(FlagComplex(X.adjacency), src)
            assert list(whole.items()) == list(truth.items())
            assert list(dist_map(grown, src).items()) == list(whole.items())


def test_sweep_dist_against_bfs():
    rng = random.Random(12)
    for X, sources in _sweep_cases(rng):
        warm = FlagComplex(X.adjacency)
        for src in sources:
            truth = bfs_oracle(X.adjacency, src)
            for _ in range(6):
                targets = rng.sample(X.vertices, rng.randint(1, 3))
                found = [truth[b] for b in targets if b in truth]
                for Y in (warm, FlagComplex(X.adjacency)):
                    if found:
                        assert dist(Y, src, targets) == min(found)
                    else:
                        with pytest.raises(ValueError, match="different components"):
                            dist(Y, src, targets)
                    # a sweep grown by dist still keeps the radius contract
                    dm = dist_map(Y, src, radius=1)
                    assert all(truth.get(v) == d for v, d in dm.items())


def test_cache_bounded_by_labelled_vertices(monkeypatch):
    X = gen_disc_with_degrees(2, rings=3)
    bound = 3 * len(X)
    monkeypatch.setattr(metric, "_LABEL_BOUND", bound)
    rng = random.Random(13)
    Y = FlagComplex(X.adjacency)
    keys = set()
    for _ in range(300):
        src = tuple(rng.sample(X.vertices, rng.randint(1, 2)))
        keys.add(frozenset(src))
        truth = bfs_oracle(X.adjacency, src)
        if rng.random() < 0.3:
            t = rng.choice(X.vertices)
            assert dist(Y, src, t) == truth[t]
        else:
            r = rng.choice((None, 0, 1, 3, 6))
            dm = dist_map(Y, src, radius=r)
            reach = max(truth.values()) if r is None else r
            assert all(dm.get(v) == d for v, d in truth.items() if d <= reach)
            assert all(truth[v] == d for v, d in dm.items())
        labelled = sum(len(sweep.dist) for sweep in Y._dist_cache.values())
        assert Y._dist_labelled == labelled <= bound
        assert next(reversed(Y._dist_cache)) == frozenset(src)
    assert len(Y._dist_cache) < len(keys)   # some sweeps were evicted
    # a sweep larger than the bound is kept while it is the one returned
    monkeypatch.setattr(metric, "_LABEL_BOUND", 1)
    dm = dist_map(Y, (X.vertices[0],))
    assert list(Y._dist_cache) == [frozenset((X.vertices[0],))]
    assert dm == bfs_oracle(X.adjacency, (X.vertices[0],))


def test_unknown_source_leaves_no_sweep():
    X = hexagon_wheel()
    for call in (lambda: dist_map(X, (0, 99), radius=0), lambda: dist(X, (99,), (0,))):
        with pytest.raises(KeyError):
            call()
        assert not X._dist_cache and X._dist_labelled == 0
    assert dist_map(X, (0,)) == bfs_oracle(X.adjacency, (0,))


def test_unknown_or_empty_target_leaves_no_sweep():
    X = hexagon_wheel()
    for error, targets in ((KeyError, 999), (KeyError, (1, 999)), (ValueError, ())):
        with pytest.raises(error):
            dist(X, 0, targets)
        assert not X._dist_cache and X._dist_labelled == 0
    assert dist(X, 1, 4) == 2
    with pytest.raises(KeyError):
        dist(X, 1, (999,))
    assert X._dist_cache[frozenset((1,))].radius == 2


def test_input_checks_name_their_fault():
    """Each input check of the metric layer, reached by a hand-built input:
    the path 0-1-2-3, a chordless square, and two disjoint edges."""
    path = FlagComplex.from_edges([(0, 1), (1, 2), (2, 3)])
    square = cycle(4)
    two = FlagComplex.from_edges([(0, 1), (2, 3)])
    for call, message in (
            (lambda: dist_map(path, ()), "empty source set"),
            (lambda: ball(path, (0,), -1), "radius must be >= 0"),
            (lambda: sphere(path, (0,), -1), "radius must be >= 0"),
            (lambda: is_convex(path, ()), "empty subcomplex"),
            (lambda: residue(path, (0, 2)), r"\(0, 2\) is not a simplex"),
            (lambda: projection(path, (0, 2), (1,)), r"\(0, 2\) is not a simplex"),
            (lambda: projection(path, (0,), (3,)), r"\(0,\) is not contained in S_1\(Y\)"),
            (lambda: directed_geodesic(path, (0, 2), (3,)), r"\(0, 2\) is not a simplex"),
            (lambda: all_geodesics(two, 0, 2), "u and v lie in different components")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    # {0, 1, 2} is connected but misses 3, on the other geodesic from 0 to 2
    assert not is_convex(square, (0, 1, 2)) and is_convex(square, (0, 1))
    assert not is_geodesic_path(path, [])
    assert not is_geodesic_path(path, [0, 2])              # not an edge
    assert not is_geodesic_path(square, [0, 1, 2, 3])      # 0 and 3 are adjacent
    assert is_geodesic_path(path, [0, 1, 2, 3])


def test_directed_geodesic_read_off_the_interval_matches_its_own_sweep():
    """On seeded perturbed rectangles and discs, with vertex and edge
    endpoints, `_directed` on the one layer map d(sigma, .) of
    I(sigma, tau), stepped from sigma to tau and from tau back to sigma,
    gives the sequences, or the error types and messages, of
    `ball_projection_oracle`, which builds every ball around the far end
    by a BFS of its own on a complex of its own; and so does
    `directed_geodesic`, which reads the interval of its own ends."""
    raised, returned = Counter(), 0
    for seed in range(12):
        rng = random.Random(seed)
        base = flat_rectangle(7, 5) if seed % 2 == 0 else gen_disc_with_degrees(seed, rings=3)
        X = perturbed(base, rng, 1 + seed % 3)
        fresh = FlagComplex(X.adjacency)
        ends = [(v,) for v in X.vertices] + X.edges()
        for _ in range(100):
            sigma, tau = rng.choice(ends), rng.choice(ends)
            n, level = metric._interval(X, sigma, tau)
            assert n == dist(X, sigma, tau)
            for start, end, first, last in ((sigma, tau, 0, n), (tau, sigma, n, 0)):
                walked = outcome(lambda: metric._directed(X, start, level, first, last, {}))
                swept = outcome(lambda: ball_projection_oracle(fresh, start, end))
                assert walked == swept, (seed, start, end)
                assert outcome(lambda: directed_geodesic(X, start, end)) == walked
                if isinstance(walked, tuple):
                    raised[walked[0]] += 1
                else:
                    returned += 1
    assert raised[ProjectionError] >= 80 and returned >= 2000, (raised, returned)
