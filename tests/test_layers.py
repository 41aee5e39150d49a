"""Layer decompositions, thickness profiles, and the layer lemma report."""

import itertools
import random

import pytest

from systolic.complex import FlagComplex, shortest_hole
from systolic.generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from systolic.layers import (ThicknessProfile, _find_trapezoid, layers, thickness_profile,
                             verify_layer_lemmas, verify_profile_lemmas)
from systolic.metric import dist_map, sphere

from oracles import bfs_oracle, corner_pair, cycle, directed_pair, lattice_dist


def test_layers_trivial_cases():
    X = flat_parallelogram(3, 3)
    v = X.vertices[0]
    dec = layers(X, {v}, {v})
    assert dec.n == 0 and dec.layers == (frozenset({v}),)
    w = min(X.adjacency[v])
    dec = layers(X, {v}, {w})
    assert dec.layers == (frozenset({v}), frozenset({w}))


def test_layers_flat_rectangle_are_antidiagonal_segments():
    X = flat_rectangle(4, 4)
    c0, c1 = corner_pair(X)
    dec = layers(X, {c0}, {c1})
    for i, layer in enumerate(dec.layers):
        expected = {v for v in X.vertices
                    if lattice_dist(X.coords[v], X.coords[c0]) == i
                    and lattice_dist(X.coords[v], X.coords[c1]) == dec.n - i}
        assert layer == expected


def test_layers_close_identities():
    X = flat_parallelogram(5, 2)
    c0, c1 = corner_pair(X)
    dec = layers(X, {c0}, {c1})
    for i in range(dec.n + 1):
        assert dec.layers[i] == sphere(X, {c0}, i) & sphere(X, {c1}, dec.n - i)
        for j in range(i + 1, dec.n + 1):
            dm = dist_map(X, dec.layers[i])
            assert all(dm[x] == j - i for x in dec.layers[j])


def random_connected_graph(rng, n, density):
    """A seeded connected graph on n vertices: a random spanning tree plus
    each other pair with probability `density`."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density}
    return FlagComplex.from_edges(sorted(edges))


def test_layers_match_bfs_oracle_on_random_graphs():
    """layers() is the sphere form {x : d(x,V) = i, d(x,W) = n - i} of a
    plain BFS on seeded random connected graphs, most of them not systolic;
    the ball form B_i(V) & B_{n-i}(W) is the same set and every vertex of
    L_{i+1} has a neighbour in L_i, the identities its docstring proves."""
    rng = random.Random(16)
    not_systolic = 0
    for _ in range(300):
        X = random_connected_graph(rng, rng.randint(2, 14), rng.choice((0.05, 0.15, 0.3)))
        V = rng.sample(X.vertices, rng.randint(1, 2))
        W = rng.sample(X.vertices, rng.randint(1, 2))
        dv, dw = bfs_oracle(X.adjacency, V), bfs_oracle(X.adjacency, W)
        n = min(dv[w] for w in W)
        dec = layers(X, V, W)
        assert dec.n == n
        assert dec.layers == tuple(
            frozenset(x for x in X.vertices if dv[x] == i and dw[x] == n - i)
            for i in range(n + 1))
        for i, layer in enumerate(dec.layers):
            assert layer == {x for x in X.vertices if dv[x] <= i and dw[x] <= n - i}
            if i:
                assert all(X.adjacency[x] & dec.layers[i - 1] for x in layer)
        not_systolic += shortest_hole(X, 5) is not None
    assert not_systolic >= 100


def test_thickness_profile_identical_sequences():
    X = flat_parallelogram(4, 2)
    c0, c1 = corner_pair(X)
    from systolic.metric import all_geodesics
    path = next(all_geodesics(X, c0, c1))
    vseq = [(v,) for v in path]
    prof = thickness_profile(X, vseq, vseq)
    assert prof.thickness == [0] * len(vseq)
    assert prof.thick_intervals == []
    # identical simplex sequences stay thin even where members are edges
    sseq, _ = directed_pair(X, c0, c1)
    prof2 = thickness_profile(X, sseq, sseq)
    assert all(t <= 1 for t in prof2.thickness)
    assert prof2.thick_intervals == []


def test_thickness_profile_thick_interval():
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    sseq, tseq = directed_pair(X, c0, c1)
    prof = thickness_profile(X, sseq, tseq)
    assert prof.thick_intervals == [(2, 8)]
    assert max(prof.thickness) == 2
    assert not verify_profile_lemmas(prof)


def test_thickness_varies_by_one_and_endpoint_disjointness():
    X = flat_parallelogram(10, 2)
    c0, c1 = corner_pair(X)
    sseq, tseq = directed_pair(X, c0, c1)
    prof = thickness_profile(X, sseq, tseq)
    th = prof.thickness
    assert all(abs(a - b) <= 1 for a, b in zip(th, th[1:]))
    for (i, j) in prof.thick_intervals:
        assert not set(prof.sigma_seq[i]) & set(prof.tau_seq[i])
        assert not set(prof.sigma_seq[j]) & set(prof.tau_seq[j])


def test_profile_lemmas_report_each_unrealized_pair_once():
    # (1,4) and (2,3) realize layer 1's width, so (1,3) and (2,4) must too
    prof = ThicknessProfile([(0,), (1, 2), (5,)], [(6,), (3, 4), (7,)], [1, 2, 1],
                            [[(0, 6)], [(1, 4), (2, 3)], [(5, 7)]])
    assert verify_profile_lemmas(prof) == [
        "layer 1: (1,3) fails to realize thickness jointly",
        "layer 1: (2,4) fails to realize thickness jointly"]
    prof.pairs[1] += [(1, 3), (2, 4)]
    assert verify_profile_lemmas(prof) == []


def oracle_thickness(X, sseq, tseq):
    return [max(bfs_oracle(X.adjacency, (s,))[t] for s in sig for t in tau)
            for sig, tau in zip(sseq, tseq)]


def oracle_pairs(X, sseq, tseq):
    """Per layer, the sorted pairs of sigma_k x tau_k at the layer's maximum."""
    return [sorted((s, t) for s in sig for t in tau
                   if bfs_oracle(X.adjacency, (s,))[t] == width)
            for sig, tau, width in zip(sseq, tseq, oracle_thickness(X, sseq, tseq))]


@pytest.mark.parametrize("X", [flat_rectangle(6, 4), flat_parallelogram(6, 3),
                               gen_disc_with_degrees(2, rings=3)],
                         ids=["rect6x4", "par6x3", "disc2r3"])
def test_thickness_matches_bfs_oracle(X):
    """Thin layers decided by one is_simplex and thick widths read off
    maximizing pairs agree with all-pairs BFS maxima, and so do the pairs
    realizing them."""
    rng = random.Random(len(X))
    widths, edge_layers = set(), 0
    for _ in range(30):
        u = rng.choice(X.vertices)
        du = bfs_oracle(X.adjacency, (u,))
        far = max(du.values())
        # half far pairs (mostly thick), half random pairs
        v = rng.choice([w for w in X.vertices if du[w] >= far - 1] if rng.random() < 0.5
                       else X.vertices)
        sseq, tseq = directed_pair(X, u, v)
        for a, b in ((sseq, tseq), (sseq, sseq)):
            prof = thickness_profile(X, a, b)
            assert prof.thickness == oracle_thickness(X, a, b)
            assert prof.pairs == oracle_pairs(X, a, b)
            widths |= {min(t, 2) for t in prof.thickness}
        edge_layers += sum(len(sig) == 2 for sig in sseq)
    assert widths == {0, 1, 2} and edge_layers
    # n = 0, at a vertex and at an edge
    v = X.vertices[0]
    edge = (v, min(X.adjacency[v]))
    assert thickness_profile(X, [(v,)], [(v,)]).pairs == [[(v, v)]]
    assert thickness_profile(X, [edge], [edge]).pairs == [[edge, edge[::-1]]]


def test_profile_layer_mismatch_errors():
    X = flat_parallelogram(4, 2)
    c0, c1 = corner_pair(X)
    sseq, tseq = directed_pair(X, c0, c1)
    bad = list(sseq)
    bad[1] = sseq[2]  # wrong layer
    with pytest.raises(ValueError):
        thickness_profile(X, bad, tseq)


def test_profile_input_errors():
    """On the path 0-1-2-3, every check of `thickness_profile` and the thin
    end rule of a hand-built `ThicknessProfile` raise ValueError."""
    X = FlagComplex.from_edges([(0, 1), (1, 2), (2, 3)])
    for a, b, message in (
            # the ends {0, 2} and {1, 3} are not simplices
            ([(0,), (1,)], [(2,), (3,)], "end members must span simplices"),
            # with no layer step, {0, 2} has only adjacent pairs across to {1}
            ([(0, 2)], [(1,)], "end members must span simplices"),
            ([(0,), (1,)], [(0,)], "sequences must share their layer range"),
            ([(0,), ()], [(0,), (1,)], "members must be nonempty"),
            ([(0,), (2,)], [(0,), (2,)], "members at layers 0,1 do not span a simplex"),
            # the ends {0, 1} and {1} meet, but the sequences take one step
            ([(0,), (1,)], [(1,), (1,)], "the ends lie 0 apart, not 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            thickness_profile(X, a, b)
    assert thickness_profile(X, [(0,), (1,)], [(0,), (1,)]).thickness == [0, 0]
    with pytest.raises(ValueError, match="^thick run touches an endpoint layer$"):
        ThicknessProfile([(0,), (1,)], [(2,), (3,)], [2, 2], [[(0, 2)], [(1, 3)]])


def test_verify_layer_lemmas_flat():
    X = flat_rectangle(5, 3)
    c0, c1 = corner_pair(X)
    report = verify_layer_lemmas(X, {c0}, {c1})
    assert report["ok"], report["failures"]


def test_verify_layer_lemmas_trivial_n1():
    X = flat_parallelogram(3, 3)
    v = X.vertices[0]
    w = min(X.adjacency[v])
    report = verify_layer_lemmas(X, {v}, {w})
    assert report["ok"] and report["n"] == 1


def test_verify_layer_lemmas_detects_bad_layer():
    # octahedron: middle layer between the poles is an induced 4-cycle
    edges = [(0, i) for i in (2, 3, 4, 5)] + [(1, i) for i in (2, 3, 4, 5)]
    edges += [(2, 3), (3, 4), (4, 5), (5, 2)]
    X = FlagComplex.from_edges(edges)
    report = verify_layer_lemmas(X, {0}, {1})
    assert not report["ok"]
    assert any("induced cycle" in f for f in report["failures"])


def test_verify_layer_lemmas_reports_each_failing_edge_pair_once():
    """Between antipodes of an even cycle C_N each layer pair has two cross
    edges, one on each side, and the distance between their tails differs
    by 2 from that between their heads: one unit-difference failure per
    layer pair, each once, and no other failure."""
    for N in (12, 16):
        report = verify_layer_lemmas(cycle(N), {0}, {N // 2})
        assert report["cross_edge_counts"] == [2] * (N // 2)
        assert report["failures"] == [
            f"edges ({i},{i + 1}) and ({(N - i) % N},{N - i - 1}) differ by more than 1"
            for i in range(N // 2)]


def test_trapezoid_search_finds_the_three_triangle_fan():
    """The fan of triangles 023, 012 and 124 is an isometric trapezoid;
    the edge 34 closes it into a wheel of four triangles, which is not."""
    fan = [(0, 2), (0, 3), (2, 3), (0, 1), (1, 2), (1, 4), (2, 4)]
    assert _find_trapezoid(FlagComplex.from_edges(fan)) == (0, 1, 2, 3, 4)
    assert _find_trapezoid(FlagComplex.from_edges(fan + [(3, 4)])) is None


def test_optional_layer_union_check_runs():
    X = flat_parallelogram(6, 2)
    c0, c1 = corner_pair(X)
    report = verify_layer_lemmas(X, {c0}, {c1})
    assert report["ok"], report["failures"]


def test_layers_match_two_bfs_definition_on_random_graphs():
    """On 1,200 seeded random graphs, many disconnected, layers() equals the
    two-BFS definition {x : d(x,V) = i, d(x,W) = n - i} of plain BFS from
    both sides, or raises where V and W lie in different components."""
    rng = random.Random(19)
    split = disconnected = 0
    for _ in range(1200):
        size = rng.randint(1, 12)
        density = rng.choice((0.1, 0.2, 0.35))
        edges = [e for e in itertools.combinations(range(size), 2) if rng.random() < density]
        X = FlagComplex.from_edges(edges, vertices=range(size))
        V = rng.sample(range(size), rng.randint(1, min(3, size)))
        W = rng.sample(range(size), rng.randint(1, min(3, size)))
        dv, dw = bfs_oracle(X.adjacency, V), bfs_oracle(X.adjacency, W)
        disconnected += len(bfs_oracle(X.adjacency, (0,))) < size
        if not any(w in dv for w in W):
            with pytest.raises(ValueError, match="^vertex sets lie in different components$"):
                layers(X, V, W)
            split += 1
            continue
        n = min(dv[w] for w in W if w in dv)
        dec = layers(X, V, W)
        assert dec.n == n
        assert dec.layers == tuple(frozenset(x for x in dv if dv[x] == i and dw.get(x) == n - i)
                                   for i in range(n + 1))
    assert split >= 100 and disconnected - split >= 300, (split, disconnected)
