"""Layer decompositions, thickness profiles, and the layer lemma report."""

import random

import pytest

from systolic.complex import FlagComplex
from systolic.generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from systolic.layers import (layers, thickness_profile, verify_layer_lemmas,
                             verify_profile_lemmas)
from systolic.metric import dist, dist_map, directed_geodesic, sphere

from oracles import bfs_oracle, lattice_dist


def corner_pair(X):
    return (min(X.vertices, key=lambda v: X.coords[v]),
            max(X.vertices, key=lambda v: X.coords[v]))


def directed_pair(X, u, v):
    sseq = directed_geodesic(X, (u,), frozenset({v}))
    tseq = list(reversed(directed_geodesic(X, (v,), frozenset({u}))))
    return sseq, tseq


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


def test_thickness_profile_identical_sequences():
    X = flat_parallelogram(4, 2)
    c0, c1 = corner_pair(X)
    from systolic.metric import all_geodesics
    path = all_geodesics(X, c0, c1)[0][0]
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
    assert not verify_profile_lemmas(X, prof)


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


def oracle_thickness(X, sseq, tseq):
    return [max(bfs_oracle(X.adjacency, (s,))[t] for s in sig for t in tau)
            for sig, tau in zip(sseq, tseq)]


@pytest.mark.parametrize("X", [flat_rectangle(6, 4), flat_parallelogram(6, 3),
                               gen_disc_with_degrees(2, rings=3)],
                         ids=["rect6x4", "par6x3", "disc2r3"])
def test_thickness_matches_bfs_oracle(X):
    """Thin layers decided by one is_simplex and thick widths read off
    maximizing pairs agree with all-pairs BFS maxima."""
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
            widths |= {min(t, 2) for t in prof.thickness}
        edge_layers += sum(len(sig) == 2 for sig in sseq)
    assert widths == {0, 1, 2} and edge_layers
    # n = 0, at a vertex and at an edge
    v = X.vertices[0]
    edge = (v, min(X.adjacency[v]))
    assert thickness_profile(X, [(v,)], [(v,)]).thickness == [0]
    assert thickness_profile(X, [edge], [edge]).thickness == [1]


def test_profile_layer_mismatch_errors():
    X = flat_parallelogram(4, 2)
    c0, c1 = corner_pair(X)
    sseq, tseq = directed_pair(X, c0, c1)
    bad = list(sseq)
    bad[1] = sseq[2]  # wrong layer
    with pytest.raises(ValueError):
        thickness_profile(X, bad, tseq)


def test_verify_layer_lemmas_flat():
    X = flat_rectangle(5, 3)
    c0, c1 = corner_pair(X)
    report = verify_layer_lemmas(X, {c0}, {c1}, rng=random.Random(0))
    assert report["ok"], report["failures"]


def test_verify_layer_lemmas_trivial_n1():
    X = flat_parallelogram(3, 3)
    v = X.vertices[0]
    w = min(X.adjacency[v])
    report = verify_layer_lemmas(X, {v}, {w}, rng=random.Random(0))
    assert report["ok"] and report["n"] == 1


def test_verify_layer_lemmas_detects_bad_layer():
    # octahedron: middle layer between the poles is an induced 4-cycle
    edges = [(0, i) for i in (2, 3, 4, 5)] + [(1, i) for i in (2, 3, 4, 5)]
    edges += [(2, 3), (3, 4), (4, 5), (5, 2)]
    X = FlagComplex.from_edges(edges)
    report = verify_layer_lemmas(X, {0}, {1}, rng=random.Random(0))
    assert not report["ok"]
    assert any("induced cycle" in f for f in report["failures"])


def test_optional_layer_union_check_runs():
    X = flat_parallelogram(6, 2)
    c0, c1 = corner_pair(X)
    report = verify_layer_lemmas(X, {c0}, {c1}, rng=random.Random(0))
    assert report["ok"], report["failures"]
