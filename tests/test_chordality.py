"""Exact infinity-largeness by chordality, shortest holes for finite k, and
vertex-link checks, each against an oracle that shares no code path with
it."""

import ast
import itertools
import random
import sys
from collections import Counter

from hypothesis import given, settings, strategies as st

from systolic.complex import (FlagComplex, INFINITY, _close_cycle, _link_has_short_hole,
                              chordless_cycle, is_k_large, is_locally_6_large,
                              shortest_hole)
from systolic.generators import (flat_parallelogram, flat_rectangle,
                                 gen_disc_with_degrees, gen_flat_region)
from systolic.lattice import RowStack
from systolic.layers import verify_layer_lemmas

from oracles import find_induced_cycle


def is_induced_cycle(adj, cycle):
    """Distinct vertices, at least four, each adjacent to its two cycle
    neighbours and to no other cycle vertex."""
    if cycle is None or len(cycle) < 4 or len(set(cycle)) != len(cycle):
        return False
    on = set(cycle)
    return all(cycle[i - 1] in adj[x] and len(adj[x] & on) == 2
               for i, x in enumerate(cycle))


def dfs_verdict(X):
    """True iff the uncapped induced-cycle DFS finds no cycle of length >= 4.
    A short cycle settles "no" quickly on large inputs."""
    return (find_induced_cycle(X, 4, 6) is None
            and find_induced_cycle(X, 4, max(len(X), 4)) is None)


def assert_exact(X):
    witness = chordless_cycle(X)
    assert (witness is None) == dfs_verdict(X)
    if witness is not None:
        assert is_induced_cycle(X.adjacency, witness), witness
    assert is_k_large(X, INFINITY) == (witness is None, witness, False)


def cycle(n, start=0):
    return FlagComplex.from_edges([(start + i, start + (i + 1) % n) for i in range(n)])


def octahedron():
    edges = [(0, i) for i in (2, 3, 4, 5)] + [(1, i) for i in (2, 3, 4, 5)]
    edges += [(2, 3), (3, 4), (4, 5), (5, 2)]
    return FlagComplex.from_edges(edges)


def triangular_torus(n):
    """The triangular lattice n x n mod n: locally 6-large, not simply
    connected."""
    def vid(i, j):
        return (i % n) * n + (j % n)
    return FlagComplex.from_edges({tuple(sorted((vid(i, j), vid(i + a, j + b))))
                                   for i in range(n) for j in range(n)
                                   for a, b in ((1, 0), (0, 1), (1, 1))})


def disjoint_union(*complexes):
    edges, vertices, offset = [], [], 0
    for X in complexes:
        vertices += [offset + v for v in X.vertices]
        edges += [(offset + u, offset + v) for u, v in X.edges()]
        offset += max(X.vertices, default=-1) + 1
    return FlagComplex.from_edges(edges, vertices=vertices)


def generator_outputs():
    yield from (gen_disc_with_degrees(s, rings=r) for s in range(3) for r in (2, 3))
    yield from (flat_rectangle(h, w) for h, w in ((1, 5), (4, 3), (6, 3)))
    yield from (flat_parallelogram(h, w) for h, w in ((1, 8), (4, 3), (5, 4)))
    yield gen_flat_region(RowStack(0, ((0, 2), (1, 1))))


def named_inputs():
    triangle = FlagComplex.from_edges([(0, 1), (1, 2), (0, 2)])
    yield from generator_outputs()
    yield from (triangular_torus(n) for n in range(4, 8))
    yield from (cycle(4), cycle(5), cycle(13), octahedron())
    yield FlagComplex.from_edges([])
    yield FlagComplex.from_edges([], vertices=range(3))
    yield disjoint_union(cycle(4), triangle)
    yield disjoint_union(triangle, triangle, FlagComplex.from_edges([], vertices=[0]))
    yield disjoint_union(flat_rectangle(1, 4), cycle(5))


def test_chordality_exact_on_named_inputs():
    for X in named_inputs():
        assert_exact(X)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_chordality_matches_dfs_on_random_graphs(data):
    n = data.draw(st.integers(1, 12))
    ids = data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    assert_exact(FlagComplex.from_edges([e for e, k in zip(pairs, keep) if k],
                                        vertices=ids))


def test_chordality_on_seeded_sparse_and_dense_graphs():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(4, 12)
        density = rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [(a, b) for a, b in itertools.combinations(range(n), 2)
                 if rng.random() < density]
        assert_exact(FlagComplex.from_edges(edges, vertices=range(n)))


def test_long_cycle_is_not_infinity_large():
    res = is_k_large(cycle(13), INFINITY)
    assert not res.ok and not res.capped
    assert sorted(res.witness) == list(range(13))
    assert is_induced_cycle(cycle(13).adjacency, res.witness)


def test_witness_follows_least_id_search():
    # On the 4-cycle 7-3-9-5 the search visits 3, 7, 5 (least id among the
    # heaviest) and fails at 9, whose latest earlier neighbour is 5; the
    # witness closes 9 with the path 3-7-5.
    X = FlagComplex.from_edges([(7, 3), (3, 9), (9, 5), (5, 7)])
    assert chordless_cycle(X) == (9, 3, 7, 5)
    assert chordless_cycle(cycle(4)) == (3, 0, 1, 2)


def ringed_bicone(m):
    """North pole, two m-rings joined as a triangulated annulus, south pole:
    the layers between the poles are the rings."""
    ring_a, ring_b = range(m), range(m, 2 * m)
    edges = [(2 * m, a) for a in ring_a] + [(2 * m + 1, b) for b in ring_b]
    for i in range(m):
        edges += [(i, (i + 1) % m), (m + i, m + (i + 1) % m),
                  (i, m + i), (i, m + (i + 1) % m)]
    return FlagComplex.from_edges(edges), set(ring_a), set(ring_b)


def reported_cycles(report, prefix):
    return [ast.literal_eval(f.split("induced cycle ", 1)[1])
            for f in report["failures"] if f.startswith(prefix)]


def test_layer_report_finds_cycles_longer_than_twelve():
    X, ring_a, ring_b = ringed_bicone(13)
    report = verify_layer_lemmas(X, {26}, {27})
    assert report["n"] == 3 and not report["ok"] and "capped" not in report
    for i, ring in ((1, ring_a), (2, ring_b)):
        (found,) = reported_cycles(report, f"layer {i} has")
        assert set(found) == ring and len(found) == 13
        assert is_induced_cycle(X.adjacency, found)
    (found,) = reported_cycles(report, "layers 1,2 union")
    assert set(found) <= ring_a | ring_b and len(found) > 12
    assert is_induced_cycle(X.adjacency, found)


def locally_6_large_by_links(X):
    """One link complex per simplex, as the verdict was first written."""
    for sigma in X.simplices():
        found = find_induced_cycle(X.link(sigma), 4, 5)
        if found is not None:
            return False, (sigma, found)
    return True, None


def test_link_check_matches_per_link_oracle():
    # The verdict and the witness simplex equal the per-simplex oracle's; the
    # cycle is a shortest hole of that vertex link, not the DFS's first one.
    rng = random.Random(3)
    inputs = list(named_inputs())
    for _ in range(150):
        n = rng.randint(4, 10)
        density = rng.choice((0.3, 0.5, 0.7, 0.85))
        inputs.append(FlagComplex.from_edges(
            [(a, b) for a, b in itertools.combinations(range(n), 2)
             if rng.random() < density], vertices=range(n)))
    verdicts = set()
    for X in inputs:
        res = is_locally_6_large(X)
        ok, witness = locally_6_large_by_links(X)
        assert res.ok == ok and not res.capped
        verdicts.add(res.ok)
        if ok:
            assert res.witness is None
            continue
        sigma, found = res.witness
        assert sigma == witness[0] and len(sigma) == 1
        link = X.link(sigma)
        assert is_induced_cycle(link.adjacency, found) and len(found) in (4, 5)
        assert find_induced_cycle(link, 4, len(found) - 1) is None
    assert verdicts == {True, False}


def suspension(n, poles, ring_start):
    """The cycle ring_start .. ring_start+n-1, coned off by two poles."""
    ring = [ring_start + i for i in range(n)]
    edges = [(ring[i - 1], ring[i]) for i in range(n)]
    return FlagComplex.from_edges(edges + [(pole, r) for pole in poles for r in ring])


def test_link_check_pins_witnesses():
    assert is_locally_6_large(octahedron()).witness == ((0,), (2, 3, 4, 5))
    # a ring vertex's link is the 4-cycle of its ring neighbours and poles
    assert is_locally_6_large(suspension(4, (4, 5), 0)).witness == ((0,), (1, 4, 3, 5))
    # pole 0's link is the 5-cycle itself
    assert is_locally_6_large(suspension(5, (0, 1), 2)).witness == ((0,), (2, 3, 4, 5, 6))


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
        [(i, j) for i, j in itertools.combinations(range(n), 2)
         if subtrees[i] & subtrees[j]], vertices=range(n))


def link_decision_inputs():
    rng = random.Random(23)
    for _ in range(3000):
        n = rng.randint(5, 16)
        density = rng.uniform(0.2, 0.85)
        yield FlagComplex.from_edges(
            [(a, b) for a, b in itertools.combinations(range(n), 2)
             if rng.random() < density], vertices=range(n))
    yield from (gen_disc_with_degrees(s, rings=r) for s in range(2) for r in (2, 3, 4))
    yield octahedron()
    yield from (suspension(n, (0, 1), 2) for n in range(4, 8))
    yield from (triangular_torus(n) for n in range(4, 8))
    yield from (subtree_chordal(seed) for seed in range(6))


def test_link_decision_matches_shortest_hole_per_vertex():
    # The set-algebra decision of each vertex link against a BFS on the link
    # complex that X.link builds.
    outcomes = Counter()
    for X in link_decision_inputs():
        adj = X.adjacency
        for v in adj:
            found = _link_has_short_hole(adj, v)
            assert found == (shortest_hole(X.link((v,)), 5) is not None), (X.edges(), v)
            outcomes[found, len(adj[v]) >= 16] += 1
    # failing links, passing links, and links of 16 to 27 vertices (only the
    # chordal inputs have them, and all pass), each met often
    assert outcomes[True, False] >= 12_000 and outcomes[False, False] >= 19_000, outcomes
    assert outcomes[False, True] >= 50, outcomes


def test_passing_links_run_no_bfs():
    """The link check builds no link complex and runs no BFS while links
    pass; the first failing link alone asks `shortest_hole` for its witness.
    Calls are counted by code object, whichever module namespace makes them."""
    counted = {FlagComplex.__init__.__code__: "FlagComplex",
               shortest_hole.__code__: "shortest_hole",
               _close_cycle.__code__: "_close_cycle"}

    def calls_of(X):
        calls = Counter()

        def profile(frame, event, arg):
            name = counted.get(frame.f_code) if event == "call" else None
            if name is not None:
                calls[name] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            res = is_locally_6_large(X)
        finally:
            sys.setprofile(previous)
        return res, calls

    res, calls = calls_of(gen_disc_with_degrees(3, rings=4))
    assert res.ok and not calls, calls
    res, calls = calls_of(octahedron())
    assert res.witness == ((0,), (2, 3, 4, 5))
    assert calls["shortest_hole"] == 1 and calls["FlagComplex"] == 1, calls


def test_finite_k_matches_dfs_oracle():
    rng = random.Random(17)
    seen = set()
    for _ in range(120):
        n = rng.randint(4, 11)
        density = rng.choice((0.2, 0.35, 0.5, 0.7))
        X = FlagComplex.from_edges([(a, b) for a, b in itertools.combinations(range(n), 2)
                                    if rng.random() < density], vertices=range(n))
        for k in range(4, 9):
            res = is_k_large(X, k)
            assert res.ok == (find_induced_cycle(X, 4, k - 1) is None)
            assert not res.capped
            seen.add(res.ok)
            if not res.ok:
                assert is_induced_cycle(X.adjacency, res.witness)
                assert len(res.witness) < k
                assert find_induced_cycle(X, 4, len(res.witness) - 1) is None
    assert seen == {True, False}


def test_large_finite_k_is_polynomial():
    # the induced-path DFS ran for minutes here; a shortest hole is a 6-cycle
    X = gen_disc_with_degrees(1, rings=3)
    res = is_k_large(X, 91)
    assert not res.ok and len(res.witness) == 6
    assert is_induced_cycle(X.adjacency, res.witness)
    assert find_induced_cycle(X, 4, 5) is None
