"""Good geodesics, contracting bounds, and the truncated boundary atlas."""

import gc
import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from systolic import boundary, metric
from systolic.boundary import (C_DEFAULT, D_DEFAULT, GoodGeodesic, GoodnessError,
                               atlas_report, boundary_atlas, corollary_contr_check,
                               default_D, in_standard_neighborhood, is_good_geodesic,
                               make_good_geodesic, rays_equivalent_truncated)
from systolic.complex import FlagComplex
from systolic.eucgeo import euclidean_geodesic, thread_vertex_path
from systolic.generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from systolic.layers import maximizing_pairs
from systolic.metric import ProjectionError, all_geodesics, dist, dist_map, graded_paths
from systolic.suites import extremal_geodesic, instance_suite

from oracles import (bfs_oracle, corner_pair, counting_calls, cycle, disjoint_union, far_pair,
                     flat_good_regions, outcome, perturbed, rising_cone, triangular_torus, twin)


def test_builds_leave_no_cyclic_garbage():
    # reference counting frees each build: with the collector off, a
    # collection afterwards finds nothing unreachable
    flat, rect = flat_parallelogram(8, 2), flat_rectangle(10, 5)
    builds = [lambda: euclidean_geodesic(flat, (0,), (26,)),
              lambda: make_good_geodesic(flat, 0, 26),
              lambda: boundary_atlas(rect, 0, 8)]
    for build in builds:
        gc.collect()
        gc.disable()
        try:
            build()
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_length_one_path_is_good():
    X = flat_parallelogram(3, 3)
    v = X.vertices[0]
    w = min(X.adjacency[v])
    good, witness = is_good_geodesic(X, [v, w])
    assert witness is None and good.max_certificate == 0


def test_non_geodesic_rejected():
    X = flat_parallelogram(3, 3)
    v = X.vertices[0]
    w = min(X.adjacency[v])
    with pytest.raises(ValueError):
        is_good_geodesic(X, [v, w, v])


def test_paths_with_a_non_edge_rejected_before_any_sweep():
    """An empty path, or one with a step that is no edge, is rejected as
    not a geodesic before any sweep is made, ends in different components
    included."""
    for X, path in ((flat_parallelogram(3, 3), []), (flat_parallelogram(3, 3), [0, 2]),
                    (disjoint_union(cycle(4), cycle(5)), [0, 1, 7])):
        with pytest.raises(ValueError, match="^path is not a 1-skeleton geodesic$"):
            is_good_geodesic(X, path)
        assert not X._dist_cache


def test_make_good_geodesic_certifies():
    for X, pair in [(flat_parallelogram(8, 2), None),
                    (gen_disc_with_degrees(3, rings=3), None)]:
        if pair is None:
            u, w = corner_pair(X) if X.coords is not None else far_pair(X)
        good = make_good_geodesic(X, u, w)
        assert good.path[0] == u and good.path[-1] == w
        verified, witness = is_good_geodesic(X, good.path)
        assert witness is None
        assert verified.max_certificate <= C_DEFAULT + 1


def test_straight_lattice_line_certificate_small():
    X = flat_rectangle(2, 8)
    row = [v for v in X.vertices if X.coords[v][0] == 0]
    row.sort(key=lambda v: X.coords[v][1])
    good, witness = is_good_geodesic(X, row)
    assert witness is None
    assert good.max_certificate <= 1


def test_subpaths_of_good_geodesics_are_good():
    X = flat_parallelogram(8, 2)
    u, w = corner_pair(X)
    good = make_good_geodesic(X, u, w)
    sub = good.path[2:7]
    verified, witness = is_good_geodesic(X, sub)
    assert witness is None


def threaded_ray(X, t, s):
    """The threaded Euclidean geodesic from t to s, a good geodesic."""
    return thread_vertex_path(X, euclidean_geodesic(X, (t,), (s,)))


def test_contracting_identical_targets():
    X = flat_parallelogram(6, 2)
    t, s = corner_pair(X)
    ray = threaded_ray(X, t, s)
    assert corollary_contr_check(X, ray, ray) <= 0


def test_contracting_flat_triples():
    X = flat_rectangle(7, 4)
    t, s = corner_pair(X)
    rng = random.Random(0)
    for _ in range(5):
        s2 = rng.choice([v for v in X.vertices if v not in (t, s)])
        excess = corollary_contr_check(X, threaded_ray(X, t, s), threaded_ray(X, t, s2))
        assert excess <= C_DEFAULT
        assert excess < 10  # far below the bound on flat instances


def excess_on_grid(X, path_v, path_w, L):
    """Max of |v_[cn] w_[cm]| - c*|v_n w_m| over c = a/L, 0 <= a <= L."""
    n, m = len(path_v) - 1, len(path_w) - 1
    dend = dist(X, path_v[-1], path_w[-1])
    return max(dist(X, path_v[a * n // L], path_w[a * m // L]) - Fraction(a, L) * dend
               for a in range(L + 1))


def test_contracting_excess_is_its_maximum_over_every_c():
    """On seeded suite triples the excess equals a scan over c = a/L with
    L = 2 lcm(n, m): every breakpoint a/n and b/m, and a point inside every
    interval between consecutive ones."""
    triples = 0
    for seed in range(1, 9):
        rng = random.Random(seed)
        for inst in instance_suite(seed, 16):
            X, t, s = inst.X, inst.sigma[0], inst.tau[0]
            ray = threaded_ray(X, t, s)
            others = [v for v in X.vertices if v != s and dist(X, t, v) >= 2]
            for s2 in rng.sample(others, 3):
                ray2 = threaded_ray(X, t, s2)
                L = 2 * math.lcm(len(ray) - 1, len(ray2) - 1)
                assert corollary_contr_check(X, ray, ray2) == excess_on_grid(X, ray, ray2, L)
                triples += 1
    assert triples == 384


def test_contracting_excess_between_the_eighths():
    """From corner 0 of the README's parallelogram, towards 26 and towards
    4, the excess peaks at c = 2/5: |v_4 w_0| - (2/5) |v_10 w_2| = 4 - 16/5.
    At each c = i/8 it is at most 0."""
    X = flat_parallelogram(8, 2)
    ray, short = threaded_ray(X, 0, 26), threaded_ray(X, 0, 4)
    assert ray == [0, 1, 4, 7, 10, 13, 16, 19, 20, 23, 26] and short == [0, 1, 4]
    assert corollary_contr_check(X, ray, short) == Fraction(4, 5)
    assert excess_on_grid(X, ray, short, 8) == 0


def test_corollary_contr_basics():
    X = flat_rectangle(7, 4)
    O, far = corner_pair(X)
    v_path = extremal_geodesic(X, O, far, largest=False)
    assert corollary_contr_check(X, v_path, v_path) <= 0
    # two lattice rays from a corner
    right = max((v for v in X.vertices if X.coords[v][0] == 0),
                key=lambda v: X.coords[v][1])
    up = max((v for v in X.vertices if X.coords[v][1] <= Fraction(7, 2)),
             key=lambda v: X.coords[v][0])
    ray1 = extremal_geodesic(X, O, right)
    ray2 = extremal_geodesic(X, O, up)
    excess = corollary_contr_check(X, ray1, ray2)
    assert excess <= 2


def test_corollary_contr_prime_form():
    # |v_N w_N| <= 2 |v_k w_l| + D for good geodesics from a common basepoint
    X = flat_rectangle(6, 4)
    O, far = corner_pair(X)
    paths = [extremal_geodesic(X, O, far, False),
             extremal_geodesic(X, O, far, True)]
    g1, g2 = paths
    for N in range(min(len(g1), len(g2))):
        for k in range(N, len(g1)):
            for l in range(N, len(g2)):
                lhs = dist(X, (g1[N],), (g2[N],))
                rhs = 2 * dist(X, (g1[k],), (g2[l],)) + D_DEFAULT
                assert lhs <= rhs


def test_rays_equivalent_truncated():
    X = flat_rectangle(8, 8)
    O = min(X.vertices, key=lambda v: X.coords[v])
    row_target = next(v for v in X.vertices if X.coords[v] == (0, Fraction(6)))
    line_target = next(v for v in X.vertices if X.coords[v] == (6, Fraction(3)))
    a, _ = is_good_geodesic(X, extremal_geodesic(X, O, row_target))
    b, _ = is_good_geodesic(X, extremal_geodesic(X, O, row_target))
    assert rays_equivalent_truncated(X, a, b) == ("equivalent-so-far", None)
    # two lattice rays diverging linearly from the corner
    c, _ = is_good_geodesic(X, extremal_geodesic(X, O, line_target))
    verdict, idx = rays_equivalent_truncated(X, a, c, D=2)
    assert verdict == "distinct" and idx == 3
    verdict, _ = rays_equivalent_truncated(X, a, c, D=1000)
    assert verdict == "equivalent-so-far"


def test_standard_neighborhood():
    X = flat_rectangle(2, 10)
    O = min(X.vertices, key=lambda v: X.coords[v])
    row0 = sorted((v for v in X.vertices if X.coords[v][0] == 0),
                  key=lambda v: X.coords[v][1])
    eta, _ = is_good_geodesic(X, extremal_geodesic(X, O, row0[8]))
    assert in_standard_neighborhood(X, eta, eta, N=3, R=D_DEFAULT + 1)
    with pytest.raises(ValueError):
        in_standard_neighborhood(X, eta, eta, N=3, R=D_DEFAULT)
    # threshold behavior with a small explicit D
    diag = max(X.vertices, key=lambda v: (X.coords[v][0], X.coords[v][1]))
    zeta, _ = is_good_geodesic(X, extremal_geodesic(X, O, row0[8])[:9])
    gap = dist(X, (zeta.path[3],), (eta.path[3],))
    assert in_standard_neighborhood(X, zeta, eta, N=3, R=max(gap, 3), D=2)
    far = extremal_geodesic(X, O, diag, largest=True)
    if len(far) > 3:
        far_g, _ = is_good_geodesic(X, far[:9] if len(far) > 9 else far)
        d3 = dist(X, (far_g.path[3],), (eta.path[3],))
        if d3 > 3:
            assert not in_standard_neighborhood(X, far_g, eta, N=3,
                                                R=d3 - 1, D=2)


def test_ray_and_path_input_checks_name_their_fault():
    """Each input check of the ray and path comparisons and of the atlas's
    radius, reached by hand-built rays on the 4x3 rectangle."""
    X = flat_rectangle(4, 3)
    ray = [GoodGeodesic(path, C_DEFAULT, ()) for path in ([0, 1], [1, 2], [0, 1, 2])]
    R = D_DEFAULT + 1
    for call, message in (
            (lambda: corollary_contr_check(X, [0, 1], [1, 2]),
             "paths must share their basepoint"),
            (lambda: rays_equivalent_truncated(X, ray[0], ray[1]),
             "rays have different basepoints"),
            (lambda: rays_equivalent_truncated(X, ray[0], ray[2]),
             "truncated rays must have equal length"),
            (lambda: in_standard_neighborhood(X, ray[0], ray[0], N=0, R=R), "N must be >= 1"),
            (lambda: in_standard_neighborhood(X, ray[0], ray[1], N=1, R=R),
             "rays have different basepoints"),
            (lambda: in_standard_neighborhood(X, ray[0], ray[2], N=2, R=R),
             "rays too short for depth N"),
            (lambda: boundary_atlas(X, 0, 99), "N exceeds the eccentricity of 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_disjoint_neighborhoods_by_enumeration():
    # gap condition |v_N w_N| > R + S + D + 2 forces disjoint neighborhoods
    X = flat_rectangle(2, 14)
    O = next(v for v in X.vertices if X.coords[v] == (1, Fraction(15, 2)))
    N, R, S, D = 4, 3, 3, 2
    atlas = boundary_atlas(X, O, N, D=D, cap=2000)
    rays = atlas.rays
    for eta, xi in itertools.combinations(rays, 2):
        if dist(X, (eta.path[N],), (xi.path[N],)) > R + S + D + 2:
            for zeta in rays:
                both = (in_standard_neighborhood(X, zeta, eta, N, R, D=D)
                        and in_standard_neighborhood(X, zeta, xi, N, S, D=D))
                assert not both


def test_atlas_star_graph():
    X = FlagComplex.from_edges([(0, i) for i in range(1, 6)])
    atlas = boundary_atlas(X, 0, 1)
    assert len(atlas.rays) == 5
    assert len(atlas.classes) == 1  # leaves pairwise at distance 2 <= D
    assert atlas.raw_violations == 0


def test_atlas_radius_zero_single_class():
    X = flat_parallelogram(3, 3)
    atlas = boundary_atlas(X, X.vertices[0], 0)
    assert len(atlas.classes) == 1


def spider(arms: int, length: int) -> FlagComplex:
    edges = []
    vid = 1
    for _ in range(arms):
        prev = 0
        for _ in range(length):
            edges.append((prev, vid))
            prev = vid
            vid += 1
    return FlagComplex.from_edges(edges)


def test_atlas_separated_directions():
    # genuinely separated ray directions stay separate under the closure,
    # and the class count grows with the number of directions
    for arms in (3, 5):
        X = spider(arms, 4)
        atlas = boundary_atlas(X, 0, 4, D=1)
        assert len(atlas.rays) == arms
        assert len(atlas.classes) == arms
        assert atlas.raw_violations == 0


def test_atlas_flat_disc_surfaces_truncation_artifact():
    # on a flat disc the sphere of rays is connected, so the union-find
    # closure collapses to one class while the raw relation is visibly
    # non-transitive
    X = flat_rectangle(6, 6)
    center = next(v for v in X.vertices if X.coords[v] == (3, Fraction(7, 2)))
    atlas = boundary_atlas(X, center, 3, D=1)
    assert len(atlas.classes) == 1
    assert atlas.raw_violations > 0


def test_atlas_cap_flagged():
    X = flat_rectangle(6, 6)
    center = next(v for v in X.vertices if X.coords[v] == (3, Fraction(7, 2)))
    atlas = boundary_atlas(X, center, 2, cap=3)
    assert atlas.capped


def test_atlas_capped_only_when_a_ray_was_cut():
    # from vertex 45 of flat_rectangle(10, 5) there are exactly 44 geodesics
    # of length 4; the walk outward from 45 also meets dead-end prefixes
    X = flat_rectangle(10, 5)
    assert len(boundary_atlas(X, 45, 4).rays) == 44
    atlas = boundary_atlas(X, 45, 4, cap=44)
    assert len(atlas.rays) == 44 and not atlas.capped
    atlas = boundary_atlas(X, 45, 4, cap=43)
    assert len(atlas.rays) == 43 and atlas.capped
    with pytest.raises(ValueError, match="cap must be at least 1"):
        boundary_atlas(X, 45, 4, cap=0)


def test_atlas_rejects_a_negative_radius_before_any_sweep():
    X = flat_rectangle(4, 3)
    with pytest.raises(ValueError, match="N must be at least 0, got -1"):
        boundary_atlas(X, 0, -1)
    assert not X._dist_cache
    atlas = boundary_atlas(X, 0, 0)
    assert [ray.path for ray in atlas.rays] == [[0]] and atlas.classes == [[0]]


def test_certificate_failures_pin_their_witnesses():
    """At small C a certificate entry can exceed C + 1.  The least corner
    geodesic of flat_parallelogram(8, 8) fails at C = 0, 1 and 2 with
    pinned witnesses (i, j, k, distance) and is good at C = 3; an atlas at
    C = 0 drops exactly the geodesics whose certificates fail."""
    X = flat_parallelogram(8, 8)
    path = next(all_geodesics(X, 0, 80))
    for C, witness in enumerate([(0, 11, 6, 2), (0, 12, 8, 3), (0, 16, 8, 4)]):
        assert is_good_geodesic(X, path, C) == (None, witness)
    good, witness = is_good_geodesic(X, path, 3)
    assert witness is None and good.path == path
    X = flat_rectangle(10, 5)
    atlas = boundary_atlas(X, 0, 8, C=0)
    paths = list(graded_paths(X, 0, dist_map(X, (0,)), 1, 8))
    kept = [ray.path for ray in atlas.rays]
    dropped = [p for p in paths if p not in kept]
    assert (len(paths), len(kept)) == (162, 160)
    assert dropped == [[0, 1, 2, 3, 9, 16, 22, 29, 35], [0, 6, 13, 19, 26, 32, 33, 34, 35]]
    assert [is_good_geodesic(X, p, 0)[1] for p in dropped] == [(0, 8, 3, 2), (0, 8, 5, 2)]


def test_make_good_geodesic_raises_goodness_error_below_its_certificate():
    """GoodnessError is reachable on systolic input: at C = -1 the bound
    C + 1 is 0, and the corner geodesic of flat_rectangle(30, 6), whose
    certificate reaches 1, fails at its first nonzero entry.  At C = 0 it
    is good."""
    X = flat_rectangle(30, 6)
    v, w = corner_pair(X)
    with pytest.raises(GoodnessError,
                       match=r"^threaded path failed its certificate at \(0, 10, 6, 1\)$"):
        make_good_geodesic(X, v, w, C=-1)
    assert make_good_geodesic(X, v, w, C=0).max_certificate == 1


def test_witness_is_the_least_j_then_i_then_k():
    """A witness names the shortest failing prefix.  On every geodesic of
    length 10 from vertex 50 of flat_parallelogram(8, 8), is_good_geodesic
    at C = 0 returns the least (j, i, k) among the entries above 1 of its
    full default-C certificate, and boundary_atlas keeps exactly the paths
    with no witness.  26 of the 252 fail, and on 2 of them the least
    (i, j, k) is another entry."""
    X = flat_parallelogram(8, 8)
    paths = list(graded_paths(X, 50, dist_map(X, (50,)), 1, 10))
    witnesses, moved = [], 0
    for p in paths:
        over = [(j, i, k, d) for (i, j, k), d in is_good_geodesic(X, p)[0].certificate.items()
                if d > 1]
        least = min(over, default=None)
        expected = least and (least[1], least[0], *least[2:])
        good, witness = is_good_geodesic(X, p, 0)
        assert witness == expected and (good is None) == bool(over), p
        witnesses.append(witness)
        moved += bool(over) and min((i, j, k, d) for j, i, k, d in over) != witness
    assert (len(paths), len(paths) - witnesses.count(None), moved) == (252, 26, 2)
    atlas = boundary_atlas(X, 50, 10, C=0)
    assert [r.path for r in atlas.rays] == [p for p, w in zip(paths, witnesses) if w is None]
    # its least (i, j, k) is (0, 10, 6, 2), at the whole path
    path = [50, 41, 40, 39, 38, 37, 36, 27, 18, 9, 0]
    assert is_good_geodesic(X, path, 0) == (None, (1, 9, 6, 2))


def test_good_geodesic_path_is_a_copy_of_the_callers():
    X = flat_parallelogram(3, 3)
    path = next(all_geodesics(X, 0, 8))
    good, _ = is_good_geodesic(X, path)
    assert good.path == path and good.path is not path


def test_atlas_takes_D_from_C():
    """With no D, boundary_atlas reads D = default_D(C), and gives the atlas
    that D gives when passed.  At C = 0, D = 2, where the 60 rays from
    vertex 27 of flat_rectangle(10, 5) split into 2 classes."""
    X = flat_rectangle(10, 5)
    for C, D in ((0, 2), (1, 5), (C_DEFAULT, D_DEFAULT)):
        atlas = boundary_atlas(X, 27, 4, C=C)
        assert atlas.D == D == default_D(C)
        assert atlas_report(atlas) == atlas_report(boundary_atlas(X, 27, 4, D=D, C=C))
    atlas = boundary_atlas(X, 27, 4, C=0)
    assert (len(atlas.rays), len(atlas.classes), atlas.raw_violations) == (60, 2, 782)


def test_atlas_report_deterministic():
    X = flat_rectangle(4, 4)
    center = next(v for v in X.vertices if X.coords[v] == (2, Fraction(2)))
    a1 = atlas_report(boundary_atlas(X, center, 2, D=1))
    a2 = atlas_report(boundary_atlas(X, center, 2, D=1))
    assert a1 == a2
    as_json = atlas_report(boundary_atlas(X, center, 2, D=1), as_json=True)
    import json
    parsed = json.loads(as_json)
    assert parsed["basepoint"] == center and parsed["D"] == 1


def atlas_classing_oracle(X, atlas):
    """Classes, raw violations and representative distances of the atlas's
    rays, as the pairwise relation, union-find and triple loop give them."""
    rays, R = atlas.rays, len(atlas.rays)
    related = [[a == b or rays_equivalent_truncated(X, rays[a], rays[b], atlas.D)[0]
                == "equivalent-so-far" for b in range(R)] for a in range(R)]
    parent = list(range(R))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in itertools.combinations(range(R), 2):
        if related[a][b]:
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    violations = sum(1 for a, b, c in itertools.combinations(range(R), 3)
                     if related[a][b] and related[b][c] and not related[a][c])
    groups = {}
    for a in range(R):
        groups.setdefault(find(a), []).append(a)
    classes = sorted(groups.values())
    ends = [rays[g[0]].path[-1] for g in classes]
    matrix = [[dist(X, (p,), (q,)) for q in ends] for p in ends]
    return classes, violations, matrix


def two_sheets(height: int, width: int) -> FlagComplex:
    """Two copies of flat_rectangle(height, width) glued at corner vertex 0."""
    edges = flat_rectangle(height, width).edges()
    shift = len(flat_rectangle(height, width))

    def moved(v):
        return v if v == 0 else v + shift

    return FlagComplex.from_edges(edges + [(moved(u), moved(v)) for u, v in edges])


def _oracle_cases():
    """(complex, basepoint, N, D, class count) for the classing oracle."""
    for D in (1, 2):
        yield two_sheets(6, 4), 0, 4, D, 2
    X = flat_rectangle(6, 6)
    yield X, next(v for v in X.vertices if X.coords[v] == (3, Fraction(7, 2))), 3, 1, 1
    for arms in (3, 5):
        yield spider(arms, 4), 0, 4, 1, arms
    for D in (1, 2, 3, D_DEFAULT):
        yield flat_rectangle(10, 5), 0, 4, D, 1
    X = gen_disc_with_degrees(3, rings=4)
    for O in (0, 7, 25):
        yield X, O, 3, 1, 1
    # the two rays around a 9-cycle lie 4 apart at level 2 but 1 apart at
    # level 4: only a level i with D/2 < i <= D tells them apart
    yield cycle(9), 0, 4, 3, 2
    # at the classing threshold: N = D // 2 classes no level, and
    # N = D // 2 + 1 classes level N alone
    for D, N, class_count in ((2, 1, 1), (2, 2, 2), (5, 2, 1), (5, 3, 2)):
        yield two_sheets(6, 4), 0, N, D, class_count
    for D, N, class_count in ((4, 2, 1), (4, 3, 3)):
        yield spider(3, 4), 0, N, D, class_count


def test_atlas_classing_matches_pairwise_oracle():
    seen_violations = []
    for X, O, N, D, class_count in _oracle_cases():
        atlas = boundary_atlas(X, O, N, D=D)
        assert len(atlas.rays) > 1 and len(atlas.classes) == class_count
        classes, violations, matrix = atlas_classing_oracle(X, atlas)
        assert atlas.classes == classes, (O, N, D)
        assert atlas.raw_violations == violations, (O, N, D)
        assert atlas.rep_distance_matrix == matrix, (O, N, D)
        seen_violations.append(violations)
    assert seen_violations[2] > 0  # the flat centre case is non-transitive
    assert len(set(seen_violations)) > 2


def _geodesic_rays_oracle(X, O, N):
    """Every geodesic of length N from O, in lexicographic order, graded by
    `bfs_oracle`."""
    dm = bfs_oracle(X.adjacency, (O,))
    paths = [[O]]
    for step in range(1, N + 1):
        paths = [p + [w] for p in paths for w in sorted(X.adjacency[p[-1]])
                 if dm[w] == step]
    return paths


@contextmanager
def counting_builds():
    """Count the Euclidean geodesics the boundary module builds, by their
    ends, through the core `euclidean_geodesic` shares with it, and the
    `_interval` searches made anywhere, by code object."""
    original = boundary._euclidean

    def counting(X, sigma, tau, *args):
        calls[(sigma, tau)] += 1
        return original(X, sigma, tau, *args)

    with counting_calls({"_interval": metric._interval}) as calls, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(boundary, "_euclidean", counting)
        yield calls


def test_atlas_builds_one_euclidean_geodesic_per_pair():
    """Each pair at distance >= 4 of the rays is built once, and no
    interval is searched for."""
    X = flat_rectangle(10, 5)
    with counting_builds() as calls:
        atlas = boundary_atlas(X, 0, 4)
    paths = _geodesic_rays_oracle(X, 0, 4)
    assert [r.path for r in atlas.rays] == paths
    assert calls.pop("_interval", 0) == 0
    # subsegments of one to three edges have closed forms and build nothing
    pairs = {((p[i],), (p[j],)) for p in paths
             for i, j in itertools.combinations(range(len(p)), 2) if j - i >= 4}
    assert set(calls) == pairs and set(calls.values()) == {1}
    for ray in atlas.rays:
        alone, witness = is_good_geodesic(X, ray.path)
        assert witness is None
        assert (alone.path, alone.C, alone.certificate) == (ray.path, ray.C,
                                                             ray.certificate)


def test_good_geodesic_builds_one_euclidean_geodesic_per_pair():
    """make_good_geodesic builds each pair at distance >= 4 of its path
    once, the whole path's included, and searches for one interval; so
    does is_good_geodesic on that path, on a fresh complex."""
    X = flat_rectangle(6, 3)
    v, w = corner_pair(X)
    with counting_builds() as calls:
        good = make_good_geodesic(X, v, w)
    path = good.path
    assert (path[0], path[-1]) == (v, w)
    pairs = Counter({((path[i],), (path[j],)): 1
                     for i, j in itertools.combinations(range(len(path)), 2) if j - i >= 4})
    pairs["_interval"] = 1
    assert calls == pairs
    with counting_builds() as calls:
        alone, witness = is_good_geodesic(FlagComplex(X.adjacency), path)
    assert witness is None and alone.certificate == good.certificate
    assert calls == pairs


PIECES = {"project": boundary._ConeLayer.project, "maximizing_pairs": maximizing_pairs,
          "all_geodesics": metric.all_geodesics}


def piece_key(frame):
    """The key an end-determined piece of a build runs on: `project`, the
    step kernel of a certificate's builds, its simplex and the end it
    projects toward (the calling `_directed`'s `steps` dict, one per end
    and alive while the memo is), `maximizing_pairs` its two members,
    `all_geodesics` its ends."""
    args = frame.f_locals
    if frame.f_code is boundary._ConeLayer.project.__code__:
        return args["sigma"], id(frame.f_back.f_locals["steps"])
    if frame.f_code is maximizing_pairs.__code__:
        return args["sigma"], args["tau"]
    return args["u"], args["v"]


def keys_per_piece(calls):
    """The number of distinct keys each piece ran on."""
    return Counter(entry[0] for entry in calls if isinstance(entry, tuple))


def test_a_certificate_runs_each_end_determined_piece_once():
    """The corner certificate of flat_rectangle(30, 6), 30 edges, and an
    atlas run each projection step, each thick layer's width search and
    each surface row's walk once per key, with the sweeps of the build
    without that sharing: 6,145 labelled vertices on the certificate's
    complex."""
    X = flat_rectangle(30, 6)
    with counting_calls(PIECES, key=piece_key) as calls:
        good = make_good_geodesic(X, *corner_pair(X))
    assert (len(good.path), good.max_certificate) == (31, 1)
    assert X._dist_labelled == 6145
    # a build without the sharing made 9,576, 2,841 and 3,515 of these runs
    assert {name: calls[name] for name in PIECES} == keys_per_piece(calls)
    assert calls["project"] <= 3400 and calls["maximizing_pairs"] <= 400
    assert 0 < calls["all_geodesics"] <= 200
    with counting_calls(PIECES, key=piece_key) as calls:
        atlas = boundary_atlas(flat_rectangle(10, 5), 0, 8)
    assert len(atlas.rays) > 1
    assert {name: calls[name] for name in PIECES} == keys_per_piece(calls)
    assert calls["all_geodesics"] > 0


def test_atlas_computes_each_closed_form_once():
    """An atlas computes each two- or three-edge closed form once per
    endpoint pair, and asks `_subsegment_deltas` once for it: a pair whose
    closed form is in the memo, like every one-edge pair, is skipped, since
    all its entries are 0."""
    functions = {"_short_deltas": boundary._short_deltas,
                 "_subsegment_deltas": boundary._subsegment_deltas}
    for X, N in ((flat_rectangle(10, 5), 4), (flat_rectangle(10, 5), 8),
                 (flat_parallelogram(8, 8), 8)):
        with counting_calls(functions, key=lambda frame: (
                frame.f_locals["a"], frame.f_locals["c"], frame.f_locals["n"])) as calls:
            atlas = boundary_atlas(X, 0, N)
        paths = _geodesic_rays_oracle(X, 0, N)
        assert [r.path for r in atlas.rays] == paths
        short = {(p[i], p[j], j - i) for p in paths
                 for i, j in itertools.combinations(range(len(p)), 2) if j - i in (2, 3)}
        assert {n for _, _, n in short} == {2, 3}
        for name in functions:
            keys = Counter({key[1]: n for key, n in calls.items()
                            if isinstance(key, tuple) and key[0] == name})
            assert not any(n == 1 for _, _, n in keys)
            assert {key: m for key, m in keys.items() if key[2] <= 3} == dict.fromkeys(short, 1)


def test_atlas_certifies_each_prefix_once(monkeypatch):
    """Prefix-shared certificates equal the per-path ones ray by ray, at
    C = 0, 1, 2 and the default C.  Each level of each prefix is computed
    once, no prefix extending a failing one is computed, and each ray owns
    its certificate.  The per-path reference is `_certify` with one memo of
    pure results, which agrees with `is_good_geodesic` ray by ray in
    test_atlas_builds_one_euclidean_geodesic_per_pair; the dropped paths
    are checked against `is_good_geodesic` itself."""
    original = boundary._pair_entries
    calls = Counter()

    def counting(X, path, i, j, *args):
        calls[tuple(path[:j + 1]), i] += 1
        return original(X, path, i, j, *args)

    for X, N, Cs in [(flat_rectangle(10, 5), 8, (C_DEFAULT, 2, 1, 0)),
                     (flat_parallelogram(8, 8), 8, (C_DEFAULT, 2, 1, 0)),
                     (flat_parallelogram(8, 8), 9, (0,))]:
        dm = dist_map(X, (0,))
        paths = list(graded_paths(X, 0, dm, 1, N))
        memo = boundary._CertMemo(dm)
        full = [boundary._certify(X, [p], C_DEFAULT, memo)[0][0].certificate for p in paths]
        for C in Cs:
            calls.clear()
            monkeypatch.setattr(boundary, "_pair_entries", counting)
            atlas = boundary_atlas(X, 0, N, C=C)
            monkeypatch.undo()
            alone = [boundary._certify(X, [p], C, memo)[0][0] for p in paths]
            kept = [(g.path, g.certificate) for g in alone if g is not None]
            assert [(r.path, r.certificate) for r in atlas.rays] == kept
            dropped = [p for p, g in zip(paths, alone) if g is None]
            assert all(is_good_geodesic(X, p, C)[0] is None for p in dropped)
            assert set(calls.values()) == {1}
            failing = {tuple(p[:j + 1]) for p, cert in zip(paths, full)
                       for (_, j, _), d in cert.items() if d > C + 1}
            assert bool(dropped) == bool(failing) == (C == 0)
            assert not any(q[:m] in failing for q, _ in calls for m in range(len(q)))
        # every ray owns its certificate, shared levels included
        before = [dict(r.certificate) for r in atlas.rays]
        atlas.rays[0].certificate[(0, 1, 0)] = N
        assert [r.certificate for r in atlas.rays[1:]] == before[1:]
    # at N = 9 and C = 0 some prefixes fail at index 8 and extend to paths
    assert any(len(q) < len(p) for q in failing for p in dropped if tuple(p[:len(q)]) == q)


def _closed_form_outcomes(X):
    """(a, c, n, the build's deltas or error) for every pair of X at
    distance 1 to 3, asserting that the closed form gives the same."""
    for a in X.vertices:
        dm = dist_map(X, (a,))
        for c, n in dm.items():
            if 1 <= n <= 3:
                built = outcome(lambda: euclidean_geodesic(X, (a,), (c,)).deltas)
                memo = boundary._CertMemo(dm)
                assert outcome(lambda: boundary._subsegment_deltas(X, a, c, n, memo)) == built
                yield a, c, n, built


def test_short_subsegments_match_euclidean_geodesic():
    """Closed forms at distance 1 to 3 equal the built Euclidean geodesic,
    and on non-systolic inputs a certificate raises the error the build
    raises."""
    inputs = {"rectangle": flat_rectangle(6, 4), "parallelogram": flat_parallelogram(6, 3),
              "disc": gen_disc_with_degrees(3, rings=3), "C4": cycle(4), "C6": cycle(6),
              "torus 4": triangular_torus(4), "torus 5": triangular_torus(5),
              "torus 6": triangular_torus(6)}
    raised = Counter()
    for name, X in inputs.items():
        for a, c, n, built in _closed_form_outcomes(X):
            if isinstance(built, tuple):
                raised[(name, n)] += 1
                # no shorter subsegment of these inputs raises first
                for path in all_geodesics(X, a, c):
                    with pytest.raises(ProjectionError) as exc:
                        is_good_geodesic(X, path)
                    assert (type(exc.value), str(exc.value)) == built
    # C4 and the 4x4 torus have distance-2 pairs with two non-adjacent
    # common neighbours; at distance 3, C6 and the 5x5 and 6x6 tori have
    # pairs whose projections fail; the systolic inputs have none
    assert raised == {("C4", 2): 4, ("torus 4", 2): 48, ("C6", 3): 6,
                      ("torus 5", 3): 150, ("torus 6", 3): 108}


def test_short_subsegments_match_euclidean_geodesic_on_perturbed_inputs():
    """On every pair at distance 1 to 3 of seeded perturbed rectangles and
    discs, the closed form gives the built deltas or the built error."""
    raised, total = Counter(), Counter()
    for seed in range(12):
        rng = random.Random(seed)
        base = flat_rectangle(5, 4) if seed % 2 == 0 else gen_disc_with_degrees(seed, rings=2)
        for _, _, n, built in _closed_form_outcomes(perturbed(base, rng, 1 + seed % 3)):
            total[n] += 1
            raised[n] += isinstance(built, tuple)
    assert all(0 < raised[n] < total[n] for n in (2, 3)), (raised, total)


def test_three_edge_closed_forms_grow_no_sweep():
    """At distance 3 the closed form reads neighbourhoods only: on a fresh
    complex it grows no sweep, and it gives the built deltas."""
    for make in (lambda: flat_rectangle(6, 4), lambda: gen_disc_with_degrees(3, rings=3)):
        Y = make()
        pairs = [(a, c) for a in Y.vertices for c, n in dist_map(Y, (a,)).items() if n == 3]
        X = make()
        for a, c in pairs:
            memo = boundary._CertMemo(dist_map(Y, (a,)))
            assert boundary._subsegment_deltas(X, a, c, 3, memo) == \
                euclidean_geodesic(Y, (a,), (c,)).deltas
        assert pairs and not X._dist_cache


def test_atlas_raises_what_certifying_each_path_raises():
    """On non-systolic input, certifying over shared prefixes raises the
    error that certifying the paths one by one, in order and with one memo,
    raises, and keeps the same rays when nothing raises."""
    rng = random.Random(5)
    inputs = [cycle(4), cycle(6), triangular_torus(4), triangular_torus(5),
              perturbed(flat_rectangle(5, 4), rng, 2),
              perturbed(gen_disc_with_degrees(1, rings=2), rng, 3),
              perturbed(flat_rectangle(6, 5), rng, 2)]
    raised = 0
    for X in inputs:
        for O in X.vertices[:4]:
            dm = dist_map(X, (O,))
            for N in range(1, max(dm.values()) + 1):
                for C in (0, C_DEFAULT):
                    memo = boundary._CertMemo(dm)
                    alone = outcome(lambda: [
                        g.certificate for g, _ in (boundary._certify(X, [p], C, memo)[0]
                                                   for p in graded_paths(X, O, dm, 1, N))
                        if g is not None])
                    atlas = outcome(lambda: [r.certificate for r in
                                             boundary_atlas(X, O, N, C=C).rays])
                    assert atlas == alone, (O, N, C)
                    raised += isinstance(alone, tuple)
    assert raised > 0


def test_atlas_sweeps_stop_near_the_rays():
    """The basepoint's sweep stops at radius N, and every other sweep an
    atlas grows stops within 2N, at D = 1 (every level classes) and at the
    default D (none does).  At N = ecc(O) the atlas returns; one more
    raises, having found O's whole component."""
    O, N = 105, 3
    Y = flat_rectangle(20, 10)
    assert N < min(dist(Y, O, v) for v in Y.vertices if len(Y.adjacency[v]) < 6)
    for D in (1, D_DEFAULT):
        X = flat_rectangle(20, 10)
        atlas = boundary_atlas(X, O, N, D=D)
        assert len(atlas.rays) > 1
        radii = {key: sweep.radius for key, sweep in X._dist_cache.items()}
        assert radii.pop(frozenset((O,))) == N
        assert radii and max(radii.values()) <= 2 * N
    X = flat_rectangle(4, 3)
    ecc = max(dist_map(flat_rectangle(4, 3), (0,)).values())
    assert len(boundary_atlas(X, 0, ecc, cap=1).rays) == 1
    assert X._dist_cache[frozenset((0,))].radius == ecc
    with pytest.raises(ValueError, match="^N exceeds the eccentricity of 0$"):
        boundary_atlas(X, 0, ecc + 1)
    assert X._dist_cache[frozenset((0,))].radius == float("inf")


class ReferenceCertifier:
    """Certificates that build every pair with `euclidean_geodesic`, the
    shortest included, pairs by least j, then least i, as `_certify` runs
    them: (certificate, None) or (None, witness), or the build's error.
    Builds, pure, are kept per pair so that long runs of rays stay cheap."""

    def __init__(self, X):
        self.X, self.built = X, {}

    def deltas(self, a, c):
        if (a, c) not in self.built:
            try:
                self.built[(a, c)] = euclidean_geodesic(self.X, (a,), (c,)).deltas
            except (ValueError, AssertionError) as exc:
                self.built[(a, c)] = exc
        built = self.built[(a, c)]
        if isinstance(built, Exception):
            raise built
        return built

    def certify(self, path, C):
        cert = {}
        for j in range(len(path)):
            for i in range(j):
                deltas = self.deltas(path[i], path[j])
                for k in range(i, j + 1):
                    cert[(i, j, k)] = d = dist(self.X, path[k], deltas[k - i])
                    if d > C + 1:
                        return None, (i, j, k, d)
        return cert, None

    def good(self, v, w, C):
        path = thread_vertex_path(self.X, euclidean_geodesic(self.X, (v,), (w,)))
        cert, witness = self.certify(path, C)
        if witness is not None:
            raise GoodnessError(f"threaded path failed its certificate at {witness}")
        return path, cert


def certificate_table(good):
    """good's certificate, rebuilt from its stored levels, which must hold
    exactly the table's nonzero entries, level j those (i, j, k)."""
    table = good.certificate
    assert len(good.levels) == len(good.path)
    assert all(key[1] == j for j, level in enumerate(good.levels) for key in level), good.path
    stored = {key: d for level in good.levels for key, d in level.items()}
    assert stored == {key: d for key, d in table.items() if d}, good.path
    return table


def reference_cases():
    """(name, complex, vertex pairs): flats with their corners, whose
    certificates reach 1, discs of rings, perturbed flats (not systolic)
    and triangular tori (locally 6-large, not simply connected), each with
    seeded pairs; then the flat-good regions with their corners and, as
    in the workload, all but the 30 x 6 rectangle with a seeded pair from
    the first row to the last, at distance the height; and a rings-4 disc
    with a pair 9 apart, its diameter."""
    rng = random.Random(26)
    cases = [("rectangle", flat_rectangle(7, 6)), ("parallelogram", flat_parallelogram(8, 3)),
             ("disc", gen_disc_with_degrees(3, rings=3)),
             ("perturbed", perturbed(flat_rectangle(7, 5), random.Random(2), 2)),
             ("perturbed disc", perturbed(gen_disc_with_degrees(1, rings=3), random.Random(3), 2))]
    cases += [(f"torus {n}", triangular_torus(n)) for n in (4, 5, 6, 7, 9)]
    for name, X in cases:
        corners = [corner_pair(X)] if name in ("rectangle", "parallelogram") else []
        yield name, X, corners + [tuple(rng.sample(X.vertices, 2)) for _ in range(6)]
    for name, X, height in flat_good_regions():
        rows = {r: [v for v in X.vertices if X.coords[v][0] == r] for r in (0, height)}
        far = [(u, v) for u in rows[0] for v in rows[height] if dist(X, u, v) == height]
        yield name, X, [corner_pair(X)] + ([rng.choice(far)] if height < 30 else [])
    disc = gen_disc_with_degrees(2, rings=4)
    assert dist(disc, 78, 94) == 9
    yield "rings-4 disc", disc, [(78, 94)]


def test_certificates_equal_a_reference_that_builds_every_pair():
    """At C = 0, 1 and the default, make_good_geodesic, is_good_geodesic and
    boundary_atlas give the certificates and witnesses of a reference that
    builds every pair with `euclidean_geodesic`, or raise its error with
    its message.  Each runs on a fresh complex."""
    seen = Counter()
    for name, X, pairs in reference_cases():
        ref = ReferenceCertifier(FlagComplex(X.adjacency))
        for C in (0, 1, C_DEFAULT):
            for v, w in pairs:
                made = outcome(lambda: make_good_geodesic(FlagComplex(X.adjacency), v, w, C))
                if isinstance(made, GoodGeodesic):
                    made = made.path, certificate_table(made)
                expected = outcome(lambda: ref.good(v, w, C))
                assert made == expected, (name, v, w, C)
                seen["good" if isinstance(expected[0], list) else expected[0].__name__] += 1
                for path in itertools.islice(all_geodesics(X, v, w), 3):
                    alone = outcome(lambda: is_good_geodesic(FlagComplex(X.adjacency), path, C))
                    if isinstance(alone[0], GoodGeodesic):
                        alone = certificate_table(alone[0]), None
                    expected = outcome(lambda: ref.certify(path, C))
                    assert alone == expected, (name, path, C)
                    seen["witness" if expected[0] is None else "path"] += 1
            O = pairs[0][0]
            dm = dist_map(X, (O,))
            for N in range(1, min(max(dm.values()), 5) + 1):
                atlas = outcome(lambda: [(r.path, certificate_table(r)) for r in
                                         boundary_atlas(FlagComplex(X.adjacency), O, N, C=C).rays])
                expected = outcome(lambda: [(p, cert) for p in graded_paths(X, O, dm, 1, N)
                                            for cert in [ref.certify(p, C)[0]] if cert])
                assert atlas == expected, (name, O, N, C)
                seen["atlas raises" if isinstance(atlas, tuple) else "atlas"] += 1
                if name.startswith("torus") and N == 2:
                    seen[name, "N = 2", isinstance(atlas, tuple)] += 1
    assert seen["witness"] >= 5 and seen["ProjectionError"] >= 10, seen
    assert seen["good"] >= 150 and seen["path"] >= 400, seen
    assert seen["atlas"] >= 80 and seen["atlas raises"] >= 30, seen
    # at N = 2 the atlas raises on the 4-torus, at a distance-2 pair whose
    # common neighbours are not adjacent, and returns on the larger tori
    assert {key[0] for key in seen if key[1:] == ("N = 2", True)} == {"torus 4"}
    assert {key[0] for key in seen if key[1:] == ("N = 2", False)} == \
        {"torus 5", "torus 6", "torus 7", "torus 9"}


def test_mask_steps_equal_dict_steps_and_cones_equal_a_bfs(monkeypatch):
    """On every reference input, and on the 27 single twins of
    `flat_parallelogram(8, 2)`, each step that a certificate or an atlas
    walks on its memo's masks (`_ConeLayer.project`) equals the dict step
    (`metric._project`) on the interval map read off `rising_cone`'s BFS
    cones, or raises the same ProjectionError with the same message.  Each
    memo's up and down cone masks are those cones, its neighbour masks the
    neighbours inside its map, and its label masks the map's layers."""
    layer_of, project = boundary._CertMemo.layer, boundary._ConeLayer.project
    layers, memos, seen = {}, [], Counter()

    def cones(X, level):
        return {(v, step): rising_cone(X.adjacency, level, v, step)
                for v in level for step in (1, -1)}

    def recorded_layer(memo, X, a, c):
        layer = layer_of(memo, X, a, c)
        if not memos or memos[-1][1] is not memo:
            memos.append((X, memo, cones(X, memo.level)))
        cone = memos[-1][2]
        level, i = memo.level, memo.level[a]
        labels = {x: level[x] - i for x in cone[a, 1] & cone[c, -1]}
        layers[id(layer)] = layer, X, labels
        return layer

    def compared_project(layer, sigma, target):
        _, X, labels = layers[id(layer)]
        expected = outcome(lambda: metric._project(X, labels, sigma, target))
        try:
            got = project(layer, sigma, target)
        except ProjectionError as exc:
            assert expected == (ProjectionError, str(exc)), (sigma, target)
            seen["raised"] += 1
            raise
        assert got == expected, (sigma, target)
        seen["returned"] += 1
        return got

    monkeypatch.setattr(boundary._CertMemo, "layer", recorded_layer)
    monkeypatch.setattr(boundary._ConeLayer, "project", compared_project)
    inputs = list(reference_cases())
    parallelogram = flat_parallelogram(8, 2)
    inputs += [(f"twin {m}", twin(parallelogram, m), [(0, 26)]) for m in parallelogram.vertices]
    for name, X, pairs in inputs:
        for v, w in pairs:
            outcome(lambda: make_good_geodesic(FlagComplex(X.adjacency), v, w))
            for path in itertools.islice(all_geodesics(X, v, w), 2):
                outcome(lambda: is_good_geodesic(FlagComplex(X.adjacency), path))
        O = pairs[0][0]
        N = min(6, max(dist_map(X, (O,)).values()))
        outcome(lambda: boundary_atlas(FlagComplex(X.adjacency), O, N, cap=400))
        for Y, memo, cone in memos:
            seen["memos"] += 1
            level, order = memo.level, memo.order
            assert sorted(order) == sorted(level)

            def vertices(mask):
                return {order[b] for b in range(len(order)) if mask >> b & 1}

            for x in level:
                assert vertices(memo.up[x]) == cone[x, 1], (name, x)
                assert vertices(memo.down[x]) == cone[x, -1], (name, x)
                assert vertices(memo.near[x]) == Y.adjacency[x] & level.keys(), (name, x)
            for k, mask in enumerate(memo.labels):
                assert vertices(mask) == {x for x in level if level[x] == k}, (name, k)
        memos.clear()
        layers.clear()
    assert seen["returned"] >= 40000 and seen["raised"] >= 5 and seen["memos"] >= 250, seen


def test_atlas_rays_store_only_their_nonzero_entries():
    """On the atlas of flat_parallelogram(8, 8) from 0 at N = 8, each ray
    stores exactly the nonzero entries of its certificate, level j under
    keys (i, j, k), and the table rebuilt from them is the reference's, key
    order included: at C = 0, where 6 of the 256 geodesics fail, at C = 1
    and at the default C.  Two rays' level j is one dict exactly when their
    paths agree through vertex j, and equal keys are one tuple."""
    X = flat_parallelogram(8, 8)
    ref = ReferenceCertifier(FlagComplex(X.adjacency))
    paths = list(graded_paths(X, 0, dist_map(X, (0,)), 1, 8))
    for C, kept in ((0, 250), (1, 256), (C_DEFAULT, 256)):
        rays = boundary_atlas(FlagComplex(X.adjacency), 0, 8, C=C).rays
        expected = [(p, cert) for p in paths for cert in [ref.certify(p, C)[0]] if cert]
        assert len(rays) == len(expected) == kept
        for ray, (path, cert) in zip(rays, expected):
            assert ray.path == path
            assert list(certificate_table(ray).items()) == list(cert.items())
        stored = [level for ray in rays for level in ray.levels]
        assert 0 < sum(map(len, stored)) < sum(len(cert) for _, cert in expected)
        for j in range(9):
            shared = {(tuple(ray.path[:j + 1]), id(ray.levels[j])) for ray in rays}
            assert len(shared) == len(dict(shared)) == len({level for _, level in shared}), j
        keys = {(key, id(key)) for level in stored for key in level}
        assert len(keys) == len(dict(keys)) > 0


def test_entries_a_lemma_decides_hold_on_every_reference_input():
    """On a geodesic between each pair of every reference input, each
    subsegment whose closed form (`_short_deltas`, 2 or 3 edges) or build
    (4 or more) returns has v_k in delta_k wherever `_pair_entries` writes
    0 with no lookup: at every k of a closed form, and at k = i, i + 1,
    j - 1, j of a build.  Where v_k lies outside delta_k, N(v_k) meets
    delta_k exactly when `dist` is 1.  A certificate still meets C + 1 at
    each decided entry: at C = -2 its first entry is the witness."""
    seen = Counter()
    for name, X, pairs in reference_cases():
        systolic_input = not name.startswith(("perturbed", "torus"))
        for v, w in pairs:
            memo = boundary._CertMemo(metric._interval(X, (v,), (w,))[1])
            for path, (i, j) in itertools.product(
                    itertools.islice(all_geodesics(X, v, w), 3),
                    itertools.combinations(range(dist(X, v, w) + 1), 2)):
                if j - i < 2:
                    continue
                deltas = outcome(lambda: boundary._subsegment_deltas(
                    X, path[i], path[j], j - i, memo))
                if isinstance(deltas, tuple):
                    seen["raised"] += 1
                    continue
                decided = range(i, j + 1) if j - i <= 3 else (i, i + 1, j - 1, j)
                assert all(path[k] in deltas[k - i] for k in decided), (name, path, i, j)
                seen["closed form" if j - i <= 3 else "build", systolic_input] += 1
                for k in range(i, j + 1):
                    u, delta = path[k], deltas[k - i]
                    if u not in delta:
                        near = not X.adjacency[u].isdisjoint(delta)
                        assert near == (dist(X, u, delta) == 1), (name, path, i, j, k)
                        seen["near" if near else "far"] += 1
    # perturbed flats and tori return on most pairs, and raise on some
    assert seen["closed form", True] >= 1000 and seen["closed form", False] >= 200, seen
    assert seen["build", True] >= 2000 and seen["build", False] >= 50, seen
    assert seen["near"] >= 4000 and seen["far"] >= 2000 and seen["raised"] >= 5, seen
    assert is_good_geodesic(flat_rectangle(3, 3), [0, 1], C=-2) == (None, (0, 1, 0, 0))


def test_corner_certificate_runs_no_dist_in_its_entries():
    """The corner certificate of `flat_rectangle(30, 6)`, whose maximum is
    1, decides every entry by a lemma, membership or adjacency: its entry
    loop calls `dist` on no entry, and the certificate equals the
    reference's."""
    X = flat_rectangle(30, 6)
    v, w = corner_pair(X)
    entries = boundary._pair_entries.__code__
    with counting_calls({"dist": metric.dist}, key=lambda frame: frame.f_back.f_code) as calls:
        good = make_good_geodesic(X, v, w)
    assert calls["dist", entries] == 0 and calls["dist"] > 0
    assert good.max_certificate == 1
    reference = ReferenceCertifier(FlagComplex(X.adjacency)).good(v, w, C_DEFAULT)
    assert (good.path, good.certificate) == reference
