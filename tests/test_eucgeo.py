"""The Euclidean-geodesic pipeline: modified discs, diagonals, assembly,
and the quantitative checks."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from systolic import charsurf, metric
from systolic.charsurf import CharDisc, build_char_disc
from systolic.complex import FlagComplex
from systolic.eucgeo import (cat0_closeness_check, cat0_diagonal,
                             euclidean_diagonal, euclidean_geodesic,
                             modified_disc, subsegment_check,
                             thread_vertex_path, verify_euc_properties)
from systolic.generators import (flat_parallelogram, flat_rectangle,
                                 gen_disc_with_degrees, gen_flat_region)
from systolic.lattice import RowStack
from systolic.layers import thickness_profile
from systolic.metric import dist_map, directed_geodesic
from systolic.suites import extremal_geodesic

from oracles import (bfs_oracle, corner_pair, counting_calls, far_pair, is_geodesic_path,
                     perturbed)

HALF = Fraction(1, 2)


def synthetic_disc(widths, offsets, first_row=0):
    """A CharDisc built directly from a lattice row stack (for unit tests of
    the diagonal machinery); `offsets` are the left-end steps in half-units."""
    left = list(itertools.accumulate(offsets, initial=first_row % 2))
    stack = RowStack(first_row, tuple((lo, lo + 2 * a) for lo, a in zip(left, widths)))
    region = gen_flat_region(stack)
    rows_ids = [[] for _ in widths]
    for vid in region.vertices:
        rows_ids[region.coords[vid][0] - first_row].append(vid)
    for ids in rows_ids:
        ids.sort(key=lambda v: region.coords[v][1])
    cd = CharDisc([ids[0] for ids in rows_ids], [ids[-1] for ids in rows_ids], stack,
                  [[(ids[0], ids[-1])] for ids in rows_ids])
    assert cd.stack.ids == rows_ids
    return cd


def test_corner_geodesic_of_a_deep_rectangle():
    # the characteristic disc of (3, 1198) has 1,196 rows, more than
    # Python's default recursion limit: the surface search opens them in
    # one loop; the layers, and the spans of the members on and between
    # the interval's layers, are checked by BFS and adjacency alone
    X = flat_rectangle(1200, 2)
    eg = euclidean_geodesic(X, (0,), (3602,))
    assert eg.n == 1200 and eg.profile.thick_intervals == [(3, 1198)]
    d0, d1 = bfs_oracle(X.adjacency, (0,)), bfs_oracle(X.adjacency, (3602,))
    assert d0[3602] == 1200
    for k, delta in enumerate(eg.deltas):
        assert all(d0[v] == k and d1[v] == 1200 - k for v in delta)
    for k in range(3, 1198):
        span = set(eg.deltas[k]) | set(eg.deltas[k + 1])
        assert all(w in X.adjacency[v] for v, w in itertools.combinations(span, 2))


def test_modified_disc_rows():
    cd = synthetic_disc([1, 2, 1], [-1, 1])
    md = modified_disc(cd)
    assert md.rows[0][0] == md.rows[0][1]          # endpoint rows are points
    assert md.rows[2][0] == md.rows[2][1]
    lo, hi = md.rows[1]
    assert hi - lo == 2                            # width 2 shrinks to 1 (2 half-units)


def test_modified_disc_parallelogram_shrink():
    cd = synthetic_disc([1, 2, 3, 3, 2, 1], [-1, -1, -1, 1, 1])
    md = modified_disc(cd)
    for (lo, hi), w in zip(md.rows, cd.stack.widths):
        assert hi - lo == 2 * (w - 1)


def test_cat0_diagonal_symmetric_disc_is_vertical():
    cd = synthetic_disc([1, 2, 3, 2, 1], [-1, -1, 1, 1])
    diag = cat0_diagonal(cd)
    assert len(set(diag.xs)) == 1


def test_cat0_diagonal_slope_bound():
    # long thick interval: every step moves strictly less than 1/2
    X = flat_parallelogram(10, 2)
    c0, c1 = corner_pair(X)
    sseq = directed_geodesic(X, (c0,), frozenset({c1}))
    tseq = list(reversed(directed_geodesic(X, (c1,), frozenset({c0}))))
    prof = thickness_profile(X, sseq, tseq)
    (iv,) = prof.thick_intervals
    assert iv[1] - iv[0] > 2
    cd = build_char_disc(X, prof, iv)
    diag = cat0_diagonal(cd)
    for a, b in zip(diag.xs, diag.xs[1:]):
        assert abs(b - a) < HALF


def test_euclidean_diagonal_symmetric_middle_vertex():
    cd = synthetic_disc([1, 2, 3, 4, 3, 2, 1],
                        [-1, -1, -1, 1, 1, 1])
    rho = euclidean_diagonal(cd, cat0_diagonal(cd))
    mid_row = cd.stack.ids[3]
    assert rho[3] == (mid_row[len(mid_row) // 2],)
    for k, r in rho.items():
        rel = k - cd.interval[0]
        assert cd.stack.ids[rel][0] not in r
        assert cd.stack.ids[rel][-1] not in r


def test_euclidean_diagonal_barycenter_tie_gives_edge():
    # diagonal runs straight down x = 1/2 and crosses the width-3 middle row
    # exactly at the barycenter of its middle edge
    cd = synthetic_disc([1, 2, 3, 2, 1], [-1, -1, 1, 1])
    diag = cat0_diagonal(cd)
    assert len(set(diag.xs)) == 1
    rho = euclidean_diagonal(cd, diag)
    ids = cd.stack.ids[2]
    assert rho[2] == (ids[1], ids[2])
    assert rho[1] == (cd.stack.ids[1][1],)


def test_euclidean_diagonal_never_contains_row_ends():
    # crossing nearest a row end still picks the interior neighbor
    cd = synthetic_disc([1, 2, 2, 2, 1], [-1, 1, 1, 1])
    rho = euclidean_diagonal(cd, cat0_diagonal(cd))
    for k, r in rho.items():
        rel = k - cd.interval[0]
        assert set(r) <= set(cd.stack.ids[rel][1:-1])


def test_euclidean_geodesic_trivial_cases():
    X = flat_parallelogram(3, 3)
    v = X.vertices[0]
    eg = euclidean_geodesic(X, (v,), (v,))
    assert eg.deltas == [(v,)]
    w = min(X.adjacency[v])
    eg = euclidean_geodesic(X, (v,), (w,))
    assert eg.deltas == [(v,), (w,)]
    assert all(eg.profile.thin)
    # distinct simplices at distance 0: one is not inside the other's 0-sphere
    for sigma, tau in (((v, w), (v,)), ((v,), (v, w))):
        with pytest.raises(ValueError, match="n-sphere"):
            euclidean_geodesic(X, sigma, tau)
    u = next(x for x in X.vertices if x != v and x not in X.adjacency[v])
    with pytest.raises(ValueError, match="^endpoints must be simplices$"):
        euclidean_geodesic(X, (v, u), (w,))


def test_diagonal_needs_point_end_rows_and_thick_interior_rows():
    """The diagonal runs between point rows of the modified disc, so a disc
    with wide end rows is refused; an interior row of width 1 has no
    interior vertex to pick."""
    for widths in ([2, 3, 2], [1, 2, 2], [2, 2, 1]):
        with pytest.raises(ValueError, match="point rows"):
            cat0_diagonal(synthetic_disc(widths, [-1, 1]))
    with pytest.raises(AssertionError, match="interior layer 1 .* width 1"):
        cd = synthetic_disc([1, 1, 1], [-1, 1])
        euclidean_diagonal(cd, cat0_diagonal(cd))


def test_euclidean_geodesic_tracks_straight_segment():
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    eg = euclidean_geodesic(X, (c0,), (c1,))
    (r0, x0), (r1, x1) = X.coords[c0], X.coords[c1]
    for k, delta in enumerate(eg.deltas):
        crossing = x0 + (x1 - x0) * Fraction(k, eg.n)
        for v in delta:
            assert abs(X.coords[v][1] - crossing) <= HALF


def test_thin_euclidean_geodesic_runs_one_bfs():
    """Without a thick interval the only BFS rows are sigma's and, when it
    grew (b > 0), tau's: they meet at a + b = n, both directed geodesics
    read their balls off the interval walked from the middle level, and
    thickness decides every thin layer by one `is_simplex`, which runs no
    BFS."""
    X = gen_disc_with_degrees(1, rings=4)
    dm = dist_map(X, (0,))
    checked = 0
    for v in X.vertices:
        if dm[v] < 3:
            continue
        fresh = FlagComplex(X.adjacency)
        eg = euclidean_geodesic(fresh, (0,), (v,))
        if eg.intervals:
            continue
        cache = dict(fresh._dist_cache)
        a = cache.pop(frozenset((0,))).radius
        tau_sweep = cache.pop(frozenset((v,)), None)
        assert not cache and (tau_sweep is None or tau_sweep.radius > 0)
        assert a + (tau_sweep.radius if tau_sweep else 0) == eg.n
        checked += 1
    assert checked >= 20


def test_euclidean_geodesic_precondition():
    X = flat_parallelogram(4, 2)
    c0, c1 = corner_pair(X)
    edge = tuple(sorted((c0, min(X.adjacency[c0]))))
    with pytest.raises(ValueError):
        euclidean_geodesic(X, edge, (c1,))  # edge spreads over two spheres


def test_verify_properties_flat_and_thin():
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    eg = euclidean_geodesic(X, (c0,), (c1,))
    assert eg.profile.thick_intervals
    rep = verify_euc_properties(X, eg)
    assert rep["ok"], rep["failures"]
    # thin-everywhere instance
    Y = flat_parallelogram(4, 4)
    d0, d1 = corner_pair(Y)
    eg2 = euclidean_geodesic(Y, (d0,), (d1,))
    assert not eg2.profile.thick_intervals
    rep2 = verify_euc_properties(Y, eg2)
    assert rep2["ok"], rep2["failures"]


def test_reversal_symmetry():
    cases = [flat_parallelogram(8, 2), flat_rectangle(10, 3)]
    for X in cases:
        c0, c1 = corner_pair(X)
        fwd = euclidean_geodesic(X, (c0,), (c1,))
        rev = euclidean_geodesic(X, (c1,), (c0,))
        assert rev.deltas == list(reversed(fwd.deltas))
    for seed in range(3):
        X = gen_disc_with_degrees(seed, rings=3)
        u, w = far_pair(X)
        fwd = euclidean_geodesic(X, (u,), (w,))
        rev = euclidean_geodesic(X, (w,), (u,))
        assert rev.deltas == list(reversed(fwd.deltas))


def test_thread_vertex_path():
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    eg = euclidean_geodesic(X, (c0,), (c1,))
    r = thread_vertex_path(X, eg)
    assert is_geodesic_path(X, r)
    assert all(r[k] in eg.deltas[k] for k in range(eg.n + 1))


def test_thread_vertex_path_names_the_step_it_cannot_take():
    """delta_2 replaced by (13,), which no vertex of delta_1 neighbours."""
    X = flat_parallelogram(8, 2)
    eg = euclidean_geodesic(X, (0,), (26,))
    assert eg.deltas[:3] == [(0,), (1, 3), (4, 6)]
    deltas = list(eg.deltas)
    deltas[2] = (13,)
    with pytest.raises(ValueError, match=r"^no vertex of delta_2 = \(13,\) neighbours "
                                         r"the path's last vertex 1$"):
        thread_vertex_path(X, dataclasses.replace(eg, deltas=deltas))


def test_verify_properties_reports_a_misplaced_simplex():
    """delta_3 replaced by (0,) = delta_0: every kind of failure is reported."""
    X = flat_parallelogram(8, 2)
    eg = euclidean_geodesic(X, (0,), (26,))
    deltas = list(eg.deltas)
    deltas[3] = (0,)
    rep = verify_euc_properties(X, dataclasses.replace(eg, deltas=deltas))
    assert not rep["ok"]
    for failure in ("delta_0 not inside S_3(delta_3)", "delta_3 not inside S_3(delta_0)",
                    "delta_2, delta_3 do not span a simplex",
                    "vertex distances between layers 2,3 are not all 1",
                    "reversal does not reverse the simplex sequence"):
        assert failure in rep["failures"]


def test_subsegment_weak_full_range_is_zero():
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    eg = euclidean_geodesic(X, (c0,), (c1,))
    mx, dists = subsegment_check(X, eg, 0, eg.n, "weak")
    assert mx == 0 and all(d == 0 for d in dists)


def test_subsegment_bounds_on_instances():
    rng = random.Random(0)
    for X in (flat_parallelogram(8, 2), flat_rectangle(10, 3),
              gen_disc_with_degrees(1, rings=3)):
        u, w = corner_pair(X) if X.coords is not None else far_pair(X)
        eg = euclidean_geodesic(X, (u,), (w,))
        for _ in range(4):
            l = rng.randrange(0, eg.n)
            m = rng.randrange(l + 1, eg.n + 1)
            weak, _ = subsegment_check(X, eg, l, m, "weak")
            strong, _ = subsegment_check(X, eg, l, m, "strong")
            assert weak <= 3
            assert strong <= 198


def test_cat0_closeness():
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    eg = euclidean_geodesic(X, (c0,), (c1,))
    r = thread_vertex_path(X, eg)
    assert cat0_closeness_check(X, r, eg) == 0   # p = r: no thick intervals
    with pytest.raises(ValueError, match="^paths must have equal length$"):
        cat0_closeness_check(X, r[:-1], eg)
    with pytest.raises(ValueError, match="^p must join the same endpoint simplices$"):
        cat0_closeness_check(X, r[::-1], eg)
    for largest in (False, True):
        p = extremal_geodesic(X, c0, c1, largest)
        val = cat0_closeness_check(X, p, eg)
        assert 0 <= val <= 99
    Y = flat_rectangle(9, 3)
    d0, d1 = corner_pair(Y)
    egy = euclidean_geodesic(Y, (d0,), (d1,))
    vals = [cat0_closeness_check(Y, extremal_geodesic(Y, d0, d1, b), egy)
            for b in (False, True)]
    assert max(vals) <= 99


def test_subsegment_argument_validation():
    X = flat_parallelogram(4, 2)
    c0, c1 = corner_pair(X)
    eg = euclidean_geodesic(X, (c0,), (c1,))
    with pytest.raises(ValueError):
        subsegment_check(X, eg, 3, 3, "weak")
    with pytest.raises(ValueError):
        subsegment_check(X, eg, 0, eg.n, "sideways")


def test_single_thick_layer_full_pipeline():
    # intervals (i, i+2): the modified disc is two points around one short row
    cases = [(flat_parallelogram(4, 2), "corners"),
             (flat_parallelogram(5, 3), "corners"),
             (gen_disc_with_degrees(4, rings=4), "far")]
    exercised = 0
    for X, how in cases:
        if how == "corners":
            u, w = corner_pair(X)
        else:
            u, w = far_pair(X)
        eg = euclidean_geodesic(X, (u,), (w,))
        short = [iv for iv in eg.profile.thick_intervals if iv[1] - iv[0] == 2]
        if not short:
            continue
        rep = verify_euc_properties(X, eg)
        assert rep["ok"], rep["failures"]
        for (i, j) in short:
            data = next(d for d in eg.intervals if d.disc.interval == (i, j))
            assert data.disc.stack.widths[0] == data.disc.stack.widths[-1] == 1
            assert list(data.rho) == [i + 1]
        mx, _ = subsegment_check(X, eg, 0, eg.n, "weak")
        assert mx == 0
        exercised += 1
    assert exercised == len(cases)


def test_closeness_exercises_nontrivial_discs():
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    eg = euclidean_geodesic(X, (c0,), (c1,))
    vals = []
    for largest in (False, True):
        p = extremal_geodesic(X, c0, c1, largest)
        vals.append(cat0_closeness_check(X, p, eg))
    assert max(vals) > 0  # the extremal path really does peel away from r


def test_cat0_diagonal_straight_on_flat_instances():
    # the modified disc of a flat-region instance is convex, so the diagonal
    # is the straight segment between its endpoints
    for h, w in ((8, 2), (10, 2), (12, 3)):
        X = flat_parallelogram(h, w)
        c0, c1 = corner_pair(X)
        eg = euclidean_geodesic(X, (c0,), (c1,))
        for data in eg.intervals:
            xs = data.diagonal.xs
            steps = {b - a for a, b in zip(xs, xs[1:])}
            assert len(steps) == 1


def test_diagonal_close_to_rho_barycenter_path():
    # nearest-vertex rounding: the diagonal stays within 1/2 of the path
    # through the barycenters of the selected simplices
    instances = [flat_parallelogram(10, 2), flat_rectangle(9, 3),
                 gen_disc_with_degrees(9, rings=4)]
    checked = 0
    for X in instances:
        u, w = corner_pair(X) if X.coords is not None else far_pair(X)
        eg = euclidean_geodesic(X, (u,), (w,))
        for data in eg.intervals:
            cd = data.disc
            i = cd.interval[0]
            for k, rho_k in data.rho.items():
                coords = [cd.disc.complex.coords[v][1] for v in rho_k]
                bary = sum(coords) / len(coords)
                assert abs(data.diagonal.x_at(k) - bary) <= HALF
                checked += 1
    assert checked >= 5


def test_euclidean_geodesic_sweeps_stop_at_its_balls():
    """The directed geodesics read sigma's and tau's sweeps, which
    `_interval` grows until they meet at a + b = n = |sigma tau|: they label
    exactly B_a(sigma) and B_b(tau), in BFS order, and tau has a sweep only
    when b > 0, thick intervals included."""
    X = gen_disc_with_degrees(3, rings=5)
    rng = random.Random(9)
    thick = grown = 0
    for _ in range(80):
        u, v = rng.sample(X.vertices, 2)
        fresh = FlagComplex(X.adjacency)
        eg = euclidean_geodesic(fresh, (u,), (v,))
        thick += bool(eg.intervals)
        cache = fresh._dist_cache
        sweeps = [cache[frozenset(eg.sigma)]]
        if frozenset(eg.tau) in cache:
            sweeps.append(cache[frozenset(eg.tau)])
        radii = [sweep.radius for sweep in sweeps] + [0]
        assert radii[0] + radii[1] == eg.n and (len(sweeps) == 1 or radii[1] > 0)
        for end, sweep, r in zip((eg.sigma, eg.tau), sweeps, radii):
            ball = [(w, d) for w, d in bfs_oracle(X.adjacency, end).items() if d <= r]
            assert list(sweep.dist.items()) == ball
        grown += len(sweeps) == 2
    assert thick >= 5 and grown >= 40


def test_euclidean_geodesic_walks_its_interval_once():
    """Between the corners of flat_parallelogram(8, 2), whose thick interval
    (2, 8) has five interior layers, one build walks the interval once:
    both directed geodesics and all five characteristic images read its
    layer map, and no image measures a distance of its own.  Calls are
    counted by code object, whichever module namespace makes them."""
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    image = charsurf.characteristic_image.__code__
    counted = {"walk": metric._interval, "image": charsurf.characteristic_image,
               "dist": metric.dist, "directed_geodesic": metric.directed_geodesic}
    # each call is also counted under (name, whether an image makes it)
    with counting_calls(counted, key=lambda frame: frame.f_back.f_code is image) as calls:
        eg = euclidean_geodesic(X, (c0,), (c1,))
    assert eg.profile.thick_intervals == [(2, 8)]
    assert calls["walk"] == 1 and calls["image"] == 5, calls
    assert not calls["directed_geodesic"], calls
    assert not calls["dist", True] and not calls["walk", True], calls


def test_deltas_lie_in_their_layers_on_perturbed_inputs():
    """Wherever euclidean_geodesic returns on seeded perturbed rectangles
    and discs, delta_k lies in layer k of a plain BFS, delta_0 = sigma and
    delta_n = tau: the facts its docstring proves rather than checks."""
    returned, thick = 0, 0
    for seed in range(12):
        rng = random.Random(seed)
        base = flat_rectangle(8, 6) if seed % 2 == 0 else gen_disc_with_degrees(seed, rings=3)
        X = perturbed(base, rng, 1 + seed % 3)
        far = [(u, w) for u in X.vertices
               for w, d in bfs_oracle(X.adjacency, (u,)).items() if u < w and d >= 4]
        for u, w in rng.sample(far, 60):
            try:
                eg = euclidean_geodesic(X, (u,), (w,))
            except ValueError:
                continue  # a witness against the perturbed input
            du, dw = bfs_oracle(X.adjacency, (u,)), bfs_oracle(X.adjacency, (w,))
            assert eg.deltas[0] == (u,) and eg.deltas[eg.n] == (w,)
            for k, delta in enumerate(eg.deltas):
                assert all(du[v] == k and dw[v] == eg.n - k for v in delta), (u, w, k)
            returned += 1
            thick += bool(eg.intervals)
    assert returned >= 500 and thick >= 40


def test_profile_is_the_checked_thickness_profile():
    """Wherever euclidean_geodesic returns on seeded perturbed rectangles and
    discs, with vertex and edge endpoints, its profile, built without the
    checks its docstring proves, passes them: it equals `thickness_profile`
    of its own sequences."""
    returned, thick = 0, 0
    for seed in range(12):
        rng = random.Random(seed)
        base = flat_rectangle(8, 6) if seed % 2 == 0 else gen_disc_with_degrees(seed, rings=3)
        X = perturbed(base, rng, 1 + seed % 3)
        ends = [(v,) for v in X.vertices] + X.edges()
        for _ in range(160):
            sigma, tau = rng.choice(ends), rng.choice(ends)
            try:
                eg = euclidean_geodesic(X, sigma, tau)
            except ValueError:
                continue  # a witness against the input, or an edge over two spheres
            p = eg.profile
            assert p == thickness_profile(X, p.sigma_seq, p.tau_seq), (seed, sigma, tau)
            returned += 1
            thick += bool(eg.intervals)
    assert returned >= 400 and thick >= 20, (returned, thick)
