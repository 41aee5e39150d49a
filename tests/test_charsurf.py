"""Characteristic discs, surfaces, images, and the minimal-surface oracle."""

import itertools
from fractions import Fraction

import pytest

from systolic import charsurf
from systolic.charsurf import (CharDiscError, build_char_disc,
                               build_char_surface, characteristic_image,
                               check_row_stack)
from systolic.complex import FlagComplex
from systolic.eucgeo import euclidean_geodesic
from systolic.flatgeom import as_disc, gauss_bonnet_sum, is_flat
from systolic.generators import (flat_parallelogram, flat_rectangle,
                                 gen_disc_with_degrees, gen_flat_region)
from systolic.layers import layers, thickness_profile
from systolic.lattice import RowStack, lattice_adjacent
from systolic.metric import dist, dist_map, directed_geodesic

from oracles import (canonical_placement, char_image_oracle, char_preimage,
                     enumerate_char_surfaces, is_triangulable, lattice_dist,
                     minimal_surface_bruteforce)


def corner_pair(X):
    return (min(X.vertices, key=lambda v: X.coords[v]),
            max(X.vertices, key=lambda v: X.coords[v]))


def directed_pair(X, u, v):
    sseq = directed_geodesic(X, (u,), frozenset({v}))
    tseq = list(reversed(directed_geodesic(X, (v,), frozenset({u}))))
    return sseq, tseq


def instance(gen, h, w):
    X = gen(h, w)
    c0, c1 = corner_pair(X)
    sseq, tseq = directed_pair(X, c0, c1)
    prof = thickness_profile(X, sseq, tseq)
    return X, c0, c1, sseq, tseq, prof


def test_disc_shape_matches_lattice_thicknesses():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, sseq, tseq, iv)
    i, j = iv
    assert cd.stack.widths == prof.thickness[i:j + 1]
    assert gauss_bonnet_sum(cd.disc) == 6
    assert is_flat(cd.disc).ok


def test_minimal_thick_interval_three_rows():
    # search a flat shape whose profile has a single thick layer
    for h in range(4, 10):
        X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, h, 2)
        short = [(i, j) for (i, j) in prof.thick_intervals if j - i == 2]
        if short:
            cd = build_char_disc(X, sseq, tseq, short[0])
            assert cd.stack.widths == [1, 2, 1]
            return
    pytest.skip("no minimal thick interval in the scanned family")


def test_tie_break_seeds_give_identical_shape():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 10, 2)
    (iv,) = prof.thick_intervals
    stacks = {build_char_disc(X, sseq, tseq, iv, tie_seed=s).stack
              for s in (None, 1, 2, 3, 4, 5)}
    assert len(stacks) == 1


def test_partial_interval_disc():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 10, 2)
    (i, j) = prof.thick_intervals[0]
    cd = build_char_disc(X, sseq, tseq, (i + 1, j - 1))
    assert not cd.thin_endpoints
    assert all(w >= 2 for w in cd.stack.widths)
    with pytest.raises(CharDiscError):
        build_char_disc(X, sseq, tseq, (i, j - 1))  # thin start, thick end


def test_surface_on_flat_instance_is_congruent_embedding():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, sseq, tseq, iv)
    surf = build_char_surface(X, cd)
    assert len(set(surf.values())) == len(surf)
    image_placement = {d: X.coords[img] for d, img in surf.items()}
    assert canonical_placement(image_placement.values()) == \
        canonical_placement(cd.disc.complex.coords.values())


def surface_checks(X, sigma, tau, cd, surf):
    """Layer preservation and isometry on consecutive-row spans."""
    n = dist(X, sigma, tau)
    ds, dt = dist_map(X, sigma), dist_map(X, tau)
    for vid, img in surf.items():
        k = cd.interval[0] + cd.stack.place(vid)[0]
        assert ds[img] == k and dt[img] == n - k
    i = cd.interval[0]
    for rel in range(len(cd.stack.widths) - 1):
        span = cd.stack.ids[rel] + cd.stack.ids[rel + 1]
        for a, b in itertools.combinations(span, 2):
            da = lattice_dist(cd.disc.complex.coords[a], cd.disc.complex.coords[b])
            assert dist(X, (surf[a],), (surf[b],)) == da


def test_surface_properties_flat_and_disc():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, sseq, tseq, iv)
    surf = build_char_surface(X, cd)
    surface_checks(X, (c0,), (c1,), cd, surf)

    D = gen_disc_with_degrees(0, rings=3)
    dm = dist_map(D, (D.vertices[0],))
    u = max(dm, key=lambda v: dm[v])
    dm2 = dist_map(D, (u,))
    w = max(dm2, key=lambda v: dm2[v])
    sseq, tseq = directed_pair(D, u, w)
    prof = thickness_profile(D, sseq, tseq)
    for iv in prof.thick_intervals:
        cd = build_char_disc(D, sseq, tseq, iv)
        surf = build_char_surface(D, cd)
        surface_checks(D, (u,), (w,), cd, surf)


def test_surface_pair_properties():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, sseq, tseq, iv)
    surfaces = list(enumerate_char_surfaces(X, cd, limit=500))
    assert surfaces
    verts = list(cd.disc.complex.vertices)
    for s1 in surfaces:
        for s2 in surfaces:
            for x in verts:
                assert dist(X, (s1[x],), (s2[x],)) <= 1
                for y in cd.disc.complex.adjacency[x]:
                    assert dist(X, (s1[x],), (s2[y],)) == 1
    # preimage decoding is single-valued: distinct same-row vertices have
    # disjoint image sets
    for rel, ids in enumerate(cd.stack.ids):
        image_sets = [{s[v] for s in surfaces} for v in ids]
        for a, b in itertools.combinations(range(len(ids)), 2):
            assert not image_sets[a] & image_sets[b]


def test_characteristic_image_examples():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    i, j = iv
    cd = build_char_disc(X, sseq, tseq, iv)
    surf = build_char_surface(X, cd)
    # endpoint row edge: the span of the two directed-geodesic members
    v_i, w_i = cd.stack.ids[0]
    img = characteristic_image(X, (c0,), (c1,), cd, surf, (v_i, w_i))
    assert set(img) == set(sseq[i]) | set(tseq[i])
    # interior vertices on a flat instance have singleton images
    for rel in range(1, len(cd.stack.widths) - 1):
        for u in cd.stack.ids[rel][1:-1]:
            assert len(characteristic_image(X, (c0,), (c1,), cd, surf, (u,))) == 1
    # boundary vertices with uniquely realized thickness map to single vertices
    for rel in range(1, len(cd.stack.widths) - 1):
        u = cd.stack.ids[rel][0]
        img = characteristic_image(X, (c0,), (c1,), cd, surf, (u,))
        assert img == (cd.s[rel],)


def test_characteristic_image_equals_all_surface_span():
    cases = [instance(flat_parallelogram, 8, 2),
             instance(flat_rectangle, 10, 3)]
    D = gen_disc_with_degrees(2, rings=3)
    dm = dist_map(D, (D.vertices[0],))
    u = max(dm, key=lambda v: dm[v])
    dm2 = dist_map(D, (u,))
    w = max(dm2, key=lambda v: dm2[v])
    sseq, tseq = directed_pair(D, u, w)
    cases.append((D, u, w, sseq, tseq, thickness_profile(D, sseq, tseq)))
    checked = 0
    for X, c0, c1, sseq, tseq, prof in cases:
        for iv in prof.thick_intervals:
            if iv[1] - iv[0] > 4:
                continue  # oracle scale: discs with <= 5 rows
            cd = build_char_disc(X, sseq, tseq, iv)
            surf = build_char_surface(X, cd)
            for u_ in cd.disc.complex.vertices:
                img = characteristic_image(X, (c0,), (c1,), cd, surf, (u_,))
                assert img == char_image_oracle(X, cd, (u_,))
                checked += 1
    assert checked


def test_minimal_surface_triangle_and_hexagon():
    tri = FlagComplex.from_edges([(0, 1), (1, 2), (0, 2)])
    assert minimal_surface_bruteforce(tri, [0, 1, 2], 5).area == 1
    wheel = FlagComplex.from_edges([(0, i) for i in range(1, 7)]
                                   + [(i, i % 6 + 1) for i in range(1, 7)])
    res = minimal_surface_bruteforce(wheel, [1, 2, 3, 4, 5, 6], 10)
    assert res.area == 6
    # enough chords make the loop triangulable: Euler minimum m - 2 = 4
    chords = FlagComplex.from_edges(wheel.edges() + [(1, 3), (1, 4), (1, 5)])
    assert minimal_surface_bruteforce(chords, [1, 2, 3, 4, 5, 6], 10).area == 4


def test_minimal_surface_cap():
    wheel = FlagComplex.from_edges([(0, i) for i in range(1, 7)]
                                   + [(i, i % 6 + 1) for i in range(1, 7)])
    res = minimal_surface_bruteforce(wheel, [1, 2, 3, 4, 5, 6], 3)
    assert res.area is None and res.capped


def test_char_surface_area_is_minimal():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, sseq, tseq, iv)
    loop = ([cd.stack.ids[k][0] for k in range(len(cd.stack.widths))]
            + [cd.stack.ids[k][-1] for k in reversed(range(len(cd.stack.widths)))])
    loop = list(dict.fromkeys(loop))
    surf = build_char_surface(X, cd)
    image_loop = [surf[v] for v in loop]
    disc_area = len(cd.disc.triangles)
    res = minimal_surface_bruteforce(X, image_loop, disc_area)
    assert res.area == disc_area


def test_is_triangulable():
    square_with_chord = FlagComplex.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert is_triangulable(square_with_chord, [0, 1, 2, 3])
    X = flat_rectangle(6, 6)
    center = next(v for v in X.vertices if X.coords[v] == (3, Fraction(5, 2)))
    from systolic.metric import sphere
    ring = sphere(X, (center,), 1)
    cyc = [center]  # order the hexagon ring around the center
    cyc = sorted(ring, key=lambda v: (X.coords[v][0], X.coords[v][1]))
    ordered = [cyc[0]]
    remaining = set(cyc[1:])
    while remaining:
        nxt = next(v for v in remaining if X.is_edge(ordered[-1], v))
        ordered.append(nxt)
        remaining.discard(nxt)
    assert not is_triangulable(X.induced(ring), ordered)
    assert not is_triangulable(X, ordered)  # no chords in the ambient complex either


def test_loops_inside_layers_are_triangulable():
    from systolic.metric import all_geodesics

    checked = 0
    for seed in range(6):
        X = gen_disc_with_degrees(seed, rings=3)
        dm = dist_map(X, (X.vertices[0],))
        u = max(dm, key=lambda v: dm[v])
        dm2 = dist_map(X, (u,))
        w = max(dm2, key=lambda v: dm2[v])
        dec = layers(X, {u}, {w})
        for i in range(1, dec.n):
            sub = X.induced(dec.layers[i])
            verts = sorted(sub.vertices)
            for a, b in itertools.combinations(verts, 2):
                paths, _ = all_geodesics(sub, a, b, cap=10)
                for p1, p2 in itertools.combinations(paths, 2):
                    if set(p1) & set(p2) == {a, b} and len(p1) + len(p2) >= 6:
                        loop = p1 + list(reversed(p2))[1:-1]
                        assert is_triangulable(sub, loop)
                        checked += 1
        if checked > 5:
            break
    if not checked:
        pytest.skip("no embedded loops inside layers at this scale")


def test_char_preimage_decodes_surface():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, sseq, tseq, iv)
    surf = build_char_surface(X, cd)
    for u, img in surf.items():
        assert char_preimage(X, (c0,), (c1,), cd, surf, img) == u
    outside = c0
    with pytest.raises(ValueError):
        char_preimage(X, (c0,), (c1,), cd, surf, outside)


def audits_accept(stack):
    """The generic audits a characteristic disc once went through: build the
    row stack as a complex, validate it as a disc whose boundary is the
    defining loop, wide (no boundary chord) when its end rows are thin, and
    flat by the defect characterization."""
    try:
        region = gen_flat_region(stack)
        disc = as_disc(region)
    except ValueError:
        return False
    rows = [sorted((v for v in region.vertices if region.coords[v][0] == row),
                   key=lambda v: region.coords[v][1])
            for row in range(stack.first_row, stack.last_row + 1)]
    loop = set(rows[0]) | set(rows[-1]) | {r[0] for r in rows} | {r[-1] for r in rows}
    if set(disc.boundary_cycle) != loop:
        return False
    cyc = disc.boundary_cycle
    m = len(cyc)
    if len(rows[0]) == len(rows[-1]) == 2 and any(
            region.is_edge(cyc[a], cyc[b])
            for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)):
        return False
    return is_flat(disc).ok


def stacks(n_rows, widths, steps):
    """Every row stack of n_rows rows with the given widths and left-end
    steps (half-units), starting on an even and on an odd row."""
    for ws in widths:
        for st in itertools.product(steps, repeat=n_rows - 1):
            for first_row in (0, 1):
                left = itertools.accumulate(st, initial=first_row % 2)
                yield RowStack(first_row, tuple((lo, lo + 2 * a) for lo, a in zip(left, ws)))


def char_disc_stacks():
    """Every row stack build_char_disc can reach with up to 4 rows of width
    <= 4: thin end rows around thick ones, or thick rows throughout."""
    for n_rows in (2, 3, 4):
        for widths in itertools.product(range(1, 5), repeat=n_rows):
            thin = widths[0] == widths[-1] == 1
            if min(widths[1:-1] if thin else widths, default=2) >= 2:
                yield from stacks(n_rows, [widths], (-1, 1))


def test_shape_rule_matches_generic_audits():
    verdicts = []
    for stack in char_disc_stacks():
        try:
            check_row_stack(stack)
            ok = True
        except CharDiscError:
            ok = False
        assert ok == audits_accept(stack), stack
        verdicts.append(ok)
    assert any(verdicts) and not all(verdicts)


def test_char_disc_reuses_the_profile_sweeps():
    """The disc reads its widths and offsets off the sweeps the thickness
    profile grew: only the thin end layers sigma_i, sigma_j add sweeps."""
    X = flat_rectangle(10, 4)
    checked = 0
    for u in X.vertices[:6]:
        for v in X.vertices:
            fresh = FlagComplex(X.adjacency)
            sseq, tseq = directed_pair(fresh, u, v)
            prof = thickness_profile(fresh, sseq, tseq)
            for (i, j) in prof.thick_intervals:
                before = set(fresh._dist_cache)
                build_char_disc(fresh, sseq, tseq, (i, j))
                allowed = {frozenset((w,)) for w in sseq[i] + sseq[j]}
                assert set(fresh._dist_cache) - before <= allowed, (u, v, (i, j))
                checked += 1
    assert checked >= 20


def test_euclidean_geodesic_builds_no_disc_complex(monkeypatch):
    X = flat_parallelogram(8, 2)
    c0, c1 = corner_pair(X)
    expected = euclidean_geodesic(X, (c0,), (c1,)).deltas

    def refuse(*args, **kwargs):
        raise AssertionError("a disc complex was built")

    with monkeypatch.context() as patch:
        patch.setattr(charsurf, "gen_flat_region", refuse)
        patch.setattr(charsurf, "as_disc", refuse)
        assert euclidean_geodesic(flat_parallelogram(8, 2), (c0,), (c1,)).deltas == expected


def test_row_stack_numbering_and_edges_match_lattice():
    # the stack's ids, place and neighbours against coordinates alone: the
    # edges of gen_flat_region are exactly the lattice-adjacent vertex pairs
    wide = [stacks(n, itertools.product(range(3), repeat=n), (-3, -1, 1, 3))
            for n in (2, 3)]
    checked = 0
    for stack in itertools.chain(char_disc_stacks(), *wide):
        try:
            X = gen_flat_region(stack)
        except ValueError:
            continue
        coords, verts = X.coords, X.vertices
        # lattice_adjacent rejects pairs more than a row apart; skip those
        adjacent = {(u, v) for u, v in itertools.combinations(verts, 2)
                    if abs(coords[u][0] - coords[v][0]) <= 1
                    and lattice_adjacent(coords[u], coords[v])}
        assert set(X.edges()) == adjacent, stack
        assert X.is_connected(), stack
        rows = [sorted((v for v in verts if coords[v][0] == row), key=lambda v: coords[v][1])
                for row in range(stack.first_row, stack.last_row + 1)]
        assert stack.ids == rows
        for k, (row, (lo, hi)) in enumerate(zip(rows, stack.rows)):
            assert [coords[v] for v in row] == [(stack.first_row + k, Fraction(x2, 2))
                                                for x2 in range(lo, hi + 1, 2)]
            assert [stack.place(v) for v in row] == [(k, h) for h in range(len(row))]
        for v in verts:
            assert stack.neighbours(v) == {w for pair in adjacent if v in pair
                                           for w in pair if w != v}
        checked += 1
    assert checked > 1000
