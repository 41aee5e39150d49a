"""Characteristic discs, surfaces, images, and the minimal-surface oracle."""

import dataclasses
import importlib
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from systolic import charsurf
from systolic.charsurf import (CharDisc, CharDiscError, SurfaceError,
                               build_char_disc, build_char_surface,
                               characteristic_image, check_row_stack)
from systolic.complex import FlagComplex
from systolic.eucgeo import euclidean_geodesic
from systolic.flatgeom import as_disc, gauss_bonnet_sum, is_flat
from systolic.generators import (flat_parallelogram, flat_rectangle,
                                 gen_disc_with_degrees, gen_flat_region)
from systolic.layers import thickness_profile
from systolic.lattice import RowStack, lattice_adjacent
from systolic.metric import dist, dist_map
from systolic.suites import instance_suite

from oracles import (canonical_placement, char_image_oracle, char_preimage, corner_pair,
                     directed_pair, enumerate_char_surfaces, far_pair, flat_good_regions,
                     flat_region_from_edges, is_triangulable, lattice_dist, layer_map,
                     minimal_surface_bruteforce, shuffled_pairs, surfaces_reference)


def instance(gen, h, w):
    X = gen(h, w)
    c0, c1 = corner_pair(X)
    sseq, tseq = directed_pair(X, c0, c1)
    prof = thickness_profile(X, sseq, tseq)
    return X, c0, c1, sseq, tseq, prof


def test_disc_shape_matches_lattice_thicknesses():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, prof, iv)
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
            cd = build_char_disc(X, prof, short[0])
            assert cd.stack.widths == [1, 2, 1]
            return
    pytest.skip("no minimal thick interval in the scanned family")


def test_tie_break_seeds_give_identical_shape():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 10, 2)
    (iv,) = prof.thick_intervals
    stacks = {build_char_disc(X, shuffled_pairs(prof, s), iv).stack for s in range(1, 6)}
    stacks.add(build_char_disc(X, prof, iv).stack)
    assert len(stacks) == 1


def test_partial_interval_disc():
    """Only the profile's thick intervals have discs: a part of one is
    refused with a ValueError naming it."""
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 10, 2)
    (i, j) = prof.thick_intervals[0]
    for part in ((i + 1, j - 1), (i, j - 1)):
        with pytest.raises(ValueError, match=re.escape(str(part))) as exc:
            build_char_disc(X, prof, part)
        assert type(exc.value) is ValueError
    # a thick interval given as a list is the same interval
    assert build_char_disc(X, prof, [i, j]).stack == build_char_disc(X, prof, (i, j)).stack


def test_surface_on_flat_instance_is_congruent_embedding():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, prof, iv)
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
    cd = build_char_disc(X, prof, iv)
    surf = build_char_surface(X, cd)
    surface_checks(X, (c0,), (c1,), cd, surf)

    D = gen_disc_with_degrees(0, rings=3)
    u, w = far_pair(D)
    sseq, tseq = directed_pair(D, u, w)
    prof = thickness_profile(D, sseq, tseq)
    for iv in prof.thick_intervals:
        cd = build_char_disc(D, prof, iv)
        surf = build_char_surface(D, cd)
        surface_checks(D, (u,), (w,), cd, surf)


def test_surface_pair_properties():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, prof, iv)
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


def one_row_disc(s, t, width):
    return CharDisc([s], [t], RowStack(0, ((0, 2 * width),)), [[(s, t)]])


def test_surface_search_walks_rows_without_a_cap():
    # corners of flat_parallelogram(8, 8): distance 16 and C(16, 8) = 12,870
    # geodesics; the search takes the least without listing the others
    X = flat_parallelogram(8, 8)
    surf = build_char_surface(X, one_row_disc(0, 80, 16))
    least = list(range(9)) + list(range(17, 81, 9))
    assert surf == dict(enumerate(least))


def test_surface_error_when_no_surface_fills_the_disc():
    # rows 0..4 and 15..19 of flat_rectangle(6, 4) lie three rows apart, so
    # no cross pair of the two-row disc maps to an edge
    X = flat_rectangle(6, 4)
    cd = CharDisc([0, 15], [4, 19], RowStack(0, ((0, 8), (-1, 7))),
                  [[(0, 4)], [(15, 19)]])
    with pytest.raises(SurfaceError, match=r"no surface fills the disc for interval \(0, 1\)"):
        build_char_surface(X, cd)


def test_surfaces_match_the_product_of_rows_reference():
    checked = 0
    for inst in instance_suite(3, 16):
        X = inst.X
        sseq, tseq = directed_pair(X, inst.sigma[0], inst.tau[0])
        prof = thickness_profile(X, sseq, tseq)
        for iv in prof.thick_intervals:
            cd = build_char_disc(X, prof, iv)
            for count, combo in enumerate(itertools.product(*cd.pairs)):
                assert count < 500, "representative choices over the bound"
                alt = dataclasses.replace(cd, s=[c[0] for c in combo],
                                          t=[c[1] for c in combo])
                assert list(charsurf._surfaces(X, alt, {})) == surfaces_reference(X, alt)
                checked += 1
    assert checked >= 9
    # these discs have one surface each; on one-row discs every geodesic is
    # a surface, so the reference checks the order of the walk as well
    X = flat_parallelogram(4, 4)
    many = 0
    for s, t in itertools.permutations(X.vertices, 2):
        cd = one_row_disc(s, t, dist(X, s, t))
        surfaces = list(charsurf._surfaces(X, cd, {}))
        assert surfaces == surfaces_reference(X, cd)
        many += len(surfaces) > 1
    assert many == 340


def test_searches_sharing_rows_replay_each_others_walks(monkeypatch):
    # two searches on one `rows` dict, advanced in turn, each yield what
    # they yield alone, and each row's walk is started once: the corner
    # row (0, 24) has C(8, 4) = 70 geodesics, and the two-row disc on it
    # and its reverse has no surface, so its search reads both rows to the
    # end, once per geodesic of the first
    X = flat_parallelogram(4, 4)
    corner, back = one_row_disc(0, 24, 8), one_row_disc(24, 0, 8)
    crossed = CharDisc([0, 24], [24, 0], RowStack(0, ((0, 16), (1, 17))),
                       [[(0, 24)], [(24, 0)]])
    straight = CharDisc([24, 19], [22, 18], RowStack(0, ((0, 4), (1, 3))),
                        [[(24, 22)], [(19, 18)]])
    discs = [corner, back, crossed, straight, one_row_disc(24, 22, 2)]
    alone = [list(charsurf._surfaces(X, cd, {})) for cd in discs]
    assert [len(a) for a in alone] == [70, 70, 0, 1, 1]
    starts = Counter()
    walk = charsurf.all_geodesics

    def counted(X, s, t):
        starts[s, t] += 1
        return walk(X, s, t)

    monkeypatch.setattr(charsurf, "all_geodesics", counted)
    for a, b in itertools.product(range(len(discs)), repeat=2):
        starts.clear()
        rows = {}
        searches = [charsurf._surfaces(X, discs[a], rows),
                    charsurf._surfaces(X, discs[b], rows)]
        got = [[], []]
        live = [0, 1]
        while live:
            for n in list(live):
                surface = next(searches[n], None)
                if surface is None:
                    live.remove(n)
                else:
                    got[n].append(surface)
        assert got == [alone[a], alone[b]]
        assert set(starts.values()) == {1} and set(starts) == set(rows)


def test_characteristic_image_examples():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    i, j = iv
    cd = build_char_disc(X, prof, iv)
    surf = build_char_surface(X, cd)
    level = layer_map(X, (c0,), (c1,))
    # endpoint row edge: the span of the two directed-geodesic members
    v_i, w_i = cd.stack.ids[0]
    img = characteristic_image(X, level, cd, surf, (v_i, w_i))
    assert set(img) == set(sseq[i]) | set(tseq[i])
    # interior vertices on a flat instance have singleton images
    for rel in range(1, len(cd.stack.widths) - 1):
        for u in cd.stack.ids[rel][1:-1]:
            assert len(characteristic_image(X, level, cd, surf, (u,))) == 1
    # boundary vertices with uniquely realized thickness map to single vertices
    for rel in range(1, len(cd.stack.widths) - 1):
        u = cd.stack.ids[rel][0]
        img = characteristic_image(X, level, cd, surf, (u,))
        assert img == (cd.s[rel],)
    # rho must be a nonempty simplex of the disc: the first and last rows never meet
    far = (cd.stack.ids[0][0], cd.stack.ids[-1][0])
    for rho, text in (((), r"\(\)"), (far, re.escape(str(far)))):
        with pytest.raises(ValueError, match=f"^{text} is not a simplex of the disc$"):
            characteristic_image(X, level, cd, surf, rho)


def test_characteristic_image_takes_every_boundary_candidate():
    """A boundary row whose pairs hold a second end for the opposite
    representative maps to both ends.  No generated input scanned has such
    a row, so the pairs are edited by hand: each interior row gains (s2, t) and
    (s, t2), with s2, t2 the images of the row's second and next-to-last
    vertices."""
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, prof, iv)
    surf = build_char_surface(X, cd)
    rows = range(1, len(cd.stack.widths) - 1)
    pairs = [list(p) for p in cd.pairs]
    for rel in rows:
        ids = cd.stack.ids[rel]
        pairs[rel] += [(surf[ids[1]], cd.t[rel]), (cd.s[rel], surf[ids[-2]])]
    edited = dataclasses.replace(cd, pairs=pairs)
    level = layer_map(X, (c0,), (c1,))
    for rel in rows:
        ids = cd.stack.ids[rel]
        for u, ends in ((ids[0], (cd.s[rel], surf[ids[1]])),
                        (ids[-1], (cd.t[rel], surf[ids[-2]]))):
            assert len(set(ends)) == 2
            img = characteristic_image(X, level, edited, surf, (u,))
            assert img == tuple(sorted(ends))


def test_characteristic_image_keeps_only_layer_k_candidates():
    """A common neighbour of images in layers k - 1 and k + 1 lies in layer
    k, so the layer filter bites only when a surface row leaves its layer.
    No generated input has such a surface, so the base surface is edited by
    hand around an interior vertex u of row k: its neighbours in row k - 1
    go to c and all the others to a, where a is the image of u's left
    neighbour and c that of the row k - 1 vertex beside both.  a and c have
    two common neighbours: u's image, in layer k, and one in layer k - 1."""
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, prof, iv)
    surf = build_char_surface(X, cd)
    rel, k = 3, iv[0] + 3
    left, u = cd.stack.ids[rel][:2]
    (up,) = [w for w in cd.stack.neighbours(u) & cd.stack.neighbours(left)
             if cd.stack.place(w)[0] == rel - 1]
    a, c = surf[left], surf[up]
    edited = dict(surf)
    for w in cd.stack.neighbours(u):
        edited[w] = c if cd.stack.place(w)[0] == rel - 1 else a
    ds = dist_map(X, (c0,))
    common = X.adjacency[a] & X.adjacency[c]
    assert sorted(ds[z] for z in common) == [k - 1, k] and surf[u] in common
    level = layer_map(X, (c0,), (c1,))
    assert characteristic_image(X, level, cd, edited, (u,)) == (surf[u],)


def test_characteristic_image_equals_all_surface_span():
    cases = [instance(flat_parallelogram, 8, 2),
             instance(flat_rectangle, 10, 3)]
    D = gen_disc_with_degrees(2, rings=3)
    u, w = far_pair(D)
    sseq, tseq = directed_pair(D, u, w)
    cases.append((D, u, w, sseq, tseq, thickness_profile(D, sseq, tseq)))
    checked = 0
    for X, c0, c1, sseq, tseq, prof in cases:
        level = layer_map(X, (c0,), (c1,))
        for iv in prof.thick_intervals:
            if iv[1] - iv[0] > 4:
                continue  # oracle scale: discs with <= 5 rows
            cd = build_char_disc(X, prof, iv)
            surf = build_char_surface(X, cd)
            for u_ in cd.disc.complex.vertices:
                img = characteristic_image(X, level, cd, surf, (u_,))
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
    cd = build_char_disc(X, prof, iv)
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


def test_char_preimage_decodes_surface():
    X, c0, c1, sseq, tseq, prof = instance(flat_parallelogram, 8, 2)
    (iv,) = prof.thick_intervals
    cd = build_char_disc(X, prof, iv)
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
    """Row stacks with left ends stepping by 1/2: every one with up to 4 rows
    of width <= 4 whose end rows are thin around thick ones (none, for two
    rows) or whose rows are all thick, and every 5-row one of width <= 4
    with thin end rows around three thick ones, the shape of every disc
    build_char_disc makes at that length."""
    for n_rows in (2, 3, 4):
        for widths in itertools.product(range(1, 5), repeat=n_rows):
            thin = widths[0] == widths[-1] == 1
            if min(widths[1:-1] if thin else widths, default=2) >= 2:
                yield from stacks(n_rows, [widths], (-1, 1))
    for interior in itertools.product(range(2, 5), repeat=3):
        yield from stacks(5, [(1, *interior, 1)], (-1, 1))


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


def test_char_disc_reuses_the_profile_sweeps(monkeypatch):
    """The disc reads its widths and representatives off the profile and its
    offsets off the sweeps the profile grew: one dist call per row offset,
    none through maximizing_pairs (the layers module's dist), and only the
    thin end layers sigma_i, sigma_j add sweeps."""
    modules = [importlib.import_module(f"systolic.{name}") for name in ("charsurf", "layers")]
    calls = []

    def counting(module):
        original = module.dist

        def wrapper(*args):
            calls.append(module.__name__)
            return original(*args)
        return wrapper

    X = flat_rectangle(10, 4)
    checked = 0
    for u in X.vertices[:6]:
        for v in X.vertices:
            fresh = FlagComplex(X.adjacency)
            sseq, tseq = directed_pair(fresh, u, v)
            prof = thickness_profile(fresh, sseq, tseq)
            for (i, j) in prof.thick_intervals:
                before = set(fresh._dist_cache)
                calls.clear()
                with monkeypatch.context() as patch:
                    for module in modules:
                        patch.setattr(module, "dist", counting(module))
                    build_char_disc(fresh, prof, (i, j))
                assert calls == ["systolic.charsurf"] * (j - i), (u, v, (i, j))
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


def test_row_stack_neighbours_match_a_scan_of_the_cross_pairs():
    """`neighbours`, read off the row shifts, against a scan of both
    adjacent rows' cross-pair lists, on seeded random stacks whose left
    ends step by up to 5 half-units either way, wide offsets included."""
    rng = random.Random(27)
    checked = 0
    for _ in range(3000):
        lefts = [rng.randint(-3, 3)]
        for _ in range(rng.randint(0, 4)):
            lefts.append(lefts[-1] + rng.randint(-5, 5))
        stack = RowStack(rng.randint(-2, 2),
                         tuple((lo, lo + 2 * rng.randint(0, 5)) for lo in lefts))
        ids = stack.ids
        for k, row in enumerate(ids):
            for a, vid in enumerate(row):
                scan = {row[b] for b in (a - 1, a + 1) if 0 <= b < len(row)}
                if k > 0:
                    scan |= {ids[k - 1][p] for p, q in stack.cross_pairs(k - 1) if q == a}
                if k + 1 < len(ids):
                    scan |= {ids[k + 1][q] for p, q in stack.cross_pairs(k) if p == a}
                assert stack.neighbours(vid) == scan, (stack, vid)
                assert stack.place(vid) == (k, a)
                checked += 1
    assert checked >= 20000, checked


def region_stack(X):
    """The row stack of a flat region, read off its coords."""
    rows = {}
    for row, x in X.coords.values():
        rows.setdefault(row, []).append(int(2 * x))
    return RowStack(min(rows), tuple((min(xs), max(xs)) for _, xs in sorted(rows.items())))


def test_flat_regions_freeze_what_an_edge_by_edge_build_freezes():
    """On the flat-good regions, the 45 x 45 rectangle and the disc stacks
    above, gen_flat_region gives the adjacency and coords of the from_edges
    build on the stack's edges, with both maps and every frozen
    neighbourhood iterating in the same order."""
    regions = [X for _, X, _ in flat_good_regions()] + [flat_rectangle(45, 45)]
    checked = 0
    for stack in [region_stack(X) for X in regions] + list(char_disc_stacks()):
        try:
            X = gen_flat_region(stack)
        except ValueError:
            continue
        ref = flat_region_from_edges(stack)
        assert X.adjacency == ref.adjacency and X.coords == ref.coords, stack
        assert list(X.coords.items()) == list(ref.coords.items()), stack
        assert list(X.adjacency) == list(ref.adjacency), stack
        assert all(list(X.adjacency[v]) == list(ref.adjacency[v]) for v in X.adjacency), stack
        checked += 1
    assert checked > 100
