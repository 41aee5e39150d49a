"""Defects, Gauss-Bonnet, flat embeddings, and exact CAT(0) geodesics."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from systolic.complex import FlagComplex
from systolic.eucgeo import cat0_diagonal, euclidean_geodesic, modified_disc
from systolic.flatgeom import (DiscError, PolyPath, as_disc, defect,
                               gauss_bonnet_sum, is_flat, polygon_geodesic)
from systolic.generators import (flat_parallelogram, flat_rectangle,
                                 gen_disc_with_degrees)
from systolic.lattice import RowStack
from systolic.svg import poly_path_points, render_svg

from oracles import (EmbedError, canonical_placement, d_close, embed_flat_disc,
                     from_cube, placements_congruent, point_group,
                     polygon_geodesic_bruteforce, random_flat_disc, to_cube)


def single_triangle():
    return as_disc(FlagComplex.from_edges([(0, 1), (1, 2), (0, 2)]))


def hexagon_wheel_disc():
    return as_disc(FlagComplex.from_edges(
        [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)]))


def wheel_disc(spokes):
    return as_disc(FlagComplex.from_edges(
        [(0, i) for i in range(1, spokes + 1)]
        + [(i, i % spokes + 1) for i in range(1, spokes + 1)]))


def test_defect_examples():
    tri = single_triangle()
    assert all(defect(tri, v) == 2 for v in (0, 1, 2))
    wheel = hexagon_wheel_disc()
    assert defect(wheel, 0) == 0
    assert all(defect(wheel, v) == 1 for v in range(1, 7))


def test_gauss_bonnet():
    assert gauss_bonnet_sum(single_triangle()) == 6
    assert gauss_bonnet_sum(hexagon_wheel_disc()) == 6
    discs = [as_disc(gen_disc_with_degrees(seed, rings=random.Random(seed).randint(1, 3)))
             for seed in range(10)]
    for disc in discs:
        assert gauss_bonnet_sum(disc) == 6
    # defects read off degrees equal those of a scan of the disc's triangles
    discs += [as_disc(random_flat_disc(seed, 120)) for seed in range(4)]
    for disc in discs:
        for v in disc.complex.vertices:
            t = sum(v in tri for tri in disc.triangles)
            assert defect(disc, v) == (3 if v in disc.boundary_set else 6) - t


def test_is_flat():
    assert is_flat(as_disc(flat_rectangle(4, 4)))[0]
    assert is_flat(single_triangle())[0]
    seven = wheel_disc(7)
    ok, witness = is_flat(seven)
    assert not ok and witness == ("interior", 0)


def test_as_disc_rejects_non_discs():
    with pytest.raises(DiscError, match="^boundary is not a union of disjoint cycles$"):
        as_disc(FlagComplex.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]))


def test_embed_single_triangle():
    pos = embed_flat_disc(single_triangle())
    from systolic.lattice import lattice_adjacent
    pts = list(pos.values())
    assert all(lattice_adjacent(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])


def test_embed_recovers_generator_coordinates():
    for X in (flat_rectangle(4, 3), flat_parallelogram(3, 4)):
        pos = embed_flat_disc(as_disc(X))
        assert placements_congruent(pos, X.coords)


def test_embed_fails_on_nonflat():
    with pytest.raises(EmbedError):
        embed_flat_disc(wheel_disc(7))


def test_random_flat_discs_embed():
    for seed in range(8):
        X = random_flat_disc(seed)
        pos = embed_flat_disc(as_disc(X))
        assert placements_congruent(pos, X.coords)


# --- polygon geodesics ------------------------------------------------------


def test_geodesic_straight_vertical():
    disc = RowStack(0, tuple((-4, 4) for _ in range(5)))
    path = polygon_geodesic(disc, (0, Fraction(1)), (4, Fraction(1)))
    assert path.xs == (1, 1, 1, 1, 1)


def test_geodesic_bends_at_boundary_vertex():
    # middle row pinched to [1, 3]: the straight chord would cross at 0
    disc = RowStack(0, ((-8, 8), (2, 6), (-8, 8)))
    path = polygon_geodesic(disc, (0, Fraction(0)), (2, Fraction(0)))
    assert path.xs == (0, 1, 0)


def test_geodesic_staircase_matches_oracle():
    disc = RowStack(0, ((0, 0), (-2, 1), (1, 6), (4, 4)))
    p, q = (0, Fraction(0)), (3, Fraction(2))
    funnel = polygon_geodesic(disc, p, q)
    brute = polygon_geodesic_bruteforce(disc, p, q)
    assert funnel.xs == brute.xs


def test_geodesic_point_doors():
    disc = RowStack(0, ((0, 4), (2, 2), (-2, 6)))
    path = polygon_geodesic(disc, (0, Fraction(0)), (2, Fraction(3)))
    assert path.xs[1] == 1


def test_geodesic_reversal_symmetry():
    rng = random.Random(11)
    for _ in range(60):
        nrows = rng.randint(2, 7)
        rows = []
        lo = rng.randint(-4, 4)
        for _ in range(nrows):
            lo = lo + rng.randint(-2, 2)
            rows.append((lo, lo + rng.randint(0, 8)))
        disc = RowStack(0, tuple(rows))
        p = (0, Fraction(rows[0][0], 2))
        q = (nrows - 1, Fraction(rows[-1][1], 2))
        fwd = polygon_geodesic(disc, p, q)
        rev_disc = RowStack(0, tuple(reversed(rows)))
        rev = polygon_geodesic(rev_disc, (0, q[1]), (nrows - 1, p[1]))
        assert fwd.xs == tuple(reversed(rev.xs))


def _length(xs):
    return sum(math.sqrt(float((b - a) ** 2) + 0.75) for a, b in zip(xs, xs[1:]))


def test_geodesic_not_longer_than_boundary_paths():
    rng = random.Random(12)
    for _ in range(30):
        nrows = rng.randint(2, 6)
        rows = []
        lo = 0
        for _ in range(nrows):
            lo = lo + rng.randint(-1, 1)
            rows.append((lo, lo + rng.randint(1, 6)))
        disc = RowStack(0, tuple(rows))
        p = (0, Fraction(rows[0][0], 2))
        q = (nrows - 1, Fraction(rows[-1][1], 2))
        geo = polygon_geodesic(disc, p, q)
        left = [Fraction(r[0], 2) for r in rows[:-1]] + [q[1]]
        right = [p[1]] + [Fraction(r[1], 2) for r in rows[1:]]
        assert _length(geo.xs) <= _length(left) + 1e-9
        assert _length(geo.xs) <= _length(right) + 1e-9


def test_funnel_equals_bruteforce_randomized():
    rng = random.Random(13)
    for _ in range(120):
        nrows = rng.randint(2, 8)
        rows = []
        for _ in range(nrows):
            lo = rng.randint(-8, 8)
            rows.append((lo, lo + rng.randint(0, 9)))
        disc = RowStack(rng.randint(-3, 3), tuple(rows))
        lo0, hi0 = rows[0]
        lom, him = rows[-1]
        p = (disc.first_row, (lo0 + (hi0 - lo0) * Fraction(rng.randint(0, 3), 3)) / 2)
        q = (disc.last_row, (lom + (him - lom) * Fraction(rng.randint(0, 3), 3)) / 2)
        assert polygon_geodesic(disc, p, q).xs == \
            polygon_geodesic_bruteforce(disc, p, q).xs


def stationary(rows, p, q, xs) -> bool:
    """Certificate for the row-stack geodesic, independent of flatgeom.

    The length sum_k sqrt((x_{k+1} - x_k)^2 + 3/4) is strictly convex in the
    crossings, and its x_k-derivative has the sign of u - v, where u and v
    are the horizontal steps into and out of row k.  So crossings boxed to
    their doors are the unique geodesic iff at every interior row that is
    not a point u = v strictly inside the door, u >= v at its left end and
    u <= v at its right end.
    """
    m = len(rows) - 1
    if len(xs) != m + 1 or xs[0] != p or xs[-1] != q:
        return False
    if any(not lo <= x <= hi for (lo, hi), x in zip(rows, xs)):
        return False
    for k in range(1, m):
        lo, hi = rows[k]
        u, v = xs[k] - xs[k - 1], xs[k + 1] - xs[k]
        if lo == hi:
            continue
        if xs[k] == lo:
            if u < v:
                return False
        elif xs[k] == hi:
            if u > v:
                return False
        elif u != v:
            return False
    return True


def test_geodesic_stationary_on_tall_stacks():
    # the break-point oracle costs 3^(m-1), so tall stacks get the certificate
    rng = random.Random(14)
    for _ in range(300):
        nrows = rng.randint(9, 40)
        rows = []
        lo = Fraction(0)
        for _ in range(nrows):
            if rng.random() < 0.3:
                lo = Fraction(rng.randint(-8, 8), 2)
            else:
                lo = lo + Fraction(rng.randint(-2, 2), 2)
            width = 0 if rng.random() < 0.15 else rng.randint(0, 9)
            rows.append((lo, lo + Fraction(width, 2)))
        (lo0, hi0), (lom, him) = rows[0], rows[-1]
        px = lo0 + (hi0 - lo0) * Fraction(rng.randint(0, 4), 4)
        qx = lom + (him - lom) * Fraction(rng.randint(0, 4), 4)
        disc = RowStack(rng.randint(-3, 3),
                        tuple((int(2 * lo), int(2 * hi)) for lo, hi in rows))
        path = polygon_geodesic(disc, (disc.first_row, px), (disc.last_row, qx))
        assert stationary(rows, px, qx, path.xs), (rows, px, qx)


def test_geodesic_stationary_on_rectangle_diagonals():
    X = flat_rectangle(30, 6)
    c0 = min(X.vertices, key=lambda v: X.coords[v])
    c1 = max(X.vertices, key=lambda v: X.coords[v])
    eg = euclidean_geodesic(X, (c0,), (c1,))
    assert eg.intervals
    for data in eg.intervals:
        rows = [(Fraction(lo, 2), Fraction(hi, 2))
                for lo, hi in modified_disc(data.disc).rows]
        p, q = rows[0][0], rows[-1][0]
        path = cat0_diagonal(data.disc)
        assert stationary(rows, p, q, path.xs)
        # the certificate is not vacuous: the left wall is no geodesic here
        wall = (p,) + tuple(lo for lo, _ in rows[1:-1]) + (q,)
        assert wall != path.xs and not stationary(rows, p, q, wall)


def test_geodesic_endpoint_validation():
    disc = RowStack(0, ((0, 2), (0, 2)))
    with pytest.raises(ValueError, match="^start point outside its row interval$"):
        polygon_geodesic(disc, (0, Fraction(5)), (1, Fraction(0)))
    with pytest.raises(ValueError, match="^end point outside its row interval$"):
        polygon_geodesic(disc, (0, Fraction(0)), (1, Fraction(3, 2)))
    with pytest.raises(ValueError, match="^endpoints must lie on the first and last rows$"):
        polygon_geodesic(disc, (1, Fraction(0)), (0, Fraction(0)))
    # one row: the path is its single point, so the endpoints must coincide
    row = RowStack(3, ((1, 5),))
    assert polygon_geodesic(row, (3, Fraction(2)), (3, Fraction(2))) == PolyPath(3, (2,))
    with pytest.raises(ValueError, match="^degenerate disc with distinct endpoints$"):
        polygon_geodesic(row, (3, Fraction(1)), (3, Fraction(2)))


def moebius_strip():
    """Triangles (i, i+1, i+2) mod 7: one boundary cycle (edges i, i+2),
    Euler characteristic 0."""
    return FlagComplex.from_edges([(i, (i + d) % 7) for i in range(7) for d in (1, 2)])


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], "not a nonempty connected complex"),
    ([], "not a nonempty connected complex"),
    ([(0, 1), (1, 2), (2, 3), (1, 3)], r"edge \(0, 1\) lies in 0 triangles"),
    ([(a, b) for a, b in itertools.combinations(range(6), 2) if b - a != 3],
     "no boundary edges"),                                 # octahedron, a sphere
    ([(i, (i + 1) % 4) for i in range(4)] + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
     + [(i, 4 + i) for i in range(4)] + [(i, 4 + (i + 1) % 4) for i in range(4)],
     "boundary has more than one cycle"),                  # an annulus
    (moebius_strip().edges(), "Euler characteristic is not 1"),
    # Moebius strip and octahedron wedged at vertex 0: Euler characteristic 1
    (moebius_strip().edges() + [(0, 7), (0, 8), (0, 9), (0, 10), (7, 8), (8, 9), (9, 10),
                                (10, 7), (11, 7), (11, 8), (11, 9), (11, 10)],
     "vertex 0 link disconnected"),
])
def test_as_disc_names_each_fault(edges, message):
    with pytest.raises(DiscError, match=f"^{message}$"):
        as_disc(FlagComplex.from_edges(edges))


def test_is_flat_boundary_witness():
    # a fan of five triangles at boundary vertex 0: defect 3 - 5 = -2
    disc = as_disc(FlagComplex.from_edges(
        [(0, i) for i in range(1, 7)] + [(i, i + 1) for i in range(1, 6)]))
    assert defect(disc, 0) == -2
    assert is_flat(disc) == (False, ("boundary", 0))


def test_d_close():
    a = PolyPath(0, (Fraction(0), Fraction(0), Fraction(0)))
    b = PolyPath(0, (Fraction(3), Fraction(3), Fraction(3)))
    assert d_close(a, a) == 0
    assert d_close(a, b) == 3
    with pytest.raises(ValueError):
        d_close(a, PolyPath(1, (Fraction(0), Fraction(0), Fraction(0))))


def test_svg_deterministic():
    X = flat_parallelogram(3, 3)
    path = PolyPath(0, (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)))
    svg1 = render_svg(X.coords, X.edges(), X.triangles(), [poly_path_points(path)])
    svg2 = render_svg(X.coords, X.edges(), X.triangles(), [poly_path_points(path)])
    assert svg1 == svg2
    assert svg1.startswith("<svg ") and svg1.rstrip().endswith("</svg>")
    assert svg1.count("<polygon") == len(X.triangles())
    assert svg1.count("<polyline") == 1
    with pytest.raises(ValueError, match="^nothing to render$"):
        render_svg({}, [])


def test_canonical_placement_isometry_invariant():
    rng = random.Random(21)
    X = flat_parallelogram(4, 3)
    pts = list(X.coords.values())
    group = point_group()
    base = canonical_placement(pts)
    for _ in range(10):
        f = rng.choice(group)
        dr = rng.randint(-5, 5)
        dx2 = rng.randint(-5, 5)
        shift = (dr, Fraction(2 * dx2 + dr, 2))
        moved = []
        for p in pts:
            q = from_cube(f(to_cube(p)))
            moved.append((q[0] + shift[0], q[1] + shift[1]))
        assert canonical_placement(moved) == base
    # a genuinely different shape canonicalizes differently
    other = list(flat_rectangle(4, 3).coords.values())
    assert canonical_placement(other) != base
