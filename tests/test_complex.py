"""Flag complex construction, largeness checks, generators, file format."""

import builtins
import itertools
import random
from fractions import Fraction
from types import ModuleType

import pytest

from systolic.complex import (FlagComplex, INFINITY, dump_complex, dumps_complex,
                              is_k_large, is_locally_6_large, loads_complex,
                              simply_connected_heuristic)
from systolic.flatgeom import as_disc, defect, gauss_bonnet_sum
from systolic.generators import (flat_parallelogram, flat_rectangle,
                                 gen_disc_with_degrees, gen_flat_region)
from systolic.lattice import RowStack

from oracles import hexagon_wheel, octahedron, triangular_torus


def test_single_edge_has_no_triangle():
    X = FlagComplex.from_edges([(0, 1)])
    assert len(X) == 2 and X.edge_count() == 1
    assert not X.triangles()


def test_three_cycle_spans_triangle():
    X = FlagComplex.from_edges([(0, 1), (1, 2), (0, 2)])
    assert X.is_simplex((0, 1, 2))
    assert X.triangles() == [(0, 1, 2)]


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        FlagComplex.from_edges([(3, 3)])


def _is_simplex_oracle(X, vs):
    vs = list(vs)
    return (bool(vs) and len(set(vs)) == len(vs) and all(v in X for v in vs)
            and all(X.is_edge(u, v) for u, v in itertools.combinations(vs, 2)))


def test_is_simplex_against_pairwise_oracle():
    rng = random.Random(4)
    for X in (gen_disc_with_degrees(1, rings=3), flat_rectangle(4, 3), octahedron()):
        top = max(X.vertices)
        pool = list(X.vertices) + [-1, -top - 3, top + 1, top + 7]
        cases = [[]]
        for simplex in X.simplices():
            s = list(simplex)
            rng.shuffle(s)
            cases += [s, s + [rng.choice(s)], s + [rng.choice(pool)],
                      [rng.choice(pool[-4:])] + s]
        cases += [rng.choices(pool, k=rng.randint(0, 5)) for _ in range(2000)]
        for vs in cases:
            expected = _is_simplex_oracle(X, vs)
            assert X.is_simplex(vs) is expected, vs
            assert X.is_simplex(iter(vs)) is expected, vs


def test_flat_block_interior_degree_six():
    X = flat_rectangle(6, 6)
    interior = [v for v, (row, x) in X.coords.items()
                if 1 <= row <= 5 and X.coords[v][1] not in
                (min(c[1] for w, c in X.coords.items() if c[0] == row),
                 max(c[1] for w, c in X.coords.items() if c[0] == row))]
    assert interior
    assert all(X.degree(v) == 6 for v in interior)


def test_link_of_triangle_vertex_is_edge():
    X = FlagComplex.from_edges([(0, 1), (1, 2), (0, 2)])
    link = X.link((0,))
    assert link.vertices == (1, 2) and link.is_edge(1, 2)


def test_link_of_flat_interior_vertex_is_6_cycle():
    X = flat_parallelogram(4, 4)
    v = next(v for v in X.vertices if X.degree(v) == 6)
    link = X.link((v,))
    assert len(link) == 6
    assert all(link.degree(w) == 2 for w in link.vertices)
    assert link.is_connected()


def test_link_of_flat_interior_edge_is_two_points():
    X = flat_parallelogram(4, 4)
    v = next(v for v in X.vertices if X.degree(v) == 6)
    w = next(w for w in X.adjacency[v] if X.degree(w) == 6)
    link = X.link((v, w))
    assert len(link) == 2 and link.edge_count() == 0


def brute_force_induced_cycles(X, max_len):
    """Oracle: induced cycles by direct subset enumeration."""
    found = []
    for size in range(4, max_len + 1):
        for sub in itertools.combinations(X.vertices, size):
            induced = X.induced(sub)
            if all(induced.degree(v) == 2 for v in sub) and induced.is_connected():
                found.append(sub)
    return found


def test_induced_4_cycle_witnessed():
    X = FlagComplex.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    res = is_k_large(X, 5)
    assert not res.ok
    assert len(res.witness) == 4 and set(res.witness) == {0, 1, 2, 3}


def test_wheel_is_6_large():
    X = hexagon_wheel()
    assert is_k_large(X, 6).ok
    assert not brute_force_induced_cycles(X, 5)


def test_bare_6_cycle_not_infinity_large():
    X = FlagComplex.from_edges([(i, (i + 1) % 6) for i in range(6)])
    res = is_k_large(X, INFINITY)
    assert not res.ok and len(res.witness) == 6


def test_k_large_monotone():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(5, 10)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.5]
        X = FlagComplex.from_edges(edges, vertices=range(n))
        verdicts = [is_k_large(X, k).ok for k in (4, 5, 6, 7, 8)]
        # true at k implies true at every smaller k
        for smaller, larger in zip(verdicts, verdicts[1:]):
            assert smaller or not larger


def test_locally_6_large_flat_region_and_octahedron():
    assert is_locally_6_large(flat_parallelogram(4, 4)).ok
    res = is_locally_6_large(octahedron())
    assert not res.ok
    simplex, cycle = res.witness
    assert len(cycle) == 4


def test_locally_6_large_single_simplex():
    X = FlagComplex.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert is_locally_6_large(X).ok


def test_simply_connected_heuristic():
    assert simply_connected_heuristic(FlagComplex.from_edges([(0, 1), (1, 2), (0, 2)])) == "verified"
    assert simply_connected_heuristic(flat_rectangle(5, 5)) == "verified"
    assert simply_connected_heuristic(triangular_torus(4)) == "unknown"


def test_gen_flat_region_single_triangle():
    X = gen_flat_region(RowStack(0, ((0, 2), (1, 1))))
    assert len(X) == 3 and len(X.triangles()) == 1


def test_gen_flat_region_rectangle_defects():
    X = flat_rectangle(5, 5)
    disc = as_disc(X)
    assert is_locally_6_large(X).ok
    interior = [v for v in X.vertices if v not in disc.boundary_set]
    assert interior and all(defect(disc, v) == 0 for v in interior)


def test_gen_flat_region_parallelogram_corner_defects():
    X = flat_parallelogram(5, 5)
    disc = as_disc(X)
    defects = sorted(defect(disc, v) for v in disc.boundary_cycle)
    assert gauss_bonnet_sum(disc) == 6
    assert defects.count(2) == 2  # the two sharp corners
    assert sum(defects) == 6


def test_gen_flat_region_errors():
    with pytest.raises(ValueError):
        gen_flat_region(RowStack(0, ((0, 2), (10, 12))))
    with pytest.raises(ValueError):
        gen_flat_region(RowStack(0, ((1, 3),)))  # parity of row 0 violated


def test_input_checks_name_their_fault():
    """Each input check of complex construction, links, k-largeness, flat
    region generation and row stacks, reached by a hand-built input."""
    path = FlagComplex.from_edges([(0, 1), (1, 2)])
    for call, message in (
            (lambda: path.link((0, 2)), r"\(0, 2\) is not a simplex"),
            (lambda: FlagComplex({0: frozenset({0})}).validate(), "self-loop at 0"),
            (lambda: FlagComplex({0: frozenset({1}), 1: frozenset()}).validate(),
             r"asymmetric edge \(0, 1\)"),
            (lambda: is_k_large(path, 3), "k must be >= 4 or infinity"),
            (lambda: gen_flat_region(RowStack(0, ())), "empty row spec"),
            (lambda: gen_flat_region(RowStack(0, ((0, 3),))),
             "row 0: width 3/2 not an integer"),
            (lambda: RowStack(0, ((2, 0),)), r"row with rightX < leftX"),
            (lambda: RowStack(0, ((0, 2),)).place(2), "2 is not a disc vertex")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_empty_and_disconnected_complexes():
    """Neither the empty complex nor two disjoint edges is connected, and the
    collapse heuristic says "unknown" for both: it never claims "no"."""
    empty = FlagComplex({})
    assert not empty.is_connected()
    assert not FlagComplex.from_edges([(0, 1), (2, 3)]).is_connected()
    assert simply_connected_heuristic(empty) == "unknown"
    assert simply_connected_heuristic(FlagComplex.from_edges([(0, 1), (2, 3)])) == "unknown"


def test_generated_regions_pass_checks():
    rng = random.Random(0)
    for _ in range(5):
        h, w = rng.randint(2, 5), rng.randint(2, 5)
        X = flat_parallelogram(h, w) if rng.random() < 0.5 else flat_rectangle(h, w)
        X.validate()
        assert is_locally_6_large(X).ok
        assert simply_connected_heuristic(X) == "verified"


def test_flag_closure_against_enumeration():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(4, 8)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.6]
        X = FlagComplex.from_edges(edges, vertices=range(n))
        reported = set(X.simplices(max_size=4))
        for size in range(1, 5):
            for sub in itertools.combinations(range(n), size):
                is_clique = all(X.is_edge(a, b)
                                for a, b in itertools.combinations(sub, 2))
                assert (sub in reported) == is_clique


def test_disc_generator_is_systolic():
    for seed in range(4):
        X = gen_disc_with_degrees(seed, rings=2)
        X.validate()
        disc = as_disc(X)
        assert gauss_bonnet_sum(disc) == 6
        assert is_locally_6_large(X).ok
        assert simply_connected_heuristic(X) == "verified"
        interior = [v for v in X.vertices if v not in disc.boundary_set]
        assert all(X.degree(v) >= 6 for v in interior)


def test_file_format_roundtrip():
    X = flat_parallelogram(3, 2)
    text = dumps_complex(X)
    Y = loads_complex(text)
    assert Y.adjacency == X.adjacency
    assert Y.coords == X.coords


def test_dump_complex_writes_its_text(tmp_path):
    X = flat_parallelogram(3, 2)
    path = tmp_path / "p.cx"
    dump_complex(X, path)
    assert path.read_text(encoding="utf-8") == dumps_complex(X)


def test_file_format_rejects_a_coord_off_the_half_lattice():
    # x = 1/3 would otherwise be written as `coord 1 0 2` and read back as 1
    X = FlagComplex.from_edges([(0, 1)], coords={0: (0, Fraction(0)),
                                                 1: (0, Fraction(1, 3))})
    with pytest.raises(ValueError, match="coord of vertex 1 is not a half-integer"):
        dumps_complex(X)


def test_file_format_tolerance():
    text = "# a comment\n  v 7\n e 0   1 \ne 1 2\ne 0 1\n"
    X = loads_complex(text)
    assert set(X.vertices) == {0, 1, 2, 7}
    assert X.edge_count() == 2
    with pytest.raises(ValueError):
        loads_complex("e 4 4\n")


def test_file_format_coords_cover_exactly_the_vertices():
    triangle = "e 0 1\ne 1 2\ne 0 2\n"
    with pytest.raises(ValueError, match="^coord for undeclared vertex 9$"):
        loads_complex(triangle + "coord 0 0 1\ncoord 1 0 3\ncoord 2 1 2\ncoord 9 0 0\n")
    with pytest.raises(ValueError, match="^no coord for vertex 1$"):
        loads_complex(triangle + "coord 0 0 1\n")
    with pytest.raises(ValueError, match="^no coord for vertex 7$"):
        loads_complex("v 7\ne 0 1\ncoord 0 0 0\ncoord 1 0 2\n")
    X = loads_complex("v 7\ne 0 1\ncoord 0 0 0\ncoord 1 0 2\ncoord 7 1 1\n")
    assert sorted(X.coords) == [0, 1, 7]
    with pytest.raises(ValueError, match="^line 4: second coord for vertex 0$"):
        loads_complex("e 0 1\ncoord 0 0 0\ncoord 1 0 2\ncoord 0 3 7\n")


@pytest.mark.parametrize("line", ["v abc", "e 1 x", "coord 1 0 x"])
def test_file_format_names_the_line_of_a_bad_integer(line):
    with pytest.raises(ValueError, match=f"^line 2: cannot parse '{line}'$"):
        loads_complex(f"e 0 1\n{line}\n")


def test_star_import_exports_no_module():
    """`from systolic import *` binds the public functions and classes, no
    submodule: `complex` stays the builtin, and systolic.complex the module."""
    namespace = {}
    exec("from systolic import *", namespace)
    assert "FlagComplex" in namespace and "euclidean_geodesic" in namespace
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    assert eval("complex", namespace) is builtins.complex
    import systolic
    assert systolic.complex.FlagComplex is FlagComplex
