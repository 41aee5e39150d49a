"""Command-line interface: commands, determinism, exit codes."""

import itertools
import json
import random
from collections import Counter

import pytest

from systolic import boundary, cli, eucgeo, metric
from systolic.boundary import atlas_report, boundary_atlas
from systolic.cli import build_parser, cmd_check, main
from systolic.complex import FlagComplex, dumps_complex, load_complex, simply_connected_heuristic
from systolic.eucgeo import euclidean_geodesic
from systolic.generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from systolic.metric import ProjectionError, dist
from systolic.suites import SUITE_NAMES

from oracles import (corner_pair, counting_calls, cycle, is_bridged, octahedron,
                     subtree_chordal, triangular_torus)


@pytest.fixture
def flat_file(tmp_path):
    X = flat_parallelogram(8, 2)
    path = tmp_path / "flat.cx"
    path.write_text(dumps_complex(X))
    return (str(path), *corner_pair(X))


NOT_SYSTOLIC = "error: the complex is not systolic"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_check(tmp_path, capsys):
    out_path = tmp_path / "disc.cx"
    code, out = run(capsys, "gen", "--kind", "disc", "--seed", "3",
                    "--rings", "2", "--out", str(out_path))
    assert code == 0 and out_path.exists()
    code, out = run(capsys, "check", "--complex", str(out_path))
    assert code == 0
    assert "locally_6_large: True" in out
    assert "systolic: True" in out


def test_gen_prints_seed_only_for_disc(tmp_path, capsys):
    out_path = str(tmp_path / "g.cx")
    code, out = run(capsys, "gen", "--kind", "disc", "--seed", "4", "--out", out_path)
    assert code == 0 and out.startswith("seed=4 kind=disc ")
    for kind in ("parallelogram", "rectangle"):
        code, out = run(capsys, "gen", "--kind", kind, "--height", "3", "--out", out_path)
        assert code == 0 and out.startswith(f"kind={kind} "), kind


def test_check_json(tmp_path, capsys):
    out_path = tmp_path / "p.cx"
    run(capsys, "gen", "--kind", "parallelogram", "--height", "4",
        "--width", "3", "--out", str(out_path))
    code, out = run(capsys, "check", "--complex", str(out_path), "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["locally_6_large"] is True


def test_check_flags_bad_complex(tmp_path, capsys):
    # octahedron: induced 4-cycles in vertex links
    text = "\n".join(f"e {u} {v}" for u, v in
                     [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
                      (1, 5), (2, 3), (3, 4), (4, 5), (5, 2)]) + "\n"
    path = tmp_path / "oct.cx"
    path.write_text(text)
    code, out = run(capsys, "check", "--complex", str(path))
    assert code == 1
    assert "witness" in out


def check_file(tmp_path, X, *flags):
    path = tmp_path / "x.cx"
    path.write_text(dumps_complex(X))
    return main(["check", "--complex", str(path), *flags])


def test_check_rejects_locally_6_large_complexes_that_are_not_simply_connected(
        tmp_path, capsys):
    for X in [triangular_torus(n) for n in range(4, 8)] + [cycle(4), cycle(5)]:
        assert check_file(tmp_path, X) == 1
        out = capsys.readouterr().out
        assert "locally_6_large: True" in out and "systolic: False" in out
        assert "witness: onto B_" in out and "infinity_large" not in out
    check_file(tmp_path, triangular_torus(4))
    assert capsys.readouterr().out.splitlines()[-1] == (
        "witness: onto B_1(0): projection of (2,) is not a simplex: (1, 3)")


def test_check_passes_generator_outputs(tmp_path, capsys):
    for X in [gen_disc_with_degrees(1, rings=r) for r in (3, 5)] + [flat_rectangle(20, 20)]:
        assert check_file(tmp_path, X) == 0
        out = capsys.readouterr().out
        assert "witness" not in out and "systolic: True" in out


def test_check_json_parses_with_its_witness(tmp_path, capsys):
    cases = [(gen_disc_with_degrees(2, rings=3), 0),
             (triangular_torus(5), 1),
             (octahedron(), 1)]
    for X, code in cases:
        assert check_file(tmp_path, X, "--json") == code
        report = json.loads(capsys.readouterr().out)
        assert report["systolic"] is (code == 0)
        assert ("witness" in report) == bool(code)
        assert "infinity_large" not in report
    assert report["witness"] == "simplex (0,) has bad link cycle (2, 3, 4, 5)"


def test_check_witnesses_empty_and_disconnected_complexes(tmp_path, capsys):
    triangle = cycle(3).edges()
    torus_at_100 = [(u + 100, v + 100) for u, v in triangular_torus(4).edges()]
    cases = [
        (FlagComplex.from_edges([]), "the complex is empty"),
        (FlagComplex.from_edges(triangle + cycle(3, 3).edges()),
         "vertices 0 and 3 lie in different components"),
        # the torus is not simply connected, but the sweep from 0 never reaches it
        (FlagComplex.from_edges(triangle + torus_at_100),
         "vertices 0 and 100 lie in different components"),
        (FlagComplex.from_edges(triangle, vertices=(7,)),
         "vertices 0 and 7 lie in different components"),
        # o's component decides first: a bad link, then a failed projection
        (FlagComplex.from_edges(octahedron().edges() + cycle(3, 10).edges()),
         "simplex (0,) has bad link cycle (2, 3, 4, 5)"),
        (FlagComplex.from_edges(cycle(4).edges() + cycle(3, 10).edges()),
         "onto B_1(0): projection of (2,) is not a simplex: (1, 3)"),
    ]
    # each complex is empty or disconnected: a connected space is nonempty
    for X, witness in cases:
        assert check_file(tmp_path, X) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "connected: False" in lines, lines
        assert lines[-2:] == ["systolic: False", f"witness: {witness}"], lines
        assert check_file(tmp_path, X, "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["connected"] is False
        assert report["systolic"] is False and report["witness"] == witness


def random_graphs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 10)
        density = rng.uniform(0.15, 0.7)
        yield FlagComplex.from_edges(
            [(a, b) for a, b in itertools.combinations(range(n), 2)
             if rng.random() < density], vertices=range(n))


def test_check_matches_the_bridged_graph_oracle(tmp_path, capsys):
    """check's verdict is systolicity: on 3,000 seeded random graphs it says
    True exactly where the 1-skeleton is bridged.  The arguments are parsed
    once, since building the parser costs more than the check."""
    path = tmp_path / "x.cx"
    args = build_parser().parse_args(["check", "--complex", str(path)])
    kinds = Counter()
    for X in random_graphs(23, 3000):
        path.write_text(dumps_complex(X))
        code = cmd_check(args)
        last = capsys.readouterr().out.splitlines()[-1]
        assert (code == 0) == is_bridged(X), (X.edges(), last)
        kinds["yes" if code == 0 else last.split()[1]] += 1
    # link, projection and component witnesses, and "yes", each well represented
    assert min(kinds[k] for k in ("yes", "simplex", "onto", "vertices")) >= 300, kinds


def test_check_runs_no_collapse_and_lists_no_simplex(tmp_path, capsys):
    """On a 40-vertex chordal complex whose largest simplex has dimension 18,
    check decides from vertices and edges alone.  Calls are counted by code
    object; the first one stops the run."""
    forbidden = {"simply_connected_heuristic": simply_connected_heuristic,
                 "simplices": FlagComplex.simplices}
    path = tmp_path / "x.cx"
    path.write_text(dumps_complex(subtree_chordal(9)))

    class Listed(Exception):
        pass

    def stop(frame):
        raise Listed(frame.f_code.co_name)

    with counting_calls(forbidden, key=stop) as calls:
        code = main(["check", "--complex", str(path)])
    assert not calls, calls
    assert code == 0 and "systolic: True" in capsys.readouterr().out


def test_dist_dgeo_egeo(flat_file, capsys, tmp_path):
    path, c0, c1 = flat_file
    code, out = run(capsys, "dist", "--complex", path,
                    "--from", str(c0), "--to", str(c1))
    assert code == 0 and out.strip() == "10"
    code, out = run(capsys, "dgeo", "--complex", path,
                    "--from", str(c0), "--to", str(c1))
    assert code == 0 and out.startswith("0: ")
    svg_path = tmp_path / "out.svg"
    code, out = run(capsys, "egeo", "--complex", path,
                    "--from", str(c0), "--to", str(c1),
                    "--svg", str(svg_path))
    assert code == 0
    assert "thick" in out and svg_path.exists()
    svg1 = svg_path.read_text()
    run(capsys, "egeo", "--complex", path, "--from", str(c0),
        "--to", str(c1), "--svg", str(svg_path))
    assert svg_path.read_text() == svg1  # byte-identical rendering


def test_good_command(flat_file, capsys):
    path, c0, c1 = flat_file
    code, out = run(capsys, "good", "--complex", path,
                    "--from", str(c0), "--to", str(c1))
    assert code == 0 and "good: True" in out


def test_verify_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "--suite", "gauss-bonnet", "--seed", "1")
    code2, out2 = run(capsys, "verify", "--suite", "gauss-bonnet", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "sum=6 on 100/100 discs" in out1


def test_verify_thm_suites_quick(capsys):
    for suite in ("thm8.1", "prop99"):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--seed", "2", "--count", "4")
        assert code == 0, out
        assert "ok=True" in out


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--suite", "thm8.1", "--seed", "3",
                    "--count", "2", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["ok"] is True and parsed["suite"] == "thm8.1"


def test_atlas_command(flat_file, capsys):
    path, c0, c1 = flat_file
    code, out = run(capsys, "atlas", "--complex", path, "--from", str(c0),
                    "--radius", "2")
    assert code == 0
    assert "classes=" in out
    code, out = run(capsys, "atlas", "--complex", path, "--from", str(c0),
                    "--radius", "2", "--json")
    assert code == 0
    assert json.loads(out)["N"] == 2


def test_atlas_reports_a_cap_only_when_it_cut_a_ray(tmp_path, capsys):
    path = str(tmp_path / "r.cx")
    run(capsys, "gen", "--kind", "rectangle", "--height", "10", "--width", "5",
        "--out", path)
    base = ("atlas", "--complex", path, "--from", "45", "--radius", "4")
    for flags, line in (((), "rays=44 capped=False"),
                        (("--cap", "44"), "rays=44 capped=False"),
                        (("--cap", "43"), "rays=43 capped=True")):
        code, out = run(capsys, *base, *flags)
        assert code == 0 and out.splitlines()[1] == line, flags


def test_atlas_threshold_follows_C(flat_file, capsys):
    path, c0, _ = flat_file
    base = ("atlas", "--complex", path, "--from", str(c0), "--radius", "2")
    for flags, D in (((), 626), (("--C", "10"), 32), (("--C", "10", "--D", "7"), 7)):
        code, out = run(capsys, *base, *flags)
        assert code == 0 and out.startswith(f"atlas basepoint={c0} N=2 D={D}\n"), flags


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    # sizes and distance bounds must be non-negative, counts and caps positive
    for argv in (["gen", "--kind", "rectangle", "--out", "x.cx", "--height", "-1"],
                 ["gen", "--kind", "parallelogram", "--out", "x.cx", "--width", "-2"],
                 ["gen", "--kind", "disc", "--out", "x.cx", "--rings", "-2"],
                 ["verify", "--suite", "thm8.1", "--count", "0"],
                 ["verify", "--suite", "good", "--count", "-3"],
                 ["atlas", "--complex", "x.cx", "--from", "0", "--cap", "0"],
                 ["atlas", "--complex", "x.cx", "--from", "0", "--cap", "-1"],
                 ["good", "--complex", "r.cx", "--from", "0", "--to", "19", "--C", "-3"],
                 ["verify", "--suite", "thmC", "--count", "1", "--C", "-1"],
                 ["atlas", "--complex", "x.cx", "--from", "0", "--D", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"argument {argv[-2]}: {argv[-1]} is below" in capsys.readouterr().err


def test_more_suites_deterministic(capsys):
    for suite in ("layers", "thmC", "prop99", "thmB"):
        _, out1 = run(capsys, "verify", "--suite", suite, "--seed", "9",
                      "--count", "3")
        _, out2 = run(capsys, "verify", "--suite", suite, "--seed", "9",
                      "--count", "3")
        assert out1 == out2, suite


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_library_error_exits_1_with_its_message(flat_file, tmp_path, capsys, monkeypatch):
    """A ValueError from the library is a witness, not a usage error: exit 1
    with its message.  Across the 6-cycle, 0's first projection is no
    simplex; the library raises that, but egeo asks check's verdict first
    and exits 2 with its witness.  So only a build that raised on systolic
    input, stood in for here, would exit 1."""
    path = tmp_path / "c6.cx"
    path.write_text(dumps_complex(cycle(6)))
    with pytest.raises(ProjectionError, match=r"^projection of \(0,\) is not a simplex: \(1, 5\)$"):
        euclidean_geodesic(cycle(6), (0,), (3,))
    code, err = run_err(capsys, "egeo", "--complex", str(path), "--from", "0", "--to", "3")
    assert code == 2 and err == (f"{NOT_SYSTOLIC}\nwitness: onto B_2(0): projection of (3,) "
                                 "is not a simplex: (2, 4)\n")

    def raising(X, sigma, tau):
        raise ProjectionError("projection of (0,) is not a simplex: (1, 5)")

    monkeypatch.setattr(cli, "euclidean_geodesic", raising)
    path, c0, c1 = flat_file
    code, err = run_err(capsys, "egeo", "--complex", path, "--from", str(c0), "--to", str(c1))
    assert code == 1 and err == "FAIL projection of (0,) is not a simplex: (1, 5)\n"


def test_missing_complex_exits_2(capsys):
    endpoints = ("--from", "0", "--to", "1")
    for command, flags in (("check", ()), ("dist", endpoints), ("dgeo", endpoints),
                           ("egeo", endpoints), ("good", endpoints),
                           ("atlas", ("--from", "0"))):
        code, err = run_err(capsys, command, *flags)
        assert code == 2, command
        assert "--complex is required" in err


def test_missing_endpoints_exit_2(flat_file, capsys):
    path, c0, c1 = flat_file
    for command in ("dist", "dgeo", "egeo", "good"):
        code, err = run_err(capsys, command, "--complex", path, "--to", str(c1))
        assert code == 2 and "--from and --to are required" in err, command
        code, err = run_err(capsys, command, "--complex", path, "--from", str(c0))
        assert code == 2 and "--from and --to are required" in err, command


def test_atlas_missing_basepoint_exits_2(flat_file, capsys):
    path, _, _ = flat_file
    code, err = run_err(capsys, "atlas", "--complex", path, "--radius", "2")
    assert code == 2 and "basepoint" in err


def test_unreadable_complex_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cx"
    code, err = run_err(capsys, "check", "--complex", str(missing))
    assert code == 2 and "cannot load" in err and str(missing) in err
    garbled = tmp_path / "garbled.cx"
    garbled.write_text("e 0 1\nnot a line\n")
    code, err = run_err(capsys, "dist", "--complex", str(garbled),
                        "--from", "0", "--to", "1")
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("line", ["v abc", "e 1 x", "coord 1 0 x"])
def test_bad_integer_exits_2_with_its_line(tmp_path, capsys, line):
    path = tmp_path / "bad.cx"
    path.write_text(f"e 0 1\n{line}\n")
    code, err = run_err(capsys, "check", "--complex", str(path))
    assert code == 2 and f"line 2: cannot parse '{line}'" in err


def test_unwritable_output_exits_2(flat_file, tmp_path, capsys):
    path, c0, c1 = flat_file
    nowhere = tmp_path / "missing-dir" / "out"
    code, err = run_err(capsys, "gen", "--kind", "rectangle", "--out", str(nowhere))
    assert code == 2 and "cannot write" in err
    code, err = run_err(capsys, "egeo", "--complex", path, "--from", str(c0),
                        "--to", str(c1), "--svg", str(nowhere))
    assert code == 2 and "cannot write" in err


def test_svg_without_coordinates_exits_2(tmp_path, capsys):
    path = tmp_path / "tri.cx"
    path.write_text("e 0 1\ne 1 2\ne 0 2\n")
    code, err = run_err(capsys, "egeo", "--complex", str(path), "--from", "0",
                        "--to", "1", "--svg", str(tmp_path / "out.svg"))
    assert code == 2 and "no lattice coordinates" in err


@pytest.mark.parametrize("coords,message", [
    ("coord 0 0 1\ncoord 9 0 0\n", "coord for undeclared vertex 9"),
    ("coord 0 0 1\n", "no coord for vertex 1"),
    ("coord 0 0 1\ncoord 1 0 3\ncoord 2 1 2\ncoord 0 3 7\n",
     "line 7: second coord for vertex 0"),
])
def test_partial_coordinates_exit_2(tmp_path, capsys, coords, message):
    path = tmp_path / "tri.cx"
    path.write_text("e 0 1\ne 1 2\ne 0 2\n" + coords)
    code, err = run_err(capsys, "egeo", "--complex", str(path), "--from", "0",
                        "--to", "1", "--svg", str(tmp_path / "out.svg"))
    assert code == 2 and message in err


def test_cap_only_on_atlas(flat_file, capsys):
    path, c0, _ = flat_file
    code, out = run(capsys, "atlas", "--complex", path, "--from", str(c0),
                    "--radius", "2", "--cap", "3")
    assert code == 0 and "classes=" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "gauss-bonnet", "--cap", "5"])
    assert exc.value.code == 2


def test_flags_only_where_read(capsys):
    # --svg is read by gen and egeo only, --seed by gen and verify only;
    # --complex, --from and --to by the commands that load a complex (atlas
    # reads no --to), and --json by check, verify and atlas only; gen reads
    # --seed and --rings for discs only, --height and --width for the others
    for argv in (["check", "--svg", "x"], ["dist", "--seed", "1"],
                 ["gen", "--kind", "disc", "--out", "x.cx", "--complex", "nothere.cx"],
                 ["gen", "--kind", "disc", "--out", "x.cx", "--from", "1"],
                 ["gen", "--kind", "disc", "--out", "x.cx", "--to", "99"],
                 ["gen", "--kind", "disc", "--out", "x.cx", "--json"],
                 ["verify", "--suite", "gauss-bonnet", "--complex", "nothere.cx"],
                 ["verify", "--suite", "gauss-bonnet", "--from", "1"],
                 ["check", "--from", "999"], ["check", "--to", "1"],
                 ["atlas", "--to", "12345"],
                 ["dist", "--complex", "x.cx", "--from", "0", "--to", "1", "--json"],
                 ["dgeo", "--json"], ["egeo", "--json"], ["good", "--json"],
                 ["gen", "--kind", "parallelogram", "--out", "x.cx", "--rings", "3"],
                 ["gen", "--kind", "parallelogram", "--out", "x.cx", "--seed", "5"],
                 ["gen", "--kind", "rectangle", "--out", "x.cx", "--rings", "9"],
                 ["gen", "--kind", "rectangle", "--out", "x.cx", "--height", "3",
                  "--seed", "5"],
                 ["gen", "--kind", "disc", "--out", "x.cx", "--height", "3"],
                 ["gen", "--kind", "disc", "--out", "x.cx", "--width", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_verify_reads_C_on_good_and_thmC_only(capsys):
    """--C reaches the suites that read it, and is a usage error on the
    others, as gen rejects a parameter its kind does not read."""
    base = ("--seed", "1", "--count", "1", "--C", "5")
    for suite, line in (("good", "(bound C+1=6)"), ("thmC", "(bound D=17)")):
        code, out = run(capsys, "verify", "--suite", suite, *base)
        assert code == 0 and out.rstrip().endswith(line), suite
    for suite in sorted(set(SUITE_NAMES) - {"good", "thmC"}):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, *base])
        assert exc.value.code == 2, suite
        assert f"error: verify --suite {suite} does not read --C" in capsys.readouterr().err


def test_atlas_radius_beyond_eccentricity_exits_2(flat_file, capsys):
    path, c0, _ = flat_file
    for radius in ("11", "-1"):  # the corner's eccentricity is 10
        code, err = run_err(capsys, "atlas", "--complex", path, "--from", str(c0),
                            "--radius", radius)
        assert code == 2 and err.startswith("error: ") and "eccentricity" in err, radius
    code, out = run(capsys, "atlas", "--complex", path, "--from", str(c0),
                    "--radius", "10", "--D", "1")
    assert code == 0 and "N=10" in out


def test_atlas_sweeps_its_basepoint_only_to_the_radius(tmp_path, capsys, monkeypatch):
    """The --radius check reads the basepoint's sweep grown to --radius, as
    boundary_atlas does, and leaves it there; the whole component is swept
    only to word the error."""
    path = tmp_path / "rect10.cx"
    path.write_text(dumps_complex(flat_rectangle(10, 5)))
    loaded = []

    def load(complex_path):
        loaded.append(load_complex(complex_path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_complex", load)
    code, out = run(capsys, "atlas", "--complex", str(path), "--from", "27", "--radius", "4")
    assert code == 0 and "rays=" in out
    assert loaded[-1]._dist_cache[frozenset((27,))].radius == 4
    code, err = run_err(capsys, "atlas", "--complex", str(path), "--from", "27",
                        "--radius", "99")
    assert code == 2 and err == "error: --radius 99 outside 0..6, the eccentricity of vertex 27\n"
    assert loaded[-1]._dist_cache[frozenset((27,))].radius == float("inf")


def test_unknown_vertex_exits_2(flat_file, capsys):
    path, c0, _ = flat_file
    for command in ("dist", "dgeo", "egeo", "good"):
        code, err = run_err(capsys, command, "--complex", path, "--from", str(c0),
                            "--to", "999")
        assert code == 2 and "vertex 999 not in complex" in err, command
        code, err = run_err(capsys, command, "--complex", path, "--from", "-4",
                            "--to", str(c0))
        assert code == 2 and "vertex -4 not in complex" in err, command
    code, err = run_err(capsys, "atlas", "--complex", path, "--from", "999")
    assert code == 2 and "vertex 999 not in complex" in err


@pytest.fixture
def two_components(tmp_path):
    path = tmp_path / "two.cx"
    path.write_text("e 0 1\ne 2 3\n")
    return str(path)


@pytest.mark.parametrize("command", ["dist", "dgeo", "egeo", "good"])
def test_endpoints_in_different_components_exit_2(two_components, capsys, command):
    code, err = run_err(capsys, command, "--complex", two_components,
                        "--from", "0", "--to", "2")
    assert code == 2, err
    assert err == "error: vertices 0 and 2 lie in different components\n"


def test_atlas_covers_the_basepoint_component(two_components, capsys):
    """The library's atlas covers the basepoint's component; the command
    asks check's verdict first, and a disconnected complex is not systolic."""
    X = load_complex(two_components)
    assert "N=1" in atlas_report(boundary_atlas(X, 0, 1))
    code, err = run_err(capsys, "atlas", "--complex", two_components, "--from", "0",
                        "--radius", "1")
    assert code == 2 and err == (f"{NOT_SYSTOLIC}\n"
                                 "witness: vertices 0 and 2 lie in different components\n")


def non_systolic_inputs():
    """Complexes check rejects, each with vertices 0 and 1 in one component:
    tori with 6-large links, complexes with bad links, short cycles, and
    disconnected ones."""
    triangle = cycle(3).edges()
    yield from (triangular_torus(n) for n in range(4, 10))
    yield from (octahedron(), cycle(4), cycle(5))
    yield FlagComplex.from_edges(triangle + cycle(3, 3).edges())
    yield FlagComplex.from_edges(triangle + [(u + 100, v + 100)
                                             for u, v in triangular_torus(4).edges()])


def test_geodesic_commands_exit_2_on_non_systolic_input(tmp_path, capsys):
    """dgeo, egeo, good and atlas ask check's verdict before any build: on
    each complex check rejects, they exit 2 with check's witness, and no
    interval, directed or Euclidean geodesic, good geodesic or atlas is
    built.  dist needs no verdict."""
    builds = {"_interval": metric._interval, "_directed": metric._directed,
              "_euclidean": eucgeo._euclidean, "make_good_geodesic": boundary.make_good_geodesic,
              "boundary_atlas": boundary.boundary_atlas}
    path = tmp_path / "x.cx"
    endpoints = ("--complex", str(path), "--from", "0", "--to", "1")
    witnesses = set()
    for X in non_systolic_inputs():
        path.write_text(dumps_complex(X))
        code, out = run(capsys, "check", "--complex", str(path))
        witness = out.splitlines()[-1]
        assert code == 1 and witness.startswith("witness: "), out
        witnesses.add(witness.split()[1])
        for argv in (("dgeo", *endpoints), ("egeo", *endpoints), ("good", *endpoints),
                     ("good", *endpoints, "--C", "0"),
                     ("atlas", "--complex", str(path), "--from", "0", "--radius", "1")):
            with counting_calls(builds) as calls:
                code, err = run_err(capsys, *argv)
            assert code == 2 and err == f"{NOT_SYSTOLIC}\n{witness}\n", (argv, err)
            assert not calls, (argv, calls)
        code, out = run(capsys, "dist", *endpoints)
        assert code == 0 and out == f"{dist(X, 0, 1)}\n"
    # link, projection and component witnesses
    assert witnesses == {"simplex", "onto", "vertices"}, witnesses
