"""Command-line interface: commands, determinism, exit codes."""

import json

import pytest

from systolic.cli import main
from systolic.complex import dumps_complex
from systolic.generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees

from test_chordality import cycle, octahedron, triangular_torus


@pytest.fixture
def flat_file(tmp_path):
    X = flat_parallelogram(8, 2)
    path = tmp_path / "flat.cx"
    path.write_text(dumps_complex(X))
    c0 = min(X.vertices, key=lambda v: X.coords[v])
    c1 = max(X.vertices, key=lambda v: X.coords[v])
    return str(path), c0, c1


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
    assert "simply_connected: verified" in out


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
        assert "locally_6_large: True" in out and "simply_connected: no" in out
        assert "witness: onto B_" in out and "infinity_large" not in out
    check_file(tmp_path, triangular_torus(4))
    assert capsys.readouterr().out.splitlines()[-1] == (
        "witness: onto B_1(0): projection of (2,) is not a simplex: (1, 3)")


def test_check_passes_generator_outputs(tmp_path, capsys):
    for X in [gen_disc_with_degrees(1, rings=r) for r in (3, 5)] + [flat_rectangle(20, 20)]:
        assert check_file(tmp_path, X) == 0
        out = capsys.readouterr().out
        assert "witness" not in out and "simply_connected: verified" in out


def test_check_json_parses_with_its_witness(tmp_path, capsys):
    cases = [(gen_disc_with_degrees(2, rings=3), 0, "verified"),
             (triangular_torus(5), 1, "no"),
             (octahedron(), 1, "unknown")]
    for X, code, simply_connected in cases:
        assert check_file(tmp_path, X, "--json") == code
        report = json.loads(capsys.readouterr().out)
        assert report["simply_connected"] == simply_connected
        assert ("witness" in report) == bool(code)
        assert "infinity_large" not in report
    assert report["witness"] == "simplex (0,) has bad link cycle (2, 3, 4, 5)"


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
    # sizes must be non-negative, counts and caps positive
    for argv in (["gen", "--kind", "rectangle", "--out", "x.cx", "--height", "-1"],
                 ["gen", "--kind", "parallelogram", "--out", "x.cx", "--width", "-2"],
                 ["gen", "--kind", "disc", "--out", "x.cx", "--rings", "-2"],
                 ["verify", "--suite", "thm8.1", "--count", "0"],
                 ["verify", "--suite", "good", "--count", "-3"],
                 ["atlas", "--complex", "x.cx", "--from", "0", "--cap", "0"],
                 ["atlas", "--complex", "x.cx", "--from", "0", "--cap", "-1"]):
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


def test_atlas_radius_beyond_eccentricity_exits_2(flat_file, capsys):
    path, c0, _ = flat_file
    for radius in ("11", "-1"):  # the corner's eccentricity is 10
        code, err = run_err(capsys, "atlas", "--complex", path, "--from", str(c0),
                            "--radius", radius)
        assert code == 2 and err.startswith("error: ") and "eccentricity" in err, radius
    code, out = run(capsys, "atlas", "--complex", path, "--from", str(c0),
                    "--radius", "10", "--D", "1")
    assert code == 0 and "N=10" in out


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
    code, out = run(capsys, "atlas", "--complex", two_components, "--from", "0",
                    "--radius", "1")
    assert code == 0 and "N=1" in out
