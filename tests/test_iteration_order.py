"""Outputs depend on the complex, not on the order its maps iterate in.

Each input is compared with `scrambled` copies of itself, whose keys and
neighbourhoods iterate in seeded orders of their own: every CLI command's
exit code, stdout and stderr, the largeness and sweep verdicts with their
witnesses, and the `verify` reports under a `FlagComplex.from_edges` that
scrambles every complex it builds."""

from collections import Counter

from systolic import cli
from systolic.complex import (INFINITY, FlagComplex, is_k_large, is_locally_6_large,
                              simply_connected_heuristic)
from systolic.generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from systolic.metric import projection_witness
from systolic.suites import SUITE_NAMES, SuiteConfig, run_suite

from oracles import (far_pair, octahedron, scrambled, subtree_chordal, triangular_torus,
                     twin)

SEEDS = (0, 1, 2)


def triangle_beside_a_torus():
    """A triangle on 0..2 beside `triangular_torus(4)` on 100..115: the
    sweep from 0 passes, and the torus is never reached."""
    torus = [(100 + u, 100 + v) for u, v in triangular_torus(4).edges()]
    return FlagComplex.from_edges([(0, 1), (1, 2), (0, 2)] + torus)


INPUTS = {
    "disc": gen_disc_with_degrees(1, rings=3),
    "parallelogram": flat_parallelogram(8, 2),
    "rectangle": flat_rectangle(6, 3),
    "twin": twin(flat_parallelogram(8, 2), 7),
    **{f"torus{n}": triangular_torus(n) for n in (4, 5, 6)},
    "octahedron": octahedron(),
    "split": triangle_beside_a_torus(),
    "chordal": subtree_chordal(9, n=20),
}


def commands(name, X):
    """Every CLI command that reads a complex, on X's far pair."""
    u, v = map(str, far_pair(X))
    ends = ("--complex", name, "--from", u, "--to", v)
    return [("check", "--complex", name), ("check", "--complex", name, "--json"),
            ("dist", *ends), ("dgeo", *ends), ("egeo", *ends), ("good", *ends),
            ("good", *ends, "--C", "0"), ("atlas", "--complex", name, "--from", u, "--D", "2")]


def cli_outputs(monkeypatch, capsys, make):
    """(argv, exit code, stdout, stderr) of every command on every input,
    each loaded as make(X).  `main` gets one parser, built once, since
    building it costs more than most of these commands."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    monkeypatch.setattr(cli, "load_complex", lambda path: make(INPUTS[path]))
    out = []
    for name, X in INPUTS.items():
        for argv in commands(name, X):
            code = cli.main(list(argv))
            out.append((argv, code, *capsys.readouterr()))
    return out


def test_every_command_prints_the_same_on_scrambled_complexes(monkeypatch, capsys):
    """The commands print the same on every scramble, and between them
    succeed and fail both ways; most neighbourhoods of each scramble
    iterate differently from the original's."""
    expected = cli_outputs(monkeypatch, capsys, lambda X: FlagComplex(X.adjacency, X.coords))
    assert {code for _, code, _, _ in expected} == {0, 1, 2}
    for seed in SEEDS:
        got = cli_outputs(monkeypatch, capsys, lambda X: scrambled(X, seed))
        for want, have in zip(expected, got):
            assert have == want
        for X in INPUTS.values():
            Y = scrambled(X, seed)
            assert list(Y.adjacency) != list(X.adjacency)
            moved = Counter(list(Y.adjacency[v]) != list(X.adjacency[v])
                            for v in X.adjacency if X.degree(v) > 1)
            assert moved[True] > 2 * moved[False], moved


def verdicts(X):
    """The largeness verdicts with their holes, the heuristic, and the
    projection sweep's witness from each end of X's far pair."""
    return (is_locally_6_large(X), is_k_large(X, 6), is_k_large(X, INFINITY),
            simply_connected_heuristic(X), [projection_witness(X, v) for v in far_pair(X)],
            X.edges(), list(X.simplices(max_size=3)))


def test_verdicts_and_witnesses_are_the_same_on_scrambled_complexes():
    for X in INPUTS.values():
        expected = verdicts(FlagComplex(X.adjacency))
        for seed in SEEDS:
            assert verdicts(scrambled(X, seed)) == expected


def test_verify_reports_are_the_same_when_every_build_is_scrambled(monkeypatch):
    """The eight suites at seed 3, count 2, with every complex that
    `FlagComplex.from_edges` builds scrambled."""
    config = SuiteConfig(seed=3, count=2)
    expected = [run_suite(name, config).text() for name in SUITE_NAMES]
    build = FlagComplex.from_edges.__func__
    for seed in SEEDS:
        monkeypatch.setattr(FlagComplex, "from_edges", classmethod(
            lambda cls, *args, **kwargs: scrambled(build(cls, *args, **kwargs), seed)))
        assert [run_suite(name, config).text() for name in SUITE_NAMES] == expected
