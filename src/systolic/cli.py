"""Command-line front end: generation, computation, verification, rendering.

Exit codes: 0 all assertions passed, 1 assertion failure (first witness
printed), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boundary import C_DEFAULT, boundary_atlas, atlas_report, is_good_geodesic, make_good_geodesic
from .complex import (dumps_complex, is_k_large, is_locally_6_large, load_complex,
                      simply_connected_heuristic, INFINITY)
from .eucgeo import euclidean_geodesic
from .generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from .metric import dist, dist_map, directed_geodesic
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .svg import poly_path_points, render_svg


class UsageError(Exception):
    """Missing or unreadable input, or an unwritable output path: reported
    with exit code 2."""


_FLAGS = {
    "complex": {"dest": "complex_path", "help": "complex file to load"},
    "from": {"dest": "src", "type": int, "help": "source vertex"},
    "to": {"dest": "dst", "type": int, "help": "target vertex"},
    "json": {"action": "store_true", "help": "structured output"},
    "seed": {"type": int, "default": 0},
    "svg": {"dest": "svg_path", "help": "write an SVG rendering here"},
    "C": {"dest": "C", "type": int, "default": C_DEFAULT},
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """The shared flags a command reads; it rejects any other as a usage error."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic",
        description="Combinatorial geodesics and verification suites on "
                    "systolic complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a complex file from a generator")
    _add_flags(p, "seed", "svg")
    p.add_argument("--kind", choices=["parallelogram", "rectangle", "disc"],
                   required=True)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--width", type=int, default=2)
    p.add_argument("--rings", type=int, default=2)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="flagness, local 6-largeness, collapsibility")
    _add_flags(p, "complex", "json")

    p = sub.add_parser("dist", help="combinatorial distance between two vertices")
    _add_flags(p, "complex", "from", "to")

    p = sub.add_parser("dgeo", help="directed geodesic between two vertices")
    _add_flags(p, "complex", "from", "to")

    p = sub.add_parser("egeo", help="Euclidean geodesic between two vertices")
    _add_flags(p, "complex", "from", "to", "svg")

    p = sub.add_parser("good", help="make and verify a good geodesic")
    _add_flags(p, "complex", "from", "to", "C")

    p = sub.add_parser("verify", help="run a verification suite")
    _add_flags(p, "seed", "C", "json")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--count", type=int, default=8)

    p = sub.add_parser("atlas", help="finite-radius boundary atlas at a basepoint")
    _add_flags(p, "complex", "from", "C", "json")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--D", dest="D", type=int, default=None)
    p.add_argument("--cap", type=int, default=10000)
    return parser


def _load(args) -> "FlagComplex":
    if not args.complex_path:
        raise UsageError("--complex is required for this command")
    try:
        return load_complex(args.complex_path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load {args.complex_path}: {exc}") from exc


def _need_vertex(X, v: int) -> int:
    if v not in X:
        raise UsageError(f"vertex {v} not in complex")
    return v


def _need_endpoints(args, X) -> tuple[int, int]:
    if args.src is None or args.dst is None:
        raise UsageError("--from and --to are required for this command")
    u, v = _need_vertex(X, args.src), _need_vertex(X, args.dst)
    if v not in dist_map(X, (u,)):
        raise UsageError(f"vertices {u} and {v} lie in different components")
    return u, v


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit_svg(args, X, paths=()) -> None:
    if not args.svg_path:
        return
    if X.coords is None:
        raise UsageError("complex has no lattice coordinates; cannot render")
    _write(args.svg_path, render_svg(X.coords, X.edges(), X.triangles(), paths))
    print(f"svg written to {args.svg_path}")


def cmd_gen(args) -> int:
    if args.kind == "parallelogram":
        X = flat_parallelogram(args.height, args.width)
    elif args.kind == "rectangle":
        X = flat_rectangle(args.height, args.width)
    else:
        X = gen_disc_with_degrees(args.seed, rings=args.rings)
    _write(args.out, dumps_complex(X))
    print(f"seed={args.seed} kind={args.kind} vertices={len(X)} "
          f"edges={X.edge_count()} -> {args.out}")
    _emit_svg(args, X)
    return 0


def cmd_check(args) -> int:
    X = _load(args)
    X.validate()
    loc = is_locally_6_large(X)
    collapse = simply_connected_heuristic(X)
    inf_large = is_k_large(X, INFINITY)
    report = {
        "vertices": len(X),
        "edges": X.edge_count(),
        "connected": X.is_connected(),
        "locally_6_large": loc.ok,
        "simply_connected": collapse,
        "infinity_large": inf_large.ok,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
    if not loc.ok:
        print(f"witness: simplex {loc.witness[0]} has bad link cycle {loc.witness[1]}")
        return 1
    return 0


def cmd_dist(args) -> int:
    X = _load(args)
    u, v = _need_endpoints(args, X)
    print(dist(X, (u,), (v,)))
    return 0


def cmd_dgeo(args) -> int:
    X = _load(args)
    u, v = _need_endpoints(args, X)
    seq = directed_geodesic(X, (u,), frozenset((v,)))
    for k, simplex in enumerate(seq):
        print(f"{k}: {list(simplex)}")
    return 0


def cmd_egeo(args) -> int:
    X = _load(args)
    u, v = _need_endpoints(args, X)
    eg = euclidean_geodesic(X, (u,), (v,))
    for k, simplex in enumerate(eg.deltas):
        tag = "thin " if eg.profile.thin[k] else "thick"
        print(f"{k} ({tag}): {list(simplex)}")
    if args.svg_path:
        if eg.intervals:
            data = eg.intervals[0]
            disc_complex = data.disc.complex
            _write(args.svg_path,
                   render_svg(disc_complex.coords, disc_complex.edges(),
                              disc_complex.triangles(),
                              [poly_path_points(data.diagonal)]))
            print(f"svg written to {args.svg_path}")
        else:
            _emit_svg(args, X)
    return 0


def cmd_good(args) -> int:
    X = _load(args)
    u, v = _need_endpoints(args, X)
    good = make_good_geodesic(X, u, v, C=args.C)
    verified, witness = is_good_geodesic(X, good.path, C=args.C)
    print(f"path: {good.path}")
    print(f"certificate max: {good.max_certificate} (bound C+1={args.C + 1})")
    if verified is None:
        print(f"FAIL witness {witness}")
        return 1
    print("good: True")
    return 0


def cmd_verify(args) -> int:
    config = SuiteConfig(seed=args.seed, count=args.count, C=args.C)
    report = run_suite(args.suite, config)
    if args.json:
        print(json.dumps({"suite": report.name, "seed": report.seed,
                          "ok": report.ok, "lines": report.lines,
                          "failures": report.failures}, sort_keys=True, indent=2))
    else:
        sys.stdout.write(report.text())
    return 0 if report.ok else 1


def cmd_atlas(args) -> int:
    X = _load(args)
    if args.src is None:
        raise UsageError("--from (basepoint) is required for atlas")
    O = _need_vertex(X, args.src)
    ecc = max(dist_map(X, (O,)).values())
    if not 0 <= args.radius <= ecc:
        raise UsageError(f"--radius {args.radius} outside 0..{ecc}, the "
                         f"eccentricity of vertex {O}")
    kwargs = {"C": args.C, "cap": args.cap}
    if args.D is not None:
        kwargs["D"] = args.D
    atlas = boundary_atlas(X, O, args.radius, **kwargs)
    sys.stdout.write(atlas_report(atlas, as_json=args.json))
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "check": cmd_check,
    "dist": cmd_dist,
    "dgeo": cmd_dgeo,
    "egeo": cmd_egeo,
    "good": cmd_good,
    "verify": cmd_verify,
    "atlas": cmd_atlas,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
