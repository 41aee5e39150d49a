"""Command-line front end: generation, computation, verification, rendering.

Exit codes: 0 all assertions passed, 1 assertion failure (first witness
printed), 2 usage or input error.  dgeo, egeo, good and atlas ask check's
verdict before they build anything: a complex that is not systolic is an
input error, reported with check's witness.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boundary import ATLAS_CAP, C_DEFAULT, atlas_report, boundary_atlas, make_good_geodesic
from .complex import dumps_complex, is_locally_6_large, load_complex
from .eucgeo import euclidean_geodesic
from .generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from .metric import dist, dist_map, directed_geodesic, projection_witness
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .svg import poly_path_points, render_svg


class UsageError(Exception):
    """Missing or unreadable input, or an unwritable output path: reported
    with exit code 2."""


def _int_at_least(minimum: int):
    """An argparse type: an int no less than minimum, else a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value
    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


_NON_NEGATIVE, _POSITIVE = _int_at_least(0), _int_at_least(1)

_FLAGS = {
    "complex": {"dest": "complex_path", "help": "complex file to load"},
    "from": {"dest": "src", "type": int, "help": "source vertex"},
    "to": {"dest": "dst", "type": int, "help": "target vertex"},
    "json": {"action": "store_true", "help": "structured output"},
    "seed": {"type": int, "default": 0},
    "svg": {"dest": "svg_path", "help": "write an SVG rendering here"},
    "C": {"dest": "C", "type": _NON_NEGATIVE, "default": C_DEFAULT},
}

# The generators `gen --kind` names, with the parameters each reads and their
# defaults; gen rejects a parameter its kind does not read.
_GENERATORS = {
    "parallelogram": (flat_parallelogram, {"height": 8, "width": 2}),
    "rectangle": (flat_rectangle, {"height": 8, "width": 2}),
    "disc": (gen_disc_with_degrees, {"seed": 0, "rings": 2}),
}
_GEN_PARAMS = ("height", "width", "rings", "seed")

# The suites that read --C; verify rejects it on the others.
_C_SUITES = ("good", "thmC")


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
    _add_flags(p, "svg")
    p.add_argument("--kind", choices=list(_GENERATORS), required=True)
    for name in _GEN_PARAMS:
        # absent unless given, so main can reject what --kind does not read
        p.add_argument(f"--{name}", type=int if name == "seed" else _NON_NEGATIVE,
                       default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="systolicity, with a witness")
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
    _add_flags(p, "seed", "json")
    # absent unless given, so main can reject it on a suite that does not read it
    p.add_argument("--C", type=_NON_NEGATIVE, default=argparse.SUPPRESS)
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--count", type=_POSITIVE, default=8)

    p = sub.add_parser("atlas", help="finite-radius boundary atlas at a basepoint")
    _add_flags(p, "complex", "from", "C", "json")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--D", dest="D", type=_NON_NEGATIVE, default=None,
                   help="class threshold (default 3C + 2)")
    p.add_argument("--cap", type=_POSITIVE, default=ATLAS_CAP)
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
    try:
        dist(X, u, v)
    except ValueError:
        raise UsageError(f"vertices {u} and {v} lie in different components") from None
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
    generator, defaults = _GENERATORS[args.kind]
    params = {name: getattr(args, name, default) for name, default in defaults.items()}
    X = generator(**params)
    _write(args.out, dumps_complex(X))
    seed = f"seed={params['seed']} " if "seed" in params else ""
    print(f"{seed}kind={args.kind} vertices={len(X)} "
          f"edges={X.edge_count()} -> {args.out}")
    _emit_svg(args, X)
    return 0


def _systolic_witness(X, loc) -> str | None:
    """Why X is not systolic, or None: with 6-large links, the projection
    sweep from the least vertex o decides o's component (`projection_witness`)."""
    if not X.adjacency:
        return "the complex is empty"
    if not loc.ok:
        return f"simplex {loc.witness[0]} has bad link cycle {loc.witness[1]}"
    o = min(X.adjacency)
    if (failed := projection_witness(X, o)) is not None:
        return f"onto B_{failed[1]}({o}): {failed[2]}"
    outside = X.adjacency.keys() - dist_map(X, (o,)).keys()
    return f"vertices {o} and {min(outside)} lie in different components" if outside else None


def _need_systolic(X) -> None:
    """check's verdict, asked before a build: their results mean something
    only on systolic input, so "no" is an input error with its witness."""
    witness = _systolic_witness(X, is_locally_6_large(X))
    if witness is not None:
        raise UsageError(f"the complex is not systolic\nwitness: {witness}")


def cmd_check(args) -> int:
    X = _load(args)
    # no X.validate(): loads_complex builds X by from_edges, symmetric and loop-free
    loc = is_locally_6_large(X)
    witness = _systolic_witness(X, loc)
    report = {
        "vertices": len(X),
        "edges": X.edge_count(),
        "connected": bool(X) and len(dist_map(X, (min(X.adjacency),))) == len(X),
        "locally_6_large": loc.ok,
        "systolic": witness is None,
    }
    if witness is not None:
        report["witness"] = witness
    print(json.dumps(report, sort_keys=True, indent=2) if args.json
          else "\n".join(f"{k}: {v}" for k, v in report.items()))
    return 0 if witness is None else 1


def cmd_dist(args) -> int:
    X = _load(args)
    u, v = _need_endpoints(args, X)
    print(dist(X, (u,), (v,)))
    return 0


def cmd_dgeo(args) -> int:
    X = _load(args)
    u, v = _need_endpoints(args, X)
    _need_systolic(X)
    seq = directed_geodesic(X, (u,), frozenset((v,)))
    for k, simplex in enumerate(seq):
        print(f"{k}: {list(simplex)}")
    return 0


def cmd_egeo(args) -> int:
    X = _load(args)
    u, v = _need_endpoints(args, X)
    _need_systolic(X)
    eg = euclidean_geodesic(X, (u,), (v,))
    for k, simplex in enumerate(eg.deltas):
        tag = "thin " if eg.profile.thin[k] else "thick"
        print(f"{k} ({tag}): {list(simplex)}")
    if args.svg_path and eg.intervals:
        data = eg.intervals[0]
        _emit_svg(args, data.disc.disc.complex, [poly_path_points(data.diagonal)])
    else:
        _emit_svg(args, X)
    return 0


def cmd_good(args) -> int:
    X = _load(args)
    u, v = _need_endpoints(args, X)
    _need_systolic(X)
    # make_good_geodesic certifies its path and raises GoodnessError otherwise
    good = make_good_geodesic(X, u, v, C=args.C)
    print(f"path: {good.path}")
    print(f"certificate max: {good.max_certificate} (bound C+1={args.C + 1})")
    print("good: True")
    return 0


def cmd_verify(args) -> int:
    config = SuiteConfig(seed=args.seed, count=args.count, C=getattr(args, "C", C_DEFAULT))
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
    # boundary_atlas's rule: valid when some vertex is labelled r, so 0 <= r;
    # O's whole component is swept only to word the error
    if args.radius not in dist_map(X, (O,), radius=args.radius).values():
        ecc = max(dist_map(X, (O,)).values())
        raise UsageError(f"--radius {args.radius} outside 0..{ecc}, the "
                         f"eccentricity of vertex {O}")
    _need_systolic(X)
    atlas = boundary_atlas(X, O, args.radius, D=args.D, C=args.C, cap=args.cap)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        unread = [f"--{name}" for name in _GEN_PARAMS
                  if hasattr(args, name) and name not in _GENERATORS[args.kind][1]]
        if unread:
            parser.error(f"gen --kind {args.kind} does not read {', '.join(unread)}")
    if args.command == "verify" and hasattr(args, "C") and args.suite not in _C_SUITES:
        parser.error(f"verify --suite {args.suite} does not read --C")
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
