"""Good geodesics, contracting checks, and finite-radius boundary atlases.

A good geodesic stays within C+1 of the Euclidean geodesic of every one of
its subsegments; boundary points at a finite truncation are classes of good
geodesics of length N under the all-indices threshold D = 3C + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complex import FlagComplex
from .eucgeo import euclidean_geodesic, thread_vertex_path
from .metric import dist, dist_map, graded_paths, is_geodesic_path

C_DEFAULT = 208          # universal constant serving both verification suites
D_DEFAULT = 3 * C_DEFAULT + 2

C_SAMPLES = tuple(Fraction(i, 8) for i in range(9))


class GoodnessError(ValueError):
    """A certificate failed where the construction guarantees it."""


@dataclass
class GoodGeodesic:
    path: list[int]
    C: int
    certificate: dict[tuple[int, int, int], int]  # (i, j, k) -> |v_k, delta_k^{i,j}|

    @property
    def max_certificate(self) -> int:
        return max(self.certificate.values(), default=0)


def is_good_geodesic(X: FlagComplex, path: list[int], C: int = C_DEFAULT):
    """Certify a 1-skeleton geodesic as good, or return the first violation.

    Returns (GoodGeodesic, None) or (None, witness (i, j, k, distance)).
    """
    return _certify(X, path, C, {})


def _certify(X: FlagComplex, path: list[int], C: int,
             memo: dict[tuple[int, int], list]):
    """is_good_geodesic, reading the Euclidean geodesic of each endpoint pair
    (path[i], path[j]) from `memo` (its deltas) and filling in the misses."""
    if not is_geodesic_path(X, path):
        raise ValueError("path is not a 1-skeleton geodesic")
    rows = [dist_map(X, (v,)) for v in path]
    cert: dict[tuple[int, int, int], int] = {}
    n = len(path) - 1
    for i in range(n):
        for j in range(i + 1, n + 1):
            deltas = memo.get((path[i], path[j]))
            if deltas is None:
                deltas = euclidean_geodesic(X, (path[i],), (path[j],)).deltas
                memo[(path[i], path[j])] = deltas
            for k in range(i, j + 1):
                row = rows[k]
                d = min(row[v] for v in deltas[k - i])
                cert[(i, j, k)] = d
                if d > C + 1:
                    return None, (i, j, k, d)
    return GoodGeodesic(list(path), C, cert), None


def make_good_geodesic(X: FlagComplex, v: int, w: int, C: int = C_DEFAULT) -> GoodGeodesic:
    """A good geodesic from v to w: thread the Euclidean geodesic between
    them and certify the result.  Certification failure is a hard error."""
    eg = euclidean_geodesic(X, (v,), (w,))
    path = thread_vertex_path(X, eg)
    good, witness = is_good_geodesic(X, path, C)
    if good is None:
        raise GoodnessError(f"threaded path failed its certificate at {witness}")
    return good


def contracting_check(X: FlagComplex, t: int, s: int, s2: int):
    """Max over sampled c of |r_[cn] r'_[cn']| - c*|s s'| for the threaded
    Euclidean geodesics from t to s and from t to s'."""
    eg1 = euclidean_geodesic(X, (t,), (s,))
    eg2 = euclidean_geodesic(X, (t,), (s2,))
    r1 = thread_vertex_path(X, eg1)
    r2 = thread_vertex_path(X, eg2)
    n1, n2 = eg1.n, eg2.n
    dss = dist(X, (s,), (s2,))
    worst = None
    details = []
    for c in C_SAMPLES:
        k1 = int(c * n1)
        k2 = int(c * n2)
        excess = Fraction(dist(X, (r1[k1],), (r2[k2],))) - c * dss
        details.append((c, excess))
        if worst is None or excess > worst:
            worst = excess
    return worst, details


def corollary_contr_check(X: FlagComplex, path_v: list[int], path_w: list[int]):
    """Max over sampled c of |v_[cn] w_[cm]| - c*|v_n w_m| for two good
    geodesics from a common basepoint."""
    if path_v[0] != path_w[0]:
        raise ValueError("paths must share their basepoint")
    n, m = len(path_v) - 1, len(path_w) - 1
    dend = dist(X, (path_v[-1],), (path_w[-1],))
    worst = None
    for c in C_SAMPLES:
        excess = Fraction(dist(X, (path_v[int(c * n)],), (path_w[int(c * m)],))) - c * dend
        if worst is None or excess > worst:
            worst = excess
    return worst


def rays_equivalent_truncated(X: FlagComplex, a: GoodGeodesic, b: GoodGeodesic,
                              D: int = D_DEFAULT):
    """("equivalent-so-far", None) or ("distinct", witness index).

    Distinct once some |v_i w_i| > D: linear amplification then separates the
    classes for good.  Requires the same basepoint and equal length.
    """
    if a.path[0] != b.path[0]:
        raise ValueError("rays have different basepoints")
    if len(a.path) != len(b.path):
        raise ValueError("truncated rays must have equal length")
    for i in range(len(a.path)):
        if dist(X, (a.path[i],), (b.path[i],)) > D:
            return "distinct", i
    return "equivalent-so-far", None


def in_standard_neighborhood(X: FlagComplex, zeta: GoodGeodesic, eta: GoodGeodesic,
                             N: int, R: int, D: int = D_DEFAULT) -> bool:
    """Membership of zeta in the standard neighborhood of eta at depth N and
    radius R (good geodesics from the same basepoint, |w_N v_N| <= R)."""
    if R <= D:
        raise ValueError(f"R must exceed D = {D}")
    if N < 1:
        raise ValueError("N must be >= 1")
    if zeta.path[0] != eta.path[0]:
        raise ValueError("rays have different basepoints")
    if len(zeta.path) - 1 < N or len(eta.path) - 1 < N:
        raise ValueError("rays too short for depth N")
    return dist(X, (zeta.path[N],), (eta.path[N],)) <= R


@dataclass
class BoundaryAtlas:
    basepoint: int
    N: int
    D: int
    rays: list[GoodGeodesic]
    classes: list[list[int]]             # indices into rays, closure of the relation
    raw_violations: int                  # transitivity failures of the raw relation
    rep_distance_matrix: list[list[int]]
    capped: bool


def boundary_atlas(X: FlagComplex, O: int, N: int, D: int = D_DEFAULT,
                   C: int = C_DEFAULT, cap: int = 20000) -> BoundaryAtlas:
    """Finite-radius boundary approximation at basepoint O.

    Enumerates good geodesics of length N from O (deterministic order,
    capped), partitions them by the closure of the all-indices threshold D,
    and reports raw-relation transitivity violations (a truncation artifact:
    the threshold relation is only transitive in the limit) plus the
    distance matrix of class representatives.

    One call builds each endpoint pair's Euclidean geodesic once for all its
    rays, and classes them with int bitsets: the rays related to ray a are
    the AND over i of the rays whose i-th vertex lies within D of a's.
    """
    ecc_map = dist_map(X, (O,))
    if N > max(ecc_map.values()):
        raise ValueError(f"N exceeds the eccentricity of {O}")
    paths, capped = graded_paths(X, O, ecc_map, 1, N, cap)
    memo: dict[tuple[int, int], list] = {}
    rays = []
    for p in paths:
        good, _ = _certify(X, p, C, memo)
        if good is not None:
            rays.append(good)

    full = (1 << len(rays)) - 1
    related = [full] * len(rays)
    for i in range(N + 1):
        groups: dict[int, int] = {}
        for a, ray in enumerate(rays):
            groups[ray.path[i]] = groups.get(ray.path[i], 0) | 1 << a
        near = {}
        for v in groups:
            row = dist_map(X, (v,))
            # the groups are disjoint, so their sum is their union
            near[v] = sum(members for w, members in groups.items() if row[w] <= D)
        for a, ray in enumerate(rays):
            related[a] &= near[ray.path[i]]

    classes = []
    unclassed = full
    while unclassed:
        cls = frontier = unclassed & -unclassed
        while frontier:
            reached = 0
            for a in _bits(frontier):
                reached |= related[a]
            frontier = reached & ~cls
            cls |= frontier
        unclassed &= ~cls
        classes.append(_bits(cls))

    violations = 0
    for b in range(len(rays)):
        above = related[b] >> (b + 1) << (b + 1)
        if above:
            for a in _bits(related[b] & ((1 << b) - 1)):
                violations += (above & ~related[a]).bit_count()

    reps = [rays[g[0]].path[N] for g in classes]
    matrix = [[dist_map(X, (p,))[q] for q in reps] for p in reps]
    return BoundaryAtlas(O, N, D, rays, classes, violations, matrix, capped)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def atlas_report(atlas: BoundaryAtlas, as_json: bool = False) -> str:
    """Deterministic plain-text or JSON dump of an atlas."""
    if as_json:
        import json
        return json.dumps({
            "basepoint": atlas.basepoint,
            "N": atlas.N,
            "D": atlas.D,
            "ray_count": len(atlas.rays),
            "capped": atlas.capped,
            "classes": atlas.classes,
            "raw_transitivity_violations": atlas.raw_violations,
            "representative_distances": atlas.rep_distance_matrix,
        }, sort_keys=True, indent=2) + "\n"
    lines = [
        f"atlas basepoint={atlas.basepoint} N={atlas.N} D={atlas.D}",
        f"rays={len(atlas.rays)} capped={atlas.capped}",
        f"classes={len(atlas.classes)} raw-transitivity-violations={atlas.raw_violations}",
        "class representatives are lexicographically least rays (truncation-dependent)",
    ]
    for idx, cls in enumerate(atlas.classes):
        rep = atlas.rays[cls[0]].path
        lines.append(f"class {idx}: size={len(cls)} rep={rep}")
    lines.append("representative distance matrix:")
    for row in atlas.rep_distance_matrix:
        lines.append("  " + " ".join(f"{d:3d}" for d in row))
    return "\n".join(lines) + "\n"
