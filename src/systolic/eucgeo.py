"""Euclidean geodesics: symmetric, CAT(0)-like simplex sequences.

Between simplices sigma, tau (each inside the n-sphere of the other), thin
layers contribute the span of the two directed-geodesic members; each thick
interval contributes the characteristic images of the simplices nearest the
exact CAT(0) diagonal of its flat characteristic disc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charsurf import CharDisc, build_char_disc, build_char_surface, characteristic_image
from .complex import FlagComplex, Simplex
from .flatgeom import PolyPath, polygon_geodesic
from .lattice import RowStack
from .layers import ThicknessProfile, thickness_profile
from .metric import dist, dist_map, directed_geodesic, spans_simplex


@dataclass
class ThickIntervalData:
    interval: tuple[int, int]
    disc: CharDisc
    surface: dict[int, int]
    diagonal: PolyPath           # exact crossings of the CAT(0) diagonal
    rho: dict[int, Simplex]      # disc simplices nearest the diagonal, per layer


@dataclass
class EuclideanGeodesic:
    sigma: Simplex
    tau: Simplex
    n: int
    sigma_seq: list[Simplex]
    tau_seq: list[Simplex]
    profile: ThicknessProfile
    deltas: list[Simplex]
    intervals: list[ThickIntervalData]


def modified_disc(cd: CharDisc) -> RowStack:
    """Corner-trimmed disc: every row loses 1/2 on each side, so endpoint
    rows of a standard thick interval collapse to edge barycenters."""
    return RowStack(cd.interval[0], tuple((lo + 1, hi - 1) for lo, hi in cd.stack.rows))


def cat0_diagonal(cd: CharDisc) -> PolyPath:
    """Exact CAT(0) geodesic of the modified disc between its endpoints."""
    md = modified_disc(cd)
    (lo0, hi0), (lom, him) = md.rows[0], md.rows[-1]
    if lo0 != hi0 or lom != him:
        raise ValueError("diagonal endpoints require point rows (thin endpoints)")
    return polygon_geodesic(md, (md.first_row, Fraction(lo0, 2)),
                            (md.last_row, Fraction(lom, 2)))


def euclidean_diagonal(cd: CharDisc, diagonal: PolyPath | None = None) -> dict[int, Simplex]:
    """Per interior layer: the interior row vertex (or interior edge, on an
    exact barycenter tie) nearest the diagonal's crossing; never the row
    endpoints."""
    i, j = cd.interval
    if diagonal is None:
        diagonal = cat0_diagonal(cd)
    out: dict[int, Simplex] = {}
    for k in range(i + 1, j):
        rel = k - i
        a = cd.stack.widths[rel]
        if a < 2:
            raise AssertionError(f"interior layer {k} of a thick interval has width {a}")
        x = diagonal.x_at(k)
        # the crossing sits t / den lattice steps right of the row's left end
        den = 2 * x.denominator
        t = 2 * x.numerator - cd.stack.rows[rel][0] * x.denominator
        ids = cd.stack.ids[rel]
        gaps = {h: abs(t - h * den) for h in range(1, a)}
        nearest = min(gaps.values())
        # two interior vertices tie only at the barycenter of their edge
        out[k] = tuple(ids[h] for h, gap in gaps.items() if gap == nearest)
    return out


def euclidean_geodesic(X: FlagComplex, sigma, tau) -> EuclideanGeodesic:
    """The Euclidean geodesic between simplices sigma and tau."""
    sigma = tuple(sorted(sigma)) if not isinstance(sigma, int) else (sigma,)
    tau = tuple(sorted(tau)) if not isinstance(tau, int) else (tau,)
    if not X.is_simplex(sigma) or not X.is_simplex(tau):
        raise ValueError("endpoints must be simplices")
    n = dist(X, sigma, tau)
    # every layer between sigma and tau lies within n of both
    ds, dt = dist_map(X, sigma, radius=n), dist_map(X, tau, radius=n)
    if any(dt.get(v) != n for v in sigma) or any(ds.get(v) != n for v in tau):
        raise ValueError("endpoints must lie inside each other's n-sphere")
    if n == 0:
        if sigma != tau:
            raise ValueError("distinct simplices at distance 0")
        prof = thickness_profile(X, [sigma], [tau])
        return EuclideanGeodesic(sigma, tau, 0, [sigma], [tau], prof, [sigma], [])

    sigma_seq = directed_geodesic(X, sigma, frozenset(tau))
    tau_seq = list(reversed(directed_geodesic(X, tau, frozenset(sigma))))
    profile = thickness_profile(X, sigma_seq, tau_seq, sigma=sigma, tau=tau)

    deltas: list[Simplex | None] = [None] * (n + 1)
    for k in range(n + 1):
        if profile.thin[k]:
            deltas[k] = tuple(sorted(set(sigma_seq[k]) | set(tau_seq[k])))

    intervals = []
    for (i, j) in profile.thick_intervals:
        cd = build_char_disc(X, sigma_seq, tau_seq, (i, j))
        surface = build_char_surface(X, cd)
        diagonal = cat0_diagonal(cd)
        rho = euclidean_diagonal(cd, diagonal)
        for k, rho_k in rho.items():
            deltas[k] = characteristic_image(X, sigma, tau, cd, surface, rho_k)
        intervals.append(ThickIntervalData((i, j), cd, surface, diagonal, rho))

    for k, d in enumerate(deltas):
        if any(ds.get(v) != k or dt.get(v) != n - k for v in d):
            raise AssertionError(f"delta_{k} leaves layer {k}")
    assert deltas[0] == sigma and deltas[n] == tau
    return EuclideanGeodesic(sigma, tau, n, sigma_seq, tau_seq, profile,
                             deltas, intervals)


def thread_vertex_path(X: FlagComplex, eg: EuclideanGeodesic) -> list[int]:
    """A 1-skeleton geodesic r_0..r_n with r_k in delta_k (least choices)."""
    r = [eg.deltas[0][0]]
    for k in range(1, eg.n + 1):
        nxt = min(v for v in eg.deltas[k] if X.is_edge(r[-1], v))
        r.append(nxt)
    return r


def verify_euc_properties(X: FlagComplex, eg: EuclideanGeodesic) -> dict:
    """Sphere containments for all index pairs, simplex spanning across
    thick layers, exact vertex distances through thick stretches, and
    reversal symmetry.  Failures are report entries."""
    failures = []
    n = eg.n
    dmaps = [dist_map(X, d) for d in eg.deltas]
    for k in range(n + 1):
        for l in range(k + 1, n + 1):
            if any(dmaps[l].get(v) != l - k for v in eg.deltas[k]):
                failures.append(f"delta_{k} not inside S_{l - k}(delta_{l})")
            if any(dmaps[k].get(v) != l - k for v in eg.deltas[l]):
                failures.append(f"delta_{l} not inside S_{l - k}(delta_{k})")
    for k in range(n):
        if not (eg.profile.thin[k] and eg.profile.thin[k + 1]):
            if not spans_simplex(X, eg.deltas[k], eg.deltas[k + 1]):
                failures.append(f"delta_{k}, delta_{k + 1} do not span a simplex")
    for l in range(n + 1):
        for m in range(l + 1, n + 1):
            if any(not eg.profile.thin[k] for k in range(l, m + 1)):
                for x in eg.deltas[m]:
                    dm = dist_map(X, (x,))
                    if any(dm[y] != m - l for y in eg.deltas[l]):
                        failures.append(f"vertex distances between layers {l},{m} "
                                        f"are not all {m - l}")
                        break
    rev = euclidean_geodesic(X, eg.tau, eg.sigma)
    if rev.deltas != list(reversed(eg.deltas)):
        failures.append("reversal does not reverse the simplex sequence")
    return {"n": n, "failures": failures, "ok": not failures}


def subsegment_check(X: FlagComplex, eg: EuclideanGeodesic, l: int, m: int,
                     mode: str = "weak") -> tuple[int, list[int]]:
    """Rebuild the Euclidean geodesic of a subsegment and measure drift.

    weak: between the simplices delta_l, delta_m.  strong: between vertices
    r_l, r_m of the threaded 1-skeleton geodesic (`thread_vertex_path`).
    Returns (max over k of the distance between delta_k and the
    subsegment's simplex at k, per-k distances).
    """
    if not 0 <= l < m <= eg.n:
        raise ValueError("need 0 <= l < m <= n")
    if mode == "weak":
        a, b = eg.deltas[l], eg.deltas[m]
    elif mode == "strong":
        r = thread_vertex_path(X, eg)
        a, b = (r[l],), (r[m],)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sub = euclidean_geodesic(X, a, b)
    dists = [dist(X, eg.deltas[l + k], sub.deltas[k]) for k in range(m - l + 1)]
    return max(dists), dists


def cat0_closeness_check(X: FlagComplex, p_path: list[int],
                         eg: EuclideanGeodesic) -> Fraction:
    """Max horizontal distance between the CAT(0) diagonal of each thick
    interval for (p_k), (r_k) and the r-side boundary rows, where r threads
    the Euclidean geodesic."""
    r_path = thread_vertex_path(X, eg)
    if len(p_path) != len(r_path):
        raise ValueError("paths must have equal length")
    if p_path[0] not in eg.sigma or p_path[-1] not in eg.tau:
        raise ValueError("p must join the same endpoint simplices")
    p_seq = [(v,) for v in p_path]
    r_seq = [(v,) for v in r_path]
    profile = thickness_profile(X, p_seq, r_seq, sigma=eg.sigma, tau=eg.tau)
    worst = Fraction(0)
    for (i, j) in profile.thick_intervals:
        cd = build_char_disc(X, p_seq, r_seq, (i, j))
        diag = cat0_diagonal(cd)
        for k, (_, hi) in enumerate(cd.stack.rows, start=i):
            worst = max(worst, abs(diag.x_at(k) - Fraction(hi, 2)))
    return worst
