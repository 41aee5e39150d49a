"""Euclidean geodesics: symmetric, CAT(0)-like simplex sequences.

Between simplices sigma, tau (each inside the n-sphere of the other), thin
layers contribute the span of the two directed-geodesic members; each thick
interval contributes the characteristic images of the simplices nearest the
exact CAT(0) diagonal of its flat characteristic disc.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .charsurf import CharDisc, _surface, build_char_disc, characteristic_image
from .complex import FlagComplex, Simplex
from .flatgeom import PolyPath, polygon_geodesic
from .lattice import RowStack
from .layers import ThicknessProfile, _profile, thickness_profile
from .metric import _directed, _interval, _project, dist, dist_map, spans_simplex


@dataclass
class ThickIntervalData:
    disc: CharDisc
    surface: dict[int, int]
    diagonal: PolyPath           # exact crossings of the CAT(0) diagonal
    rho: dict[int, Simplex]      # disc simplices nearest the diagonal, per layer


@dataclass
class EuclideanGeodesic:
    sigma: Simplex
    tau: Simplex
    n: int
    profile: ThicknessProfile
    deltas: list[Simplex]
    intervals: list[ThickIntervalData]


class _Pieces:
    """The pieces of Euclidean geodesics on one complex X that depend only
    on a key read off the build, so that builds sharing a key share them:

    * `steps[end]`: simplex s -> its projection onto B_k(end), where
      k = d(s, end) - 1, a step toward either end of a build (`_directed`);
    * `widths`: (sigma_k, tau_k) -> (width, realizing pairs, span) of a
      layer with those members (`layers._profile`);
    * `rows`: (s_k, t_k) -> the walk of the row geodesics between those
      ends, an `itertools.tee` that is never advanced; each search for a
      disc's least surface reads a copy of it, which replays what earlier
      searches pulled (`charsurf._surface`);
    * `shapes`: (first row, rows) of a characteristic disc's `RowStack`
      -> its `cat0_diagonal` and `euclidean_diagonal`.  Both read those
      alone, the rows in absolute half-units, never X, so discs of one
      shape share them.  The key holds no stack, whose cached fields would
      live as long as the memo.

    `euclidean_geodesic` makes a fresh one per build; a certificate or an
    atlas keeps one for all its builds (`boundary._CertMemo`, which says
    why each piece is a function of X and its key there)."""

    __slots__ = ("steps", "widths", "rows", "shapes")

    def __init__(self):
        self.steps: dict[Simplex, dict[Simplex, Simplex]] = {}
        self.widths: dict[tuple[Simplex, Simplex], tuple] = {}
        self.rows: dict[tuple[int, int], Iterator[list[int]]] = {}
        self.shapes: dict[tuple, tuple[PolyPath, dict[int, Simplex]]] = {}


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


def euclidean_diagonal(cd: CharDisc, diagonal: PolyPath) -> dict[int, Simplex]:
    """Per interior layer: the interior row vertex (or interior edge, on an
    exact barycenter tie) nearest the crossing of `diagonal`, the disc's
    `cat0_diagonal`; never the row endpoints."""
    i, j = cd.interval
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
    """The Euclidean geodesic between simplices sigma and tau.

    I(sigma, tau) is found once (`_interval`), by sigma's and tau's sweeps,
    grown to B_a(sigma) and B_b(tau) with a + b = n = d(sigma, tau) and
    walked from the middle level; `_euclidean` builds on its layer map,
    with pieces of its own.

    On input that is not systolic it can raise, besides ValueError for ends
    that are not simplices or lie in different components: ProjectionError
    from a directed geodesic; ValueError when the ends do not lie in each
    other's n-sphere; CharDiscError from a characteristic disc or image;
    SurfaceError when no surface fills a disc.  Each is a ValueError, the
    builds keep their checks, and `check`'s verdict rules them out.
    """
    sigma, tau = _ends(X, sigma, tau)
    n, level = _interval(X, sigma, tau)
    return _euclidean(X, sigma, tau, n, level, partial(_project, X, level), _Pieces())


def _ends(X: FlagComplex, sigma, tau) -> tuple[Simplex, Simplex]:
    """sigma and tau as sorted vertex tuples (a lone int is one vertex): a
    ValueError unless both are simplices of X."""
    sigma = tuple(sorted(sigma)) if not isinstance(sigma, int) else (sigma,)
    tau = tuple(sorted(tau)) if not isinstance(tau, int) else (tau,)
    if not X.is_simplex(sigma) or not X.is_simplex(tau):
        raise ValueError("endpoints must be simplices")
    return sigma, tau


def _euclidean(X: FlagComplex, sigma: Simplex, tau: Simplex, n: int, level,
               project: Callable[[Simplex, int], Simplex], pieces: _Pieces) -> EuclideanGeodesic:
    """The Euclidean geodesic between simplices sigma and tau, sorted, at
    distance n, with `level` exactly the layer map d(sigma, .) on
    I(sigma, tau), read by `level.get`, and `project` the step kernel of
    its directed geodesics (`_directed`), reading and filling in `pieces`.
    A one-off build passes a dict and `metric._project` on it; a
    certificate's builds pass one `boundary._ConeLayer` as both.

    Each endpoint must lie in the other's n-sphere.  A simplex's vertices
    lie within 1 of each other, so the directed geodesic from sigma has
    n + 1 members when sigma lies in S_n(tau), and n + 2 when it meets
    S_{n+1}(tau) too: the two lengths decide the condition.  At n = 0 it
    makes each endpoint a face of the other, so sigma = tau.

    Both directed geodesics and every characteristic image read `level`:
    sigma's steps from label 0 to n, tau's from n to 0, each with every
    projection and ProjectionError of a full sweep of its far end
    (`_interval`).  `_profile` skips `thickness_profile`'s checks, which
    hold by construction: members are nonempty (an inner part keeps the
    vertices n from the other end, an empty projection raises);
    consecutive ones span cliques (each is a face, or common neighbours, of
    the one before); and tau_0, tau's last projection, lies in
    B_0(sigma) = sigma, and sigma_n in tau, so the ends are S = sigma and
    T = tau, n apart.  So each thin delta_k lies in layer k; a thick one is
    the `characteristic_image` of row-interior disc vertices, which keeps
    only layer-k candidates and raises if empty.  A disc's diagonal and
    its nearest simplices are read from `pieces.shapes` by its shape.
    """
    steps, widths, shapes = pieces.steps, pieces.widths, pieces.shapes
    sigma_seq = _directed(sigma, level, 0, n, steps.setdefault(tau, {}), project)
    tau_seq = _directed(tau, level, n, 0, steps.setdefault(sigma, {}), project)[::-1]
    if len(sigma_seq) != n + 1 or len(tau_seq) != n + 1:
        raise ValueError("endpoints must lie inside each other's n-sphere")
    profile = _profile(X, sigma_seq, tau_seq, widths)

    # a thin delta_k is the span of the members, kept with their width
    deltas: list[Simplex | None] = [widths[key][2] if thin else None
                                    for key, thin in zip(zip(sigma_seq, tau_seq), profile.thin)]

    intervals = []
    for (i, j) in profile.thick_intervals:
        cd = build_char_disc(X, profile, (i, j))
        surface = _surface(X, cd, pieces.rows)
        key = cd.stack.first_row, cd.stack.rows
        shape = shapes.get(key)
        if shape is None:
            diagonal = cat0_diagonal(cd)
            shape = shapes[key] = diagonal, euclidean_diagonal(cd, diagonal)
        diagonal, rho = shape
        for k, rho_k in rho.items():
            deltas[k] = characteristic_image(X, level, cd, surface, rho_k)
        intervals.append(ThickIntervalData(cd, surface, diagonal, rho))

    return EuclideanGeodesic(sigma, tau, n, profile, deltas, intervals)


def thread_vertex_path(X: FlagComplex, eg: EuclideanGeodesic) -> list[int]:
    """A 1-skeleton geodesic r_0..r_n with r_k in delta_k (least choices).

    A ValueError names k, delta_k and r_{k-1} when no vertex of delta_k
    neighbours r_{k-1}, which systolic input rules out."""
    r = [eg.deltas[0][0]]
    try:
        for k in range(1, eg.n + 1):
            r.append(min(v for v in eg.deltas[k] if X.is_edge(r[-1], v)))
    except ValueError:  # min() found no neighbour; the try costs nothing per step
        raise ValueError(f"no vertex of delta_{k} = {eg.deltas[k]} neighbours "
                         f"the path's last vertex {r[-1]}") from None
    return r


def verify_euc_properties(X: FlagComplex, eg: EuclideanGeodesic) -> dict:
    """Sphere containments for all index pairs, simplex spanning across
    thick layers, exact vertex distances through thick stretches, and
    reversal symmetry.  Failures are report entries."""
    failures = []
    n = eg.n
    # every sphere checked has radius at most n, so each sweep stops there
    dmaps = [dist_map(X, d, radius=n) for d in eg.deltas]
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
                    dm = dist_map(X, (x,), radius=m - l)
                    if any(dm.get(y) != m - l for y in eg.deltas[l]):
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
    ends = _subsegment_ends(X, eg, mode)
    return _subsegment_drift(X, eg, l, m, ends[l], ends[m])


def _subsegment_ends(X: FlagComplex, eg: EuclideanGeodesic, mode: str) -> list[Simplex]:
    """Per index k, the end a subsegment takes there: delta_k (weak), or r_k
    of the path threaded once (strong)."""
    if mode == "weak":
        return eg.deltas
    if mode == "strong":
        return [(v,) for v in thread_vertex_path(X, eg)]
    raise ValueError(f"unknown mode {mode!r}")


def _subsegment_drift(X: FlagComplex, eg: EuclideanGeodesic, l: int, m: int,
                      a: Simplex, b: Simplex) -> tuple[int, list[int]]:
    """`subsegment_check` of (l, m) between its ends a and b."""
    sub = euclidean_geodesic(X, a, b)
    dists = [dist(X, eg.deltas[l + k], sub.deltas[k]) for k in range(m - l + 1)]
    return max(dists), dists


def cat0_closeness_check(X: FlagComplex, p_path: list[int],
                         eg: EuclideanGeodesic) -> Fraction:
    """Max horizontal distance between the CAT(0) diagonal of each thick
    interval for (p_k), (r_k) and the r-side boundary rows, where r threads
    the Euclidean geodesic.  `thickness_profile` checks that p runs through
    the layers between {p_0, r_0} and {p_n, r_n}, faces of sigma and tau at
    distance n = d(sigma, tau): so p runs between sigma and tau."""
    r_path = thread_vertex_path(X, eg)
    if len(p_path) != len(r_path):
        raise ValueError("paths must have equal length")
    if p_path[0] not in eg.sigma or p_path[-1] not in eg.tau:
        raise ValueError("p must join the same endpoint simplices")
    p_seq = [(v,) for v in p_path]
    r_seq = [(v,) for v in r_path]
    profile = thickness_profile(X, p_seq, r_seq)
    worst = Fraction(0)
    for (i, j) in profile.thick_intervals:
        cd = build_char_disc(X, profile, (i, j))
        diag = cat0_diagonal(cd)
        for k, (_, hi) in enumerate(cd.stack.rows, start=i):
            worst = max(worst, abs(diag.x_at(k) - Fraction(hi, 2)))
    return worst
