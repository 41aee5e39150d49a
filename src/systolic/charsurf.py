"""Characteristic discs, surfaces, images, and the minimal-surface oracle.

A characteristic disc for a thick interval is the flat disc spanned on the
loop through distance-maximizing representatives of the two simplex
sequences; its shape is determined by the per-layer widths |s_k t_k| and the
consecutive offsets read off |s_k t_{k+1}|.  It is kept as that integer row
stack, checked by one shape rule (`check_row_stack`); disc vertex ids, row
neighbours and cross-row edges are index arithmetic on it.  The disc as a
triangulated complex is a view built on first use, for audits and rendering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .complex import FlagComplex, Simplex
from .flatgeom import TriangulatedDisc, as_disc
from .generators import gen_flat_region
from .lattice import HALF
from .metric import dist, dist_map, all_geodesics


class CharDiscError(ValueError):
    """Disc construction failed; falsifies systolicity or the preconditions."""


class SurfaceError(ValueError):
    """No simplicial filling realizes the disc; reported loudly."""


@dataclass
class CharDisc:
    """Flat disc of a thick interval as a lattice row stack.

    Row k (interval start i <= k <= j) spans [left_x[k-i], left_x[k-i] +
    widths[k-i]] on lattice row k, and consecutive left ends differ by 1/2;
    `rows_ids` lists the disc vertex ids of each row left to right, numbered
    row by row from 0; the boundary rows map to s/t under any
    characteristic surface.
    """
    interval: tuple[int, int]
    s: list[int]
    t: list[int]
    widths: list[int]
    left_x: list[Fraction]
    rows_ids: list[list[int]]
    sigma_seq: list[Simplex]
    tau_seq: list[Simplex]
    thin_endpoints: bool

    @cached_property
    def disc(self) -> TriangulatedDisc:
        """The disc as a validated triangulated complex (built on first use)."""
        return as_disc(gen_flat_region(
            [(lx, lx + a) for lx, a in zip(self.left_x, self.widths)],
            first_row=self.interval[0]))

    @property
    def complex(self) -> FlagComplex:
        return self.disc.complex

    def shape(self) -> tuple:
        """Isometry-invariant shape key (widths plus offset pattern)."""
        offs = tuple(b - a for a, b in zip(self.left_x, self.left_x[1:]))
        return (tuple(self.widths), offs)

    def place(self, vid: int) -> tuple[int, int]:
        """(row relative to the interval start, index in the row) of vid."""
        for k, ids in enumerate(self.rows_ids):
            if ids[0] <= vid <= ids[-1]:
                return k, vid - ids[0]
        raise ValueError(f"{vid} is not a disc vertex")

    def row_of(self, vid: int) -> int:
        return self.interval[0] + self.place(vid)[0]

    def is_left_boundary(self, vid: int) -> bool:
        return self.place(vid)[1] == 0

    def is_right_boundary(self, vid: int) -> bool:
        k, idx = self.place(vid)
        return idx == self.widths[k]

    def neighbours(self, vid: int) -> set[int]:
        """Disc vertices adjacent to vid."""
        k, a = self.place(vid)
        ids = self.rows_ids
        out = {ids[k][b] for b in (a - 1, a + 1) if 0 <= b <= self.widths[k]}
        if k > 0:
            out |= {ids[k - 1][p] for p, q in _cross_pairs(self, k - 1) if q == a}
        if k + 1 < len(ids):
            out |= {ids[k + 1][q] for p, q in _cross_pairs(self, k) if p == a}
        return out


def check_row_stack(widths, left_x, first_row: int) -> None:
    """The shape rule of a characteristic disc, whose left ends step by 1/2.

    The stack spans a flat disc on its defining loop (wide when its end
    rows are thin) iff its right ends step by 1/2 too and thin end rows
    enclose at least one row.  Raises CharDiscError naming the rows.
    """
    if widths[0] == widths[-1] == 1 and len(widths) < 3:
        raise CharDiscError(f"rows {first_row}..{first_row + 1}: thin end rows "
                            "need a row between them")
    for k in range(len(widths) - 1):
        step = 2 * (left_x[k + 1] + widths[k + 1] - left_x[k] - widths[k])
        if abs(step) != 1:
            raise CharDiscError(f"rows {first_row + k} and {first_row + k + 1}: "
                                f"right ends step {step} half-units")


def _maximizing_pairs(X: FlagComplex, sigma: Simplex, tau: Simplex):
    best = -1
    pairs = []
    for s in sigma:
        dm = dist_map(X, (s,))
        for t in tau:
            d = dm[t]
            if d > best:
                best, pairs = d, [(s, t)]
            elif d == best:
                pairs.append((s, t))
    return best, sorted(pairs)


def build_char_disc(X: FlagComplex, sigma_seq, tau_seq, interval,
                    tie_seed: int | None = None) -> CharDisc:
    """Characteristic disc for a thick interval of (sigma_seq, tau_seq).

    Representatives s_k, t_k maximize |s_k t_k| per layer; ties break to the
    lexicographically smallest pair, or to a seeded random maximizing pair
    when `tie_seed` is given (the shape is choice-independent either way).
    Also accepts a partial interval whose layers all have thickness >= 2.
    """
    i, j = interval
    sigma_seq = [tuple(sorted(s)) for s in sigma_seq]
    tau_seq = [tuple(sorted(t)) for t in tau_seq]
    if not 0 <= i < j <= len(sigma_seq) - 1:
        raise ValueError(f"bad interval {interval}")
    rng = random.Random(tie_seed) if tie_seed is not None else None

    widths, s_rep, t_rep = [], [], []
    for k in range(i, j + 1):
        a, pairs = _maximizing_pairs(X, sigma_seq[k], tau_seq[k])
        pick = rng.choice(pairs) if rng is not None else pairs[0]
        widths.append(a)
        s_rep.append(pick[0])
        t_rep.append(pick[1])

    thin_endpoints = widths[0] == 1 and widths[-1] == 1
    interior = widths[1:-1] if thin_endpoints else widths
    if any(a < 2 for a in interior):
        raise CharDiscError(f"interval {interval} has a thin interior layer")
    if thin_endpoints:
        for k in (0, len(widths) - 1):
            if set(sigma_seq[i + k]) & set(tau_seq[i + k]):
                raise CharDiscError(
                    f"endpoint layer {i + k} members intersect; not a thick interval")

    left_x = [Fraction(0) if i % 2 == 0 else HALF]
    for k in range(len(widths) - 1):
        b = dist(X, (s_rep[k],), (t_rep[k + 1],))
        if b == widths[k + 1] + 1:
            off = HALF
        elif b == widths[k + 1]:
            off = -HALF
        else:
            raise CharDiscError(
                f"|s_{i + k} t_{i + k + 1}| = {b} incompatible with width {widths[k + 1]}")
        left_x.append(left_x[-1] + off)
    check_row_stack(widths, left_x, i)

    rows_ids, start = [], 0
    for a in widths:
        rows_ids.append(list(range(start, start + a + 1)))
        start += a + 1
    return CharDisc((i, j), s_rep, t_rep, widths, left_x, rows_ids,
                    sigma_seq[i:j + 1], tau_seq[i:j + 1], thin_endpoints)


def _cross_pairs(cd: CharDisc, k: int) -> list[tuple[int, int]]:
    """Disc edges between row k and row k+1 (relative indices): a row shifted
    right by 1/2 meets index a at a-1 and a, one shifted left at a and a+1."""
    lo = -1 if cd.left_x[k + 1] > cd.left_x[k] else 0
    return [(a, b) for a in range(cd.widths[k] + 1)
            for b in (a + lo, a + lo + 1) if 0 <= b <= cd.widths[k + 1]]


def _surfaces(X: FlagComplex, cd: CharDisc, cap: int = 10000):
    """Characteristic surfaces on the disc's boundary representatives:
    backtracking over per-row geodesics s_k..t_k, bottom-up, lexicographic."""
    rows = []
    for s, t in zip(cd.s, cd.t):
        paths, truncated = all_geodesics(X, s, t, cap)
        if truncated:
            raise SurfaceError("geodesic enumeration cap hit; raise the cap")
        rows.append(sorted(paths))
    crosses = [_cross_pairs(cd, k) for k in range(len(cd.widths) - 1)]

    def extend(chosen):
        k = len(chosen)
        if k == len(rows):
            yield {vid: chosen[r][idx]
                   for r, ids in enumerate(cd.rows_ids)
                   for idx, vid in enumerate(ids)}
            return
        for path in rows[k]:
            if k > 0:
                prev = chosen[-1]
                if any(not X.is_edge(prev[a], path[b]) for a, b in crosses[k - 1]):
                    continue
            chosen.append(path)
            yield from extend(chosen)
            chosen.pop()

    return extend([])


def build_char_surface(X: FlagComplex, cd: CharDisc) -> dict[int, int]:
    """A characteristic surface realizing the disc: maps each disc vertex to
    a complex vertex so rows land on 1-skeleton geodesics s_k..t_k and every
    disc edge maps to an edge."""
    for surface in _surfaces(X, cd):
        return surface
    raise SurfaceError(f"no surface fills the disc for interval {cd.interval}")


def enumerate_char_surfaces(X: FlagComplex, cd: CharDisc, limit: int = 100000):
    """All characteristic surfaces (oracle-grade, small discs only), over
    every choice of thickness-realizing boundary representatives."""
    count = 0
    choices = [_maximizing_pairs(X, sig, tau)[1]
               for sig, tau in zip(cd.sigma_seq, cd.tau_seq)]
    for combo in product(*choices):
        alt = replace(cd, s=[c[0] for c in combo], t=[c[1] for c in combo])
        for surface in _surfaces(X, alt):
            yield surface
            count += 1
            if count >= limit:
                raise SurfaceError("surface enumeration limit hit")


def characteristic_image(X: FlagComplex, sigma, tau, cd: CharDisc,
                         surface: dict[int, int], rho) -> Simplex:
    """Span of the images of the disc simplex rho over all characteristic
    surfaces, via single-vertex substitutions off one base surface.

    Interior disc vertices: layer-k vertices adjacent to the base images of
    all disc neighbors.  Boundary vertices: the thickness-realizing vertices
    of the corresponding sequence member.  The result is validated to be a
    simplex.
    """
    rho = tuple(sorted(rho))
    if not rho or any(b not in cd.neighbours(a) for a, b in combinations(rho, 2)):
        raise ValueError(f"{rho} is not a simplex of the disc")
    n = dist(X, sigma, tau)
    ds, dt = dist_map(X, sigma), dist_map(X, tau)
    out: set[int] = set()
    for u in rho:
        k = cd.row_of(u)
        rel = k - cd.interval[0]
        if cd.is_left_boundary(u):
            t_k = cd.t[rel]
            cands = {z for z in cd.sigma_seq[rel]
                     if dist(X, (z,), (t_k,)) == cd.widths[rel]}
        elif cd.is_right_boundary(u):
            s_k = cd.s[rel]
            cands = {z for z in cd.tau_seq[rel]
                     if dist(X, (s_k,), (z,)) == cd.widths[rel]}
        else:
            nbs = [surface[w] for w in cd.neighbours(u)]
            common = set.intersection(*(set(X.adjacency[img]) for img in nbs))
            cands = {z for z in common if ds.get(z) == k and dt.get(z) == n - k}
        out |= cands
    image = tuple(sorted(out))
    if not X.is_simplex(image):
        raise CharDiscError(f"characteristic image of {rho} is not a simplex: {image}")
    return image


def char_image_oracle(X: FlagComplex, cd: CharDisc, rho, limit: int = 100000) -> Simplex:
    """Span of images of rho over exhaustively enumerated surfaces."""
    rho = tuple(sorted(rho))
    out: set[int] = set()
    for surf in enumerate_char_surfaces(X, cd, limit):
        out |= {surf[u] for u in rho}
    return tuple(sorted(out))


def char_preimage(X: FlagComplex, sigma, tau, cd: CharDisc,
                  surface: dict[int, int], x: int) -> int:
    """The unique disc vertex whose characteristic image contains x.

    Decodes by layer and image membership; ambiguity or absence raises (the
    preimage is single-valued on the characteristic image).
    """
    n = dist(X, sigma, tau)
    k = dist(X, (x,), sigma)
    if dist(X, (x,), tau) != n - k or not cd.interval[0] <= k <= cd.interval[1]:
        raise ValueError(f"vertex {x} lies outside the disc's layers")
    matches = [u for u in cd.rows_ids[k - cd.interval[0]]
               if x in characteristic_image(X, sigma, tau, cd, surface, (u,))]
    if len(matches) != 1:
        raise CharDiscError(f"preimage of {x} is not unique: {matches}")
    return matches[0]


# ---------------------------------------------------------------------------
# Minimal-surface search (oracle-grade).


@dataclass(frozen=True)
class FillingResult:
    area: int | None
    triangles: tuple[Simplex, ...] | None
    capped: bool


def _canon_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    m = len(cycle)
    best = None
    for rev in (cycle, cycle[::-1]):
        for r in range(m):
            rot = rev[r:] + rev[:r]
            if best is None or rot < best:
                best = rot
    return best


def minimal_surface_bruteforce(X: FlagComplex, loop, max_area: int = 24) -> FillingResult:
    """Minimum-area simplicial disc spanned on an embedded loop.

    Recursion on the triangle attached to a fixed edge of the hole: ears,
    chord splits (memoized on the canonical cycle), or an interior vertex
    insertion.  Explores fillings whose intermediate boundaries stay
    embedded; exhaustive at oracle scale, capped by `max_area`.
    """
    loop = tuple(loop)
    if len(loop) < 3 or len(set(loop)) != len(loop):
        raise ValueError("loop must be an embedded cycle")
    for a, b in zip(loop, loop[1:] + loop[:1]):
        if not X.is_edge(a, b):
            raise ValueError(f"loop edge ({a}, {b}) missing")

    memo: dict[tuple, tuple[int, object]] = {}

    def fill(cycle: tuple[int, ...], budget: int):
        if budget < 1:
            return None
        if len(cycle) == 3:
            return [cycle] if X.is_simplex(cycle) else None
        key = _canon_cycle(cycle)
        if key in memo:
            known_budget, known = memo[key]
            if known is not None and len(known) <= budget:
                return known
            if known is None and known_budget >= budget:
                return None
        cycle = key
        c0, c1 = cycle[0], cycle[1]
        cset = set(cycle)
        index = {v: idx for idx, v in enumerate(cycle)}
        best = None
        for z in sorted(X.adjacency[c0] & X.adjacency[c1]):
            tri = tuple(sorted((c0, c1, z)))
            sub_budget = (budget if best is None else len(best) - 1) - 1
            if sub_budget < 0:
                break
            if z in cset:
                pos = index[z]
                if pos == 2:
                    rest = fill(cycle[:1] + cycle[2:], sub_budget)
                    cand = None if rest is None else [tri] + rest
                elif pos == len(cycle) - 1:
                    rest = fill(cycle[1:], sub_budget)
                    cand = None if rest is None else [tri] + rest
                else:
                    part_a = fill(cycle[1:pos + 1], sub_budget)
                    if part_a is None:
                        continue
                    part_b = fill(cycle[pos:] + cycle[:1],
                                  sub_budget - len(part_a))
                    cand = None if part_b is None else [tri] + part_a + part_b
            else:
                rest = fill((c0, z) + cycle[1:], sub_budget)
                cand = None if rest is None else [tri] + rest
            if cand is not None and (best is None or len(cand) < len(best)):
                best = cand
        memo[key] = (budget, best)
        return best

    result = fill(loop, max_area)
    if result is None:
        return FillingResult(None, None, True)
    return FillingResult(len(result), tuple(result), False)


def is_triangulable(X: FlagComplex, loop) -> bool:
    """Whether the loop bounds a filling with no interior vertices (chord DP)."""
    loop = tuple(loop)
    m = len(loop)
    if m < 3 or len(set(loop)) != m:
        raise ValueError("loop must be an embedded cycle")
    for a, b in zip(loop, loop[1:] + loop[:1]):
        if not X.is_edge(a, b):
            raise ValueError(f"loop edge ({a}, {b}) missing")

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def arc(i: int, j: int) -> bool:
        # arc loop[i..j] closed by the (present) edge loop[i]-loop[j]
        if j - i == 1:
            return True
        return any(
            (k == i + 1 or X.is_edge(loop[i], loop[k]))
            and (k == j - 1 or X.is_edge(loop[k], loop[j]))
            and arc(i, k) and arc(k, j)
            for k in range(i + 1, j))

    return arc(0, m - 1)
