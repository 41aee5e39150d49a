"""Characteristic discs, surfaces and images.

A characteristic disc for a thick interval is the flat disc spanned on the
loop through distance-maximizing representatives of the two simplex
sequences; its shape is determined by the per-layer widths |s_k t_k| and the
consecutive offsets read off |s_k t_{k+1}|.  It is kept as that `RowStack`
(row ends in half-units), which numbers and joins the disc vertices, and
is checked by one integer shape rule (`check_row_stack`).  The disc as a
triangulated complex is a view built on first use, for audits and
rendering.  The all-surfaces enumeration, the preimage decoder and the
minimal-surface and triangulability searches that cross-check this module
live with the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .complex import FlagComplex, Simplex
from .flatgeom import TriangulatedDisc, as_disc
from .generators import gen_flat_region
from .lattice import RowStack
from .layers import maximizing_pairs
from .metric import dist, dist_map, all_geodesics


class CharDiscError(ValueError):
    """Disc construction failed; falsifies systolicity or the preconditions."""


class SurfaceError(ValueError):
    """No simplicial filling realizes the disc; reported loudly."""


@dataclass
class CharDisc:
    """Flat disc of a thick interval as a lattice row stack.

    Layer k of the interval is lattice row k of `stack`, whose left ends
    step by one half-unit; the stack's ids number the disc vertices, and its
    boundary rows map to s/t under any characteristic surface.
    """
    s: list[int]
    t: list[int]
    stack: RowStack
    sigma_seq: list[Simplex]
    tau_seq: list[Simplex]

    @property
    def interval(self) -> tuple[int, int]:
        return self.stack.first_row, self.stack.last_row

    @property
    def thin_endpoints(self) -> bool:
        return self.stack.widths[0] == self.stack.widths[-1] == 1

    @cached_property
    def disc(self) -> TriangulatedDisc:
        """The disc as a validated triangulated complex (built on first use)."""
        return as_disc(gen_flat_region(self.stack))


def check_row_stack(stack: RowStack) -> None:
    """The shape rule of a characteristic disc, whose left ends step by 1/2.

    The stack spans a flat disc on its defining loop (wide when its end
    rows are thin) iff its right ends step by 1/2 too and thin end rows
    enclose at least one row.  Raises CharDiscError naming the rows.
    """
    rows, first = stack.rows, stack.first_row
    if stack.widths[0] == stack.widths[-1] == 1 and len(rows) < 3:
        raise CharDiscError(f"rows {first}..{first + 1}: thin end rows "
                            "need a row between them")
    for k in range(len(rows) - 1):
        step = rows[k + 1][1] - rows[k][1]
        if abs(step) != 1:
            raise CharDiscError(f"rows {first + k} and {first + k + 1}: "
                                f"right ends step {step} half-units")


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
        a, pairs = maximizing_pairs(X, sigma_seq[k], tau_seq[k])
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

    lo = i % 2
    rows = [(lo, lo + 2 * widths[0])]
    for k in range(len(widths) - 1):
        b = dist(X, (s_rep[k],), (t_rep[k + 1],))
        if b == widths[k + 1] + 1:
            lo += 1
        elif b == widths[k + 1]:
            lo -= 1
        else:
            raise CharDiscError(
                f"|s_{i + k} t_{i + k + 1}| = {b} incompatible with width {widths[k + 1]}")
        rows.append((lo, lo + 2 * widths[k + 1]))
    stack = RowStack(i, tuple(rows))
    check_row_stack(stack)
    return CharDisc(s_rep, t_rep, stack, sigma_seq[i:j + 1], tau_seq[i:j + 1])


def _surfaces(X: FlagComplex, cd: CharDisc, cap: int = 10000):
    """Characteristic surfaces on the disc's boundary representatives:
    backtracking over per-row geodesics s_k..t_k, bottom-up, lexicographic."""
    rows = []
    for s, t in zip(cd.s, cd.t):
        paths, truncated = all_geodesics(X, s, t, cap)
        if truncated:
            raise SurfaceError("geodesic enumeration cap hit; raise the cap")
        rows.append(sorted(paths))
    crosses = [cd.stack.cross_pairs(k) for k in range(len(rows) - 1)]

    def extend(chosen):
        k = len(chosen)
        if k == len(rows):
            yield {vid: chosen[r][idx]
                   for r, ids in enumerate(cd.stack.ids)
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
    if not rho or any(b not in cd.stack.neighbours(a) for a, b in combinations(rho, 2)):
        raise ValueError(f"{rho} is not a simplex of the disc")
    n = dist(X, sigma, tau)
    ds, dt = dist_map(X, sigma, radius=n), dist_map(X, tau, radius=n)
    out: set[int] = set()
    for u in rho:
        rel, h = cd.stack.place(u)
        width = cd.stack.widths[rel]
        if h == 0:
            t_k = cd.t[rel]
            cands = {z for z in cd.sigma_seq[rel] if dist(X, (z,), (t_k,)) == width}
        elif h == width:
            s_k = cd.s[rel]
            cands = {z for z in cd.tau_seq[rel] if dist(X, (s_k,), (z,)) == width}
        else:
            k = cd.stack.first_row + rel
            nbs = [surface[w] for w in cd.stack.neighbours(u)]
            common = set.intersection(*(set(X.adjacency[img]) for img in nbs))
            cands = {z for z in common if ds.get(z) == k and dt.get(z) == n - k}
        out |= cands
    image = tuple(sorted(out))
    if not X.is_simplex(image):
        raise CharDiscError(f"characteristic image of {rho} is not a simplex: {image}")
    return image
