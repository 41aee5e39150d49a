"""Characteristic discs, surfaces and images.

A characteristic disc for a thick interval of a thickness profile is the
flat disc spanned on the loop through representatives s_k, t_k taken from
the profile's width-realizing pairs; its shape is determined by the
per-layer widths |s_k t_k| and the consecutive offsets read off
|s_k t_{k+1}|.  It is kept as that `RowStack` (row ends in half-units),
which numbers and joins the disc vertices, and is checked by one integer
shape rule (`check_row_stack`).  The disc as a triangulated complex is a
view built on first use, for audits and rendering.  The surface built is
the lexicographically least, found by one backtracking loop, no
recursion, over each row's geodesics s_k..t_k, walked lazily and
uncapped, so a disc may have any number of rows; one surface is all an
image needs, since images span every surface by single-vertex
substitution off one base surface.  The all-surfaces enumeration, the
preimage decoder and the minimal-surface and triangulability searches
that cross-check this module live in the tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from copy import copy
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, tee

from .complex import FlagComplex, Simplex
from .flatgeom import TriangulatedDisc, as_disc
from .generators import gen_flat_region
from .lattice import RowStack
from .layers import ThicknessProfile
from .metric import all_geodesics, dist


class CharDiscError(ValueError):
    """Disc construction failed; falsifies systolicity or the preconditions."""


class SurfaceError(ValueError):
    """No simplicial filling realizes the disc; reported loudly."""


@dataclass
class CharDisc:
    """Flat disc of a thick interval as a lattice row stack.

    Layer k of the interval is lattice row k of `stack`, whose left ends
    step by one half-unit; the stack's ids number the disc vertices, and its
    boundary rows map to s/t under any characteristic surface; s[k], t[k]
    are the first of row k's width-realizing `pairs`.
    """
    s: list[int]
    t: list[int]
    stack: RowStack
    pairs: list[list[tuple[int, int]]]

    @property
    def interval(self) -> tuple[int, int]:
        return self.stack.first_row, self.stack.last_row

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


def build_char_disc(X: FlagComplex, profile: ThicknessProfile, interval) -> CharDisc:
    """Characteristic disc for a member (i, j) of `profile.thick_intervals`:
    thin end layers around thick ones, so j - i >= 2.  End members that
    meet falsify systolicity; disjoint, they have width 1.  Representatives
    s_k, t_k are the first of the profile's pairs realizing |s_k t_k| per
    layer (the shape is choice-independent).
    """
    if tuple(interval) not in profile.thick_intervals:
        raise ValueError(f"{interval} is not a thick interval of the profile")
    i, j = interval
    widths, pairs = profile.thickness[i:j + 1], profile.pairs[i:j + 1]
    s_rep = [p[0][0] for p in pairs]
    t_rep = [p[0][1] for p in pairs]
    for k in (i, j):
        if set(profile.sigma_seq[k]) & set(profile.tau_seq[k]):
            raise CharDiscError(
                f"endpoint layer {k} members intersect; not a thick interval")

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
    return CharDisc(s_rep, t_rep, stack, pairs)


def build_char_surface(X: FlagComplex, cd: CharDisc) -> dict[int, int]:
    """The lexicographically least characteristic surface realizing the
    disc: maps each disc vertex to a complex vertex so rows land on
    1-skeleton geodesics s_k..t_k and every disc edge maps to an edge."""
    return _surface(X, cd, {})


def _surface(X: FlagComplex, cd: CharDisc,
             rows: dict[tuple[int, int], Iterator[list[int]]]) -> dict[int, int]:
    """`build_char_surface`, sharing row walks through `rows`.

    The least surface on the disc's boundary representatives, by rows in
    order, each row's geodesics lexicographically, found by one
    backtracking loop with no recursion: the open rows' readers form a
    stack, and each step takes the top row's next geodesic s_k..t_k that
    fits the row below and opens the row above, or backtracks once the
    row is exhausted.  The first surface completed is returned; an empty
    stack raises SurfaceError.  So a disc may have any number of rows.  A
    row's geodesics come from `all_geodesics`, started on the first read
    of its ends and walked lazily, so no row is listed in full and none is
    capped.  That walk, a function of X and (s_k, t_k) alone, is kept in
    `rows` by those ends as a `tee` that is never advanced; each reader
    walks a copy of it, which replays what earlier readers pulled."""
    crosses = [cd.stack.cross_pairs(k) for k in range(len(cd.s) - 1)]
    chosen: list[list[int]] = []
    readers = []
    while len(chosen) < len(cd.s):
        k = len(chosen)
        if k < len(readers):
            path = next((p for p in readers[k] if k == 0 or all(
                X.is_edge(chosen[-1][a], p[b]) for a, b in crosses[k - 1])), None)
            if path is not None:
                chosen.append(path)
                continue
            readers.pop()
            if not chosen:
                raise SurfaceError(f"no surface fills the disc for interval {cd.interval}")
            chosen.pop()
        else:
            ends = cd.s[k], cd.t[k]
            anchor = rows.get(ends)
            if anchor is None:
                anchor = rows[ends] = tee(all_geodesics(X, *ends), 1)[0]
            readers.append(copy(anchor))
    return {vid: chosen[r][idx] for r, ids in enumerate(cd.stack.ids)
            for idx, vid in enumerate(ids)}


def characteristic_image(X: FlagComplex, level: dict[int, int], cd: CharDisc,
                         surface: dict[int, int], rho) -> Simplex:
    """Span of the images of the disc simplex rho over all characteristic
    surfaces, via single-vertex substitutions off one base surface.

    Interior disc vertices: the vertices labelled k in the Euclidean
    geodesic's layer map `level` (d(sigma, .) on I(sigma, tau), absent off
    it), adjacent to the base images of all disc neighbours.  An interior
    vertex has neighbours in both adjacent rows, and in any graph a common
    neighbour of vertices in layers k - 1 and k + 1 lies in layer k: the
    label filter bites only when a surface row leaves its layer, which on
    systolic input none does (layers are convex and rows are geodesics
    between layer-k ends); on other input it alone keeps a thick delta_k
    in layer k.  Boundary vertices (for direct callers only: `_euclidean`
    passes row-interior simplices, as `euclidean_diagonal` never returns a
    row end): the ends of the row's realizing pairs whose other end is the
    opposite representative.  The result is checked to be a simplex.
    """
    rho = tuple(sorted(rho))
    if not rho or any(b not in cd.stack.neighbours(a) for a, b in combinations(rho, 2)):
        raise ValueError(f"{rho} is not a simplex of the disc")
    out: set[int] = set()
    for u in rho:
        rel, h = cd.stack.place(u)
        if h == 0:
            out.update(s for s, t in cd.pairs[rel] if t == cd.t[rel])
        elif h == cd.stack.widths[rel]:
            out.update(t for s, t in cd.pairs[rel] if s == cd.s[rel])
        else:
            k = cd.stack.first_row + rel
            nbs = [X.adjacency[surface[w]] for w in cd.stack.neighbours(u)]
            out.update(z for z in nbs[0].intersection(*nbs[1:]) if level.get(z) == k)
    image = tuple(sorted(out))
    if not X.is_simplex(image):
        raise CharDiscError(f"characteristic image of {rho} is not a simplex: {image}")
    return image
