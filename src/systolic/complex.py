"""Finite flag simplicial complexes given by their 1-skeleton.

A complex is determined by a symmetric adjacency map; simplices are exactly
the cliques, so non-flag input is unrepresentable.  Complexes are immutable
after construction, but each holds a BFS cache that is not thread-safe:
share complexes across processes, not threads.

Largeness verdicts are exact and carry a hole (an induced cycle of length
>= 4) as their witness: finite k asks `shortest_hole`, and infinity-largeness
(chordality) maximum cardinality search (`chordless_cycle`); both close their
holes with one BFS.  The vertex-link check decides each link by set algebra
and asks `shortest_hole` only for the first failing link's witness.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, defaultdict, deque
from typing import Iterable, NamedTuple

Simplex = tuple[int, ...]

INFINITY = float("inf")


class FlagComplex:
    """Immutable flag complex over integer vertex ids."""

    __slots__ = ("adjacency", "coords", "_dist_cache", "_dist_labelled")

    def __init__(self, adjacency: dict[int, frozenset[int]], coords=None):
        self.adjacency = adjacency
        self.coords = coords
        # BFS sweeps by frozen source set, least recently used first, and
        # the number of vertices they label (see systolic.metric)
        self._dist_cache: OrderedDict = OrderedDict()
        self._dist_labelled = 0

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], vertices: Iterable[int] = (),
                   coords=None) -> "FlagComplex":
        """The flag complex of a graph: the one place where neighbourhoods
        are frozen, besides `induced`'s full subcomplexes.  Vertices come
        in the order `vertices` lists them, then in the order edges first
        name them; each neighbourhood is frozen from a set filled in edge
        order, so the same edges in the same order give the same maps,
        iteration order included, which BFS order and the outputs built on
        it follow.  Duplicate edges are ignored, and a self-loop raises."""
        adj: defaultdict[int, set[int]] = defaultdict(set, {v: set() for v in vertices})
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        return cls({v: frozenset(ns) for v, ns in adj.items()}, coords)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.adjacency))

    def __contains__(self, v: int) -> bool:
        return v in self.adjacency

    def __len__(self) -> int:
        return len(self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in sorted(self.adjacency) for v in sorted(self.adjacency[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.adjacency.values()) // 2

    def is_edge(self, u: int, v: int) -> bool:
        return u != v and v in self.adjacency.get(u, ())

    def is_simplex(self, vs: Iterable[int]) -> bool:
        # each vertex must neighbour every earlier one; with no self-loops, a
        # repeated vertex fails that test
        adjacency = self.adjacency
        earlier = []
        for u in vs:
            nbrs = adjacency.get(u)
            if nbrs is None:
                return False
            for v in earlier:
                if v not in nbrs:
                    return False
            earlier.append(u)
        return bool(earlier)

    def induced(self, vs: Iterable[int]) -> "FlagComplex":
        """Full subcomplex on a vertex set."""
        keep = frozenset(vs)
        adj = {v: self.adjacency[v] & keep for v in keep}
        coords = None
        if self.coords is not None:
            coords = {v: self.coords[v] for v in keep if v in self.coords}
        return FlagComplex(adj, coords)

    def link(self, simplex: Iterable[int]) -> "FlagComplex":
        """Induced complex on the common neighbors of a simplex's vertices."""
        vs = sorted(simplex)
        if not self.is_simplex(vs):
            raise ValueError(f"{tuple(vs)} is not a simplex")
        common = self.adjacency[vs[0]]
        for v in vs[1:]:
            common = common & self.adjacency[v]
        return self.induced(common)

    def is_connected(self) -> bool:
        """Nonempty with a connected 1-skeleton: a connected space is nonempty."""
        if not self.adjacency:
            return False
        start = next(iter(self.adjacency))
        seen = {start}
        stack = [start]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.adjacency)

    def simplices(self, max_size: int | None = None):
        """All simplices (= cliques), as sorted tuples, by increasing dimension."""
        order = sorted(self.adjacency)
        current = [((v,), self.adjacency[v]) for v in order]
        while current:
            nxt = []
            for clique, ext in current:
                yield clique
                if max_size is not None and len(clique) >= max_size:
                    continue
                for v in sorted(ext):
                    if v > clique[-1]:
                        nxt.append((clique + (v,), ext & self.adjacency[v]))
            current = nxt

    def triangles(self) -> list[Simplex]:
        return [s for s in self.simplices(max_size=3) if len(s) == 3]

    def validate(self) -> None:
        """Adjacency symmetric, no self-loops."""
        for v, ns in self.adjacency.items():
            if v in ns:
                raise ValueError(f"self-loop at {v}")
            for w in ns:
                if v not in self.adjacency.get(w, ()):
                    raise ValueError(f"asymmetric edge ({v}, {w})")


class KLargeResult(NamedTuple):
    ok: bool
    witness: tuple[int, ...] | None  # an induced cycle, on failure
    capped: bool                     # always False: no search is capped; kept
                                     # because perfbench's cold-check reads it


def chordless_cycle(X: FlagComplex) -> tuple[int, ...] | None:
    """None if the 1-skeleton is chordal, else an induced cycle of length >= 4.

    Maximum cardinality search (Tarjan-Yannakakis, SIAM J. Comput. 13, 1984)
    visits next an unvisited vertex with the most visited neighbours, the
    least id among those.  A vertex's visited neighbours when it is visited
    are its earlier neighbours E(v); let p be the latest visited of them.
    The check (Rose-Tarjan-Lueker, SIAM J. Comput. 5, 1976) asks that every
    other u in E(v) be adjacent to p.

    * If every vertex passes, each E(v) is a clique, by induction on the
      visit order: E(v) - {p} lies in E(p), which is a clique.  In a cycle of
      length >= 4 the vertex visited last then has its two cycle neighbours
      adjacent, a chord.  So the graph is chordal.
    * If v fails with u, the witness is v followed by a shortest u-p path in
      the graph minus N[v] - {u, p}.  A shortest path is induced, its inner
      vertices miss N(v), and u, p are not adjacent: the cycle is induced and
      has length >= 4.

    The u-p path exists.  Call the number of visited neighbours a vertex's
    weight, and say that two vertices are joined past v if they are adjacent
    or linked by a path whose inner vertices are visited and outside N[v].
    At every moment of the search, for distinct unvisited v, z, z':
      (A) if z and z' both outweigh v, they are joined past v;
      (B) if z weighs at least as much as v, and a is a visited neighbour of
          v not adjacent to z, then z and a are joined past v.
    Both hold vacuously before the first visit.  Let x be visited next; its
    weight is at least every unvisited vertex's.  Weights then rise by one
    for x's neighbours, and a path joining past v before still does.
      (A) If x ~ v, or z and z' both outweighed v before, (A) applied
          before.  Otherwise x is not adjacent to v, so it is a possible
          inner vertex, and one of them, say z, tied v before and z ~ x.
          Then either z' ~ x, or z' outweighed v before and x did too, and
          (A) joins x and z'.
      (B) If a = x, then z, which does not see x, outweighed v before, and
          so did x: (A) joins them.  If a != x and z weighed at least as
          much as v before, (B) applied before.  Otherwise z ~ x and x is
          not adjacent to v, so x is a possible inner vertex; then either
          x ~ a, or (B) joins x and a.
    Just before p is visited, p weighs at least as much as v, and u is a
    visited neighbour of v not adjacent to p, so (B) gives the path, and
    the uncapped `_close_cycle` always finds one.
    """
    adj = X.adjacency
    visit: dict[int, int] = {}
    weight = dict.fromkeys(adj, 0)
    heap = [(0, v) for v in sorted(adj)]
    while heap:
        w, v = heapq.heappop(heap)
        if -w != weight[v]:
            continue  # stale: v has gained weight since, or was visited
        earlier = [x for x in adj[v] if x in visit]
        if earlier:
            p = max(earlier, key=visit.__getitem__)
            bad = [u for u in earlier if u != p and u not in adj[p]]
            if bad:
                return _close_cycle(adj, v, min(bad), p)
        visit[v] = len(visit)
        for x in adj[v]:
            if x not in visit:
                weight[x] += 1
                heapq.heappush(heap, (-weight[x], x))
    return None


def _close_cycle(adj, v: int, u: int, p: int, limit=INFINITY):
    """v followed by a shortest u-p path avoiding N[v] - {u, p}, or None if
    none has at most `limit` edges.  BFS from u; neighbours by ascending id."""
    banned = (adj[v] - {u, p}) | {v}
    parent = {u: u}
    frontier = [u]
    depth = 0
    while frontier and p not in parent and depth < limit:
        depth += 1
        nxt = []
        for x in frontier:
            for y in sorted(adj[x]):
                if y not in parent and y not in banned:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    if p not in parent:
        return None
    path = [p]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return (v, *reversed(path))


def shortest_hole(X: FlagComplex, max_len) -> tuple[int, ...] | None:
    """A shortest hole of length at most max_len, or None.

    A hole through v, with cycle neighbours u and p (not adjacent), is v plus
    a u-p path avoiding N[v] - {u, p}; a shortest such path is induced and
    closes a hole.  So the least `_close_cycle` over all (v, u < p) is a
    shortest hole: the least vertex on one, its first pair that closes one.
    """
    adj = X.adjacency
    best = None
    limit = max_len - 2  # edges of the u-p path; the hole has two more
    for v in sorted(adj):
        nbrs = sorted(adj[v])
        for i, u in enumerate(nbrs):
            for p in nbrs[i + 1:]:
                if limit < 2:
                    return best  # no hole is shorter than 4
                if p not in adj[u]:
                    cycle = _close_cycle(adj, v, u, p, limit)
                    if cycle is not None:
                        best, limit = cycle, len(cycle) - 3
    return best


def is_k_large(X: FlagComplex, k) -> KLargeResult:
    """No induced cycles of length < k (k >= 4 or infinity); flagness is built in.

    Exact for every k: infinity-largeness is chordality (`chordless_cycle`),
    and finite k asks for a shortest hole of length at most k - 1.
    """
    if k == INFINITY:
        witness = chordless_cycle(X)
    elif k < 4:
        raise ValueError("k must be >= 4 or infinity")
    else:
        witness = shortest_hole(X, k - 1)
    return KLargeResult(witness is None, witness, False)


class Locally6LargeResult(NamedTuple):
    ok: bool
    witness: tuple[Simplex, tuple[int, ...]] | None  # (simplex, bad link cycle)
    capped: bool  # always False; kept because perfbench's cold-check reads it


def _link_has_short_hole(adj, v: int) -> bool:
    """True iff lk(v) has a hole of length 4 or 5 (proof in
    `is_locally_6_large`).  `link` holds each vertex's unvisited neighbours.
    This second decision of a link, beside `shortest_hole` on `X.link`,
    stays because the cold-check workload pays for it: it took that
    workload from 419 to 536 operations per second (+27.8%)."""
    nv = set(adj[v])
    link = {x: nv & adj[x] for x in nv}
    unvisited = len(link)
    for w, lw in link.items():
        if unvisited < 4:
            return False  # too few vertices left for a hole through w
        unvisited -= 1
        for x in lw:
            link[x].discard(w)
        pending = list(lw)
        while pending:
            u = pending.pop()
            lu = link[u]
            a_side = lu - lw
            if not a_side:
                continue
            for p in pending:
                if p in lu:
                    continue
                b_side = link[p] - lw
                if not a_side.isdisjoint(b_side):
                    return True  # w-u-a-p
                for a in a_side:
                    if not b_side.isdisjoint(link[a]):
                        return True  # w-u-a-b-p
    return False


def is_locally_6_large(X: FlagComplex) -> Locally6LargeResult:
    """Every simplex link is 6-large: no hole of length 4 or 5 in any link.

    In a flag complex lk(sigma) is the full subcomplex of lk(v) on sigma's
    common neighbours, for any v in sigma, so a hole in lk(sigma) is one in
    lk(v): vertex links decide, and the least failing vertex is the first
    failing simplex.  Its witness cycle is a shortest hole of its link,
    `X.link((v,))`.

    `_link_has_short_hole` decides a link L without a BFS.  It visits L's
    vertices in a fixed order; at w, each link set holds only the neighbours
    not yet visited, w removed.  For each non-adjacent pair u, p of w's
    unvisited neighbours it forms A = L(u) - L(w) and B = L(p) - L(w), and
    reports a hole when A and B meet, or when some a in A has a neighbour
    in B.
    * Every hole of length 4 or 5 is found.  Let w be its first-visited
      vertex and u, p its two neighbours on it, unvisited and not adjacent.
      The rest of the hole is a u-p path of 2 or 3 edges through unvisited
      vertices, none in N[w]: its first inner vertex lies in A, its last
      in B.
    * Every report is a hole.  A and B miss N[w] and contain neither u nor
      p.  If A and B meet in a, then w-u-a-p is an induced 4-cycle.  The
      5-cycle test runs only when they do not meet, so a in A is not
      adjacent to p and b in B is not adjacent to u; with a ~ b, w-u-a-b-p
      is an induced 5-cycle.
    """
    adj = X.adjacency
    for v in sorted(adj):
        # a link of fewer than 4 vertices has no 4-cycle
        if len(adj[v]) >= 4 and _link_has_short_hole(adj, v):
            return Locally6LargeResult(False, ((v,), shortest_hole(X.link((v,)), 5)), False)
    return Locally6LargeResult(True, None, False)


def simply_connected_heuristic(X: FlagComplex) -> str:
    """"verified" if the complex collapses to a point via free faces, else "unknown".

    Sound but incomplete: a stalled collapse never claims "no".  It lists
    every simplex, so it is exponential in the dimension.  `check` decides
    systolicity without it; perfbench's cold-check and the tests call it.
    """
    if not X.is_connected():
        return "unknown"
    simplices = set(X.simplices())
    cofaces: dict[Simplex, set[Simplex]] = {s: set() for s in simplices}
    for s in simplices:
        if len(s) < 2:
            continue
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            cofaces[face].add(s)
    queue = deque(s for s in simplices if len(cofaces[s]) == 1)
    while queue:
        face = queue.popleft()
        if face not in simplices or len(cofaces[face]) != 1:
            continue
        # a removed simplex leaves the coface sets of its faces, so top is present
        (top,) = cofaces[face]
        for s in (face, top):
            simplices.discard(s)
            for i in range(len(s)):
                sub = s[:i] + s[i + 1:]
                if sub in cofaces:
                    cofaces[sub].discard(s)
                    if sub in simplices and len(cofaces[sub]) == 1:
                        queue.append(sub)
    return "verified" if len(simplices) == 1 else "unknown"


# Complex text format: `# comment` | `v <id>` | `e <id> <id>` |
# `coord <id> <row> <2x>`.  Vertices may be implicit in edges; duplicate
# edges are ignored.  Coords, when present, give each vertex exactly one place.

_FIELDS = {"v": 1, "e": 2, "coord": 3}  # integer fields after each keyword


def loads_complex(text: str) -> FlagComplex:
    from fractions import Fraction

    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    coords: dict[int, tuple[int, Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        try:
            nums = [int(f) for f in fields]
        except ValueError:
            nums = None
        if nums is None or len(nums) != _FIELDS.get(kind):
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        if kind == "v":
            vertices.add(nums[0])
        elif kind == "e":
            u, v = nums
            if u == v:
                raise ValueError(f"line {lineno}: self-loop at {u}")
            edges.add((min(u, v), max(u, v)))
        elif nums[0] in coords:
            raise ValueError(f"line {lineno}: second coord for vertex {nums[0]}")
        else:
            coords[nums[0]] = (nums[1], Fraction(nums[2], 2))
    if coords:
        vertices.update(*edges)
        if not coords.keys() <= vertices:
            raise ValueError(f"coord for undeclared vertex {min(coords.keys() - vertices)}")
        if len(coords) != len(vertices):
            raise ValueError(f"no coord for vertex {min(vertices - coords.keys())}")
    return FlagComplex.from_edges(sorted(edges), vertices=sorted(vertices),
                                  coords=coords or None)


def load_complex(path) -> FlagComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_complex(fh.read())


def dumps_complex(X: FlagComplex) -> str:
    lines = [f"v {v}" for v in X.vertices]
    lines += [f"e {u} {v}" for u, v in X.edges()]
    if X.coords:
        for v in sorted(X.coords):
            row, x = X.coords[v]
            two_x = 2 * x
            if two_x.denominator != 1:
                raise ValueError(f"coord of vertex {v} is not a half-integer: x = {x}")
            lines.append(f"coord {v} {row} {two_x.numerator}")
    return "\n".join(lines) + "\n"


def dump_complex(X: FlagComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(X))
