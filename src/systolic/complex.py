"""Finite flag simplicial complexes given by their 1-skeleton.

A complex is determined by a symmetric adjacency map; simplices are exactly
the cliques, so non-flag input is unrepresentable.  Complexes are immutable
after construction and safe to share across workers.

Largeness verdicts are exact and carry an induced cycle as their witness.
k-largeness for finite k searches induced cycles of lengths 4..k-1; link
checks (k = 6) search lengths 4 and 5 on each simplex's common neighbours.
Infinity-largeness means the 1-skeleton is chordal, which maximum
cardinality search decides in near-linear time (`chordless_cycle`).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Iterable, NamedTuple

Simplex = tuple[int, ...]

INFINITY = float("inf")


class FlagComplex:
    """Immutable flag complex over integer vertex ids."""

    __slots__ = ("adjacency", "coords", "_dist_cache")

    def __init__(self, adjacency: dict[int, frozenset[int]], coords=None):
        self.adjacency = adjacency
        self.coords = coords
        self._dist_cache: OrderedDict = OrderedDict()

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], vertices: Iterable[int] = (),
                   coords=None) -> "FlagComplex":
        adj: dict[int, set[int]] = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        frozen = {v: frozenset(ns) for v, ns in adj.items()}
        return cls(frozen, coords)

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
        vs = list(vs)
        if len(set(vs)) != len(vs) or not vs:
            return False
        return all(v in self.adjacency for v in vs) and all(
            self.is_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])

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
        if not self.adjacency:
            return True
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


def find_induced_cycle(X: FlagComplex, min_len: int, max_len: int):
    """Some induced (full) cycle of length in [min_len, max_len], or None.

    DFS over induced paths anchored at their least vertex; prunes on any
    chord to an earlier path vertex.  Exponential in max_len: the verdicts
    use it for short cycles only, and the tests use it as an oracle.
    """
    adj = X.adjacency
    for s in sorted(adj):
        # path[0] == s; extensions use vertices > s only.
        stack = [(s,)]
        while stack:
            path = stack.pop()
            last = path[-1]
            for w in sorted(adj[last]):
                if w <= s or w in path:
                    continue
                if len(path) == 1:
                    stack.append(path + (w,))
                    continue
                # w may touch the path only at `last` (and possibly s to close)
                if any(x in adj[w] for x in path[1:-1]):
                    continue
                if s in adj[w]:
                    if len(path) >= min_len - 1 and path[1] < w:
                        return path + (w,)  # one orientation per cycle
                    continue
                if len(path) < max_len - 1:
                    stack.append(path + (w,))
    return None


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
    visited neighbour of v not adjacent to p, so (B) gives the path.
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


def _close_cycle(adj, v: int, u: int, p: int) -> tuple[int, ...]:
    """v followed by a shortest u-p path avoiding N[v] - {u, p}."""
    banned = (adj[v] - {u, p}) | {v}
    parent = {u: u}
    frontier = [u]
    while frontier and p not in parent:
        nxt = []
        for x in frontier:
            for y in sorted(adj[x]):
                if y not in parent and y not in banned:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    if p not in parent:
        raise AssertionError(f"no {u}-{p} path avoids N[{v}]: search order broken")
    path = [p]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return (v, *reversed(path))


def is_k_large(X: FlagComplex, k) -> KLargeResult:
    """No induced cycles of length < k (k >= 4 or infinity); flagness is built in.

    Exact for every k: infinity-largeness is chordality (`chordless_cycle`),
    and finite k searches lengths 4..k-1.
    """
    if k == INFINITY:
        witness = chordless_cycle(X)
    elif k < 4:
        raise ValueError("k must be >= 4 or infinity")
    else:
        witness = find_induced_cycle(X, 4, k - 1)
    return KLargeResult(witness is None, witness, False)


class Locally6LargeResult(NamedTuple):
    ok: bool
    witness: tuple[Simplex, tuple[int, ...]] | None  # (simplex, bad link cycle)
    capped: bool  # always False; kept because perfbench's cold-check reads it


def is_locally_6_large(X: FlagComplex) -> Locally6LargeResult:
    """Every simplex link is 6-large: no induced 4- or 5-cycle among the
    common neighbours of any simplex."""
    adj = X.adjacency
    for sigma in X.simplices():
        common = adj[sigma[0]].intersection(*(adj[v] for v in sigma[1:]))
        if len(common) < 4:
            continue  # too few vertices for a 4-cycle
        link = FlagComplex({w: adj[w] & common for w in common})
        cycle = find_induced_cycle(link, 4, 5)
        if cycle is not None:
            return Locally6LargeResult(False, (sigma, cycle), False)
    return Locally6LargeResult(True, None, False)


def simply_connected_heuristic(X: FlagComplex) -> str:
    """"verified" if the complex collapses to a point via free faces, else "unknown".

    Sound but incomplete: a stalled collapse never claims "no".
    """
    if not X.adjacency:
        return "unknown"
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
        (top,) = cofaces[face]
        if top not in simplices:
            continue
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
# edges are ignored.

def loads_complex(text: str) -> FlagComplex:
    from fractions import Fraction

    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    coords: dict[int, tuple[int, Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                vertices.add(int(parts[1]))
            elif parts[0] == "e" and len(parts) == 3:
                u, v = int(parts[1]), int(parts[2])
                if u == v:
                    raise ValueError(f"line {lineno}: self-loop at {u}")
                edges.add((min(u, v), max(u, v)))
            elif parts[0] == "coord" and len(parts) == 4:
                coords[int(parts[1])] = (int(parts[2]), Fraction(int(parts[3]), 2))
            else:
                raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        except ValueError:
            raise
        except Exception as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}") from exc
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
            assert two_x.denominator == 1
            lines.append(f"coord {v} {row} {two_x.numerator}")
    return "\n".join(lines) + "\n"


def dump_complex(X: FlagComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(X))
