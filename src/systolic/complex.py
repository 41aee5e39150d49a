"""Finite flag simplicial complexes given by their 1-skeleton.

A complex is determined by a symmetric adjacency map; simplices are exactly
the cliques, so non-flag input is unrepresentable.  Complexes are immutable
after construction and safe to share across workers.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Iterable, NamedTuple

Simplex = tuple[int, ...]

# Induced-cycle search cap (complexes up to desk scale; warn when it binds).
CYCLE_CAP = 12
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
    capped: bool                     # search cap bound the verdict


def find_induced_cycle(X: FlagComplex, min_len: int = 4, max_len: int = CYCLE_CAP):
    """Some induced (full) cycle of length in [min_len, max_len], or None.

    DFS over induced paths anchored at their least vertex; prunes on any
    chord to an earlier path vertex.
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


def is_k_large(X: FlagComplex, k) -> KLargeResult:
    """No induced cycles of length < k (k >= 4 or infinity); flagness is built in."""
    if k != INFINITY and k < 4:
        raise ValueError("k must be >= 4 or infinity")
    bound = CYCLE_CAP if k == INFINITY else min(k - 1, CYCLE_CAP)
    witness = find_induced_cycle(X, 4, bound)
    capped = (witness is None and len(X.adjacency) > CYCLE_CAP
              and (k == INFINITY or k - 1 > CYCLE_CAP))
    return KLargeResult(witness is None, witness, capped)


class Locally6LargeResult(NamedTuple):
    ok: bool
    witness: tuple[Simplex, tuple[int, ...]] | None  # (simplex, bad link cycle)
    capped: bool


def is_locally_6_large(X: FlagComplex) -> Locally6LargeResult:
    """Every simplex link is 6-large."""
    capped = False
    for sigma in X.simplices():
        res = is_k_large(X.link(sigma), 6)
        capped = capped or res.capped
        if not res.ok:
            return Locally6LargeResult(False, (sigma, res.witness), capped)
    return Locally6LargeResult(True, None, capped)


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
