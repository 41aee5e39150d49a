"""Layer decompositions between convex subcomplexes and thickness profiles.

Layer i between V and W at distance n is B_i(V) & B_{n-i}(W); the union of
the layers carries every 1-skeleton geodesic between the two sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .complex import FlagComplex, Simplex, chordless_cycle
from .metric import _interval, dist


@dataclass(frozen=True)
class LayerDecomposition:
    V: frozenset[int]
    W: frozenset[int]
    n: int
    layers: tuple[frozenset[int], ...]


def layers(X: FlagComplex, V: Iterable[int], W: Iterable[int]) -> LayerDecomposition:
    """All layers L_i = {x : d(x,V) = i, d(x,W) = n - i}, n = d(V, W).

    In any graph d(x,V) + d(x,W) >= n, so L_i is also B_i(V) & B_{n-i}(W).
    And L_{i+1} lies in S_1(L_i): from x in L_{i+1}, the next vertex y
    towards V has d(y,V) = i and n - i <= d(y,W) <= d(x,W) + 1 = n - i.
    Layer i is label i of `_interval`'s layer map, found from V's and W's
    sweeps, grown to B_a(V) and B_b(W) with a + b = n.
    """
    vset, wset = frozenset(V), frozenset(W)
    n, level = _interval(X, vset, wset)
    out: list[set[int]] = [set() for _ in range(n + 1)]
    for x, d in level.items():
        out[d].add(x)
    return LayerDecomposition(vset, wset, n, tuple(map(frozenset, out)))


@dataclass
class ThicknessProfile:
    sigma_seq: list[Simplex]
    tau_seq: list[Simplex]
    thickness: list[int]
    pairs: list[list[tuple[int, int]]]  # per layer, the sorted (s, t) realizing its width
    thin: list[bool] = field(init=False)
    thick_intervals: list[tuple[int, int]] = field(init=False)

    def __post_init__(self):
        self.thin = [t <= 1 for t in self.thickness]
        if self.thin and not (self.thin[0] and self.thin[-1]):
            raise ValueError("thick run touches an endpoint layer")
        # between thin end layers, each thick run lies between consecutive thin layers
        thin_at = [k for k, thin in enumerate(self.thin) if thin]
        self.thick_intervals = [(i, j) for i, j in zip(thin_at, thin_at[1:]) if j > i + 1]


def maximizing_pairs(X: FlagComplex, sigma: Simplex, tau: Simplex):
    """max |st| over s in sigma, t in tau, and the sorted pairs realizing it."""
    best = -1
    pairs = []
    for s in sigma:
        for t in tau:
            d = dist(X, s, t)
            if d > best:
                best, pairs = d, [(s, t)]
            elif d == best:
                pairs.append((s, t))
    return best, sorted(pairs)


def thickness_profile(X: FlagComplex, sigma_seq, tau_seq) -> ThicknessProfile:
    """Per-layer max distance between sigma_k and tau_k with its realizing
    pairs, thin flags, and the maximal thick intervals (thin endpoints,
    interior all thick).

    A layer is thin (width <= 1) iff sigma_k and tau_k span one simplex,
    decided by one `is_simplex`, or by none when both are the same vertex:
    its width is then 0, and otherwise 1, realized by every pair of
    distinct vertices.
    A thick layer's width and pairs come from `maximizing_pairs`, whose
    sweeps the characteristic disc reads again.

    The sequences must march, with nonempty members and consecutive ones
    spanning simplices, through the layers between their ends, the
    simplices S = sigma_0 | tau_0 and T = sigma_n | tau_n.  Given the spans,
    each vertex x of a layer-k member has d(x, S) <= k and d(x, T) <= n - k,
    while d(x, S) + d(x, T) >= d(S, T) in any graph: so every such x lies
    in layer k iff d(S, T) = n, the one layer check.  The end layers span
    S and T, so they are thin.  For n >= 1 a non-simplex end would also
    fail later, as a thick end layer; for n = 0 no span check reads the
    one member pair, so only the end check rejects sigma_0 = {0, 2},
    tau_0 = {1} on the path 0-1-2.  `euclidean_geodesic` calls `_profile`.
    """
    sigma_seq = [tuple(sorted(s)) for s in sigma_seq]
    tau_seq = [tuple(sorted(t)) for t in tau_seq]
    if len(sigma_seq) != len(tau_seq):
        raise ValueError("sequences must share their layer range")
    if not all(sigma_seq) or not all(tau_seq):
        raise ValueError("members must be nonempty")
    n = len(sigma_seq) - 1
    S = sorted(set(sigma_seq[0]) | set(tau_seq[0]))
    T = sorted(set(sigma_seq[-1]) | set(tau_seq[-1]))
    if not X.is_simplex(S) or not X.is_simplex(T):
        raise ValueError("end members must span simplices")
    for k in range(n):
        for a, b in ((sigma_seq[k], sigma_seq[k + 1]), (tau_seq[k], tau_seq[k + 1])):
            if not X.is_simplex(sorted(set(a) | set(b))):
                raise ValueError(f"members at layers {k},{k + 1} do not span a simplex")
    d = dist(X, S, T)
    if d != n:
        raise ValueError(f"the ends lie {d} apart, not {n}")
    return _profile(X, sigma_seq, tau_seq, {})


def _profile(X: FlagComplex, sigma_seq: list[Simplex], tau_seq: list[Simplex],
             widths: dict[tuple[Simplex, Simplex], tuple]) -> ThicknessProfile:
    """`thickness_profile` on sorted members that pass its checks.  Each
    layer's (width, sorted realizing pairs, sorted span of its members), a
    function of its two members alone, is read from or written to `widths`
    by those members."""
    thickness, pairs = [], []
    for key in zip(sigma_seq, tau_seq):
        layer = widths.get(key)
        if layer is None:
            sig, tau_k = key
            span = tuple(sorted(set(sig).union(tau_k)))
            if len(span) == 1:    # one vertex of X, so a simplex
                width, realizing = 0, [(sig[0], sig[0])]
            elif not X.is_simplex(span):
                width, realizing = maximizing_pairs(X, sig, tau_k)
            else:
                width, realizing = 1, [(s, t) for s in sig for t in tau_k if s != t]
            layer = widths[key] = width, realizing, span
        thickness.append(layer[0])
        pairs.append(layer[1])
    return ThicknessProfile(sigma_seq, tau_seq, thickness, pairs)


def verify_profile_lemmas(profile: ThicknessProfile) -> list[str]:
    """Consistency facts about thickness profiles; failures falsify systolicity.

    Checks the unit-step variation of thickness, disjointness of the endpoint
    members of each thick interval, and joint realization: if (s, t') and
    (s', t) realize a thick layer's width, so does (s, t).  Each failing
    (s, t) is reported once, in (s, t) order.
    """
    failures = []
    th = profile.thickness
    for k in range(len(th) - 1):
        if abs(th[k + 1] - th[k]) > 1:
            failures.append(f"thickness jumps by {abs(th[k + 1] - th[k])} at layer {k}")
    for (i, j) in profile.thick_intervals:
        for k in (i, j):
            if set(profile.sigma_seq[k]) & set(profile.tau_seq[k]):
                failures.append(f"endpoint layer {k} members intersect")
    for k, (sig, tau) in enumerate(zip(profile.sigma_seq, profile.tau_seq)):
        if profile.thin[k]:
            continue  # joint realization is a thick-layer fact (members disjoint)
        pairs = set(profile.pairs[k])
        sources, targets = {s for s, _ in pairs}, {t for _, t in pairs}
        for s in sig:
            for t in tau:
                if s in sources and t in targets and (s, t) not in pairs:
                    failures.append(
                        f"layer {k}: ({s},{t}) fails to realize thickness jointly")
    return failures


def verify_layer_lemmas(X: FlagComplex, V, W) -> dict:
    """Report on the layer structure between convex V and W.

    For interior layers and the unions of consecutive interior layers:
    chordality (no induced cycle of any length >= 4).  For every layer: no
    isometric trapezoid in its 1-skeleton.  Between consecutive layers: the
    unit difference bound on every unordered pair of cross-layer edges,
    each failing pair reported once.  Failures are report entries, each
    falsifying systolicity of the input.
    """
    dec = layers(X, V, W)
    failures: list[str] = []

    for i in range(1, dec.n):
        cycle = chordless_cycle(X.induced(dec.layers[i]))
        if cycle is not None:
            failures.append(f"layer {i} has induced cycle {cycle}")

    for i in range(dec.n + 1):
        bad = _find_trapezoid(X.induced(dec.layers[i]))
        if bad is not None:
            failures.append(f"layer {i} contains an isometric trapezoid {bad}")

    for i in range(1, dec.n - 1):
        cycle = chordless_cycle(X.induced(dec.layers[i] | dec.layers[i + 1]))
        if cycle is not None:
            failures.append(f"layers {i},{i + 1} union has induced cycle {cycle}")

    cross = []
    for i in range(dec.n):
        li, lj = dec.layers[i], dec.layers[i + 1]
        cross_edges = sorted((v, w) for v in li for w in X.adjacency[v] if w in lj)
        for (v, w), (x, y) in combinations(cross_edges, 2):
            if abs(dist(X, v, x) - dist(X, w, y)) > 1:
                failures.append(f"edges ({v},{w}) and ({x},{y}) differ by more than 1")
        cross.append(len(cross_edges))

    return {"n": dec.n, "failures": failures, "cross_edge_counts": cross,
            "ok": not failures}


def _find_trapezoid(L: FlagComplex):
    """An isometric copy of the three-triangle trapezoid in L^(1), if any.

    The pattern has vertices p1, p2, r, s1, s2 with triangles p1-r-s1,
    p1-r-p2, p2-r-s2; all distance-2 pairs must stay non-adjacent in L.
    """
    for r in L.vertices:
        nr = sorted(L.adjacency[r])
        for p1 in nr:
            for p2 in nr:
                if p2 <= p1 or not L.is_edge(p1, p2):
                    continue
                for s1 in nr:
                    if s1 in (p1, p2) or not L.is_edge(s1, p1) or L.is_edge(s1, p2):
                        continue
                    for s2 in nr:
                        if s2 in (p1, p2, s1) or not L.is_edge(s2, p2):
                            continue
                        if L.is_edge(s2, p1) or L.is_edge(s1, s2):
                            continue
                        return (p1, p2, r, s1, s2)
    return None
