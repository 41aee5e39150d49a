"""Layer decompositions between convex subcomplexes and thickness profiles.

Layer i between V and W at distance n is B_i(V) & B_{n-i}(W); the union of
the layers carries every 1-skeleton geodesic between the two sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .complex import FlagComplex, Simplex, chordless_cycle
from .metric import dist, dist_map


@dataclass(frozen=True)
class LayerDecomposition:
    V: frozenset[int]
    W: frozenset[int]
    n: int
    layers: tuple[frozenset[int], ...]


def layers(X: FlagComplex, V: Iterable[int], W: Iterable[int]) -> LayerDecomposition:
    """All layers between V and W, with the sphere identities asserted."""
    vset, wset = frozenset(V), frozenset(W)
    n = dist(X, vset, wset)
    dv, dw = dist_map(X, vset), dist_map(X, wset)
    out = []
    for i in range(n + 1):
        ball_cap = frozenset(x for x in dv
                             if dv[x] <= i and dw.get(x, n + 1) <= n - i)
        sphere_cap = frozenset(x for x in ball_cap if dv[x] == i and dw[x] == n - i)
        if ball_cap != sphere_cap:
            raise AssertionError(f"layer {i} differs from its sphere form")
        out.append(ball_cap)
    for i in range(n):
        # the sphere form puts x outside L_i, so d(x, L_i) = 1 iff x has a
        # neighbour in L_i
        if any(X.adjacency[x].isdisjoint(out[i]) for x in out[i + 1]):
            raise AssertionError(f"layer {i + 1} not inside S_1(layer {i})")
    return LayerDecomposition(vset, wset, n, tuple(out))


@dataclass
class ThicknessProfile:
    sigma_seq: list[Simplex]
    tau_seq: list[Simplex]
    thickness: list[int]
    thin: list[bool] = field(init=False)
    thick_intervals: list[tuple[int, int]] = field(init=False)

    def __post_init__(self):
        self.thin = [t <= 1 for t in self.thickness]
        self.thick_intervals = []
        n = len(self.thickness) - 1
        k = 0
        while k <= n:
            if not self.thin[k]:
                i = k - 1
                j = k
                while j <= n and not self.thin[j]:
                    j += 1
                if i < 0 or j > n:
                    raise AssertionError("thick run touches an endpoint layer")
                self.thick_intervals.append((i, j))
                k = j
            else:
                k += 1


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


def thickness_profile(X: FlagComplex, sigma_seq, tau_seq,
                      sigma=None, tau=None) -> ThicknessProfile:
    """Per-layer max distance between sigma_k and tau_k, thin flags, and the
    maximal thick intervals (thin endpoints, interior all thick).

    A layer is thin (width <= 1) iff sigma_k and tau_k span one simplex,
    decided by one `is_simplex`: its width is 0 when both are the same
    vertex and 1 otherwise.  A thick layer's width comes from
    `maximizing_pairs`, whose sweeps the characteristic disc reads again.
    The sequences must march through the layers between sigma and tau, with
    consecutive members spanning simplices.
    """
    sigma_seq = [tuple(sorted(s)) for s in sigma_seq]
    tau_seq = [tuple(sorted(t)) for t in tau_seq]
    if len(sigma_seq) != len(tau_seq):
        raise ValueError("sequences must share their layer range")
    n = len(sigma_seq) - 1
    if sigma is None:
        sigma = set(sigma_seq[0]) | set(tau_seq[0])
    if tau is None:
        tau = set(sigma_seq[-1]) | set(tau_seq[-1])
    ds, dt = dist_map(X, sigma, radius=n), dist_map(X, tau, radius=n)
    for k in range(n + 1):
        for v in sigma_seq[k] + tau_seq[k]:
            if ds.get(v) != k or dt.get(v) != n - k:
                raise ValueError(f"vertex {v} is not in layer {k}")
    for k in range(n):
        for a, b in ((sigma_seq[k], sigma_seq[k + 1]), (tau_seq[k], tau_seq[k + 1])):
            if not X.is_simplex(sorted(set(a) | set(b))):
                raise ValueError(f"members at layers {k},{k + 1} do not span a simplex")
    thickness = []
    for sig, tau_k in zip(sigma_seq, tau_seq):
        span = set(sig) | set(tau_k)
        thickness.append(min(len(span) - 1, 1) if X.is_simplex(span)
                         else maximizing_pairs(X, sig, tau_k)[0])
    return ThicknessProfile(sigma_seq, tau_seq, thickness)


def verify_profile_lemmas(X: FlagComplex, profile: ThicknessProfile) -> list[str]:
    """Consistency facts about thickness profiles; failures falsify systolicity.

    Checks the unit-step variation of thickness, disjointness of the endpoint
    members of each thick interval, and that thickness realized in mixed
    pairs is realized as a pair.
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
        for s in sig:
            for t in tau:
                for s2 in sig:
                    for t2 in tau:
                        if (dist(X, (s,), (t2,)) == th[k] and dist(X, (s2,), (t,)) == th[k]
                                and dist(X, (s,), (t,)) != th[k]):
                            failures.append(
                                f"layer {k}: ({s},{t}) fails to realize thickness jointly")
    return failures


def verify_layer_lemmas(X: FlagComplex, V, W, rng=None) -> dict:
    """Report on the layer structure between convex V and W.

    For interior layers and the unions of consecutive interior layers:
    chordality (no induced cycle of any length >= 4).  For every layer: no
    isometric trapezoid in its 1-skeleton.  Between consecutive layers: the
    unit difference bound on up to 50 sampled cross-layer edge pairs.
    Failures are report entries, each falsifying systolicity of the input.
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

    import random
    rng = rng or random.Random(0)
    cross = []
    for i in range(dec.n):
        li, lj = dec.layers[i], dec.layers[i + 1]
        cross_edges = [(v, w) for v in li for w in X.adjacency[v] if w in lj]
        for _ in range(min(50, len(cross_edges) ** 2)):
            (v, w), (x, y) = rng.choice(cross_edges), rng.choice(cross_edges)
            if abs(dist(X, (v,), (x,)) - dist(X, (w,), (y,))) > 1:
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
