"""The benchmark's four closed-loop workloads.

Each workload has one client: it sends the next operation only after the
previous one returned.  A workload

* `build()`: builds its fixed corpus with the library's generators; this is
  the timed set-up;
* `ops(corpus, rng)`: yields an endless, seeded stream of operations;
* `run(corpus, op)`: the timed call into the library;
* `check(corpus, op, out)`: validates the output with the benchmark's own
  BFS and returns a list of problems;
* `text(op, out)`: the output's canonical text, for the output digest and
  for comparing the executions of one operation;
* `lead`: operations at the head of the stream that run once, are
  validated, traced and digested, but stay out of the timing metrics;
* `min_ops`, `op_ms`: a round holds at least `min_ops` operations, more if
  `--seconds` asks for more work at about `op_ms` per operation.

The benchmark times every operation of a round in several rounds and keeps
each operation's fastest time (run.py).  That needs an operation to do the
same work every time, so each operation builds, parses or wraps its complex
afresh, and the library's per-complex BFS cache starts cold.

The seed draws the operations, never the corpus.  Operations rotate through
a fixed list of classes, each a set of inputs of about the same size (an
endpoint distance, a horizontal offset, a ray count), and the seed picks
the member of the class.  So every seed runs the same mix of work, and a
held-out seed is comparable to the seeds a change was tuned on.

Operations call the library through module attributes at call time, so the
traced run sees every top-level call.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from systolic import boundary, eucgeo, generators, metric
from systolic import complex as cx

import checks


class Op(NamedTuple):
    key: str        # corpus entry the operation runs on
    args: tuple     # arguments after the complex
    aux: object     # benchmark-side data kept for validation


def _corners(X) -> tuple[int, int]:
    """Lattice-least and lattice-greatest vertex of a flat region."""
    return (min(X.adjacency, key=lambda v: X.coords[v]),
            max(X.adjacency, key=lambda v: X.coords[v]))


def _fresh(X):
    """A new complex over the same adjacency, with a cold BFS cache."""
    return cx.FlagComplex(X.adjacency, X.coords)


def _flat_region(kind, h, w):
    """A flat rectangle ("rect") or parallelogram ("par") of height h, width w."""
    make = generators.flat_rectangle if kind == "rect" else generators.flat_parallelogram
    return make(h, w)


def _shuffled_cycle(rng, items):
    """Endless stream over `items`, each pass in a fresh seeded order."""
    items = list(items)
    if not items:
        raise ValueError("empty operation class")
    while True:
        rng.shuffle(items)
        yield from items


def _geodesic_ray_count(adj, dist, N: int) -> int:
    """Number of geodesics of length N starting at the BFS source."""
    count = {v: 1 for v, d in dist.items() if d == 0}
    for v in sorted(dist, key=dist.get):
        if dist[v] >= N:
            continue
        for w in adj[v]:
            if dist[w] == dist[v] + 1:
                count[w] = count.get(w, 0) + count[v]
    return sum(c for v, c in count.items() if dist[v] == N)


class DiscEgeo:
    name = "disc-egeo"
    why = ("Euclidean geodesics between seeded vertex pairs on a ~1,400-vertex disc, each "
           "call with a cold BFS cache: metric BFS does most of the work")
    disc_seeds = (3,)        # a disc of 1,430 vertices
    band = (6, 6)            # endpoint distance, so every call costs about the same
    lead, min_ops, op_ms = 0, 100, 20

    def build(self):
        return {f"disc-{s}": generators.gen_disc_with_degrees(s, rings=7)
                for s in self.disc_seeds}

    def ops(self, corpus, rng):
        keys = sorted(corpus)
        vertices = {k: sorted(corpus[k].adjacency) for k in keys}
        seen = set()
        lo, hi = self.band
        for i in itertools.count():
            key = keys[i % len(keys)]
            adj = corpus[key].adjacency
            while True:
                u = rng.choice(vertices[key])
                du = checks.bfs(adj, (u,))
                band = [v for v in vertices[key] if lo <= du[v] <= hi]
                if band:
                    v = rng.choice(band)
                    if (key, u, v) not in seen:
                        break
            seen.add((key, u, v))
            yield Op(key, ((u,), (v,)), du)

    def run(self, corpus, op):
        return eucgeo.euclidean_geodesic(_fresh(corpus[op.key]), *op.args)

    def check(self, corpus, op, eg):
        sigma, tau = op.args
        return checks.check_euclidean(corpus[op.key].adjacency, sigma, tau, eg, ds=op.aux)

    def text(self, op, eg):
        sigma, tau = op.args
        return f"{op.key} {sigma}>{tau} {eg.deltas}"


class FlatGood:
    name = "flat-good"
    why = ("good geodesics between far pairs, each on its own freshly built flat region: "
           "characteristic discs and flat geometry do most of the work, no memo can help")
    shapes = {"rect-30x6": ("rect", 30, 6), "rect-10x4": ("rect", 10, 4),
              "rect-9x6": ("rect", 9, 6), "rect-8x6": ("rect", 8, 6),
              "rect-8x4": ("rect", 8, 4), "rect-7x7": ("rect", 7, 7),
              "rect-6x8": ("rect", 6, 8), "par-9x5": ("par", 9, 5), "par-8x6": ("par", 8, 6)}
    # (shape, 2|dx|): pairs join the first and last row at distance = height,
    # `dx` lattice units apart horizontally.  The offset sets the shape of the
    # geodesic interval and so the work; a class costs 10-40 ms.  Offsets
    # whose interval is nearly a line are left out: they build almost no
    # flat disc, and metric does about half of their work.
    classes = (("rect-10x4", 2), ("rect-10x4", 6), ("rect-9x6", 5), ("rect-8x6", 2),
               ("rect-8x4", 4), ("rect-7x7", 1), ("rect-6x8", 2), ("par-9x5", 3),
               ("par-9x5", 5), ("par-8x6", 4))
    lead, min_ops, op_ms = 1, 100, 20

    def build(self):
        return {key: _flat_region(*shape) for key, shape in self.shapes.items()}

    def _far_pairs(self, X, h, twice_dx):
        adj = X.adjacency
        bottom = sorted(v for v in adj if X.coords[v][0] == 0)
        top = sorted(v for v in adj if X.coords[v][0] == h)
        pairs = []
        for u in bottom:
            du = checks.bfs(adj, (u,))
            pairs += [(u, v) for v in top if du[v] == h
                      and abs(2 * (X.coords[v][1] - X.coords[u][1])) == twice_dx]
        return pairs

    def ops(self, corpus, rng):
        # The corners of the 30x6 rectangle once per run (the untimed lead),
        # then one class per operation in turn.  Each operation builds its
        # region afresh, so no two operations share a complex and per-complex
        # caches start cold.
        yield Op("rect-30x6", _corners(corpus["rect-30x6"]), None)
        streams = [(key, _shuffled_cycle(rng, self._far_pairs(corpus[key],
                                                              self.shapes[key][1], twice_dx)))
                   for key, twice_dx in self.classes]
        for key, stream in itertools.cycle(streams):
            yield Op(key, next(stream), None)

    def run(self, corpus, op):
        X = _flat_region(*self.shapes[op.key])
        return X, boundary.make_good_geodesic(X, *op.args)

    def check(self, corpus, op, out):
        (v, w), (X, good) = op.args, out
        problems = []
        if X.adjacency != corpus[op.key].adjacency:
            problems.append("the region differs from the corpus copy")
        return problems + checks.check_good(X.adjacency, v, w, good, boundary.C_DEFAULT + 1)

    def text(self, op, out):
        (v, w), (_, good) = op.args, out
        return f"{op.key} {v}>{w} {good.path} {good.max_certificate}"


class Atlas:
    name = "atlas"
    why = ("finite boundary atlases: many Euclidean geodesics per call over few distinct "
           "pairs, plus ray classing; the workload a memo or bitset classing speeds up")
    # (corpus key, N, ray-count band).  The work of a call grows about
    # linearly with the number of rays, so a narrow band fixes it; a class
    # costs 15-50 ms.  The middle class by cost holds the median latency.
    classes = (("disc4-3", 3, (14, 16)), ("rect-10x5", 3, (16, 19)),
               ("disc4-3", 3, (19, 21)), ("rect-10x5", 3, (25, 27)),
               ("rect-10x5", 4, (21, 25)))
    lead, min_ops, op_ms = 1, 100, 20

    def build(self):
        return {"rect-10x5": generators.flat_rectangle(10, 5),
                "disc4-3": generators.gen_disc_with_degrees(3, rings=4)}

    def ops(self, corpus, rng):
        yield Op("rect-10x5", (0, 8), None)     # the untimed lead
        streams = []
        for key, N, (lo, hi) in self.classes:
            adj = corpus[key].adjacency
            basepoints = []
            for O in sorted(adj):
                dist = checks.bfs(adj, (O,))
                if max(dist.values()) >= N and lo <= _geodesic_ray_count(adj, dist, N) <= hi:
                    basepoints.append(O)
            streams.append((key, N, _shuffled_cycle(rng, basepoints)))
        for key, N, stream in itertools.cycle(streams):
            yield Op(key, (next(stream), N), None)

    def run(self, corpus, op):
        return boundary.boundary_atlas(_fresh(corpus[op.key]), *op.args)

    def check(self, corpus, op, atlas):
        O, N = op.args
        return checks.check_atlas(corpus[op.key].adjacency, O, N, atlas, boundary.C_DEFAULT + 1)

    def text(self, op, atlas):
        O, N = op.args
        return (f"{op.key} {O} {N} {[r.path for r in atlas.rays]} {atlas.classes} "
                f"{atlas.raw_violations} {atlas.rep_distance_matrix} {atlas.capped}")


class ColdCheck:
    name = "cold-check"
    why = ("one-shot check sessions: parse a .cx text, run every complex-level verdict "
           "and two geodesics with cold caches; construction and complex dominate")
    # Six discs and six small flat regions.  The cost of a session is set by
    # its complex, so every round cycles the whole pool.
    disc_seeds = range(1, 7)
    disc_rings = (3,)
    flat_shapes = (("rect", 6, 3), ("rect", 5, 4), ("rect", 4, 4),
                   ("par", 6, 3), ("par", 5, 3), ("par", 4, 4))
    classes = ("disc3", "par", "rect")     # corpus key prefixes
    lead, min_ops, op_ms = 0, 100, 20

    def build(self):
        corpus = {}
        for rings in self.disc_rings:
            for s in self.disc_seeds:
                X = generators.gen_disc_with_degrees(s, rings=rings)
                corpus[f"disc{rings}-{s}"] = (X, cx.dumps_complex(X))
        for kind, h, w in self.flat_shapes:
            X = _flat_region(kind, h, w)
            corpus[f"{kind}-{h}x{w}"] = (X, cx.dumps_complex(X))
        return corpus

    def ops(self, corpus, rng):
        # One class per operation in turn; a fresh seeded far pair each time.
        streams = [_shuffled_cycle(rng, [key for key in sorted(corpus)
                                         if key.split("-")[0] == cls])
                   for cls in self.classes]
        for stream in itertools.cycle(streams):
            key = next(stream)
            adj = corpus[key][0].adjacency
            u = rng.choice(sorted(adj))
            du = checks.bfs(adj, (u,))
            far = max(du.values())
            v = min(w for w, d in du.items() if d == far)
            yield Op(key, (u, v), du)

    def run(self, corpus, op):
        u, v = op.args
        X = cx.loads_complex(corpus[op.key][1])
        X.validate()
        return (X, cx.is_locally_6_large(X), cx.simply_connected_heuristic(X),
                cx.is_k_large(X, cx.INFINITY),
                metric.directed_geodesic(X, (u,), frozenset((v,))),
                eucgeo.euclidean_geodesic(X, (u,), (v,)))

    def check(self, corpus, op, out):
        u, v = op.args
        X, local6, collapse, large, dgeo, eg = out
        adj = corpus[op.key][0].adjacency
        problems = []
        if X.adjacency != adj:
            problems.append("parsed complex differs from the generated one")
        if not local6.ok:
            problems.append(f"systolic input judged not locally 6-large: {local6.witness}")
        if not large.ok and not checks.is_induced_cycle(adj, large.witness):
            problems.append(f"infinity-large witness {large.witness} is not an induced cycle")
        dv = checks.bfs(adj, (v,))
        problems += checks.check_directed(adj, u, v, dgeo, du=op.aux, dv=dv)
        return problems + checks.check_euclidean(adj, (u,), (v,), eg, ds=op.aux, dt=dv)

    def text(self, op, out):
        u, v = op.args
        _, local6, collapse, large, dgeo, eg = out
        return (f"{op.key} {u}>{v} {local6.ok} {local6.capped} {collapse} {large.ok} "
                f"{large.witness} {large.capped} {dgeo} {eg.deltas}")


WORKLOADS = {w.name: w for w in (DiscEgeo(), FlatGood(), Atlas(), ColdCheck())}
