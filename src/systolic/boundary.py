"""Good geodesics, contracting checks, and finite-radius boundary atlases.

A good geodesic stays within C+1 of the Euclidean geodesic of every one of
its subsegments; boundary points at a finite truncation are classes of good
geodesics of length N under the all-indices threshold D = 3C + 2.

A certificate reads the Euclidean geodesic of every subsegment of two or
more edges (every entry of a one-edge subsegment is 0).  Those of at most
three edges have closed forms read off projections onto balls
(Januszkiewicz-Swiatkowski, "Simplicial nonpositive curvature", Publ.
IHES 104, 2006), which are read off neighbourhoods with no sweep grown;
longer ones are built.  Every result for a subsegment of two or more edges
is memoised per endpoint pair, and the builds share each piece fixed by
ends they read: projection steps, layer widths and surface rows
(`_CertMemo`).  A certificate stores only its nonzero entries, most being
0 by a lemma, in one dict per level.  An atlas certifies each prefix of
its rays once, its rays share that prefix's level dicts, and it classes
no level that D already decides.

A build needs the interval of its subsegment with its layer map, and
reads both off the path's own layer map, with no search of its own.
With l = d(v_0, .) on a geodesic v_0..v_n, call an edge rising when l
grows by 1 along it.  The cone lemma: for i < j, I(v_i, v_j) is the set
of vertices reached from v_i along rising edges that reach v_j along
rising edges, and d(v_i, .) = l - i on it, in any graph (proof in
`_certify`).  So one layer map serves every subsegment of a certificate,
and of an atlas, whose rays all start at its basepoint: each vertex's
two cones are found once, as int masks over the map's vertices, and each
build reads their intersection, one AND, and steps on it by ANDs of
neighbour masks (`_ConeLayer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .complex import FlagComplex, Simplex
from .eucgeo import _ends, _euclidean, _Pieces, thread_vertex_path
from .metric import _checked_projection, _interval, dist, dist_map, graded_paths

C_DEFAULT = 208          # universal constant serving both verification suites
ATLAS_CAP = 20000        # geodesics an atlas certifies at most


def default_D(C: int) -> int:
    """The threshold D = 3C + 2 that belongs to the constant C: the atlas's
    all-indices threshold and the contracting corollary's basepoint bound."""
    return 3 * C + 2


D_DEFAULT = default_D(C_DEFAULT)


class GoodnessError(ValueError):
    """A certificate failed where the construction guarantees it."""


@dataclass
class GoodGeodesic:
    """A certified good geodesic v_0..v_n and its certificate, the entries
    (i, j, k) -> |v_k, delta_k^{i,j}| for 0 <= i < j <= n and i <= k <= j.

    `levels[j]` holds the nonzero entries of level j, those (i, j, k); every
    other entry is 0.  Most are 0 by a lemma (see `_certify`), so a
    certificate of n edges stores few of its about n^3/6 entries.  Level j
    depends only on v_0..v_j, so geodesics certified together share the
    level dicts of their common prefix, and none is changed once stored.
    `certificate` rebuilds the full table on first read, keyed by j, then
    i, then k, the order `_certify` runs the entries in."""

    path: list[int]
    C: int
    levels: tuple[dict[tuple[int, int, int], int], ...]

    @property
    def max_certificate(self) -> int:
        return max((d for level in self.levels for d in level.values()), default=0)

    @cached_property
    def certificate(self) -> dict[tuple[int, int, int], int]:
        entries = {key: d for level in self.levels for key, d in level.items()}
        return {(i, j, k): entries.get((i, j, k), 0)
                for j in range(len(self.path)) for i in range(j) for k in range(i, j + 1)}


def is_good_geodesic(X: FlagComplex, path: list[int], C: int = C_DEFAULT):
    """Certify a 1-skeleton geodesic as good, or return its witness.

    Returns (GoodGeodesic, None), its path a copy of `path`, or (None,
    witness (i, j, k, distance)).  The one certifier, `_certify`, makes
    the witness the least (j, i, k) above C + 1: its prefix path[:j + 1]
    is the shortest that fails.  A path that is not a geodesic raises
    ValueError; the library's own callers pass geodesics by construction
    and skip this check.

    One `_interval(path[0], path[-1])` serves twice: its n checks that the
    path, whose steps are edges, is a geodesic, and its map is the layer
    map d(path[0], .) on I(path[0], path[-1]) that the certificate reads.

    On input that is not systolic the subsegments' closed forms and builds
    can raise what `euclidean_geodesic` raises: ProjectionError,
    CharDiscError, SurfaceError, or ValueError when the ends do not lie in
    each other's n-sphere.  They keep their checks, and `check`'s verdict
    rules every one of them out.
    """
    if not path or not all(X.is_edge(a, b) for a, b in zip(path, path[1:])):
        raise ValueError("path is not a 1-skeleton geodesic")
    n, level = _interval(X, (path[0],), (path[-1],))
    if n != len(path) - 1:
        raise ValueError("path is not a 1-skeleton geodesic")
    return _certify(X, [list(path)], C, _CertMemo(level))[0]


class _CertMemo(_Pieces):
    """What the certificates of geodesics from one vertex o on one complex
    X share, for one certificate or one whole atlas.  Its own entries:

    * `level`: the layer map d(o, .) on a vertex set holding I(o, v_n) for
      each path v_0..v_n certified (see `_certify`);
    * `deltas`: (a, c) -> the deltas of the Euclidean geodesic between the
      vertices a and c, for each endpoint pair at distance >= 2;
    * int masks over `level`'s vertices, numbered on the first build
      (`layer`) by (label, id), so that `order[b]` is the vertex of bit b
      and `bits[x]` the bit of x: `up[x]` and `down[x]`, x's up and down
      cones along `level`'s rising edges; `near[x]`, x's neighbours in
      `level`; and `labels[l]`, the vertices labelled l.  An atlas at
      N <= 3 builds nothing, so it numbers nothing.

    Its builds also fill in and read the pieces of `eucgeo._Pieces`, each
    a function of X and its key alone:

    * `steps[(c,)]`: simplex s -> its projection onto B_k(c), where
      k = d(s, c) - 1.  A build with end c reads it off its layer map,
      exactly `_interval`'s (the cone lemma of `_certify`), with every
      projection and error of c's full sweep, so the step is fixed by s
      and c.  Each end has its own dict, so a lookup hashes s alone.
    * `widths`: (sigma_k, tau_k) -> (width, realizing pairs, span), read
      off the two members alone by `is_simplex` and, for a thick layer,
      by `maximizing_pairs`, whose `dist` is exact.
    * `rows`: (s_k, t_k) -> the walk of `all_geodesics(X, s_k, t_k)`, the
      row geodesics in the lexicographic order the search for a disc's
      least surface reads them in, kept as a `tee` that is never advanced:
      each search reads a copy, which replays what earlier searches
      pulled, so the walk goes only as far as some search has asked,
      never capped.  A search stops at its first surface, and the memo
      still pays: with each search starting its walks afresh, the corner
      certificates of `flat_rectangle(30, 30)` and `(60, 60)` took 0.47
      and 4.9 s of CPU, against 0.39 and 3.4 s (best of 3, Python 3.11 on
      a shared 2-vCPU x86-64 host).
    * `shapes`: a disc's first row and rows -> its diagonal and nearest
      simplices, which read those alone.

    An error ends the certificate or atlas, so no entry records one; and
    no value handed out is changed afterwards, since builds share them."""

    __slots__ = ("level", "deltas", "bits", "order", "up", "down", "near", "labels")

    def __init__(self, level: dict[int, int]):
        super().__init__()
        self.level = level
        self.deltas: dict[tuple[int, int], list] = {}
        self.bits: dict[int, int] | None = None

    def layer(self, X: FlagComplex, a: int, c: int) -> _ConeLayer:
        """The layer map d(a, .) on I(a, c) = up(a) & down(c), for vertices
        a before c on a path certified with this memo."""
        if self.bits is None:
            self._number(X)
        return _ConeLayer(X, self, self.up[a] & self.down[c], self.level[a])

    def _number(self, X: FlagComplex) -> None:
        """Number `level`'s vertices and store its masks: an ascending pass
        by label finds each down cone from the rising edges into the
        vertex, and a descending pass each up cone from those out of it."""
        level, adjacency = self.level, X.adjacency
        self.order = order = sorted(sorted(level), key=level.__getitem__)
        self.bits = bits = {x: 1 << b for b, x in enumerate(order)}
        self.labels = labels = [0] * (level[order[-1]] + 1)
        self.near, self.down, self.up = near, down, up = {}, {}, {}
        rising: dict[int, list[int]] = {x: [] for x in order}
        for x in order:
            below, bit = level[x] - 1, bits[x]
            labels[below + 1] |= bit
            adjacent, cone = 0, bit
            for u in adjacency[x]:
                b = bits.get(u)
                if b is not None:
                    adjacent |= b
                    if level[u] == below:
                        cone |= down[u]
                        rising[u].append(x)
            near[x], down[x] = adjacent, cone
        for x in reversed(order):
            cone = bits[x]
            for u in rising[x]:
                cone |= up[u]
            up[x] = cone


class _ConeLayer:
    """The layer map d(a, .) on the interval I(a, c) that a `_CertMemo`'s
    masks `mask` = up(a) & down(c) hold, where a is labelled i (the cone
    lemma of `_certify`): `get` reads it like a dict, and `project` is the
    step kernel of the build's directed geodesics (`_directed`).

    A step of s to label `target` is the AND of the masks `near` of s's
    vertices, the mask of label i + target and `mask`, read out in
    ascending bit order: its vertices share one label, so that is id
    order.  It goes through `_checked_projection`, with the checks and
    messages of `metric._project`, the dict filter one-off builds keep.
    This second kernel stays because the workloads that certify, flat-good
    and atlas, pay for it: with it, the cone masks and the shared disc
    shapes, flat-good went from 416 to 494 operations per second and atlas
    from 2,048 to 2,219 (medians of ten benchmark runs each; Python
    3.11.7, a shared 2-vCPU x86-64 host).  A one-off build reuses no mask,
    so `euclidean_geodesic` keeps the dict filter: numbering masks for each
    of its builds made disc-egeo's 200 seed-1 operations 14 to 22% slower
    (two runs)."""

    __slots__ = ("X", "level", "bits", "order", "near", "labels", "mask", "i")

    def __init__(self, X: FlagComplex, memo: _CertMemo, mask: int, i: int):
        self.X, self.level, self.bits, self.order = X, memo.level, memo.bits, memo.order
        self.near, self.labels, self.mask, self.i = memo.near, memo.labels, mask, i

    def get(self, x: int) -> int | None:
        """x's label, l(x) - i, in I(a, c), or None off it."""
        return self.level[x] - self.i if self.bits.get(x, 0) & self.mask else None

    def project(self, sigma: Simplex, target: int) -> Simplex:
        """The projection of sigma, inside I(a, c), to label `target`."""
        near = self.labels[self.i + target] & self.mask
        for v in sigma:
            near &= self.near[v]
        order, pi = self.order, []
        while near:
            low = near & -near
            pi.append(order[low.bit_length() - 1])
            near ^= low
        return _checked_projection(self.X, sigma, tuple(pi))


def _certify(X: FlagComplex, paths: list[list[int]], C: int, memo: _CertMemo):
    """The one certifier.  `paths` are geodesics from one vertex o in the
    DFS order of `graded_paths` (one path: a one-path list); each gets
    (GoodGeodesic, None) or (None, witness (i, j, k, distance)).  Each pair
    (p[i], p[j]) that is not skipped (below) reads its Euclidean geodesic's
    deltas from `memo`, which fills in the misses.

    Pairs run by j, then i, and the first entry above C + 1 is the
    witness: the least (j, i, k), at the shortest failing prefix p[:j + 1].
    Level j, the entries (i, j, k), depends only on that prefix.  `levels`
    holds one dict of nonzero entries per good level of the previous path,
    so a path keeps the levels of the prefix it shares with that one and
    computes a fresh dict for each level after it; a level that fails is
    never kept.  A path extending the previous one's failing prefix is
    dropped unread: its levels up to that witness are the prefix's, so the
    witness is its own.  A path's levels, kept or computed, are those
    certifying it alone computes, in the same order, so it gets, and
    raises, the same.  A good path holds its levels as a tuple, sharing
    each kept dict with the paths through that prefix; no level is changed
    once kept.

    A build reads I(p[i], p[j]) and its layer map d(p[i], .) off the layer
    map l = `memo.level` = d(o, .), by the cone lemma.  Write v_k = p[k],
    so l(v_k) = k, and call an edge x-y rising when l(y) = l(x) + 1; up(v)
    is the set of vertices reached from v along rising edges, down(w) the
    set of those from which w is reached.  For i < j, in any graph:

        I(v_i, v_j) = up(v_i) & down(v_j),  with d(v_i, x) = l(x) - i there.

    * Inclusion of I: let x lie in I(v_i, v_j), so d(v_i, x) + d(x, v_j)
      = j - i.  Then l(x) <= i + d(v_i, x), and j = l(v_j) <= l(x) +
      d(x, v_j) = l(x) + j - i - d(v_i, x), so l(x) = i + d(v_i, x).  Each
      vertex of a geodesic from v_i to v_j lies in I(v_i, v_j), so l grows
      by 1 along each of its edges: a geodesic from v_i through x to v_j is
      a rising path, and x lies in both cones.
    * Inclusion in I: a rising path from v_i to x, then one from x to v_j,
      has l(v_j) - l(v_i) = j - i = d(v_i, v_j) edges, so it is a geodesic;
      x lies in I(v_i, v_j), l(x) - i edges from v_i on it.
    * The map may be cut down: every rising path from v_i to v_j lies in
      I(v_i, v_j), and v_0..v_i, that path, v_j..v_n is a walk of n =
      d(v_0, v_n) edges, so a geodesic: the path lies in I(v_0, v_n).  So
      the intersection is the same on any vertex set holding I(v_0, v_n),
      where the cones themselves shrink.
    So the build's map {x: l(x) - i} on the intersection is exactly the one
    `_interval` finds, and so are its deltas and its errors.  The cones are
    int masks of `memo`, found for every vertex in one pass each way on the
    first build, for all the paths; a build's interval is the AND
    up(v_i) & down(v_j), read like its map by a `_ConeLayer`.

    More facts spare work without changing a result or an error:
    - j - i <= 3: the geodesic has a closed form (`_short_deltas`, or
      [(a,), (c,)] for adjacent a, c, since each end projects onto the ball
      B_0 of the other as that other end), which raises what
      `euclidean_geodesic` raises.  Only pairs with j - i >= 4 build one;
      the memo keeps both the closed forms and the builds.
    - Each closed form's inner deltas hold the path's vertices there, on
      any edge path v_i..v_j: at j - i = 2, delta_1 = N(v_i) & N(v_j) holds
      v_{i+1}; at j - i = 3, delta_1 = L_1, the neighbours of v_i with a
      neighbour in N(v_j), holds v_{i+1}, since v_{i+2} lies in N(v_j), and
      likewise L_2 holds v_{i+2}.  So every entry of such a pair is 0.
      `_pair_entries` proves the same of k = i + 1 and j - 1 for a build,
      and looks up only the other entries.
    - So the loop skips two kinds of pair, every entry of which is 0: a
      one-edge pair, whose deltas are its two ends and can raise nothing,
      and a pair of two or three edges whose closed form is already in
      `memo.deltas`, whose checks ran when it was computed.  Any other pair
      of two or three edges computes its closed form, with its checks, and
      stores nothing.
    - A 0 entry fails only when C + 1 < 0.  Then the first entry, (0, 1, 0),
      of a one-edge pair, is the witness (0, 1, 0, 0) of every path of an
      edge or more, and no pair is read; with C + 1 >= 0 the skipped and
      decided entries never fail, so the witness, the first entry above
      C + 1 in (j, i, k) order, is the one every entry would give.
    """
    out = []
    levels: list[dict[tuple[int, int, int], int]] = []     # prev's good levels
    keys: dict[tuple, tuple] = {}   # one key tuple per entry position
    prev: list[int] = []
    witness = None              # prev's witness, if it failed
    deltas = memo.deltas
    for p in paths:
        shared = next((s for s, (u, w) in enumerate(zip(p, prev)) if u != w), len(prev))
        prev = p
        if witness is None or shared <= witness[1]:     # p keeps no failing prefix
            witness = None
            del levels[shared:]
            for j in range(len(levels), len(p)):
                if j == 1 and C + 1 < 0:
                    witness = 0, 1, 0, 0
                    break
                c, level = p[j], {}
                for i in range(j - 1):
                    if j - i > 3 or (p[i], c) not in deltas:
                        witness = _pair_entries(X, p, i, j, C, memo, level, keys)
                        if witness is not None:
                            break
                if witness is not None:
                    break
                levels.append(level)
        out.append((None, witness) if witness else (GoodGeodesic(p, C, tuple(levels)), None))
    return out


def _pair_entries(X: FlagComplex, path: list[int], i: int, j: int, C: int, memo: _CertMemo,
                  level: dict[tuple[int, int, int], int], keys: dict[tuple, tuple]):
    """Store the nonzero entries (i, j, k) of `path` in `level`, stopping
    at and returning the first witness (i, j, k, distance) above C + 1, or
    None.  C + 1 >= 0 here (`_certify` decides the case C + 1 < 0).  Each
    key is stored as the one tuple `keys` holds for its position, so that
    the entries of all the paths of one `_certify` call share their keys.

    The deltas are read for every pair `_certify` does not skip, so that
    each closed form makes its checks and raises its errors, but only the
    entries no lemma decides are visited.  Let a = v_i, c = v_j and
    n = j - i.

    * k in {i, i + 1, j - 1, j}: the entry is 0, and is not visited.  The
      ends are delta_0 = (a,) and delta_n = (c,).  A pair of two or three
      edges has a closed form whose inner deltas hold the path's vertices
      (proof in `_certify`).  A build (n >= 4, or `make_good_geodesic`'s
      own pair at any n) reads the layer map d(a, .) on I(a, c), and
      sigma_1, a's projection onto B_{n-1}(c), is every vertex labelled 1
      there, since each one neighbours a.  So tau_1, labelled 1 too, lies
      in sigma_1; their span is sigma_1, a simplex, so layer 1 is thin
      and delta_1 = sigma_1 holds v_{i+1}, a vertex of I(a, c) labelled 1.
      Side c gives delta_{n-1} = tau_{n-1}, which holds v_{j-1}.
    * Every other entry, i + 1 < k < j - 1, is visited in k order: 0 when
      v_k lies in delta_k, 1 when N(v_k) meets delta_k, and `dist`
      otherwise, each test exact in any graph.  Only a nonzero one is
      stored and meets the C + 1 test, since a 0 entry cannot fail."""
    deltas = _subsegment_deltas(X, path[i], path[j], j - i, memo)
    adjacency = X.adjacency
    for k in range(i + 2, j - 1):
        v, delta = path[k], deltas[k - i]
        if v not in delta:
            d = 1 if not adjacency[v].isdisjoint(delta) else dist(X, v, delta)
            level[keys.setdefault(key := (i, j, k), key)] = d
            if d > C + 1:
                return i, j, k, d
    return None


def _subsegment_deltas(X: FlagComplex, a: int, c: int, n: int, memo: _CertMemo) -> list:
    """The deltas of the Euclidean geodesic between vertices a and c at
    distance n >= 1, a before c on a path certified with `memo`:
    [(a,), (c,)] for n = 1, then `memo`, filled in by a closed form for
    n <= 3 and by a build on `memo.layer(X, a, c)` after.  `_certify` asks
    for no one-edge pair, whose entries are all 0; the tests check that
    closed form against the build with the others."""
    if n == 1:
        return [(a,), (c,)]
    deltas = memo.deltas.get((a, c))
    if deltas is None:
        if n <= 3:
            deltas = _short_deltas(X, a, c, n)
        else:
            layer = memo.layer(X, a, c)
            deltas = _euclidean(X, (a,), (c,), n, layer, layer.project, memo).deltas
        memo.deltas[(a, c)] = deltas
    return deltas


def _short_deltas(X: FlagComplex, a: int, c: int, n: int) -> list:
    """The deltas of the Euclidean geodesic between vertices a and c at
    distance n = 2 or 3, read off neighbourhoods with no sweep grown and no
    geodesic built, raising what `euclidean_geodesic` raises on
    non-systolic input.

    n = 2: the projection of a onto B_1(c) is N(a) & N(c), and so is that
    of c onto B_1(a); both directed-geodesic members of layer 1 are this
    common neighbourhood, so the layer is thin and delta_1 is it.  It is
    checked to be a simplex (it is nonempty at distance 2).

    n = 3: the directed geodesic from a starts with its projection onto
    B_2(c), the whole of L_1 = N(a) & S_2(c), and the one from c starts
    with L_2 = N(c) & S_2(a).  The member tau_1, the projection of L_2 onto
    B_1(a), is adjacent to a and to vertices of N(c), so tau_1 lies in L_1;
    likewise sigma_2, the projection of L_1 onto B_1(c), lies in L_2.  Both
    interior layers are thus thin, every span the thickness profile checks
    is a simplex, and the deltas are [(a,), L_1, L_2, (c,)].  These
    inclusions hold in any flag complex, so only four projections can
    fail: a onto B_2(c), L_1 onto B_1(c), c onto B_2(a) and L_2 onto
    B_1(a), which run here in the build's order with its messages; the
    last step of each chain, onto c or onto a, cannot fail.

    No distance map is needed.  A neighbour x of a lies 2 to 4 from c, as
    d(a, c) = 3, so x is in B_2(c) exactly when N(x) meets N(c): the
    projection of a onto B_2(c) is {x in N(a) : N(x) & N(c) nonempty}.  A
    common neighbour u of L_1, inside S_2(c), lies at least 1 from c, so it
    is in B_1(c) exactly when it is in N(c): the projection of L_1 onto
    B_1(c) is N(c) & the N(x), x in L_1.  The side of c is symmetric.

    This second implementation of the short geodesics stays because the
    atlas workload pays for it: building these pairs on the cone layer, as
    longer ones are, took 200 seed-1 atlas operations from 58.0-59.0 to
    130.2-131.5 ms, with equal outputs (best of 3, two runs; Python
    3.11.7, a shared 2-vCPU x86-64 host).
    """
    adjacency = X.adjacency
    if n == 2:
        mid = _checked_projection(X, (a,), tuple(sorted(adjacency[a] & adjacency[c])))
        return [(a,), mid, (c,)]
    layers = []
    for end, far in ((a, c), (c, a)):
        near = adjacency[far]
        layer = _checked_projection(X, (end,), tuple(sorted(
            [x for x in adjacency[end] if not adjacency[x].isdisjoint(near)])))
        _checked_projection(X, layer, tuple(sorted(
            near.intersection(*(adjacency[x] for x in layer)))))
        layers.append(layer)
    return [(a,), *layers, (c,)]


def make_good_geodesic(X: FlagComplex, v: int, w: int, C: int = C_DEFAULT) -> GoodGeodesic:
    """A good geodesic from v to w: thread the Euclidean geodesic between
    them and certify the result, reusing that geodesic for the whole path.
    Certification failure is a hard error.

    The threaded path needs no geodesic check: it has one edge per layer of
    a Euclidean geodesic of length n = d(v, w), so its n edges join v to w.
    The build and the certificate read one layer map, d(v, .) on I(v, w).

    On input that is not systolic it can raise what `euclidean_geodesic`
    raises, for (v, w) or for any subsegment; a ValueError from threading,
    when no vertex of delta_k neighbours the path's last vertex; or
    GoodnessError.  `check`'s verdict rules every one of them out.
    """
    sigma, tau = _ends(X, v, w)
    n, level = _interval(X, sigma, tau)
    memo = _CertMemo(level)
    layer = memo.layer(X, v, w)
    eg = _euclidean(X, sigma, tau, n, layer, layer.project, memo)
    path = thread_vertex_path(X, eg)
    memo.deltas[(v, w)] = eg.deltas
    good, witness = _certify(X, [path], C, memo)[0]
    if good is None:
        raise GoodnessError(f"threaded path failed its certificate at {witness}")
    return good


def corollary_contr_check(X: FlagComplex, path_v: list[int], path_w: list[int]) -> Fraction:
    """Max over every c in [0, 1] of |v_[cn] w_[cm]| - c*|v_n w_m| for two
    good geodesics from a common basepoint.

    The maximum falls at a breakpoint c in {0} | {a/n} | {b/m}.  Between
    consecutive breakpoints both floors [cn] and [cm] are constant, so the
    distance is constant while -c*|v_n w_m| does not increase: the excess
    on [c0, c1) is at most its value at c0, and c = 1 is a breakpoint.
    """
    if path_v[0] != path_w[0]:
        raise ValueError("paths must share their basepoint")
    n, m = len(path_v) - 1, len(path_w) - 1
    dend = dist(X, path_v[-1], path_w[-1])
    breaks = ({Fraction(0)} | {Fraction(a, n) for a in range(1, n + 1)}
              | {Fraction(b, m) for b in range(1, m + 1)})
    return max(dist(X, path_v[int(c * n)], path_w[int(c * m)]) - c * dend for c in breaks)


def rays_equivalent_truncated(X: FlagComplex, a: GoodGeodesic, b: GoodGeodesic,
                              D: int = D_DEFAULT):
    """("equivalent-so-far", None) or ("distinct", witness index).

    Distinct once some |v_i w_i| > D: linear amplification then separates the
    classes for good.  Requires the same basepoint and equal length.
    """
    if a.path[0] != b.path[0]:
        raise ValueError("rays have different basepoints")
    if len(a.path) != len(b.path):
        raise ValueError("truncated rays must have equal length")
    for i in range(len(a.path)):
        if dist(X, (a.path[i],), (b.path[i],)) > D:
            return "distinct", i
    return "equivalent-so-far", None


def in_standard_neighborhood(X: FlagComplex, zeta: GoodGeodesic, eta: GoodGeodesic,
                             N: int, R: int, D: int = D_DEFAULT) -> bool:
    """Membership of zeta in the standard neighborhood of eta at depth N and
    radius R (good geodesics from the same basepoint, |w_N v_N| <= R)."""
    if R <= D:
        raise ValueError(f"R must exceed D = {D}")
    if N < 1:
        raise ValueError("N must be >= 1")
    if zeta.path[0] != eta.path[0]:
        raise ValueError("rays have different basepoints")
    if len(zeta.path) - 1 < N or len(eta.path) - 1 < N:
        raise ValueError("rays too short for depth N")
    return dist(X, (zeta.path[N],), (eta.path[N],)) <= R


@dataclass
class BoundaryAtlas:
    basepoint: int
    N: int
    D: int
    rays: list[GoodGeodesic]
    classes: list[list[int]]             # indices into rays, closure of the relation
    raw_violations: int                  # transitivity failures of the raw relation
    rep_distance_matrix: list[list[int]]
    capped: bool


def boundary_atlas(X: FlagComplex, O: int, N: int, D: int | None = None,
                   C: int = C_DEFAULT, cap: int = ATLAS_CAP) -> BoundaryAtlas:
    """Finite-radius boundary approximation at basepoint O, with threshold
    D = `default_D(C)` unless D is given.

    Certifies the first `cap` geodesics of length N from O in lexicographic
    order, keeping the good ones as rays (`capped`: one more such geodesic
    exists), partitions them by the closure of the all-indices threshold D,
    and reports raw-relation transitivity violations (a truncation artifact:
    the threshold relation is only transitive in the limit) plus the
    distance matrix of class representatives.

    Rays are certified by the one certifier, `_certify`, with one shared
    memo, so each endpoint pair at distance >= 2 has its Euclidean geodesic
    computed once for all its rays (by a closed form below distance 4, by a
    build from there), and each prefix has its entries computed once for
    all the rays through it.  A geodesic is dropped at its shortest failing
    prefix, the witness `is_good_geodesic` gives it.  Builds read the layer
    map d(O, .) on B_N(O), which holds I(O, v_N) for every ray, so no
    interval is searched for.  O's sweep grows only to radius N, the last
    layer read: N exceeds O's eccentricity when no vertex is labelled N.
    A geodesic of `graded_paths` needs no geodesic check: its distance
    from O grows by one at each of its N edges, so it ends N from O.
    Every ray holds only its certificate's nonzero entries, in level dicts
    shared with every ray through the same prefix, and rebuilds the full
    table when `certificate` is read: at N = 12 from the centre of
    `flat_rectangle(24, 24)`, its 20,000 rays hold 750,645 of 8,840,000
    entries, stored once each in 39,948 level dicts, 387,163 in all, under
    165 key tuples.

    The rays related to ray a are the AND over i of the rays whose i-th
    vertex lies within D of a's, kept as int bitsets.  Level-i vertices
    of rays lie within 2i of each other through O, so levels with 2i <= D
    relate every pair and are skipped; the others read sweeps grown only to
    radius D, and the representative matrix reads `dist`.  When N <= D // 2
    no level is left, and the one class and zero violations are written
    down with no scan of the pairs.  That second path stays because it
    spares an O(rays^2) scan at the cap, at every N <= 313 under the
    default C.  The atlas workload runs only this side: classing its rays
    through `_classing` as well added 8.2 ms to the 64.0 ms of its 200
    seed-1 operations (+13%, best of 7; Python 3.11.7, a shared 2-vCPU
    x86-64 host).

    On input that is not systolic the certificates can raise what
    `is_good_geodesic` raises.  `check`'s verdict rules it out.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if N < 0:
        raise ValueError(f"N must be at least 0, got {N}")
    D = default_D(C) if D is None else D
    level = {x: d for x, d in dist_map(X, (O,), radius=N).items() if d <= N}
    if N > max(level.values()):
        raise ValueError(f"N exceeds the eccentricity of {O}")
    paths = list(islice(graded_paths(X, O, level, 1, N), cap + 1))
    capped = len(paths) > cap
    rays = [good for good, _ in _certify(X, paths[:cap], C, _CertMemo(level)) if good]
    if N <= D // 2:
        classes, violations = ([list(range(len(rays)))] if rays else []), 0
    else:
        classes, violations = _classing(X, rays, N, D)
    reps = [rays[g[0]].path[N] for g in classes]
    matrix = [[dist(X, p, q) for q in reps] for p in reps]
    return BoundaryAtlas(O, N, D, rays, classes, violations, matrix, capped)


def _classing(X: FlagComplex, rays: list[GoodGeodesic], N: int, D: int):
    """The classes of the rays under the closure of the all-indices
    threshold D, and the transitivity failures of the raw relation."""
    full = (1 << len(rays)) - 1
    related = [full] * len(rays)
    for i in range(D // 2 + 1, N + 1):
        groups: dict[int, int] = {}
        for a, ray in enumerate(rays):
            groups[ray.path[i]] = groups.get(ray.path[i], 0) | 1 << a
        near = {}
        for v in groups:
            row = dist_map(X, (v,), radius=D)
            # the groups are disjoint, so their sum is their union
            near[v] = sum(members for w, members in groups.items()
                          if row.get(w, D + 1) <= D)
        for a, ray in enumerate(rays):
            related[a] &= near[ray.path[i]]

    classes = []
    unclassed = full
    while unclassed:
        cls = frontier = unclassed & -unclassed
        while frontier:
            reached = 0
            for a in _bits(frontier):
                reached |= related[a]
            frontier = reached & ~cls
            cls |= frontier
        unclassed &= ~cls
        classes.append(_bits(cls))

    violations = 0
    for b in range(len(rays)):
        above = related[b] >> (b + 1) << (b + 1)
        if above:
            for a in _bits(related[b] & ((1 << b) - 1)):
                violations += (above & ~related[a]).bit_count()
    return classes, violations


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def atlas_report(atlas: BoundaryAtlas, as_json: bool = False) -> str:
    """Deterministic plain-text or JSON dump of an atlas."""
    if as_json:
        import json
        return json.dumps({
            "basepoint": atlas.basepoint,
            "N": atlas.N,
            "D": atlas.D,
            "ray_count": len(atlas.rays),
            "capped": atlas.capped,
            "classes": atlas.classes,
            "raw_transitivity_violations": atlas.raw_violations,
            "representative_distances": atlas.rep_distance_matrix,
        }, sort_keys=True, indent=2) + "\n"
    lines = [
        f"atlas basepoint={atlas.basepoint} N={atlas.N} D={atlas.D}",
        f"rays={len(atlas.rays)} capped={atlas.capped}",
        f"classes={len(atlas.classes)} raw-transitivity-violations={atlas.raw_violations}",
        "class representatives are lexicographically least rays (truncation-dependent)",
    ]
    for idx, cls in enumerate(atlas.classes):
        rep = atlas.rays[cls[0]].path
        lines.append(f"class {idx}: size={len(cls)} rep={rep}")
    lines.append("representative distance matrix:")
    for row in atlas.rep_distance_matrix:
        lines.append("  " + " ".join(f"{d:3d}" for d in row))
    return "\n".join(lines) + "\n"
