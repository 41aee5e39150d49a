"""Outside-in tracing of the library's layers.

The library has no tracing of its own.  `Tracer.install` replaces each
listed function by a wrapper in every `systolic` module namespace that bound
it (`from .metric import dist_map` makes a binding per importing module),
and patches `FlagComplex.is_simplex` on the class.  `Tracer.remove` puts the
originals back.  Span wrappers record calls, inclusive time and self time
(inclusive minus the time of directly nested spans); count wrappers record
calls only, and their time stays in the calling span.

Which end-to-end metric each layer's numbers should move, on which workload:

* metric.*: ops_per_s and peak_rss_mb on disc-egeo;
* charsurf.*, flatgeom.*, generators.gen_flat_region, lattice.*: ops_per_s
  on flat-good;
* eucgeo.euclidean_geodesic.calls and .distinct_ratio,
  boundary.boundary_atlas.self_s, boundary.rays_equivalent_truncated.*:
  ops_per_s and op_p90_ms on atlas;
* complex.*: ops_per_s on cold-check, and setup_s on every workload.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Spans, by defining module.  Functions named in COUNTED get calls only.
SPANS = {
    "complex": ("loads_complex", "is_locally_6_large", "is_k_large",
                "simply_connected_heuristic"),
    "generators": ("gen_disc_with_degrees", "gen_flat_region"),
    "metric": ("dist_map", "projection", "directed_geodesic", "all_geodesics"),
    "layers": ("thickness_profile",),
    "flatgeom": ("as_disc", "is_flat", "polygon_geodesic"),
    "charsurf": ("build_char_disc", "build_char_surface", "characteristic_image"),
    "eucgeo": ("euclidean_geodesic", "cat0_diagonal", "thread_vertex_path"),
    "boundary": ("is_good_geodesic", "make_good_geodesic", "boundary_atlas",
                 "rays_equivalent_truncated"),
}
COUNTED = {"metric": ("dist",), "lattice": ("lattice_adjacent",)}
METHOD_COUNTED = ("complex.FlagComplex.is_simplex",)
# Distinct arguments over calls: the reuse a cache or memo could exploit.
DISTINCT = ("metric.dist_map", "eucgeo.euclidean_geodesic")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return list(Tracer().metrics(0.0))


def _simplex_key(s):
    return (s,) if isinstance(s, int) else tuple(sorted(s))


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.time_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack: list[float] = []   # child-span time of each open span
        self._complexes: dict[int, object] = {}   # pins ids of traced complexes
        self._undo: list[tuple[object, str, object]] = []

    def _complex_id(self, X) -> int:
        # Adjacency maps are pinned so a freed complex cannot lend its id
        # to a later one and merge their distinct-argument sets.
        adj = X.adjacency
        self._complexes.setdefault(id(adj), adj)
        return id(adj)

    def _span(self, name: str, fn, normalize=None):
        calls, time_s, self_s, stack = self.calls, self.time_s, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if normalize is not None:
                args = normalize(args, kwargs)
            calls[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                time_s[name] += dt
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _dist_map_args(self, args, kwargs):
        # The library freezes the source set itself; freezing it here first
        # hands the same set on and keeps one-shot iterables intact.
        X, sources = args
        sources = frozenset(sources)
        self.distinct["metric.dist_map"].add((self._complex_id(X), hash(sources)))
        return (X, sources)

    def _egeo_args(self, args, kwargs):
        X, sigma, tau, *rest = args
        sigma, tau = _simplex_key(sigma), _simplex_key(tau)
        tie_seed = rest[0] if rest else kwargs.get("tie_seed")
        self.distinct["eucgeo.euclidean_geodesic"].add(
            (self._complex_id(X), sigma, tau, tie_seed))
        return (X, sigma, tau, *rest)

    def install(self) -> None:
        """Wrap every listed function in every loaded systolic namespace.

        Modules are looked up in sys.modules: the package binds the name
        `layers` to a function, which hides the submodule of that name.
        """
        normalizers = {"metric.dist_map": self._dist_map_args,
                       "eucgeo.euclidean_geodesic": self._egeo_args}
        wrappers = {}
        for mod, fns in SPANS.items():
            for fn in fns:
                original = getattr(sys.modules[f"systolic.{mod}"], fn)
                name = f"{mod}.{fn}"
                wrappers[id(original)] = (original,
                                          self._span(name, original, normalizers.get(name)))
        for mod, fns in COUNTED.items():
            for fn in fns:
                original = getattr(sys.modules[f"systolic.{mod}"], fn)
                wrappers[id(original)] = (original, self._counted(f"{mod}.{fn}", original))
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "systolic" or key.startswith("systolic."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, entry[1])
        cls = sys.modules["systolic.complex"].FlagComplex
        original = cls.__dict__["is_simplex"]
        self._undo.append((cls, "is_simplex", original))
        cls.is_simplex = self._counted(METHOD_COUNTED[0], original)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, total_s: float) -> dict[str, float]:
        """Per-layer metrics; module self shares are over `total_s`."""
        out: dict[str, float] = {}
        module_self: defaultdict = defaultdict(float)
        for mod, fns in SPANS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.time_s"] = self.time_s[name]
                out[f"{name}.self_s"] = self.self_s[name]
                module_self[mod] += self.self_s[name]
        for mod, fns in COUNTED.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = self.calls[f"{mod}.{fn}"]
        for name in METHOD_COUNTED:
            out[f"{name}.calls"] = self.calls[name]
        for name in DISTINCT:
            calls = self.calls[name]
            out[f"{name}.distinct_ratio"] = len(self.distinct[name]) / calls if calls else 0.0
        for mod in SPANS:
            out[f"{mod}.self_share"] = module_self[mod] / total_s if total_s > 0 else 0.0
        return out
