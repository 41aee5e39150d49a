"""Self-tests of the benchmark: its validators, its loop and its tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import dataclasses
import itertools
import json
import random
import sys
from pathlib import Path


import run

run.import_systolic()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from systolic import boundary, eucgeo, generators, metric  # noqa: E402

INF = float("inf")
BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _egeo_case():
    X = generators.flat_rectangle(6, 3)
    u, v = workloads._corners(X)
    return X, (u,), (v,), eucgeo.euclidean_geodesic(X, (u,), (v,))


def test_euclidean_validator_accepts_and_rejects():
    X, sigma, tau, eg = _egeo_case()
    assert checks.check_euclidean(X.adjacency, sigma, tau, eg) == []
    outside = next(w for w in X.adjacency if w not in eg.deltas[2])
    bad = dataclasses.replace(eg, deltas=eg.deltas[:2] + [(outside,)] + eg.deltas[3:])
    assert checks.check_euclidean(X.adjacency, sigma, tau, bad)
    short = dataclasses.replace(eg, deltas=eg.deltas[:-1])
    assert checks.check_euclidean(X.adjacency, sigma, tau, short)


def test_good_validator_rejects_non_geodesic_paths():
    X = generators.flat_rectangle(5, 3)
    u, v = workloads._corners(X)
    good = boundary.make_good_geodesic(X, u, v)
    bound = boundary.C_DEFAULT + 1
    assert checks.check_good(X.adjacency, u, v, good, bound) == []
    detour = good.path[:1] + [w for w in X.adjacency[good.path[0]]
                              if w != good.path[1]][:1] + good.path[1:]
    assert checks.check_good(X.adjacency, u, v, dataclasses.replace(good, path=detour), bound)
    jump = [good.path[0], good.path[2]] + good.path[3:]
    assert checks.check_good(X.adjacency, u, v, dataclasses.replace(good, path=jump), bound)
    assert checks.check_good(X.adjacency, u, v, good, good.max_certificate - 1)


def test_atlas_validator_rejects_broken_partition_and_matrix():
    X = generators.flat_rectangle(4, 3)
    atlas = boundary.boundary_atlas(X, 0, 3)
    bound = boundary.C_DEFAULT + 1
    assert checks.check_atlas(X.adjacency, 0, 3, atlas, bound) == []
    dropped = dataclasses.replace(atlas, classes=[c[1:] for c in atlas.classes])
    assert checks.check_atlas(X.adjacency, 0, 3, dropped, bound)
    m = [row[:] for row in atlas.rep_distance_matrix]
    m[0][0] = 1
    assert checks.check_atlas(X.adjacency, 0, 3,
                              dataclasses.replace(atlas, rep_distance_matrix=m), bound)


def test_induced_cycle_check():
    X = generators.flat_rectangle(2, 2)
    v = next(v for v in sorted(X.adjacency) if len(X.adjacency[v]) == 6)
    link = sorted(X.adjacency[v])
    cycle = [link[0]]
    while len(cycle) < len(link):
        cycle.append(min(w for w in X.adjacency[cycle[-1]] if w in link and w not in cycle))
    assert checks.is_induced_cycle(X.adjacency, cycle)
    assert not checks.is_induced_cycle(X.adjacency, [v] + cycle[:3])


class _Corrupting:
    """A workload whose outputs are corrupted after the timed call."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt
        self.lead, self.min_ops, self.op_ms = inner.lead, 3, 1.0

    def run(self, corpus, op):
        return self.corrupt(self.inner.run(corpus, op))

    def check(self, corpus, op, out):
        return self.inner.check(corpus, op, out)

    def text(self, op, out):
        return self.inner.text(op, out)


def _ops(workload, corpus, skip=0, count=2):
    stream = workload.ops(corpus, random.Random(7))
    return list(itertools.islice(stream, skip, skip + count))


def _failed(workload, corpus, ops):
    lat, problems, _, probes = run.run_ops(workload, corpus, ops, log=lambda line: None)
    assert len(probes) == len(ops) + 1 and min(probes) > 0
    return len(lat), sum(map(bool, problems))


def test_loop_counts_corrupted_geodesics_as_failed():
    wl = workloads.WORKLOADS["cold-check"]
    corpus = wl.build()
    assert _failed(wl, corpus, _ops(wl, corpus, count=3)) == (3, 0)

    def reverse_egeo(out):
        eg = out[-1]
        return out[:-1] + (dataclasses.replace(eg, deltas=eg.deltas[::-1]),)
    assert _failed(_Corrupting(wl, reverse_egeo), corpus, _ops(wl, corpus, count=3)) == (3, 3)


def test_loop_counts_corrupted_paths_as_failed():
    wl = workloads.WORKLOADS["flat-good"]
    corpus = wl.build()

    def drop_last(out):
        X, good = out
        return X, dataclasses.replace(good, path=good.path[:-1])
    assert _failed(_Corrupting(wl, drop_last), corpus, _ops(wl, corpus, skip=1)) == (2, 2)


def test_loop_counts_raising_ops_as_failed():
    wl = workloads.WORKLOADS["atlas"]
    corpus = wl.build()

    def boom(out):
        raise ValueError("corrupted")
    assert _failed(_Corrupting(wl, boom), corpus, _ops(wl, corpus, skip=1)) == (2, 2)


class _Scripted:
    """A workload of named operations with scripted latencies and outputs."""

    lead, min_ops, op_ms = 0, 2, 1.0

    def __init__(self, script):
        self.script = script        # per operation: one (latency, output) per execution

    def run(self, corpus, op):
        latency, out = self.script[op.key].pop(0)
        corpus["clock"] += latency
        return out

    def check(self, corpus, op, out):
        return [] if out == "ok" else ["bad output"]

    def text(self, op, out):
        return out


def test_rounds_take_scaled_medians_and_catch_changed_outputs(monkeypatch):
    corpus = {"clock": 0.0}
    monkeypatch.setattr(run.time, "perf_counter", lambda: corpus["clock"])
    # The host runs the probe at the reference speed, then at half of it.
    probes = iter([1.0] * 3 + [2.0] * 3 + [1.0] * 3)
    monkeypatch.setattr(run.hostspeed, "probe",
                        lambda: next(probes) * run.hostspeed.REFERENCE_S)
    wl = _Scripted({"lead": [(9.0, "ok")],
                    "a": [(3.0, "ok"), (4.0, "ok"), (2.0, "ok")],
                    "b": [(4.0, "ok"), (8.0, "changed"), (6.0, "ok")]})
    ops = [workloads.Op("a", (), None), workloads.Op("b", (), None)]
    res = run.run_rounds(wl, corpus, [workloads.Op("lead", (), None)], ops, 3, INF,
                         log=lambda line: None)
    # The lead is validated but not timed; the second round ran at half speed.
    assert res.scaled == [2.0, 4.0]
    assert res.median == [3.0, 6.0]
    assert res.valid == [True, False]
    assert (res.attempted, res.failed, res.busy_s) == (7, 1, 36.0)
    assert res.round_s == [7.0, 12.0, 8.0]


def test_probe_scales_follow_the_host_speed():
    assert run.hostspeed.scales([1.0, 3.0, 1.0]) == [
        run.hostspeed.REFERENCE_S / 2, run.hostspeed.REFERENCE_S / 2]
    assert 0 < run.hostspeed.probe() < 1.0


def test_round_size_follows_seconds_above_min_ops():
    wl = workloads.WORKLOADS["flat-good"]
    assert run.round_size(wl, 1) == wl.min_ops
    big = 10 * wl.min_ops * run.ROUNDS * wl.op_ms / 1e3
    assert run.round_size(wl, big) == 10 * wl.min_ops


def test_workload_ops_are_seeded_and_valid():
    for name, wl in workloads.WORKLOADS.items():
        corpus = wl.build()
        first, again = ([op[:2] for op in _ops(wl, corpus, wl.lead, 4)] for _ in range(2))
        assert first == again, name
        assert _failed(wl, corpus, _ops(wl, corpus, wl.lead)) == (2, 0), name


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {name: getattr(mod, "dist_map") for name, mod in sys.modules.items()
                 if name.startswith("systolic") and mod is not None
                 and hasattr(mod, "dist_map")}
    assert len(originals) > 3
    is_simplex = sys.modules["systolic.complex"].FlagComplex.is_simplex
    X, sigma, tau, eg = _egeo_case()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(sys.modules[n], "dist_map") is not f for n, f in originals.items())
        traced = eucgeo.euclidean_geodesic(X, iter(sigma), tau)
        metric.dist_map(X, iter(sigma))
    finally:
        tracer.remove()
    assert all(getattr(sys.modules[n], "dist_map") is f for n, f in originals.items())
    assert sys.modules["systolic.complex"].FlagComplex.is_simplex is is_simplex
    assert traced.deltas == eg.deltas
    m = tracer.metrics(1.0)
    assert m["eucgeo.euclidean_geodesic.calls"] == 1
    assert m["metric.dist_map.calls"] > 1
    assert 0 < m["metric.dist_map.distinct_ratio"] < 1
    assert m["complex.FlagComplex.is_simplex.calls"] > 0
    ee = m["eucgeo.euclidean_geodesic.time_s"]
    assert m["eucgeo.euclidean_geodesic.self_s"] < ee
    assert m["metric.directed_geodesic.time_s"] < ee


def test_benchmark_json_matches_reported_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in BENCHMARK["end_to_end"])
    per_layer = tracing.metric_names() + ["trace.ops_per_s_ratio"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == per_layer
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in BENCHMARK["per_layer"])
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
