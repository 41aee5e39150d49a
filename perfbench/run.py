"""Seeded closed-loop benchmark of the systolic library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload disc-egeo --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

One workload runs in one process with one client, no threads.  `--workload
all` runs each workload in a fresh child process, one after another.

The seed draws a round of operations (at least the workload's `min_ops`,
more if `--seconds` asks for more work).  After the workload's untimed lead
operations, --trace 0 times the round ROUNDS times with nothing wrapped.
Other tenants of a shared host slow it by up to half, in spells of a second
to minutes, so each execution's time is also scaled by the host's speed
around it, measured by a probe between operations (hostspeed.py).  Each
operation's scaled time is the median over the rounds.  End-to-end metrics:

* ops_per_s_scaled: validated operations per second, over scaled times;
* op_p50_ms_scaled, op_p90_ms_scaled: percentiles of the scaled times;
* setup_s: median import time of the library in a fresh child interpreter
  plus median corpus build time, sampled before the first round and
  between rounds, each sample scaled like an operation's time.

and, measured as it is:

* peak_rss_mb: peak resident set of this process.  A full garbage
  collection after each operation, untimed, keeps one operation's cyclic
  garbage out of the next one's time and out of this peak.

The log also prints ops_per_s, op_p50_ms and op_p90_ms unscaled.

--trace 1 wraps the library's layers from outside (see tracing.py), runs the
lead and one round traced, then the same operations on a fresh corpus
untraced; the ratio of the two rates is the tracing overhead.

Every execution is validated outside the timed region by the benchmark's
own checks, and must give the same output in every round.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import checks
import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROUNDS = 8              # timed rounds; each operation keeps its fastest time
MAX_LOOP_S = 28.0       # rounds start only this long after the first, so a slow run ends in time
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
         "setup_s": "s"}
# Operation times in the end-to-end metrics are scaled by the host's speed
# (hostspeed.py); the unscaled figures are logged beside them.
END_TO_END_UNITS = {name: UNITS[name.removesuffix("_scaled")] for name in (
    "ops_per_s_scaled", "op_p50_ms_scaled", "op_p90_ms_scaled", "peak_rss_mb", "setup_s")}


def import_systolic() -> None:
    """Import the library from this checkout's src/, never an installed copy."""
    package = SRC / "systolic"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {package}")
    sys.path.insert(0, str(SRC))
    import systolic
    if Path(systolic.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported systolic from {systolic.__file__}")


class Setup:
    """Set-up samples, each scaled by the host's speed like an operation's
    time: the import of the library in a fresh child interpreter (a module
    imports once per process), and the corpus build.  The benchmark samples
    before the first round and between rounds, so the samples span the run
    like the operations' executions do."""

    CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import systolic; print(time.perf_counter() - t0)")

    def __init__(self, workload):
        self.workload = workload
        self.import_s, self.build_s = [], []

    def sample(self):
        """One child import and one corpus build; returns the corpus."""
        probes = [hostspeed.probe()]
        out = subprocess.run([sys.executable, "-c", self.CODE, str(SRC)], capture_output=True,
                             text=True, check=True)
        probes.append(hostspeed.probe())
        gc.collect()
        t0 = time.perf_counter()
        corpus = self.workload.build()
        build_s = time.perf_counter() - t0
        probes.append(hostspeed.probe())
        import_scale, build_scale = hostspeed.scales(probes)
        self.import_s.append(float(out.stdout) * import_scale)
        self.build_s.append(build_s * build_scale)
        return corpus

    def median_s(self) -> float:
        return statistics.median(self.import_s) + statistics.median(self.build_s)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def round_size(workload, seconds: float) -> int:
    """Operations per round: `seconds` of timed work over ROUNDS rounds at the
    workload's nominal cost per operation, and at least its `min_ops`."""
    return max(workload.min_ops, math.ceil(seconds * 1e3 / (ROUNDS * workload.op_ms)))


def draw_ops(workload, corpus, seed: int, seconds: float):
    """The seeded lead operations and round."""
    stream = workload.ops(corpus, random.Random(seed))
    lead = list(itertools.islice(stream, workload.lead))
    return lead, list(itertools.islice(stream, round_size(workload, seconds)))


def run_ops(workload, corpus, ops, expected=None, log=print, probed=True):
    """Closed loop over `ops`: time each `run`, then, untimed, validate its
    output, or, given the `expected` output texts, compare with them, and
    time the host-speed probe.  Returns the latencies, each operation's
    problems and output text, and the probe times: one before the first
    operation and one after each, if `probed`."""
    latencies, problems, texts = [], [], []
    probes = [hostspeed.probe()] if probed else []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = workload.run(corpus, op)
        except Exception:
            dt = time.perf_counter() - t0
            found, text = [traceback.format_exc(limit=3)], "raised"
        else:
            dt = time.perf_counter() - t0
            try:
                text = workload.text(op, out)
                if expected is None:
                    found = workload.check(corpus, op, out)
                else:
                    found = [] if text == expected[i] else ["output differs from the first run"]
            except Exception:
                found, text = [traceback.format_exc(limit=3)], "unreadable"
            del out
        gc.collect()        # this operation's cyclic garbage, outside every timing
        if probed:
            probes.append(hostspeed.probe())
        latencies.append(dt)
        problems.append(found)
        texts.append(text)
        if found and sum(map(bool, problems)) <= 3:
            log(f"FAIL {op.key} {op.args}: {found[:3]}")
    return latencies, problems, texts, probes


class Rounds(NamedTuple):
    scaled: list        # median scaled time of each operation of the round
    median: list        # median time of each operation of the round
    valid: list         # whether every execution of the operation passed
    round_s: list       # time in the library of each timed round
    busy_s: float       # time in the library over the lead and the rounds
    attempted: int
    failed: int
    digest: str         # of the lead's and the round's outputs
    probe_s: float      # median probe time


def run_rounds(workload, corpus, lead, ops, rounds, deadline, log=print,
               between=lambda: None) -> Rounds:
    """The lead once, then `rounds` timed rounds over `ops`; a round after
    the first starts only before `deadline`, and after a call of `between`.
    The first execution of an operation is validated, and every later one
    must give the same output.  An execution that raises or fails either
    test counts as failed, and so does its operation."""
    lat, problems, texts, _ = run_ops(workload, corpus, lead, log=log, probed=False)
    busy, failed, attempted = sum(lat), sum(map(bool, problems)), len(lead)
    digest = hashlib.sha256("".join(f"lead {t}\n" for t in texts).encode())
    first, valid, timed, scaled, all_probes = None, [True] * len(ops), [], [], []
    for r in range(rounds):
        if r and time.perf_counter() > deadline:
            log(f"stopped at the {MAX_LOOP_S:.0f} s wall-time cap after {len(timed)} rounds")
            break
        if r:
            between()
        lat, problems, texts, probes = run_ops(workload, corpus, ops, first, log)
        if first is None:
            first = texts
            digest.update("".join(f"{i} {t}\n" for i, t in enumerate(texts)).encode())
        valid = [v and not p for v, p in zip(valid, problems)]
        busy += sum(lat)
        failed += sum(map(bool, problems))
        attempted += len(ops)
        timed.append(lat)
        scaled.append([t * k for t, k in zip(lat, hostspeed.scales(probes))])
        all_probes += probes
    return Rounds([statistics.median(ts) for ts in zip(*scaled)],
                  [statistics.median(ts) for ts in zip(*timed)], valid,
                  [sum(lat) for lat in timed], busy, attempted, failed,
                  digest.hexdigest()[:16], statistics.median(all_probes))


def describe(workload, corpus, seed, log):
    log(f"workload {workload.name} seed {seed}: {workload.why}")
    log(f"python {platform.python_version()} cpus {os.cpu_count()} "
        f"(closed loop, 1 client, 1 process)")
    for key in sorted(corpus):
        entry = corpus[key]
        X = entry[0] if isinstance(entry, tuple) else entry     # cold-check keeps (X, text)
        log(f"corpus {key}: {len(X.adjacency)} vertices, edges {checks.edge_digest(X.adjacency)}")


def latency_metrics(times, valid, suffix="") -> dict[str, float]:
    """Throughput and latency percentiles over per-operation times."""
    ordered = sorted(times)
    return {f"ops_per_s{suffix}": sum(valid) / sum(times),
            f"op_p50_ms{suffix}": 1e3 * statistics.median(ordered),
            f"op_p90_ms{suffix}": 1e3 * percentile(ordered, 0.9)}


def measure(workload, seed, seconds, log):
    """End-to-end metrics with nothing wrapped."""
    setup = Setup(workload)
    corpus = setup.sample()
    describe(workload, corpus, seed, log)
    lead, ops = draw_ops(workload, corpus, seed, seconds)
    res = run_rounds(workload, corpus, lead, ops, ROUNDS,
                     time.perf_counter() + MAX_LOOP_S, log, setup.sample)
    metrics = {**latency_metrics(res.scaled, res.valid, "_scaled"),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "setup_s": setup.median_s()}
    raw = latency_metrics(res.median, res.valid)
    n = len(ops)
    log(f"output digest: {res.digest}")
    log("timed rounds: " + ", ".join(f"{t:.3f} s" for t in res.round_s) +
        f"; median probe {1e3 * res.probe_s:.3f} ms")
    log(f"samples {n}, each the median of {len(res.round_s)} rounds, after {len(lead)} lead "
        f"ops ({n - math.ceil(0.9 * n)} beyond p90)")
    for name, value in list(raw.items()) + list(metrics.items()):
        log(f"  {name} = {value:.6g} {UNITS[name.removesuffix('_scaled')]}")
    log(f"fail_ratio {res.failed / res.attempted:.4f} "
        f"({res.failed} failed of {res.attempted} attempted)")
    return res.attempted, res.failed, metrics


def measure_traced(workload, seed, seconds, log):
    """Per-layer metrics over the lead and one round, and the tracing
    overhead against the same operations untraced."""
    # The traced pass may use 60% of the wall-time cap, the untraced rest.
    start = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        corpus = workload.build()
        build_s = time.perf_counter() - t0
        describe(workload, corpus, seed, log)
        lead, ops = draw_ops(workload, corpus, seed, seconds)
        traced = run_rounds(workload, corpus, lead, ops, 1, start + 0.6 * MAX_LOOP_S, log)
    finally:
        tracer.remove()
    del corpus
    gc.collect()
    corpus = workload.build()
    plain = run_rounds(workload, corpus, lead, ops, 1, start + MAX_LOOP_S, log)
    metrics = tracer.metrics(build_s + traced.busy_s)
    metrics["trace.ops_per_s_ratio"] = plain.busy_s / traced.busy_s
    attempted, failed = traced.attempted + plain.attempted, traced.failed + plain.failed
    if traced.digest != plain.digest:
        log(f"traced digest {traced.digest} != untraced digest {plain.digest}")
        failed += 1
    log(f"traced {traced.attempted} ops in {traced.busy_s:.3f} s, untraced in "
        f"{plain.busy_s:.3f} s; output digest {plain.digest}")
    shares = {k.split(".")[0]: v for k, v in metrics.items() if k.endswith(".self_share")}
    log("self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in
                                         sorted(shares.items(), key=lambda kv: -kv[1])))
    return attempted, failed, metrics


def run_all(args, names) -> int:
    """Each workload in a fresh child process; a table of every metric."""
    code = 0
    rows = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with code {proc.returncode}")
            code = 1
            continue
        rows[name] = json.loads(lines[-1])
    for name, result in rows.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={result['failed'] / result['attempted']:.4f}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(rows, sort_keys=True))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_systolic()
    import workloads
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        p.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)} or all")
    if args.trace:
        attempted, failed, values = measure_traced(workload, args.seed, args.seconds, print)
        units = {name: per_layer_unit(name) for name in values}
    else:
        attempted, failed, values = measure(workload, args.seed, args.seconds, print)
        units = END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in values}}
    print(json.dumps(result))
    return 0


def per_layer_unit(name: str) -> str:
    return {"calls": "count", "time_s": "s", "self_s": "s"}.get(name.rsplit(".", 1)[1], "ratio")


if __name__ == "__main__":
    sys.exit(main())
