"""Seeded verification suites over generated systolic complexes.

Instances mix flat regions (parallelograms and zigzag rectangles, which
embed isometrically in the flat plane, so closed-form lattice distance is an
independent oracle) with ring-grown random discs of interior degree >= 6.
All randomness flows from one seeded generator and only picks instances;
no check samples: the contracting, subsegment and layer checks read every
breakpoint c, every subsegment and every pair of cross-layer edges.
Identical seed + parameters give byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .boundary import C_DEFAULT, corollary_contr_check, default_D, make_good_geodesic
from .complex import FlagComplex
from .eucgeo import (_subsegment_drift, _subsegment_ends, cat0_closeness_check,
                     euclidean_geodesic, verify_euc_properties)
from .flatgeom import as_disc, gauss_bonnet_sum
from .generators import flat_parallelogram, flat_rectangle, gen_disc_with_degrees
from .layers import verify_layer_lemmas, verify_profile_lemmas
from .metric import dist_map


@dataclass
class SuiteConfig:
    seed: int = 0
    count: int = 20
    C: int = C_DEFAULT

    @property
    def D(self) -> int:
        """The basepoint bound of the contracting corollary."""
        return default_D(self.C)


@dataclass
class Instance:
    label: str
    X: FlagComplex
    sigma: tuple[int, ...]
    tau: tuple[int, ...]


@dataclass
class SuiteReport:
    name: str
    seed: int
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def text(self) -> str:
        head = [f"suite={self.name} seed={self.seed} ok={self.ok}"]
        return "\n".join(head + self.lines +
                         [f"FAIL {f}" for f in self.failures]) + "\n"


def _far_pair(X: FlagComplex, rng: random.Random) -> tuple[int, int]:
    v0 = rng.choice(X.vertices)
    dm = dist_map(X, (v0,))
    far = max(dm.values())
    u = min(v for v, d in dm.items() if d == far)
    dm2 = dist_map(X, (u,))
    far2 = max(dm2.values())
    w = min(v for v, d in dm2.items() if d == far2)
    return u, w


def _corner_pair(X: FlagComplex) -> tuple[int, int]:
    c0 = min(X.vertices, key=lambda v: X.coords[v])
    c1 = max(X.vertices, key=lambda v: X.coords[v])
    return c0, c1


def instance_suite(seed: int, count: int) -> list[Instance]:
    """Mixed corpus of (complex, sigma, tau) instances."""
    rng = random.Random(seed)
    out = []
    flat_shapes = [(8, 2, flat_parallelogram), (10, 2, flat_parallelogram),
                   (12, 3, flat_parallelogram), (9, 3, flat_rectangle),
                   (11, 2, flat_rectangle), (6, 4, flat_parallelogram),
                   (4, 4, flat_parallelogram), (7, 5, flat_rectangle)]
    for idx in range(count):
        if idx % 2 == 0:
            h, w, gen = flat_shapes[(idx // 2) % len(flat_shapes)]
            X = gen(h, w)
            u, v = _corner_pair(X)
            out.append(Instance(f"{gen.__name__}-{h}x{w}", X, (u,), (v,)))
        else:
            X = gen_disc_with_degrees(seed * 1000 + idx, rings=3,
                                      bulge=rng.choice([0.3, 0.5, 0.8]))
            u, v = _far_pair(X, rng)
            out.append(Instance(f"disc-{seed * 1000 + idx}", X, (u,), (v,)))
    return out


def extremal_geodesic(X: FlagComplex, u: int, v: int, largest: bool = False) -> list[int]:
    """The lexicographically least (or greatest) geodesic from u to v."""
    dm = dist_map(X, (v,))
    path = [u]
    while path[-1] != v:
        step = [w for w in X.adjacency[path[-1]] if dm[w] == dm[path[-1]] - 1]
        path.append(max(step) if largest else min(step))
    return path


def run_suite(name: str, config: SuiteConfig) -> SuiteReport:
    runner = _SUITES.get(name)
    if runner is None:
        raise ValueError(f"unknown suite {name!r}; have {sorted(_SUITES)}")
    report = SuiteReport(name, config.seed)
    runner(config, report)
    return report


def _suite_gauss_bonnet(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    total = max(100, config.count)
    good = 0
    for idx in range(total):
        D = gen_disc_with_degrees(config.seed * 7919 + idx,
                                  rings=rng.choice([1, 2, 3]),
                                  bulge=rng.choice([0.2, 0.5, 0.9]))
        s = gauss_bonnet_sum(as_disc(D))
        if s == 6:
            good += 1
        else:
            report.failures.append(f"disc {idx}: defect sum {s}")
    report.lines.append(f"sum=6 on {good}/{total} discs")
    checked = 0
    for inst in instance_suite(config.seed, min(config.count, 6)):
        eg = euclidean_geodesic(inst.X, inst.sigma, inst.tau)
        for data in eg.intervals:
            s = gauss_bonnet_sum(data.disc.disc)
            checked += 1
            if s != 6:
                report.failures.append(f"{inst.label}: characteristic disc sum {s}")
    report.lines.append(f"sum=6 on {checked}/{checked} characteristic discs")


def _suite_layers(config: SuiteConfig, report: SuiteReport) -> None:
    for inst in instance_suite(config.seed, config.count):
        res = verify_layer_lemmas(inst.X, inst.sigma, inst.tau)
        eg = euclidean_geodesic(inst.X, inst.sigma, inst.tau)
        prof_failures = verify_profile_lemmas(eg.profile)
        report.failures += [f"{inst.label}: {f}" for f in res["failures"] + prof_failures]
        report.lines.append(f"{inst.label}: n={res['n']} layer checks "
                            f"{'ok' if not res['failures'] and not prof_failures else 'FAILED'}")


def _suite_subsegment(mode: str, bound: int):
    """The drift of every subsegment 0 <= l < m <= n, as `subsegment_check`
    measures it, with each geodesic's ends found (threaded) once."""
    def run(config: SuiteConfig, report: SuiteReport) -> None:
        worst = 0
        checked = 0
        for inst in instance_suite(config.seed, config.count):
            eg = euclidean_geodesic(inst.X, inst.sigma, inst.tau)
            ends = _subsegment_ends(inst.X, eg, mode)
            for l in range(eg.n):
                for m in range(l + 1, eg.n + 1):
                    mx, _ = _subsegment_drift(inst.X, eg, l, m, ends[l], ends[m])
                    worst = max(worst, mx)
                    checked += 1
                    if mx > bound:
                        report.failures.append(
                            f"{inst.label}: subsegment ({l},{m}) drift {mx} > {bound}")
        report.lines.append(f"max |delta_k, delta~_k| = {worst} over "
                            f"{checked} subsegments (bound {bound})")
    return run


def _suite_contracting(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    worst = Fraction(-10 ** 9)
    triples = 0
    for inst in instance_suite(config.seed, config.count):
        X = inst.X
        t = inst.sigma[0]
        s = inst.tau[0]
        dm = dist_map(X, (t,))
        others = [v for v in X.vertices if v != s and 2 <= dm[v]]
        if not others:
            continue
        # a good geodesic's path is its threaded Euclidean geodesic, so one
        # excess serves the theorem (bound C) and its corollary (bound D)
        gv = make_good_geodesic(X, t, s, C=config.C)
        for _ in range(2):
            s2 = rng.choice(others)
            gw = make_good_geodesic(X, t, s2, C=config.C)
            excess = corollary_contr_check(X, gv.path, gw.path)
            worst = max(worst, excess)
            triples += 1
            if excess > config.C:
                report.failures.append(
                    f"{inst.label}: contracting excess {excess} > C={config.C}")
            if excess > config.D:
                report.failures.append(
                    f"{inst.label}: basepoint excess {excess} > D={config.D}")
    report.lines.append(f"max contracting excess = {worst} over {triples} "
                        f"triples (bound C={config.C})")
    report.lines.append(f"max basepoint excess = {worst} (bound D={config.D})")


def _suite_closeness(config: SuiteConfig, report: SuiteReport) -> None:
    worst = Fraction(0)
    checked = 0
    for inst in instance_suite(config.seed, config.count):
        eg = euclidean_geodesic(inst.X, inst.sigma, inst.tau)
        for largest in (False, True):
            p = extremal_geodesic(inst.X, inst.sigma[0], inst.tau[0], largest)
            val = cat0_closeness_check(inst.X, p, eg)
            worst = max(worst, val)
            checked += 1
            if val > 99:
                report.failures.append(f"{inst.label}: closeness {val} > 99")
    report.lines.append(f"max closeness = {worst} over {checked} paths (bound 99)")


def _suite_properties(config: SuiteConfig, report: SuiteReport) -> None:
    for inst in instance_suite(config.seed, config.count):
        eg = euclidean_geodesic(inst.X, inst.sigma, inst.tau)
        res = verify_euc_properties(inst.X, eg)
        report.failures += [f"{inst.label}: {f}" for f in res["failures"]]
        report.lines.append(f"{inst.label}: n={eg.n} "
                            f"{'ok' if res['ok'] else 'FAILED'}")


def _suite_good(config: SuiteConfig, report: SuiteReport) -> None:
    worst = 0
    for inst in instance_suite(config.seed, config.count):
        g = make_good_geodesic(inst.X, inst.sigma[0], inst.tau[0], C=config.C)
        worst = max(worst, g.max_certificate)
        report.lines.append(f"{inst.label}: certificate max {g.max_certificate}")
    report.lines.append(f"max certificate value = {worst} (bound C+1={config.C + 1})")


_SUITES = {
    "gauss-bonnet": _suite_gauss_bonnet,
    "layers": _suite_layers,
    "thm8.1": _suite_subsegment("weak", 3),
    "thmB": _suite_subsegment("strong", 198),
    "thmC": _suite_contracting,
    "prop99": _suite_closeness,
    "properties": _suite_properties,
    "good": _suite_good,
}

SUITE_NAMES = sorted(_SUITES)
