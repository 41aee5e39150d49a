"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every criterion prints a single PASS line on success (run with -s or -v to
see them); tolerances are exact unless the criterion states a numeric bound.
"""

import itertools
import random
from fractions import Fraction

import pytest

from systolic.boundary import corollary_contr_check
from systolic.charsurf import (build_char_disc, build_char_surface,
                               characteristic_image)
from systolic.complex import FlagComplex
from systolic.eucgeo import (cat0_closeness_check, euclidean_geodesic,
                             subsegment_check, thread_vertex_path,
                             verify_euc_properties)
from systolic.flatgeom import as_disc, gauss_bonnet_sum, polygon_geodesic
from systolic.generators import (flat_parallelogram, flat_rectangle,
                                 gen_disc_with_degrees)
from systolic.layers import verify_layer_lemmas, verify_profile_lemmas
from systolic.lattice import RowStack, lattice_adjacent
from systolic.metric import (all_geodesics, ball, dist, dist_map,
                             directed_geodesic, projection, sphere)
from systolic.suites import SuiteConfig, extremal_geodesic, instance_suite, run_suite

from oracles import (char_image_oracle, embed_flat_disc, lattice_dist, layer_map,
                     minimal_surface_bruteforce, polygon_geodesic_bruteforce,
                     random_flat_disc, shuffled_pairs)

SEED = 20260810


def _endpoint_pairs(X, rng, count):
    """(sigma, tau) pairs with each inside the other's n-sphere."""
    out = []
    verts = X.vertices
    tries = 0
    while len(out) < count and tries < 50 * count:
        tries += 1
        u = rng.choice(verts)
        dm = dist_map(X, (u,))
        far = [v for v, d in dm.items() if d >= max(2, max(dm.values()) - 1)]
        w = rng.choice(far)
        sigma, tau = (u,), (w,)
        n = dm[w]
        if rng.random() < 0.4:  # try widening one endpoint to an edge
            cands = [u2 for u2 in X.adjacency[u]
                     if dist(X, (u2,), (w,)) == n]
            if cands:
                sigma = tuple(sorted((u, rng.choice(cands))))
        dt = dist_map(X, sigma)
        if dt[w] != n or any(dist_map(X, tau)[s] != n for s in sigma):
            continue
        out.append((sigma, tau))
    return out


def corpus(seed, count):
    return instance_suite(seed, count)


def test_criterion_01_gauss_bonnet():
    rng = random.Random(SEED)
    discs = 0
    for idx in range(100):
        D = gen_disc_with_degrees(SEED + idx, rings=rng.choice([1, 2, 3]),
                                  bulge=rng.choice([0.2, 0.5, 0.9]))
        assert gauss_bonnet_sum(as_disc(D)) == 6
        discs += 1
    char_discs = 0
    for inst in corpus(SEED, 8):
        eg = euclidean_geodesic(inst.X, inst.sigma, inst.tau)
        for data in eg.intervals:
            assert gauss_bonnet_sum(data.disc.disc) == 6
            char_discs += 1
    assert discs >= 100 and char_discs >= 1
    print(f"PASS 1 gauss-bonnet: defect sum 6 on {discs} random discs "
          f"and {char_discs} characteristic discs (exact)")


def test_criterion_02_flat_embedding_isometry():
    done = 0
    for seed in range(20):
        X = random_flat_disc(SEED + seed)
        assert len(X) <= 400
        embed_flat_disc(as_disc(X))  # verifies injectivity + all-pairs isometry
        done += 1
    assert done >= 20
    print(f"PASS 2 flat embedding: {done} flat discs embedded isometrically (exact)")


def test_criterion_03_projection_lemma():
    rng = random.Random(SEED + 1)
    complexes = [flat_rectangle(7, 7), flat_parallelogram(6, 5)]
    complexes += [gen_disc_with_degrees(SEED + i, rings=3) for i in range(4)]
    checked = antitone = 0
    while checked < 500:
        X = rng.choice(complexes)
        w = rng.choice(X.vertices)
        r = rng.randint(0, 3)
        Y = ball(X, (w,), r)
        shell = sorted(sphere(X, Y, 1))
        if not shell:
            continue
        v = rng.choice(shell)
        sigma = (v,)
        mates = [u for u in X.adjacency[v] if u in shell]
        if mates and rng.random() < 0.5:
            sigma = tuple(sorted((v, rng.choice(mates))))
        pi = projection(X, sigma, Y)   # validates: nonempty simplex
        checked += 1
        if len(sigma) == 2:
            pi_small = projection(X, sigma[:1], Y)
            assert set(pi) <= set(pi_small)
            antitone += 1
    assert antitone >= 50
    print(f"PASS 3 projection lemma: {checked} (simplex, ball) pairs, "
          f"{antitone} antitone inclusions (exact)")


def test_criterion_04_directed_geodesics():
    rng = random.Random(SEED + 2)
    checked = oracle_checked = 0
    for inst in corpus(SEED + 2, 10):
        X = inst.X
        for _ in range(4):
            u, v = rng.choice(X.vertices), rng.choice(X.vertices)
            if u == v:
                continue
            seq = directed_geodesic(X, (u,), frozenset({v}))
            assert len(seq) - 1 == dist(X, (u,), (v,))
            for a, b in zip(seq, seq[1:]):
                assert X.is_simplex(sorted(set(a) | set(b)))
            checked += 1
            if X.coords is not None:
                coords = X.coords
                n = lattice_dist(coords[u], coords[v])
                cur = (u,)
                oracle = [cur]
                for i in range(1, n + 1):
                    pts = {x for x in X.vertices
                           if lattice_dist(coords[x], coords[v]) <= n - i}
                    cur = tuple(sorted(
                        x for x in pts
                        if all(lattice_adjacent(coords[x], coords[c]) for c in cur)))
                    oracle.append(cur)
                assert seq == oracle
                oracle_checked += 1
    assert checked >= 20 and oracle_checked >= 10
    print(f"PASS 4 directed geodesics: {checked} sequences "
          f"({oracle_checked} against the lattice oracle, exact)")


def test_criterion_05_euclidean_geodesic_structure():
    rng = random.Random(SEED + 3)
    complexes = [inst.X for inst in corpus(SEED + 3, 24)]
    pairs = 0
    for X in complexes:
        for sigma, tau in _endpoint_pairs(X, rng, 9):
            eg = euclidean_geodesic(X, sigma, tau)
            rep = verify_euc_properties(X, eg)
            assert rep["ok"], (sigma, tau, rep["failures"])
            pairs += 1
    assert pairs >= 200
    print(f"PASS 5 euclidean geodesic structure: {pairs} instance pairs, "
          f"all properties and reversal exact")


def test_criterion_06_weak_subsegment():
    report = run_suite("thm8.1", SuiteConfig(seed=SEED + 4, count=16))
    assert report.ok, report.failures
    print(f"PASS 6 weak subsegment: {report.lines[-1]}")


def test_criterion_07_strong_subsegment():
    report = run_suite("thmB", SuiteConfig(seed=SEED + 5, count=16))
    assert report.ok, report.failures
    print(f"PASS 7 strong subsegment: {report.lines[-1]}")


def test_subsegment_suites_check_every_subsegment():
    """Each subsegment suite checks all n(n+1)/2 subsegments of every
    instance; at seed 3, one instance's weak drift reaches 1."""
    total = sum(n * (n + 1) // 2 for n in (dist(inst.X, inst.sigma, inst.tau)
                                           for inst in instance_suite(3, 16)))
    assert total == 724
    for suite, bound in (("thm8.1", 3), ("thmB", 198)):
        report = run_suite(suite, SuiteConfig(seed=3, count=16))
        assert report.ok, report.failures
        assert report.lines == [f"max |delta_k, delta~_k| = 1 over {total} "
                                f"subsegments (bound {bound})"]


def test_criterion_08_contracting():
    rng = random.Random(SEED + 6)
    triples = 0
    worst = Fraction(-10 ** 9)
    for inst in corpus(SEED + 6, 26):
        X = inst.X
        t, s = inst.sigma[0], inst.tau[0]
        others = [v for v in X.vertices if v not in (t, s)]
        r1 = thread_vertex_path(X, euclidean_geodesic(X, (t,), (s,)))
        for _ in range(4):
            s2 = rng.choice(others)
            r2 = thread_vertex_path(X, euclidean_geodesic(X, (t,), (s2,)))
            # the threaded rays are good geodesics: one excess serves the
            # theorem (bound C = 208) and its corollary (bound D = 626)
            excess = corollary_contr_check(X, r1, r2)
            assert excess <= 208
            worst = max(worst, excess)
            triples += 1
    assert triples >= 100
    print(f"PASS 8 contracting: {triples} triples, max excess {worst} "
          f"<= C = 208 < D = 626 over every c in [0, 1]")


def test_criterion_09_cat0_closeness():
    worst = Fraction(0)
    checked = 0
    for inst in corpus(SEED + 7, 16):
        eg = euclidean_geodesic(inst.X, inst.sigma, inst.tau)
        for largest in (False, True):
            p = extremal_geodesic(inst.X, inst.sigma[0], inst.tau[0], largest)
            val = cat0_closeness_check(inst.X, p, eg)
            assert val <= 99
            worst = max(worst, val)
            checked += 1
    print(f"PASS 9 closeness: max {worst} <= 99 over {checked} paths")


def test_criterion_10_disc_shape_uniqueness():
    instances = 0
    for inst in corpus(SEED + 8, 12):
        X = inst.X
        sseq = directed_geodesic(X, inst.sigma, frozenset(inst.tau))
        tseq = list(reversed(directed_geodesic(X, inst.tau, frozenset(inst.sigma))))
        from systolic.layers import thickness_profile
        prof = thickness_profile(X, sseq, tseq)
        for iv in prof.thick_intervals:
            stacks = {build_char_disc(X, shuffled_pairs(prof, s), iv).stack
                      for s in range(1, 6)}
            stacks.add(build_char_disc(X, prof, iv).stack)
            assert len(stacks) == 1
            instances += 1
    assert instances >= 3
    print(f"PASS 10 disc uniqueness: equal row stacks across 6 tie-break "
          f"choices on {instances} thick intervals")


def test_criterion_11_minimal_surface_oracle():
    area_checked = image_checked = 0
    for inst in corpus(SEED + 9, 24):
        X = inst.X
        eg = euclidean_geodesic(X, inst.sigma, inst.tau)
        level = layer_map(X, inst.sigma, inst.tau)
        for data in eg.intervals:
            cd = data.disc
            rows = cd.stack.ids
            loop = list(dict.fromkeys(
                [ids[0] for ids in rows] + [ids[-1] for ids in reversed(rows)]))
            if len(loop) <= 12:
                surf = data.surface
                image_loop = [surf[v] for v in loop]
                area = len(cd.disc.triangles)
                res = minimal_surface_bruteforce(X, image_loop, area)
                assert res.area == area
                area_checked += 1
            if len(cd.stack.widths) <= 5:
                for u in cd.disc.complex.vertices:
                    img = characteristic_image(X, level, cd, data.surface, (u,))
                    assert img == char_image_oracle(X, cd, (u,))
                    image_checked += 1
    assert area_checked >= 1 and image_checked >= 1
    print(f"PASS 11 minimal surfaces: {area_checked} areas equal brute force, "
          f"{image_checked} characteristic images equal the all-surface span")


def test_criterion_12_funnel_correctness():
    rng = random.Random(SEED + 10)
    checked = 0
    while checked < 50:
        nrows = rng.randint(2, 8)
        rows = []
        for _ in range(nrows):
            lo = rng.randint(-8, 8)
            rows.append((lo, lo + rng.randint(0, 9)))
        disc = RowStack(rng.randint(-2, 2), tuple(rows))
        lo0, hi0 = rows[0]
        lom, him = rows[-1]
        p = (disc.first_row, (lo0 + (hi0 - lo0) * Fraction(rng.randint(0, 4), 4)) / 2)
        q = (disc.last_row, (lom + (him - lom) * Fraction(rng.randint(0, 4), 4)) / 2)
        assert polygon_geodesic(disc, p, q).xs == \
            polygon_geodesic_bruteforce(disc, p, q).xs
        checked += 1
    print(f"PASS 12 funnel: {checked} discs match the break-point oracle exactly")


def test_criterion_13_layer_lemmas():
    count = 0
    for inst in corpus(SEED + 11, 12):
        rep = verify_layer_lemmas(inst.X, inst.sigma, inst.tau)
        assert rep["ok"], rep["failures"]
        eg = euclidean_geodesic(inst.X, inst.sigma, inst.tau)
        assert not verify_profile_lemmas(eg.profile)
        count += 1
    print(f"PASS 13 layer lemmas: infinity-largeness, no-trapezoid, and the "
          f"unit difference bound hold on {count} decompositions (exact)")


def test_run_suite_names_the_suites_it_has():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; have \['gauss-bonnet', "):
        run_suite("nope", SuiteConfig())


def test_strong_subsegment_suite_threads_each_geodesic_once(monkeypatch):
    """thmB threads each of its 16 geodesics once, not once per subsegment
    (724 times), and still reports the same maximum over every subsegment."""
    from systolic import eucgeo
    threaded = []
    original = eucgeo.thread_vertex_path

    def counting(X, eg):
        threaded.append(eg)
        return original(X, eg)
    monkeypatch.setattr(eucgeo, "thread_vertex_path", counting)
    report = run_suite("thmB", SuiteConfig(seed=3, count=16))
    assert len(threaded) == 16
    assert report.ok and report.lines == [
        "max |delta_k, delta~_k| = 1 over 724 subsegments (bound 198)"]
