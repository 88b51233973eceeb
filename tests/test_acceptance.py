"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import itertools
import math
import time

import numpy as np
import pytest

from boolebell import (ExpansionCoeffs2, FuncTable3,
                       IncompatibleMarginalsError, LambdaModel,
                       bell_pair_tables, bell_triple_table, check_boole_triple,
                       check_chsh, construct_g3, correlation,
                       ebbi_check, expand3, marginals_compatible,
                       reconstruct_f3, synth2, theorem1_check)
from boolebell import classical as cl
from boolebell import leggett_garg as lg
from boolebell import pipeline as pl
from boolebell import quantum as q


def _line(num: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")


def random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_criterion_01_boole_impossibility():
    """All 8^M triple datasets with M <= 4 satisfy the six-clause family."""
    t0 = time.perf_counter()
    rows = np.array([[1 - 2 * ((r >> k) & 1) for k in range(3)]
                     for r in range(8)], dtype=np.int64)
    prods = np.stack([rows[:, 0] * rows[:, 1], rows[:, 0] * rows[:, 2],
                      rows[:, 1] * rows[:, 2]], axis=1)
    checked = 0
    violations = 0
    for m in range(1, 5):
        for combo in itertools.product(range(8), repeat=m):
            f12, f13, f23 = prods[list(combo)].sum(axis=0) / m
            if not check_boole_triple(f12, f13, f23).all_satisfied:
                violations += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    _line(1, ok, f"Boole impossibility: {checked} datasets, "
                 f"{violations} violations, {elapsed:.2f}s (< 5s)")
    assert violations == 0
    assert elapsed < 5.0


def test_criterion_02_chsh_impossibility():
    """All 16^M quadruple datasets with M <= 3 satisfy the CHSH family."""
    t0 = time.perf_counter()
    rows = np.array([[1 - 2 * ((r >> k) & 1) for k in range(4)]
                     for r in range(16)], dtype=np.int64)
    prods = np.stack([rows[:, 0] * rows[:, 2], rows[:, 1] * rows[:, 2],
                      rows[:, 0] * rows[:, 3], rows[:, 1] * rows[:, 3]], axis=1)
    checked = 0
    violations = 0
    for m in range(1, 4):
        for combo in itertools.product(range(16), repeat=m):
            f13, f23, f14, f24 = prods[list(combo)].sum(axis=0) / m
            if not check_chsh(f13, f23, f14, f24).all_satisfied:
                violations += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _line(2, ok, f"CHSH impossibility: {checked} datasets, "
                 f"{violations} violations, {elapsed:.2f}s (< 10s)")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_03_theorem1_biconditional():
    """10^4 random coefficient sets: clause verdict == entrywise verdict."""
    rng = np.random.default_rng(1003)
    mismatches = 0
    for _ in range(10_000):
        c = ExpansionCoeffs2(*rng.uniform(-1.5, 1.5, 4))
        if theorem1_check(c).all_satisfied != synth2(c).is_nonnegative():
            mismatches += 1
    _line(3, mismatches == 0,
          f"two-variable criterion biconditional: {mismatches} mismatches in 10^4")
    assert mismatches == 0


def test_criterion_04_theorem2():
    """10^4 non-negative tables pass; 10^4 admissible coefficient sets build
    entrywise >= -1e-12 tables."""
    rng = np.random.default_rng(1004)
    fails = 0
    for _ in range(10_000):
        c = expand3(FuncTable3(rng.random((2, 2, 2))))
        if not ebbi_check(c.e0, c.e12, c.e13, c.e23).all_satisfied:
            fails += 1
    built = 0
    min_entry = np.inf
    while built < 10_000:
        a0 = rng.uniform(0.2, 2.0)
        a = rng.uniform(-a0, a0, 3)
        # inline admissibility: the six paired clauses
        e12, e13, e23 = a
        admissible = (abs(e12 + e13) <= a0 + e23 and abs(e12 - e13) <= a0 - e23
                      and abs(e12 + e23) <= a0 + e13 and abs(e12 - e23) <= a0 - e13
                      and abs(e13 + e23) <= a0 + e12 and abs(e13 - e23) <= a0 - e12)
        if not admissible:
            continue
        table = construct_g3(a0, e12, e13, e23)
        min_entry = min(min_entry, float(np.min(table.values)))
        built += 1
    ok = fails == 0 and min_entry >= -1e-12
    _line(4, ok, f"three-variable bounds: {fails} failures in 10^4 tables; "
                 f"10^4 constructions, min entry {min_entry:.2e} >= -1e-12")
    assert fails == 0
    assert min_entry >= -1e-12


def test_criterion_05_theorem4_roundtrip():
    """10^3 compatible pair-table triples reconstruct with marginals within
    1e-12; refusal happens exactly on a clause-family failure."""
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(1000):
        f3 = FuncTable3(rng.random((2, 2, 2)))
        m12, m13, m23 = f3.marginals()
        rec = reconstruct_f3(m12, m13, m23)
        r12, r13, r23 = rec.table.marginals()
        worst = max(worst,
                    float(np.max(np.abs(r12.values - m12.values))),
                    float(np.max(np.abs(r13.values - m13.values))),
                    float(np.max(np.abs(r23.values - m23.values))))
    mismatches = 0
    for _ in range(1000):
        tabs = [synth2(ExpansionCoeffs2(1, 0, 0, e))
                for e in rng.uniform(-1, 1, 3)]
        expected = marginals_compatible(*tabs).compatible
        try:
            reconstruct_f3(*tabs)
            got = True
        except IncompatibleMarginalsError:
            got = False
        if got != expected:
            mismatches += 1
    ok = worst <= 1e-12 and mismatches == 0
    _line(5, ok, f"marginal reconstruction: worst marginal error {worst:.2e} "
                 f"<= 1e-12; refusal<->clause mismatches {mismatches}")
    assert worst <= 1e-12
    assert mismatches == 0


def test_criterion_06_lambda_models():
    """10^3 random factorized mixtures (K <= 16): always compatible and
    triple-table marginals exact to 1e-12."""
    rng = np.random.default_rng(1006)
    incompatible = 0
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        w = rng.random(k) + 1e-12
        w /= w.sum()
        m = LambdaModel(w, rng.uniform(-1, 1, k), rng.uniform(-1, 1, k),
                        rng.uniform(-1, 1, k))
        f, fhat, ftilde = bell_pair_tables(m)
        if not marginals_compatible(f, fhat, ftilde).compatible:
            incompatible += 1
        m12, m13, m23 = bell_triple_table(m).marginals()
        worst = max(worst,
                    float(np.max(np.abs(m12.values - f.values))),
                    float(np.max(np.abs(m13.values - fhat.values))),
                    float(np.max(np.abs(m23.values - ftilde.values))))
    ok = incompatible == 0 and worst <= 1e-12
    _line(6, ok, f"factorized mixtures: {incompatible} incompatible of 10^3; "
                 f"worst triple-marginal gap {worst:.2e} <= 1e-12")
    assert incompatible == 0
    assert worst <= 1e-12


def test_criterion_07_singlet():
    """Singlet pair correlation equals -a.b to 1e-12; the (0, 60, 120) degree
    witness reports |E - Ehat| = 1 > 1 + Etilde = 0.5 as violated."""
    rng = np.random.default_rng(1007)
    rho = q.singlet()
    worst = 0.0
    for _ in range(1000):
        a, b = random_direction(rng), random_direction(rng)
        e = q.expectation(rho, q.correlation_operator(a, b))
        worst = max(worst, abs(e + float(a @ b)))
    rep = q.eprb_substitution_report(q.coplanar_direction(0.0),
                                     q.coplanar_direction(np.pi / 3),
                                     q.coplanar_direction(2 * np.pi / 3))
    values_ok = (abs(rep.e + 0.5) <= 1e-12 and abs(rep.ehat - 0.5) <= 1e-12
                 and abs(rep.etilde + 0.5) <= 1e-12)
    witness = [c for c in rep.boole_anticorrelated.clauses
               if c.description.startswith("|F12 - F13|")][0]
    witness_ok = (not witness.satisfied
                  and abs(witness.lhs - 1.0) <= 1e-12
                  and abs(witness.rhs - 0.5) <= 1e-12
                  and not rep.marginals_anticorrelated.compatible)
    ok = worst <= 1e-12 and values_ok and witness_ok
    _line(7, ok, f"singlet: worst |E + a.b| = {worst:.2e} <= 1e-12; witness "
                 f"E=({rep.e:.3f},{rep.ehat:.3f},{rep.etilde:.3f}), clause "
                 f"|E-Ehat|={witness.lhs:.3f} > 1+Etilde={witness.rhs:.3f} violated")
    assert worst <= 1e-12
    assert values_ok and witness_ok


def test_criterion_08_filter_closed_forms():
    """Projector chains match the filtering closed forms to 1e-12 on 10^3
    random (x, a, b, c)."""
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=3)
        x *= rng.random() / np.linalg.norm(x)
        a, b, c = (random_direction(rng) for _ in range(3))
        rho = q.spin_half_state(x)
        worst = max(worst, float(np.max(np.abs(
            q.filter_prob2(rho, a, b).p - q.filter_prob2_closed(x, a, b).p))))
        worst = max(worst, float(np.max(np.abs(
            q.filter_prob3(rho, a, b, c).p - q.filter_prob3_closed(x, a, b, c).p))))
    _line(8, worst <= 1e-12,
          f"filtering chains vs closed forms: worst gap {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_09_extended_eprb():
    """Coplanar 10-degree grid: triple coefficients match the closed forms to
    1e-12 and always satisfy the bounds; quadruple correlations match their
    six closed forms to 1e-12; the CHSH combination never exceeds 2."""
    step = np.deg2rad(10.0)
    thetas = np.arange(0.0, 2 * np.pi - 1e-9, step)
    worst_coeff = 0.0
    ebbi_failures = 0
    for tb in thetas:
        for tc in thetas:
            _, coeffs = q.extended_eprb_prob3(0.0, tb, tc)
            c1, c2 = np.cos(tb), np.cos(tc - tb)
            worst_coeff = max(worst_coeff,
                              abs(coeffs.e12 + c1),
                              abs(coeffs.e13 + c1 * c2),
                              abs(coeffs.e23 - c2))
            if not ebbi_check(1.0, coeffs.e12, coeffs.e13, coeffs.e23).all_satisfied:
                ebbi_failures += 1
    # global angle offsets leave the coefficients unchanged
    rng = np.random.default_rng(1009)
    for _ in range(10):
        off = rng.uniform(0, 2 * np.pi)
        tb, tc = rng.uniform(0, 2 * np.pi, 2)
        _, c_a = q.extended_eprb_prob3(off, tb + off, tc + off)
        _, c_b = q.extended_eprb_prob3(0.0, tb, tc)
        worst_coeff = max(worst_coeff, abs(c_a.e12 - c_b.e12),
                          abs(c_a.e13 - c_b.e13), abs(c_a.e23 - c_b.e23))
    worst_pair = 0.0
    for _ in range(150):
        dirs = [random_direction(rng) for _ in range(4)]
        _, pairs = q.extended_eprb_prob4_chain(*dirs)
        closed = q.extended_eprb_prob4(*dirs)[1]
        worst_pair = max(worst_pair, max(abs(pairs[k] - closed[k]) for k in closed))
    cb = np.cos(thetas)
    combo_max = 0.0
    for i, tb in enumerate(thetas):
        cbc = np.cos(thetas[:, None] - tb)   # c - b, over c
        cd = np.cos(thetas[None, :])         # d
        combo = -cb[i] * (1.0 - cbc + cd * (1.0 + cbc))
        combo_max = max(combo_max, float(np.max(np.abs(combo))))
    ok = (worst_coeff <= 1e-12 and ebbi_failures == 0 and worst_pair <= 1e-12
          and combo_max <= 2.0 + 1e-12)
    _line(9, ok, f"extended experiments: coeff gap {worst_coeff:.2e}, "
                 f"{ebbi_failures} bound failures, quad gap {worst_pair:.2e}, "
                 f"CHSH max {combo_max:.12f} <= 2")
    assert worst_coeff <= 1e-12
    assert ebbi_failures == 0
    assert worst_pair <= 1e-12
    assert combo_max <= 2.0 + 1e-12


def test_criterion_10_schwartz():
    """Inner-product bound holds for 10^3 random direction triples; jointly
    sharp (within 1e-10) whenever a lies in span(b, c)."""
    rng = np.random.default_rng(1010)
    failures = 0
    for _ in range(1000):
        a, b, c = (random_direction(rng) for _ in range(3))
        if not q.schwartz_bound(a, b, c).report.all_satisfied:
            failures += 1
    worst_eq = 0.0
    for _ in range(200):
        b, c = random_direction(rng), random_direction(rng)
        if abs(abs(float(b @ c)) - 1.0) < 1e-6:
            continue
        u, v = rng.normal(size=2)
        a = u * b + v * c
        a /= np.linalg.norm(a)
        rep = q.schwartz_bound(a, b, c)
        worst_eq = max(worst_eq, abs(rep.sharpness - 1.0))
    ok = failures == 0 and worst_eq <= 1e-10
    _line(10, ok, f"inner-product bound: {failures} failures in 10^3; "
                  f"coplanar sharpness defect {worst_eq:.2e} <= 1e-10")
    assert failures == 0
    assert worst_eq <= 1e-10


def test_criterion_11_leggett_garg():
    """Closed forms match the wave function to 1e-12 on 10^3 draws; the
    100x100 interval grid never violates; the pi/3 pair witness reports
    (-1/2, -1/2, -1/2) with a violated clause LHS 1 vs RHS 1/2; M = 10^6
    samples match to 4 sigma.  All in under 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(1000):
        p = lg.LGParams(rng.uniform(0.1, 3.0), *rng.uniform(0.0, 4.0, 3))
        closed = np.array(lg.lg_triple_correlations(p))
        direct = np.array(lg.lg_triple_correlations_from_state(lg.evolve_triple(p)))
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    grid_failures = 0
    for wt2 in np.linspace(0.0, np.pi, 100):
        for wt3 in np.linspace(0.0, np.pi, 100):
            p = lg.LGParams(1.0, 0.0, wt2, wt3)
            if not lg.lg_inequality_check(*lg.lg_triple_correlations(p)).all_satisfied:
                grid_failures += 1
    wp = lg.LGParams(1.0, 0.0, np.pi / 3, np.pi / 3)
    pair = lg.lg_pair_correlations(wp)
    pair_ok = all(abs(v + 0.5) <= 1e-12 for v in pair)
    rep = lg.lg_inequality_check(*pair)
    worst_clause = rep.worst_clause()
    witness_ok = (not rep.all_satisfied
                  and abs(worst_clause.lhs - 1.0) <= 1e-12
                  and abs(worst_clause.rhs - 0.5) <= 1e-12)
    mp = lg.LGParams(1.0, 0.2, 0.9, 0.5)
    m = 1_000_000
    ds = lg.sample_triples(mp, m, seed=1011)
    mc_ok = True
    e_named = dict(zip(((1, 2), (1, 3), (2, 3)), lg.lg_triple_correlations(mp)))
    for (i, j), expect in e_named.items():
        sigma = math.sqrt((1.0 - expect ** 2) / m)
        if abs(correlation(ds, i, j).value - expect) > 4 * sigma:
            mc_ok = False
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-12 and grid_failures == 0 and pair_ok and witness_ok
          and mc_ok and elapsed < 30.0)
    _line(11, ok, f"temporal correlations: closed-form gap {worst:.2e}; "
                  f"{grid_failures} grid failures; witness LHS 1 vs RHS 0.5; "
                  f"MC within 4 sigma: {mc_ok}; {elapsed:.1f}s (< 30s)")
    assert worst <= 1e-12
    assert grid_failures == 0
    assert pair_ok and witness_ok and mc_ok
    assert elapsed < 30.0


def test_criterion_12_allergy():
    """Triple collection averages exactly -1 and pair collection exactly -3
    for every N."""
    ok = True
    for n in (1, 2, 3, 7, 50, 1001):
        ok &= cl.allergy_gamma_triples(n) == -1.0
        ok &= cl.allergy_gamma_pairs(n) == -3.0
    _line(12, ok, "allergy scenario: gamma_triples = -1 and gamma_pairs = -3 "
                  "exactly for all tested N")
    assert ok


def test_criterion_13_factorizable():
    """Analytic laws matched by 10^6-sample Monte Carlo within 4 sigma at 20
    random angle pairs per kind; opposite-threshold witness with clause gap
    4/pi - 0; zero CHSH violations for that kind; cos^2 law chi-square at the
    0.01 level.  All in under 60 s."""
    from scipy import stats
    t0 = time.perf_counter()
    rng = np.random.default_rng(1013)
    m = 1_000_000
    mc_failures = []
    for kind in ("uniform", "delta_equal", "delta_opposite"):
        model = cl.FactorizableModel(kind)
        for trial in range(20):
            a, b = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            expect = cl.analytic_correlation(model, a, b)
            ds = cl.sample_pair(model, a, b, seed=13_000 + trial, count=m)
            got = correlation(ds, 1, 2).value
            sigma = math.sqrt(max(1.0 - expect ** 2, 1e-30) / m)
            if abs(got - expect) > 4 * sigma + 1e-12:
                mc_failures.append((kind, a, b, got, expect))
    opp = cl.FactorizableModel("delta_opposite")
    sweep = cl.model_inequality_sweep(opp, [0.0, np.pi, 2 * np.pi], chsh=False)
    witness_ok = (sweep.bell_violations >= 1
                  and abs(sweep.worst_bell.lhs - 4 / np.pi) <= 1e-12
                  and abs(sweep.worst_bell.rhs) <= 1e-12)
    chsh_sweep = cl.model_inequality_sweep(
        opp, np.arange(0.0, 4 * np.pi, np.pi / 9), chsh=True)
    chsh_ok = chsh_sweep.chsh_violations == 0
    malus_ok = True
    phi, s1, s2 = cl.sample_pair_arrays(cl.FactorizableModel("delta_opposite"),
                                        0.7, 2.3, np.random.default_rng(1313),
                                        200_000)
    h1, _ = cl.station_orientations(opp, phi)
    p = np.cos((0.7 - h1) / 2.0) ** 2
    bins = np.floor(36 * (phi % (2 * np.pi)) / (2 * np.pi)).astype(int)
    chi2 = 0.0
    for k in range(36):
        mask = bins == k
        nk = int(mask.sum())
        exp_plus = float(p[mask].sum())
        obs_plus = float(np.count_nonzero(s1[mask] == 1))
        pbar = exp_plus / nk
        chi2 += (obs_plus - exp_plus) ** 2 / (nk * pbar * (1 - pbar))
    malus_ok = chi2 < stats.chi2.ppf(0.99, 36)
    elapsed = time.perf_counter() - t0
    ok = (not mc_failures and witness_ok and chsh_ok and malus_ok
          and elapsed < 60.0)
    _line(13, ok, f"threshold models: {len(mc_failures)} MC failures of 60; "
                  f"witness gap {-sweep.worst_bell.slack:.6f} = 4/pi; CHSH clean: "
                  f"{chsh_ok}; chi2 {chi2:.1f} < {stats.chi2.ppf(0.99, 36):.1f}; "
                  f"{elapsed:.1f}s (< 60s)")
    assert not mc_failures
    assert witness_ok and chsh_ok and malus_ok
    assert elapsed < 60.0


def test_criterion_14_pipeline():
    """Triple-process sources never fail the direct Boole check across 100
    seeded configurations and windows; the singlet at (0, 60, 120) degrees
    with an infinite window fails the anticorrelated-convention Boole check
    while the pair bound holds; equal seeds give bit-identical event logs."""
    rng = np.random.default_rng(1014)
    failures = 0
    for trial in range(100):
        # generic interior tables keep the exact clause slack well above the
        # sampling noise of disjoint per-setting runs
        table = FuncTable3(rng.uniform(0.1, 1.0, (2, 2, 2)))
        source = pl.TripleProcessSource(table, {"a": 1, "b": 2, "c": 3})
        window = [math.inf, 0.7, 0.2][trial % 3]
        timing = pl.TimingModel(jitter=0.05 * (trial % 4), exponent=1.0)
        rep = pl.run_three_settings(0.0, 1.0, 2.0, source, timing, 12_000,
                                    window, seed=5000 + trial)
        if rep.boole_direct is None or not rep.boole_direct.all_satisfied:
            failures += 1
        if rep.pair_bound is None or not rep.pair_bound.all_satisfied:
            failures += 1
    singlet_rep = pl.run_three_settings(0.0, np.pi / 3, 2 * np.pi / 3,
                                        pl.SingletSource(), pl.TimingModel(),
                                        60_000, math.inf, seed=1414)
    witness_ok = (not singlet_rep.boole_anticorrelated.all_satisfied
                  and singlet_rep.pair_bound.all_satisfied)
    sched = [pl.SettingPair(pl.Setting("a", 0.0), pl.Setting("b", 1.0)),
             pl.SettingPair(pl.Setting("a", 0.0), pl.Setting("c", 2.0))]
    src = pl.PairModelSource(cl.FactorizableModel("uniform"))
    import io

    def log_bytes(seed):
        raw = pl.generate_events(src, sched, 400,
                                 pl.TimingModel(jitter=0.2, exponent=1.0), seed)
        buf = io.StringIO()
        import csv as _csv
        w = _csv.writer(buf)
        for i in range(raw.m):
            w.writerow([i + 1, 1, int(raw.s1[i]), repr(float(raw.t1[i])),
                        raw.id1[i], repr(float(raw.angle1[i]))])
            w.writerow([i + 1, 2, int(raw.s2[i]), repr(float(raw.t2[i])),
                        raw.id2[i], repr(float(raw.angle2[i]))])
        return buf.getvalue()

    determinism_ok = (log_bytes(777) == log_bytes(777)
                      and log_bytes(777) != log_bytes(778))
    ok = failures == 0 and witness_ok and determinism_ok
    _line(14, ok, f"pipeline: {failures} direct-Boole failures in 100 triple "
                  f"configs; singlet witness rejected under anticorrelated "
                  f"convention: {witness_ok}; bit-identical logs: {determinism_ok}")
    assert failures == 0
    assert witness_ok
    assert determinism_ok
