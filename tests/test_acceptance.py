"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

import hgl
from hgl import (HermiteSeries, MixedNormParams, StftGrid, Weight, analyze, apply_H,
                 classify, coeff_bound_from_norms, cross_validate, estimate_sigma,
                 finite_random, l2_norm, modulation_norm, norm_equiv_harness,
                 norm_sequence, shell_profile, stft, stirling_bounds, synthesize_many,
                 synthetic_flat)

from conftest import RADIUS_GRID, SIGMA_GRID
from oracles import brute_parseval, oscillator_fd, oscillator_fd_twice


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _criterion3_fixtures():
    roumieu = {(s, r): synthetic_flat(s, r, 80) for s in SIGMA_GRID for r in RADIUS_GRID}
    beurling = {}
    for s in SIGMA_GRID:
        for r in RADIUS_GRID:
            coeffs = {}
            for k in range(81):
                log_c = k * math.log(r) - (1 / (2 * s) + 0.2) * gammaln(k + 1)
                if log_c > -700.0:
                    coeffs[(k,)] = math.exp(log_c)
            beurling[(s, r)] = HermiteSeries(dimension=1, max_degree=80,
                                             coefficients=coeffs)
    return roumieu, beurling


def test_criterion_1_transform_roundtrip():
    t0 = time.time()
    cases = [(1, m, seed) for seed, m in enumerate((5, 8, 12, 16, 20, 24, 28, 32, 36, 40, 14, 22))]
    cases += [(2, m, 100 + i) for i, m in enumerate((6, 8, 10, 12, 14, 16, 18, 20))]
    assert len(cases) == 20
    worst_pt, worst_pars = 0.0, 0.0
    rng = np.random.default_rng(2024)
    for d, m, seed in cases:
        base = finite_random(m, seed=seed, dimension=d)
        recovered = analyze(lambda pts: synthesize_many(base, pts), d, m,
                            quad_order=m + 8)
        pts = rng.uniform(-3, 3, size=(100, d))
        if d == 1:
            pts = pts.ravel()
        a = synthesize_many(base, pts)
        b = synthesize_many(recovered, pts)
        worst_pt = max(worst_pt, float(np.abs(a - b).max() / np.abs(a).max()))
        pa, pb = brute_parseval(base), brute_parseval(recovered)
        worst_pars = max(worst_pars, abs(pa - pb) / pa)
    elapsed = time.time() - t0
    ok = worst_pt <= 1e-9 and worst_pars <= 1e-12 and elapsed <= 30.0
    _report(1, "transform roundtrip", ok,
            f"point rel {worst_pt:.2e}, parseval rel {worst_pars:.2e}, {elapsed:.1f}s")


def test_criterion_2_eigenvalue_identity():
    xs = np.linspace(-6, 6, 241)
    worst = 0.0
    fixtures = [finite_random(20, s) for s in (0, 1, 2)]
    fixtures.append(analyze(lambda x: np.exp(-x**2 / 2) * (1 + x), 1, 12))
    for s in fixtures:
        spec1 = synthesize_many(apply_H(s, 1), xs)
        fd1 = oscillator_fd(s, xs)
        worst = max(worst, float(np.abs(spec1 - fd1).max() / np.abs(spec1).max()))
        spec2 = synthesize_many(apply_H(s, 2), xs[::2])
        fd2 = oscillator_fd_twice(s, xs[::2])
        worst = max(worst, float(np.abs(spec2 - fd2).max() / np.abs(spec2).max()))
    commute_exact = True
    for s in fixtures:
        for n1, n2 in ((1, 1), (3, 5), (2, 7)):
            a = apply_H(apply_H(s, n1), n2)
            b = apply_H(s, n1 + n2)
            commute_exact &= all(a.coefficient(k) == c for k, c in b.items())
    ok = worst <= 1e-6 and commute_exact
    _report(2, "eigenvalue identity vs differential oracle", ok,
            f"fd rel {worst:.2e}, commutation exact {commute_exact}")


def test_criterion_3_theorem_equivalence():
    t0 = time.time()
    roumieu, beurling = _criterion3_fixtures()
    agree_r = agree_b = sigma_ok = 0
    for (s, r), series in roumieu.items():
        rep = cross_validate(series, s, 40)
        agree_r += rep.agrees and rep.coeff_flavor == "roumieu"
        est = estimate_sigma(shell_profile(series))
        sigma_ok += est is not None and abs(est - s) <= 0.10 * s
    for (s, r), series in beurling.items():
        rep = cross_validate(series, s, 40)
        agree_b += rep.agrees and rep.coeff_flavor == "beurling"
    elapsed = time.time() - t0
    ok = agree_r == 9 and agree_b == 9 and sigma_ok == 9 and elapsed <= 120.0
    _report(3, "coefficient/norm route equivalence", ok,
            f"roumieu {agree_r}/9, beurling {agree_b}/9, sigma {sigma_ok}/9, {elapsed:.1f}s")


def test_criterion_4_lemma_suites():
    t0 = time.time()
    reports = []
    for r_bound in (1.0, 5.0):
        reports.append(hgl.check_factor_ratios_bounded(r_bound))
    for sigma in (1.0, 2.0):
        reports.append(hgl.check_envelope_factor_monotone(sigma))
    inf_rep = hgl.check_infimum_bound(r1_values=(0.5, 1.0, 2.0),
                                      s_lo=10.0, s_hi=1e3, sigma=1.0)
    reports.append(inf_rep)
    for r in (0.2, 0.5, 1.0, 2.0):
        reports.append(hgl.check_peak_term_bounded(r))
    elapsed = time.time() - t0
    all_pass = all(rep.passed for rep in reports)
    ok = all_pass and inf_rep.details["domain_inclusion_ok"] and elapsed <= 60.0
    detail = ", ".join(f"{rep.name.split('_')[0]}:{'ok' if rep.passed else 'FAIL'}"
                       for rep in reports)
    _report(4, "inequality suites with stable fitted constants", ok,
            f"{detail}, {elapsed:.1f}s")


def test_criterion_5_stirling_bridge():
    rng = np.random.default_rng(60)
    checked = 0
    worst_slack = -math.inf
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 61))
        parts = tuple(int(v) for v in rng.multinomial(k, np.ones(d) / d))
        lo, up = stirling_bounds(parts)
        log_fact = float(sum(gammaln(p + 1) for p in parts))
        slack = 1e-12 * max(1.0, abs(log_fact))
        lo_gap = lo - log_fact   # must be <= slack
        up_gap = log_fact - up   # must be <= slack
        worst_slack = max(worst_slack, lo_gap, up_gap)
        checked += 1
    ok = checked == 1000 and worst_slack <= 0.0 + 1e-12
    _report(5, "factorial two-sided bound", ok,
            f"{checked} indices, worst log gap {worst_slack:.2e}")


def test_criterion_6_norm_equivalence_shadow(ground_state):
    t0 = time.time()
    params = MixedNormParams(2, 2, Weight())
    fixture = synthetic_flat(1.0, 1.0, 20)
    ok = True
    details = []
    for series, label in ((ground_state, "ground"), (fixture, "synthetic")):
        rep0 = norm_equiv_harness(series, 1.0, 2.0, params, n_max=16, n0=0)
        rep3 = norm_equiv_harness(series, 1.0, 2.0, params, n_max=16, n0=3)
        same = (rep0.lp_fit.verdict == rep3.lp_fit.verdict
                and rep0.mod_fit.verdict == rep3.mod_fit.verdict)
        ok &= rep0.flavors_agree and rep3.flavors_agree and same
        details.append(f"{label}:{rep0.lp_fit.verdict}")
    l2 = math.exp(l2_norm(fixture))
    moyal = math.exp(modulation_norm(stft(fixture, StftGrid.default_for(fixture)), params))
    moyal_half = math.exp(modulation_norm(stft(fixture, StftGrid.default_for(fixture, step=0.125)),
                                          params))
    err, err_half = abs(moyal / l2 - 1), abs(moyal_half / l2 - 1)
    ok &= err <= 0.02 and err_half <= 0.005
    elapsed = time.time() - t0
    _report(6, "modulation-norm equivalence shadow", ok,
            f"{', '.join(details)}, moyal {err:.2e}/{err_half:.2e}, {elapsed:.1f}s")


def test_criterion_7_classifier_invariances():
    roumieu, beurling = _criterion3_fixtures()
    failures = []
    for label, series in {**{f"R{k}": v for k, v in roumieu.items()},
                          **{f"B{k}": v for k, v in beurling.items()}}.items():
        base = classify(series)
        variants = [series.scaled(1e-6), series.scaled(1e6), apply_H(series, 1)]
        for i, variant in enumerate(variants):
            got = classify(variant)
            same = (got.kind == base.kind and got.flavor == base.flavor
                    and got.parameter == pytest.approx(base.parameter, rel=0.1))
            if not same:
                failures.append(f"{label}/{i}")
    ok = not failures
    _report(7, "classifier invariance under rescaling and oscillator", ok,
            f"{18 * 3} variants, failures: {failures or 'none'}")


def test_criterion_8_certification_bound():
    roumieu, beurling = _criterion3_fixtures()
    violations = 0
    checked = 0
    for series in list(roumieu.values()) + list(beurling.values()):
        sigma = 1.0
        seq = norm_sequence(series, 40, "l2")
        prof = shell_profile(series)
        for order in range(1, 41):
            bound = coeff_bound_from_norms(seq, order)
            checked += 1
            if prof.log_values[order] > bound + 1e-12:
                violations += 1
    ok = violations == 0
    _report(8, "norm-route coefficient certification", ok,
            f"{checked} shell checks, {violations} violations")
