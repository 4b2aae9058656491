import math

import numpy as np
import pytest
from scipy.special import gammaln

from hgl import (HermiteSeries, analyze, apply_H, classify, coeff_bound_from_norms,
                 cross_validate, estimate_sigma, fit_flat_sigma, fit_radius_from_norms,
                 fit_s_type, norm_sequence, shell_profile, synthetic_flat, synthetic_s)

from conftest import RADIUS_GRID, SIGMA_GRID, beurling_series


class TestShellProfile:
    def test_single_entry(self):
        s = HermiteSeries(dimension=2, max_degree=3, coefficients={(1, 2): 0.5})
        prof = shell_profile(s)
        assert prof.log_values[3] == pytest.approx(math.log(0.5))
        assert np.all(np.isneginf(np.delete(prof.log_values, 3)))

    def test_max_of_moduli(self):
        s = HermiteSeries(dimension=2, max_degree=3,
                          coefficients={(3, 0): 2.0, (0, 3): -5.0})
        prof = shell_profile(s)
        assert prof.log_values[3] == pytest.approx(math.log(5.0))

    def test_analyzed_gaussian_concentrates_on_shell_zero(self):
        s = analyze(lambda x: np.exp(-x**2 / 2), 1, 6)
        prof = shell_profile(s)
        assert prof.log_values[0] == pytest.approx(0.25 * math.log(math.pi))
        assert np.all(prof.log_values[1:] < math.log(1e-9))


class TestFitFlatSigma:
    def test_recovers_generator_radius(self):
        fit = fit_flat_sigma(shell_profile(synthetic_flat(1.0, 2.0, 80)), 1.0)
        assert fit.verdict == "roumieu"
        assert math.exp(fit.radius) == pytest.approx(2.0, rel=0.1)

    def test_finite_series_cannot_fit(self):
        s = HermiteSeries(dimension=1, max_degree=5, coefficients={(k,): 1.0 for k in range(6)})
        assert fit_flat_sigma(shell_profile(s), 1.0).verdict == "nofit"

    def test_overfast_decay_is_beurling(self):
        # c_k = 1/k! against the sigma = 1 requirement k!^{-1/2}
        fit = fit_flat_sigma(shell_profile(synthetic_flat(0.5, 1.0, 80)), 1.0)
        assert fit.verdict == "beurling"

    def test_scale_monotonicity(self):
        for sigma in SIGMA_GRID:
            prof = shell_profile(synthetic_flat(sigma, 1.0, 80))
            assert fit_flat_sigma(prof, sigma).verdict == "roumieu"
            assert fit_flat_sigma(prof, 2 * sigma).verdict == "beurling"

    def test_report_carries_raw_sequences(self):
        fit = fit_flat_sigma(shell_profile(synthetic_flat(1.0, 1.0, 60)), 1.0)
        assert fit.orders.size == fit.log_radii.size > 0
        assert fit.fit_window[0] > 2


class TestFitSType:
    def test_exponential_decay(self):
        fit = fit_s_type(shell_profile(synthetic_s(0.5, 3.0, 80)), 0.5)
        assert fit.verdict == "roumieu"
        assert math.exp(fit.radius) == pytest.approx(3.0, rel=0.05)

    def test_gaussian_decay_beurling_at_half(self):
        fit = fit_s_type(shell_profile(synthetic_s(0.25, 1.0, 80)), 0.5)
        assert fit.verdict == "beurling"

    def test_zero_profile_short_circuits(self):
        s = HermiteSeries(dimension=1, max_degree=80, coefficients={})
        assert fit_s_type(shell_profile(s), 0.5).verdict == "nofit"


class TestEstimateSigma:
    def test_inverse_sqrt_factorial(self):
        est = estimate_sigma(shell_profile(synthetic_flat(1.0, 1.0, 80)))
        assert est == pytest.approx(1.0, rel=0.1)

    def test_radius_two_half_scale(self):
        est = estimate_sigma(shell_profile(synthetic_flat(0.5, 2.0, 80)))
        assert est == pytest.approx(0.5, rel=0.1)

    def test_pure_exponential_returns_none(self):
        est = estimate_sigma(shell_profile(synthetic_s(0.5, 1.0, 80)))
        assert est is None


class TestClassify:
    def test_single_mode_finite(self):
        s = HermiteSeries(dimension=1, max_degree=7, coefficients={(7,): 1.0})
        result = classify(s)
        assert result.kind == "finite_expansion"
        assert result.degree == 7

    def test_zero_series_finite_with_degree_marker(self):
        s = HermiteSeries(dimension=1, max_degree=4, coefficients={})
        result = classify(s)
        assert result.kind == "finite_expansion"
        assert result.degree is None

    def test_flat_scale_fixture(self):
        result = classify(synthetic_flat(1.0, 1.0, 80))
        assert result.kind == "flat_sigma"
        assert result.parameter == pytest.approx(1.0, rel=0.1)
        assert result.flavor == "roumieu"
        assert math.exp(result.radius) == pytest.approx(1.0, rel=0.1)

    def test_s_scale_fixture(self):
        result = classify(synthetic_s(0.25, 2.0, 80))
        assert result.kind == "s_type"
        assert result.parameter == pytest.approx(0.25, rel=0.1)
        assert result.flavor == "roumieu"
        assert math.exp(result.radius) == pytest.approx(2.0, rel=0.1)

    def test_probe_diagnostics_present(self):
        result = classify(synthetic_flat(1.0, 1.0, 80))
        assert result.diagnostics["probe_low"].verdict == "nofit"
        assert result.diagnostics["probe_high"].verdict == "beurling"

    @pytest.mark.parametrize("sigma", SIGMA_GRID)
    @pytest.mark.parametrize("factor", [1e-6, 1e6])
    def test_scalar_invariance(self, sigma, factor):
        base = synthetic_flat(sigma, 1.0, 80)
        a, b = classify(base), classify(base.scaled(factor))
        assert (a.kind, a.flavor) == (b.kind, b.flavor)
        assert b.parameter == pytest.approx(a.parameter, rel=0.1)
        assert b.radius == pytest.approx(a.radius, abs=math.log(1.05))

    @pytest.mark.parametrize("sigma", SIGMA_GRID)
    def test_oscillator_invariance(self, sigma):
        base = synthetic_flat(sigma, 2.0, 80)
        a, b = classify(base), classify(apply_H(base, 1))
        assert (a.kind, a.flavor) == (b.kind, b.flavor)
        assert b.parameter == pytest.approx(a.parameter, rel=0.1)
        assert b.radius == pytest.approx(a.radius, abs=math.log(1.05))


class TestNormRoute:
    def test_roumieu_fixture_stable(self):
        s = synthetic_flat(1.0, 1.0, 80)
        fit = fit_radius_from_norms(norm_sequence(s, 60, "l2"), 1.0)
        assert fit.verdict == "roumieu"
        assert math.exp(fit.radius) == pytest.approx(1.0, rel=0.05)

    def test_ground_state_collapses(self, ground_state):
        fit = fit_radius_from_norms(norm_sequence(ground_state, 40, "l2"), 1.0)
        assert fit.verdict == "beurling"

    def test_gaussian_shell_decay_collapses(self):
        s = synthetic_s(0.25, 1.0, 80)  # c_k = exp(-k^2), faster than every radius
        fit = fit_radius_from_norms(norm_sequence(s, 40, "l2"), 1.0)
        assert fit.verdict == "beurling"

    def test_subfactorial_decay_never_fits(self):
        s = synthetic_s(0.5, 2.0, 80)  # c_k = exp(-2k), slower than the scale
        fit = fit_radius_from_norms(norm_sequence(s, 40, "l2"), 1.0)
        assert fit.verdict == "nofit"

    def test_too_few_points(self):
        s = synthetic_flat(1.0, 1.0, 40)
        fit = fit_radius_from_norms(norm_sequence(s, 7, "l2"), 1.0)
        assert fit.verdict == "nofit"



class TestCrossValidate:
    @pytest.mark.parametrize("sigma", SIGMA_GRID)
    @pytest.mark.parametrize("radius", RADIUS_GRID)
    def test_roumieu_grid_agrees(self, sigma, radius):
        rep = cross_validate(synthetic_flat(sigma, radius, 80), sigma, 40)
        assert rep.agrees
        assert rep.coeff_flavor == "roumieu"

    @pytest.mark.parametrize("sigma", SIGMA_GRID)
    def test_beurling_grid_agrees(self, sigma):
        rep = cross_validate(beurling_series(sigma), sigma, 40)
        assert rep.agrees
        assert rep.coeff_flavor == "beurling"

    def test_ground_state_agrees_at_every_sigma(self, ground_state):
        for sigma in SIGMA_GRID:
            rep = cross_validate(ground_state, sigma, 40)
            assert rep.agrees
            assert rep.norm_flavor == "beurling"

    def test_wrong_sigma_still_agrees(self):
        rep = cross_validate(synthetic_flat(1.0, 1.0, 80), 3.0, 40)
        assert rep.agrees
        assert rep.coeff_flavor == "beurling"


class TestCertification:
    def test_bound_dominates_shells_everywhere(self):
        for sigma in SIGMA_GRID:
            for radius in RADIUS_GRID:
                s = synthetic_flat(sigma, radius, 80)
                seq = norm_sequence(s, 40, "l2")
                prof = shell_profile(s)
                for order in range(1, 41):
                    bound = coeff_bound_from_norms(seq, order)
                    assert prof.log_values[order] <= bound + 1e-12

    def test_ground_state_closed_form(self, ground_state):
        seq = norm_sequence(ground_state, 10, "l2")
        bound = coeff_bound_from_norms(seq, 1)
        assert bound == pytest.approx(-10 * math.log(3), rel=1e-12)

    def test_single_power_gives_total_norm(self):
        s = synthetic_flat(1.0, 1.0, 20)
        seq = norm_sequence(s, 1, "l2")
        from hgl.spectral import NormSequence
        first = NormSequence(dimension=1, max_degree=20, norm_kind="l2",
                             powers=seq.powers[:1], logs=seq.logs[:1])
        bound = coeff_bound_from_norms(first, 5)
        assert bound == pytest.approx(seq.log_norms()[0], rel=1e-12)

    def test_order_zero_rejected(self, ground_state):
        seq = norm_sequence(ground_state, 4, "l2")
        with pytest.raises(ValueError):
            coeff_bound_from_norms(seq, 0)


class TestMatchedRadiiOracle:
    """Norm-to-radius inversion against the radius-r family, valued in mpmath.

    The family is c_k = r^k k!^{-1/(2 sigma)}, k = 0..M, one coefficient per
    shell with eigenvalue 2k + d, so log ||H^N c|| is
    (1/2) log sum_k r^{2k} k!^{-1/sigma} (2k + d)^{2N}.
    """

    @staticmethod
    def family_log_norm(mpmath, log_r, n, sigma, max_degree, dim):
        with mpmath.workdps(40):
            log_r = mpmath.mpf(log_r)
            terms = [2 * k * log_r - mpmath.loggamma(k + 1) / sigma
                     + 2 * n * mpmath.log(2 * k + dim) for k in range(max_degree + 1)]
            top = max(terms)
            return top / 2 + mpmath.log(mpmath.fsum(mpmath.exp(t - top) for t in terms)) / 2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.5])
    @pytest.mark.parametrize("max_degree", [12, 200])
    def test_returned_radius_reproduces_the_norm(self, dim, sigma, max_degree):
        mpmath = pytest.importorskip("mpmath")
        from hgl.classify import _matched_log_radii
        cases = [(n, log_r) for n in (1, 6, 40) for log_r in (-3.0, 0.0, 3.0)]
        powers = np.array([float(n) for n, _ in cases])
        targets = np.array([float(self.family_log_norm(mpmath, log_r, n, sigma,
                                                       max_degree, dim))
                            for n, log_r in cases])
        got = _matched_log_radii(targets, powers, sigma, max_degree, dim)
        for n, target, log_r in zip(powers, targets, got):
            back = self.family_log_norm(mpmath, float(log_r), int(n), sigma,
                                        max_degree, dim)
            assert abs(float(back) - target) <= 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_targets_outside_the_range_clip_exactly(self, dim):
        mpmath = pytest.importorskip("mpmath")
        from hgl.classify import _matched_log_radii
        sigma, max_degree = 1.0, 80
        powers = np.array([1.0, 9.0, 50.0])
        low = [float(self.family_log_norm(mpmath, -100.0, int(n), sigma, max_degree, dim))
               for n in powers]
        high = [float(self.family_log_norm(mpmath, 100.0, int(n), sigma, max_degree, dim))
                for n in powers]
        targets = np.array([v - 1.0 for v in low] + [v + 1.0 for v in high])
        got = _matched_log_radii(targets, np.concatenate([powers, powers]), sigma,
                                 max_degree, dim)
        assert list(got) == [-100.0] * 3 + [100.0] * 3

    @staticmethod
    def bisect(targets, powers, sigma, max_degree, dim):
        """The 80-halving bisection of [-100, 100] that Newton's method
        replaced, kept as an oracle (same clip tests, per-row operations)."""
        ks = np.arange(max_degree + 1, dtype=float)
        terms = (-gammaln(ks + 1.0) / sigma
                 + (2.0 * np.asarray(powers, dtype=float))[:, None] * np.log(2.0 * ks + dim))

        def gap(log_r):
            m = terms + 2.0 * ks * log_r[:, None]
            top = np.max(m, axis=1)
            sums = np.sum(np.exp(m - top[:, None]), axis=1)
            return 0.5 * (top + np.array([math.log(v) for v in sums.tolist()])) - targets

        lo, hi = np.full(len(targets), -100.0), np.full(len(targets), 100.0)
        below, above = gap(lo) >= 0.0, gap(hi) <= 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            short = gap(mid) < 0.0
            lo, hi = np.where(short, mid, lo), np.where(short, hi, mid)
        return np.where(below, -100.0, np.where(above, 100.0, 0.5 * (lo + hi)))

    @staticmethod
    def family_log_norms(mpmath, log_rs, n, sigma, max_degree, dim):
        """family_log_norm at several radii; terms more than 120 below the
        largest (relative weight under 1e-52) are left out of the sum."""
        ks = np.arange(max_degree + 1)
        with mpmath.workdps(40):
            base = [2 * n * mpmath.log(2 * k + dim) - mpmath.loggamma(k + 1) / sigma
                    for k in range(max_degree + 1)]
            approx = np.array([float(b) for b in base])
            out = []
            for log_r in log_rs:
                m = approx + 2.0 * ks * log_r
                keep = np.nonzero(m >= m.max() - 120.0)[0]
                terms = [base[k] + 2 * int(k) * mpmath.mpf(log_r) for k in keep]
                top = max(terms)
                out.append(top / 2 + mpmath.log(mpmath.fsum(mpmath.exp(t - top)
                                                            for t in terms)) / 2)
            return out

    def assert_as_good_as_bisection(self, mpmath, targets, powers, sigma, max_degree, dim):
        """Newton's radii against the bisection's: clips equal; the exact
        residual |g(u) - T| at most the bisection's plus 4 ulp(T) plus
        g'(u) ulp(u), the change of g over one float step of u (rounding in
        g's largest terms can exceed 4 ulp(T) where |T| is small beside
        them); and the radii within 1e-12 max(1, |u|) where g'(u) >= 1
        (below that the root is ill-conditioned: at log r = -40 both
        residuals are near 1e-17 while the radii differ by up to 1e-7)."""
        import sys
        got = sys.modules["hgl.classify"]._matched_log_radii(targets, powers, sigma,
                                                             max_degree, dim)
        want = self.bisect(targets, powers, sigma, max_degree, dim)
        ks = np.arange(max_degree + 1, dtype=float)
        for target, n, u, ub in zip(targets.tolist(), powers.tolist(), got.tolist(),
                                    want.tolist()):
            if ub in (-100.0, 100.0):
                assert u == ub
                continue
            m = (2.0 * ks * u - gammaln(ks + 1.0) / sigma + 2.0 * n * np.log(2.0 * ks + dim))
            w = np.exp(m - m.max())
            slope = float(np.sum(w * ks) / np.sum(w))
            g_new, g_old = self.family_log_norms(mpmath, (u, ub), int(n), sigma,
                                                 max_degree, dim)
            resid, resid_old = abs(float(g_new - target)), abs(float(g_old - target))
            assert resid <= resid_old + 4 * math.ulp(target) + slope * math.ulp(u), \
                (sigma, max_degree, dim, n, target, u, ub)
            if slope >= 1.0:
                assert abs(u - ub) <= 1e-12 * max(1.0, abs(u)), (sigma, max_degree, dim, n, u, ub)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_match_the_scalar_loop_alone_and_in_a_batch(self, dim):
        mpmath = pytest.importorskip("mpmath")
        from hgl.classify import _matched_log_radii
        rng = np.random.default_rng(dim)
        powers = rng.integers(1, 120, size=400).astype(float)
        # below the e^-100 family, inside the range, above the e^100 family
        targets = rng.permutation(np.concatenate([rng.uniform(-50.0, 0.0, 40),
                                                  rng.uniform(100.0, 15000.0, 320),
                                                  rng.uniform(17500.0, 20000.0, 40)]))
        batch = _matched_log_radii(targets, powers, 1.3, 80, dim)
        assert np.any(batch == -100.0) and np.any(batch == 100.0)
        rows = range(0, 400, 4)
        alone = np.array([_matched_log_radii(targets[i:i + 1], powers[i:i + 1], 1.3, 80, dim)[0]
                          for i in rows])
        assert alone.tobytes() == batch[::4].tobytes()
        self.assert_as_good_as_bisection(mpmath, targets[::4], powers[::4], 1.3, 80, dim)

    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5, 1.0, 3.0, 5.0])
    def test_newton_sweep_converges_in_few_steps(self, sigma, monkeypatch):
        """Targets of the family at log r in {-40, -5, 0, 5, 40}, inverted
        with the step cap lowered to 10; the worst case seen takes 7."""
        mpmath = pytest.importorskip("mpmath")
        import sys
        monkeypatch.setattr(sys.modules["hgl.classify"], "_NEWTON_STEPS", 10)
        log_rs = (-40.0, -5.0, 0.0, 5.0, 40.0)
        for max_degree in (1, 2, 12, 200, 400):
            for dim in (1, 2, 3):
                powers, targets = [], []
                for n in (1, 2, 5, 20, 100, 400, 1000):
                    powers += [float(n)] * len(log_rs)
                    targets += [float(v) for v in self.family_log_norms(
                        mpmath, log_rs, n, sigma, max_degree, dim)]
                self.assert_as_good_as_bisection(mpmath, np.array(targets), np.array(powers),
                                                 sigma, max_degree, dim)

    def test_zero_max_degree_only_clips(self):
        from hgl.classify import _matched_log_radii
        # with the one k = 0 term the family norm is (2N log d)/2 at every r
        powers = np.array([1.0, 3.0, 3.0, 7.0])
        targets = np.array([-1.0, 3.0 * math.log(2.0), 5.0, 0.0])
        got = _matched_log_radii(targets, powers, 1.0, 0, 2)
        assert got.tolist() == [-100.0, -100.0, 100.0, -100.0]

    def test_step_cap_raises(self, monkeypatch):
        import sys
        from hgl.classify import _matched_log_radii
        monkeypatch.setattr(sys.modules["hgl.classify"], "_NEWTON_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            _matched_log_radii(np.array([500.0]), np.array([9.0]), 1.0, 80, 1)
