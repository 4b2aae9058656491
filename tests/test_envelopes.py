import math

import numpy as np
import pytest

from hgl import (amplitude_factor_ratio, check_envelope_factor_monotone,
                 check_factor_ratios_bounded, check_infimum_bound,
                 check_peak_term_bounded, envelope_coeff_flat, envelope_coeff_s,
                 envelope_factor, envelope_norm_flat, envelope_norm_s,
                 infimum_coeff_bound, peak_term, radius_factor_ratio)
from hgl.io import json_value

E = math.e


class TestNormFlatEnvelope:
    def test_direct_value(self):
        # N=3, sigma=1, r=1: log E = 3 log 2 + 3 (1 - 1/log 3) log(6/log 3)
        expected = 3 * math.log(2) + 3 * (1 - 1 / math.log(3)) * math.log(6 / math.log(3))
        val = envelope_norm_flat(3, 1.0, 1.0)
        assert val == pytest.approx(expected, rel=1e-14)
        assert math.exp(val) == pytest.approx(12.64, rel=1e-3)

    def test_radius_one_drops_radius_factor(self):
        for n, sigma in ((3, 1.0), (7, 0.7), (2, 2.0)):
            full = envelope_norm_flat(n, sigma, 1.0)
            t = n * sigma
            lt = math.log(t)
            no_r = n * math.log(2) + n * (1 - 1 / lt) * math.log(2 * t / lt)
            assert full == pytest.approx(no_r, rel=1e-14)

    def test_strictly_increasing_in_radius(self):
        vals = [envelope_norm_flat(5, 1.0, r) for r in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_boundary_excluded(self):
        with pytest.raises(ValueError):
            envelope_norm_flat(2, 1.0, 1.0)  # N sigma = 2 < e
        with pytest.raises(ValueError):
            envelope_norm_flat(1, math.e, 1.0)  # N sigma = e exactly
        envelope_norm_flat(3, 1.0, 1.0)  # N sigma = 3 > e is fine

    def test_overflowing_n_sigma_refused(self):
        # N sigma = inf would make 2t / log t = inf / inf a NaN
        with pytest.raises(ValueError, match=r"N\*sigma must be finite \(got N = 2"):
            envelope_norm_flat(2, 1e308, 1.0)

    def test_consistency_with_t_form(self):
        # sigma (log E - N log 2) equals the t-form core at t = N sigma
        for n, sigma, r in ((4, 1.0, 2.0), (9, 0.5, 0.3), (3, 2.0, 5.0)):
            t = n * sigma
            lhs = sigma * (envelope_norm_flat(n, sigma, r) - n * math.log(2))
            rhs = envelope_factor(r, t)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, abs(rhs)))


class TestCoefficientEnvelopes:
    def test_flat_trivial_cases(self):
        assert math.exp(envelope_coeff_flat((0,), 1.0, 1.0)) == 1.0
        assert math.exp(envelope_coeff_flat((2, 1), 1.0, 1.0)) == pytest.approx(2 ** -0.5, rel=1e-14)

    def test_flat_inverse_factorial(self):
        for k in (0, 3, 10):
            val = math.exp(envelope_coeff_flat((k,), 0.5, 2.0))
            assert val == pytest.approx(2**k / math.factorial(k), rel=1e-12)

    def test_s_scale_values(self):
        assert math.exp(envelope_coeff_s((0,), 1.0, 1.0)) == 1.0
        assert math.exp(envelope_coeff_s((4,), 0.5, 1.0)) == pytest.approx(math.exp(-4), rel=1e-14)
        assert math.exp(envelope_coeff_s((16,), 1.0, 2.0)) == pytest.approx(math.exp(-8), rel=1e-14)

    def test_s_scale_at_huge_s(self):
        # 2s overflows to inf here; e^{-r 0} = 1 still holds at k = 0
        assert envelope_coeff_s((0,), 1e308, 1.0) == 0.0
        assert envelope_coeff_s((3,), 1e308, 2.0) == -2.0
        for s in (0.25, 0.5, 3.0, 1e300, 8e307):    # bits of 1 / (2s) where 2s is finite
            assert envelope_coeff_s((7,), s, 1.5) == -1.5 * 7 ** (1.0 / (2.0 * s))

    def test_norm_s_values(self):
        assert math.exp(envelope_norm_s(0, 1.0, 5.0)) == 1.0
        assert math.exp(envelope_norm_s(3, 0.5, 2.0)) == pytest.approx(48.0, rel=1e-13)
        assert math.exp(envelope_norm_s(2, 1.0, 1.0)) == pytest.approx(4.0, rel=1e-13)

    def test_norm_s_at_huge_s(self):
        # N = 1: (1!)^{2s} = 1 for every s, so no inf * 0 NaN from 2s = inf
        assert envelope_norm_s(1, 1e308, 2.0) == math.log(2.0)
        for s in (0.5, 3.0, 8e307):    # bits of 2s * lgamma where 2s is finite
            assert envelope_norm_s(2, s, 1.5) == 2 * math.log(1.5) + 2.0 * s * math.lgamma(3)


class TestFactorRatios:
    def test_radius_ratio_degenerate_cases(self):
        assert math.exp(radius_factor_ratio(1.0, 5.0, 9.0)) == 1.0
        assert math.exp(radius_factor_ratio(7.3, 4.2, 4.2)) == 1.0

    def test_radius_ratio_direct(self):
        expected = 2.0 ** (11 / math.log(11) - 10 / math.log(10))
        assert math.exp(radius_factor_ratio(2.0, 10.0, 11.0)) == pytest.approx(expected, rel=1e-13)

    def test_amplitude_ratio_symmetry(self):
        up = amplitude_factor_ratio(10.0, 12.0)
        down = amplitude_factor_ratio(12.0, 10.0)
        assert math.exp(up) > 1.0
        assert math.exp(up + down) == pytest.approx(1.0, rel=1e-14)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            radius_factor_ratio(1.0, 2.0, 5.0)
        with pytest.raises(ValueError):
            amplitude_factor_ratio(math.e, 5.0)

    def test_product_telescopes_to_factor_ratio(self):
        for r, t1, t2 in ((0.3, 4.0, 7.0), (2.5, 10.0, 10.5), (1.0, 5.0, 5.0)):
            lhs = (radius_factor_ratio(r, t1, t2)
                   + amplitude_factor_ratio(t1, t2))
            rhs = envelope_factor(r, t2) - envelope_factor(r, t1)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEnvelopeFactor:
    def test_log_t_equals_two_simplification(self):
        val = envelope_factor(1.0, E**2)
        assert val == pytest.approx(E**2, rel=1e-14)

    def test_monotone_sample(self):
        assert envelope_factor(4.0, 20.0) <= envelope_factor(4.0, 20.5)

    def test_t_over_log_t_increasing(self):
        ts = np.linspace(E + 1e-6, 500, 400)
        vals = ts / np.log(ts)
        assert np.all(np.diff(vals) > 0)


class TestPeakTerm:
    def test_boundary_values(self):
        assert math.exp(peak_term(1.0, 0.5, 0.0)) == pytest.approx(2 * 0.5 * E, rel=1e-14)
        # s = 2re with t = 0 collapses to 1
        assert math.exp(peak_term(2 * 1.5 * E, 1.5, 0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_cancellation_point(self):
        assert math.exp(peak_term(E, 0.5, 1.0)) == pytest.approx(E**2, rel=1e-13)


class TestCheckSuites:
    def test_factor_ratios_default(self):
        rep = check_factor_ratios_bounded(1.0)
        assert rep.passed
        assert math.isfinite(rep.fitted_constant)

    def test_factor_ratios_radius_one_gives_unit_g(self):
        # with the r-grid pinned at 1 the radius-ratio part is exactly 1
        rep = check_factor_ratios_bounded(1.0, r_values=(1.0,))
        assert rep.passed
        assert rep.details["log_max_g"] == 0.0

    def test_factor_ratios_big_R_stable(self):
        rep = check_factor_ratios_bounded(5.0, t_max=1e4)
        assert rep.passed
        assert rep.details["drift"] <= math.log(1.05)

    def test_monotone_passes_and_flags_violations(self):
        for sigma in (1.0, 2.0):
            rep = check_envelope_factor_monotone(sigma)
            assert rep.passed
            assert rep.details["max_log_violation"] <= 1e-12

    def test_monotone_domain_guard(self):
        with pytest.raises(ValueError):
            check_envelope_factor_monotone(1.0, t_min=2.0)

    def test_infimum_bound_suite(self):
        rep = check_infimum_bound()
        assert rep.passed
        assert rep.details["domain_inclusion_ok"]
        assert rep.details["max_drift"] <= math.log(1.05)

    def test_peak_term_suite_and_radius_monotone_in_r(self):
        radii = []
        for r in (0.2, 0.5, 1.0, 2.0):
            rep = check_peak_term_bounded(r)
            assert rep.passed
            assert rep.details["fitted_theta"] > 0
            radii.append(rep.details["fitted_rhs_radius"])
        assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))

    def test_peak_term_boundary_grid(self):
        rep = check_peak_term_bounded(1e-4, t_grid=(E**2,))
        assert math.isfinite(rep.max_ratio)

    def test_report_json_roundtrip(self):
        import json
        rep = check_factor_ratios_bounded(1.0)
        text = json.dumps(json_value(rep))
        assert json.loads(text)["passed"] is True


class TestInfimum:
    def test_requires_large_s(self):
        with pytest.raises(ValueError):
            infimum_coeff_bound(5.0, 1.0)

    def test_continuum_below_discrete(self):
        for s in (10.0, 55.0, 300.0):
            for r1 in (0.5, 1.0, 2.0):
                d1 = infimum_coeff_bound(s, r1, 1.0, domain=1)
                d2 = infimum_coeff_bound(s, r1, 1.0, domain=2)
                assert d2 <= d1 + 1e-9

    def test_degenerate_single_point_matches_summand(self):
        # at s just above the threshold with sigma huge, the first multiple
        # of sigma dominates the scan and the discrete inf is that summand
        val = infimum_coeff_bound(10.0, 1.0, sigma=3.0, domain=1)
        t = 3.0
        summand = (-t * math.log(10.0)
                   + t * (1 - 1 / math.log(t)) * math.log(2 * t / math.log(t)))
        assert val <= summand + 1e-12


def test_check_reports_are_deterministic():
    a = json_value(check_factor_ratios_bounded(1.0))
    b = json_value(check_factor_ratios_bounded(1.0))
    assert a == b
    c = json_value(check_peak_term_bounded(0.5))
    d = json_value(check_peak_term_bounded(0.5))
    assert c == d


def test_infimum_cap_error_advises():
    import pytest as _pytest
    with _pytest.raises(RuntimeError, match="raise the cap"):
        infimum_coeff_bound(1e6, 1.0, sigma=1.0, domain=1, n_cap=50)


class TestInfimumOracle:
    """infimum_coeff_bound against 50-digit mpmath minima of the summand

        f(t) = -t log s + t (1 - 1/log t) log(2t/log t) + (t/log t) log r1.

    The continuum minimum is the root of the closed-form f'; the discrete one
    is the least f(N sigma) around it, after checking that f' changes sign
    once on [e, 20 t*], so that f falls before the root and rises after it.
    """

    S_VALUES = (10.0, 37.0, 1000.0, 2000.0)
    R1_VALUES = (0.5, 1.0, 2.0)
    # the first scan step from t = e already rises: the minimum lies in it
    BOUNDARY = ((10.0, 3000.0), (10.0, 1e4))

    @staticmethod
    def summand(mpmath, t, s, r1):
        lt = mpmath.log(t)
        return (-t * mpmath.log(s) + t * (1 - 1 / lt) * mpmath.log(2 * t / lt)
                + (t / lt) * mpmath.log(r1))

    @staticmethod
    def slope(mpmath, t, s, r1):
        lt = mpmath.log(t)
        u, du = t - t / lt, 1 - 1 / lt + 1 / lt**2
        v, dv = mpmath.log(2 * t / lt), 1 / t - 1 / (t * lt)
        return -mpmath.log(s) + du * v + u * dv + (1 / lt - 1 / lt**2) * mpmath.log(r1)

    def minimizer(self, mpmath, s, r1):
        e = mpmath.e
        assert self.slope(mpmath, e, s, r1) < 0       # f falls at t = e for s >= 10
        hi = 2 * e
        while self.slope(mpmath, hi, s, r1) < 0:
            hi *= 2
        t_star = mpmath.findroot(lambda t: self.slope(mpmath, t, s, r1), (e, hi),
                                 solver="illinois")
        grid = [e * (20 * t_star / e) ** (mpmath.mpf(j) / 400) for j in range(401)]
        signs = [self.slope(mpmath, t, s, r1) > 0 for t in grid]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1
        return t_star

    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("r1", R1_VALUES)
    def test_continuum_minimum(self, s, r1):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            t_star = self.minimizer(mpmath, s, r1)
            expected = float(self.summand(mpmath, t_star, s, r1))
        for sigma in (1.0, 3.0):
            got = infimum_coeff_bound(s, r1, sigma, domain=2)
            assert abs(got - expected) <= 1e-9

    @pytest.mark.parametrize("s", S_VALUES)
    @pytest.mark.parametrize("r1", R1_VALUES)
    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_discrete_minimum(self, s, r1, sigma):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            n_star = float(self.minimizer(mpmath, s, r1)) / sigma
            n0 = max(1, math.ceil(E / sigma))
            ns = range(max(n0, math.floor(n_star) - 2), math.ceil(n_star) + 3)
            expected = float(min(self.summand(mpmath, mpmath.mpf(n) * sigma, s, r1)
                                 for n in ns))
        got = infimum_coeff_bound(s, r1, sigma, domain=1)
        assert abs(got - expected) <= 1e-9

    @pytest.mark.parametrize("s,r1", BOUNDARY)
    def test_minimum_next_to_the_boundary(self, s, r1):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            t_star = self.minimizer(mpmath, s, r1)
            assert t_star < mpmath.exp(1.25)
            expected = float(self.summand(mpmath, t_star, s, r1))
            at_e = float(self.summand(mpmath, mpmath.e, s, r1))
        got = infimum_coeff_bound(s, r1, 1.0, domain=2)
        assert abs(got - expected) <= 1e-9
        assert got < at_e - 0.05
        # the discrete minimum sits on the first admissible point, N sigma = 3
        with mpmath.workdps(50):
            first = float(self.summand(mpmath, mpmath.mpf(3), s, r1))
        for sigma in (1.0, 3.0):
            d1 = infimum_coeff_bound(s, r1, sigma, domain=1)
            assert abs(d1 - first) <= 1e-9
            assert got <= d1


class TestSearchFailures:
    def test_discrete_cap_is_a_search_error(self):
        from hgl import EnvelopeSearchError
        with pytest.raises(EnvelopeSearchError, match="raise the cap"):
            infimum_coeff_bound(1e6, 1.0, sigma=1.0, domain=1, n_cap=50)

    def test_peak_term_without_bracket_is_a_search_error(self):
        from hgl import EnvelopeSearchError
        # at t = 1e30 the peak term still rises at s = e^60
        with pytest.raises(EnvelopeSearchError, match="does not bracket"):
            check_peak_term_bounded(1.0, t_grid=(1e30,))


# The per-s scalar searches the array searches replaced, kept as the
# reference they must match bit for bit.

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_scalar(fn, a, b, rel_tol=1e-10):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > rel_tol * max(1.0, abs(a), abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def _summand_scalar(s, r1, t):
    lt = np.log(t)
    return (-t * math.log(s) + t * (1.0 - 1.0 / lt) * np.log(2.0 * t / lt)
            + (t / lt) * math.log(r1))


def _infimum_scalar(s, r1, sigma, domain):
    if domain == 1:
        best, rises, prev = math.inf, 0, math.inf
        n = max(1, math.ceil(E / sigma))
        while True:
            for v in _summand_scalar(s, r1, np.arange(n, n + 512) * sigma):
                v = float(v)
                best = min(best, v)
                rises = rises + 1 if v > prev else 0
                prev = v
                if rises >= 2:
                    return best
            n += 512

    def phi(log_t):
        return float(_summand_scalar(s, r1, np.array([math.exp(log_t)]))[0])

    xs = [1.0, 1.25]
    fs = [phi(1.0), phi(1.25)]
    while fs[-1] < fs[-2]:
        xs.append(xs[-1] + 0.25)
        fs.append(phi(xs[-1]))
    _, fmin = _golden_scalar(phi, xs[-3] if len(xs) >= 3 else xs[0], xs[-1])
    return min(fmin, min(fs))


@pytest.mark.parametrize("sigma", [1.0, 3.0])
@pytest.mark.parametrize("domain", [1, 2])
def test_array_search_matches_the_scalar_loop(sigma, domain):
    from hgl.envelopes import _infimum_logs
    s_grid = np.unique(np.round(np.geomspace(10.0, 1e3, 16)).astype(int)).astype(float)
    s_ext = np.unique(np.concatenate([s_grid, 2.0 * s_grid]))
    for r1 in (0.01, 1.0, 50.0, 1e4):
        got = _infimum_logs(s_ext, r1, sigma, domain, 1_000_000)
        want = np.array([_infimum_scalar(float(s), r1, sigma, domain) for s in s_ext])
        assert got.tobytes() == want.tobytes()


def test_peak_term_golden_matches_the_scalar_loop():
    from hgl.envelopes import _log_max_peak_term
    for r in (0.2, 2.0):
        for t in (E**2, 40.0, 320.0):
            log2re = math.log(2.0 * r * E)

            def neg_g(u):
                return -(2.0 * t * u + math.exp(u) * (log2re - u))

            xs = [0.0, 0.5]
            while neg_g(xs[-1]) < neg_g(xs[-2]):
                xs.append(xs[-1] + 0.5)
            _, neg = _golden_scalar(neg_g, xs[-3] if len(xs) >= 3 else 0.0, xs[-1])
            want = max(-neg, max(-neg_g(x) for x in xs))
            assert _log_max_peak_term(r, t) == want


def test_golden_matches_the_scalar_loop_on_mixed_brackets():
    from hgl.envelopes import _golden_min
    rng = np.random.default_rng(11)
    # widths and positions over many scales, so searches stop at different steps
    lo = rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.uniform(-3, 6, 200)
    hi = lo + 10.0 ** rng.uniform(-4, 5, 200)
    centre = lo + rng.uniform(0.0, 1.0, 200) * (hi - lo)

    def quad(x, rows):
        return (x - centre[rows]) * (x - centre[rows])

    x, f = _golden_min(quad, lo, hi)
    for i in range(200):
        want = _golden_scalar(lambda u: (u - centre[i]) * (u - centre[i]), lo[i], hi[i])
        assert (x[i], f[i]) == want


class TestEnvelopeFormulasOracle:
    """The four envelope formulas against their closed forms at 50 digits.

    Each closed form is a short sum of terms; its float evaluation is good to
    a few ulps of the largest term, so the error is measured against
    sum |term| (worst measured 5.1e-16, in envelope_norm_s).
    """

    ORDERS = (1, 2, 7, 60, 400)
    PARAMS = (0.5, 1.0, 3.0)
    RADII = (0.3, 1.0, 2.5)
    TOL = 8 * 2.0**-52

    @staticmethod
    def norm_flat_terms(mpmath, N, sigma, r):
        t = N * mpmath.mpf(sigma)
        lt = mpmath.log(t)
        return [N * mpmath.log(2), (N / lt) * mpmath.log(r),
                N * (1 - 1 / lt) * mpmath.log(2 * t / lt)]

    @staticmethod
    def norm_s_terms(mpmath, N, s, r):
        return [N * mpmath.log(r), 2 * mpmath.mpf(s) * mpmath.loggamma(N + 1)]

    @staticmethod
    def coeff_flat_terms(mpmath, k, sigma, r):
        return [k * mpmath.log(r), -mpmath.loggamma(k + 1) / (2 * mpmath.mpf(sigma))]

    @staticmethod
    def coeff_s_terms(mpmath, k, s, r):
        return [-mpmath.mpf(r) * mpmath.mpf(k) ** (1 / (2 * mpmath.mpf(s)))]

    @pytest.mark.parametrize("name", ["norm_flat", "norm_s", "coeff_flat", "coeff_s"])
    def test_matches_closed_form(self, name):
        mpmath = pytest.importorskip("mpmath")
        formula = {"norm_flat": envelope_norm_flat, "norm_s": envelope_norm_s,
                   "coeff_flat": lambda k, p, r: envelope_coeff_flat((k,), p, r),
                   "coeff_s": lambda k, p, r: envelope_coeff_s((k,), p, r)}[name]
        closed_form = getattr(self, f"{name}_terms")
        checked = 0
        with mpmath.workdps(50):
            for n in self.ORDERS:
                for p in self.PARAMS:
                    for r in self.RADII:
                        if name == "norm_flat" and n * p <= E:
                            with pytest.raises(ValueError):
                                formula(n, p, r)
                            continue
                        terms = closed_form(mpmath, n, p, r)
                        got = formula(n, p, r)
                        assert got > -math.inf
                        err = abs(mpmath.mpf(got) - sum(terms))
                        assert err <= self.TOL * sum(abs(t) for t in terms), (n, p, r)
                        checked += 1
        assert checked >= 33  # norm_flat skips N sigma <= e: 12 of the 45 cases


# The pointwise suite loops the array passes replaced, kept as the reference
# they must match bit for bit.

def _monotone_pointwise(sigma, t_max, nt, t_min, r_up=(1.0, 2.0, 10.0),
                        r_down=(0.1, 0.5, 1.0), n_sigma0=3, left_at_t_plus_s0=False):
    """The suite point by point; rows comparing F(r, t) with itself are
    skipped.  ``left_at_t_plus_s0`` evaluates the left side at t + s0, a
    mutation the report must show."""
    lo = sigma * (E + 1.0) + E
    ts = np.linspace(lo + 0.1 if t_min is None else t_min, t_max, nt)
    worst, witness = -math.inf, {}
    branches = ([("r_ge_1", r, r) for r in r_up]
                + [("r_le_1", r, r ** ((E - 1.0) / E)) for r in r_down])
    for s0 in np.linspace(0.0, sigma, n_sigma0):
        for branch, r, r_right in branches:
            if s0 == 0.0 and r_right == r:
                continue
            shift = s0 if left_at_t_plus_s0 else 0.0
            diffs = np.array([envelope_factor(r, t + shift)
                              - envelope_factor(r_right, t + s0) for t in ts])
            i = int(np.argmax(diffs))
            if diffs[i] > worst:
                worst = float(diffs[i])
                witness = {"branch": branch, "r": float(r), "t": float(ts[i]),
                           "sigma0": float(s0)}
    return worst, witness


class TestSuitesMatchPointwiseEvaluation:
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("nt", [7, 120])
    @pytest.mark.parametrize("t_min_offset", [None, 1.7])
    # with and without the r >= 1 branch, whose rows all have s0 > 0
    @pytest.mark.parametrize("radii", [{}, {"r_up": (), "r_down": (0.1, 0.5, 0.9)}],
                             ids=["default_radii", "r_le_1_only"])
    def test_monotone(self, sigma, nt, t_min_offset, radii):
        t_min = None if t_min_offset is None else sigma * (E + 1.0) + E + t_min_offset
        report = check_envelope_factor_monotone(sigma, nt=nt, t_min=t_min, **radii)
        worst, witness = _monotone_pointwise(sigma, 200.0, nt, t_min, **radii)
        assert report.details["max_log_violation"].hex() == worst.hex()
        assert report.witness == witness

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_monotone_report_shows_a_left_side_at_t_plus_s0(self, sigma):
        report = check_envelope_factor_monotone(sigma)
        assert report.passed and report.details["max_log_violation"] < 0.0
        mutated = _monotone_pointwise(sigma, 200.0, 120, None, left_at_t_plus_s0=True)
        assert mutated != (report.details["max_log_violation"], report.witness)

    def test_factor_parts_on_a_dense_grid(self):
        # dense enough that np.log and math.log disagree on some of its points
        from hgl.envelopes import _factor_parts, _log_amplitude
        ts = np.linspace(3.0, 2000.0, 200001)
        amp, tl = _factor_parts(ts)
        assert amp.tobytes() == np.array([_log_amplitude(t) for t in ts.tolist()]).tobytes()
        assert tl.tobytes() == np.array([t / math.log(t) for t in ts.tolist()]).tobytes()
        for r in (0.05, 1.0, 7.0):
            got = amp[::100] + tl[::100] * math.log(r)
            want = [envelope_factor(r, t) for t in ts[::100].tolist()]
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("r", [1e-3, 0.2, 2.0, 50.0])
    @pytest.mark.parametrize("t_grid", [(E**2, 30.0, 1000.0),
                                        (1000.0, 11.0, E**2, 11.0, 250.0),
                                        (10.0, 20.0, 40.0, 80.0, 160.0)])
    def test_peak_term(self, r, t_grid):
        from hgl.envelopes import _log_amplitude, _log_max_peak_term

        def log_rho(t):
            return (math.log(t) / (2.0 * t)) * (_log_max_peak_term(r, t)
                                                - 2.0 * _log_amplitude(t))

        report = check_peak_term_bounded(r, t_grid=t_grid)
        base = {float(t): log_rho(float(t)) for t in t_grid}
        ext = {t: log_rho(t) for t in sorted(set(base) | {2.0 * t for t in base})}
        assert list(report.details["log_rho_per_t"]) == list(base)
        assert list(report.details["log_rho_extended"]) == list(ext)
        for got, want in ((report.details["log_rho_per_t"], base),
                          (report.details["log_rho_extended"], ext)):
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("domain", [1, 2])
    def test_infimum_rows_with_their_own_radius(self, sigma, domain):
        from hgl.envelopes import _infimum_logs
        s_grid = np.array([10.0, 13.0, 40.0, 41.0, 300.0, 1000.0, 2000.0])
        r1s = (0.01, 0.5, 2.0, 1e3)
        rows_s = np.tile(s_grid, len(r1s))
        rows_r1 = np.repeat(np.array(r1s), s_grid.size)
        got = _infimum_logs(rows_s, rows_r1, sigma, domain, 1_000_000)
        want = np.concatenate([_infimum_logs(s_grid, r1, sigma, domain, 1_000_000)
                               for r1 in r1s])
        assert got.tobytes() == want.tobytes()
        # interleaved radii: rows leave the search in a different order
        order = np.random.default_rng(5).permutation(rows_s.size)
        mixed = _infimum_logs(rows_s[order], rows_r1[order], sigma, domain, 1_000_000)
        assert mixed.tobytes() == want[order].tobytes()


def test_factor_ratios_reject_t_max_at_or_below_the_t_floor():
    for t_max in (0.0, -5.0, 2.0, math.nan):
        with pytest.raises(ValueError, match="t_max must exceed the t floor"):
            check_factor_ratios_bounded(1.0, t_max=t_max)
    with pytest.raises(ValueError, match="t floor 6.12"):
        check_factor_ratios_bounded(5.0, t_max=6.0)


def test_infimum_logs_are_finite():
    # check_infimum_bound uses each log as it is, so none may be -inf or NaN
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hgl.envelopes import _infimum_logs

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(10.0, 2000.0), min_size=1, max_size=8),
           st.floats(0.05, 20.0), st.floats(0.1, 5.0))
    def check(s, r1, sigma):
        for domain in (1, 2):
            assert np.isfinite(_infimum_logs(np.array(s), r1, sigma, domain, 1_000_000)).all()

    check()
