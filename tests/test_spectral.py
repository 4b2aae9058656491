import math

import numpy as np
import pytest

from hgl import (GridError, GridSpec, HermiteSeries, analyze, apply_H, finite_random,
                 l2_norm, lp_norm, norm_sequence, stirling_bounds, synthesize_many)
from hgl.hermite import hermite_derivative_rows

from oracles import hermite_mp, hermite_table, oscillator_fd, oscillator_fd_twice


class TestApplyH:
    def test_ground_state_eigenvalue_one(self):
        s = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
        assert apply_H(s, 3).coefficient((0,)) == 1.0

    def test_two_dimensional_eigenvalue(self):
        s = HermiteSeries(dimension=2, max_degree=3, coefficients={(1, 2): 1.0})
        assert apply_H(s, 2).coefficient((1, 2)) == 64.0

    def test_zero_power_is_identity(self):
        s = finite_random(10, 3)
        assert apply_H(s, 0) is s

    def test_commutation_is_bitwise_exact(self):
        s = finite_random(25, 11)
        a = apply_H(apply_H(s, 3), 5)
        b = apply_H(s, 8)
        for alpha, c in b.items():
            assert a.coefficient(alpha) == c

    def test_overflow_guarded(self):
        s = HermiteSeries(dimension=1, max_degree=50, coefficients={(50,): 1e300})
        with pytest.raises(OverflowError):
            apply_H(s, 100)


class TestNorms:
    def test_single_mode_norm_one(self):
        s = HermiteSeries(dimension=1, max_degree=5, coefficients={(5,): 1.0})
        assert math.exp(l2_norm(s)) == pytest.approx(1.0, rel=1e-14)

    def test_pythagoras(self):
        s = HermiteSeries(dimension=1, max_degree=1, coefficients={(0,): 3.0, (1,): 4.0})
        assert math.exp(l2_norm(s)) == pytest.approx(5.0, rel=1e-14)

    def test_l2_after_oscillator(self):
        s = HermiteSeries(dimension=1, max_degree=1, coefficients={(0,): 1.0, (1,): 1.0})
        assert math.exp(l2_norm(apply_H(s, 1))) == pytest.approx(math.sqrt(10), rel=1e-12)

    def test_lp_2_matches_parseval(self):
        s = finite_random(18, 4)
        assert math.exp(lp_norm(s, 2)) == pytest.approx(math.exp(l2_norm(s)), rel=1e-6)

    def test_sup_norm_of_gaussian(self):
        s = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
        assert math.exp(lp_norm(s, math.inf)) == pytest.approx(math.pi**-0.25, rel=1e-9)

    def test_l1_of_gaussian(self):
        s = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
        expected = math.pi**0.25 * math.sqrt(2)
        assert math.exp(lp_norm(s, 1)) == pytest.approx(expected, rel=1e-6)

    def test_sup_norm_two_dimensional(self):
        s = HermiteSeries(dimension=2, max_degree=0, coefficients={(0, 0): 1.0})
        assert math.exp(lp_norm(s, math.inf)) == pytest.approx(math.pi**-0.5, rel=1e-7)

    def test_grid_too_coarse_raises(self):
        s = finite_random(50, 1)
        with pytest.raises(GridError):
            lp_norm(s, math.inf, GridSpec(step=1.0))

    def test_p_below_one_rejected(self):
        s = finite_random(3, 2)
        with pytest.raises(ValueError):
            lp_norm(s, 0.5)

    def test_zero_series_has_zero_norm(self):
        s = HermiteSeries(dimension=1, max_degree=2, coefficients={})
        assert l2_norm(s) == -math.inf
        assert lp_norm(s, 2) == -math.inf


class TestNormSequence:
    def test_ground_state_constant(self):
        s = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
        seq = norm_sequence(s, 4)
        assert [math.exp(v) for v in seq.logs] == pytest.approx([1.0] * 5)

    def test_first_excited_powers_of_three(self):
        s = HermiteSeries(dimension=1, max_degree=1, coefficients={(1,): 1.0})
        seq = norm_sequence(s, 3)
        assert [math.exp(v) for v in seq.logs] == pytest.approx([1, 3, 9, 27], rel=1e-12)

    def test_two_dim_ground_state_powers_of_two(self):
        s = HermiteSeries(dimension=2, max_degree=0, coefficients={(0, 0): 1.0})
        seq = norm_sequence(s, 2)
        assert [math.exp(v) for v in seq.logs] == pytest.approx([1, 2, 4], rel=1e-12)

    def test_monotone_growth_factor_d(self):
        s = finite_random(15, 7)
        seq = norm_sequence(s, 10)
        logs = seq.log_norms()
        assert np.all(np.diff(logs) >= math.log(1.0) - 1e-12)  # d = 1

    def test_linf_kind(self):
        s = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
        seq = norm_sequence(s, 2, norm_kind="linf")
        assert math.exp(seq.logs[0]) == pytest.approx(math.pi**-0.25, rel=1e-9)

    def test_stores_max_degree(self):
        s = finite_random(9, 0)
        assert norm_sequence(s, 2).max_degree == 9

    def test_grid_and_n_min_are_keyword_only(self):
        from hgl import MixedNormParams, StftGrid, Weight, norm_sequence_mod
        s = finite_random(6, 1)
        params = MixedNormParams(2, 2, Weight())
        with pytest.raises(TypeError):
            norm_sequence(s, 3, "linf", GridSpec())
        with pytest.raises(TypeError):
            norm_sequence_mod(s, 3, params, StftGrid.default_for(s))

    def test_record_refuses_bad_arrays(self):
        from hgl import NormSequence
        seq = NormSequence(1, 4, "l2", [0, 2, 5], [-math.inf, 0.5, 1.5])
        assert seq.orders().tolist() == [0, 2, 5] and seq.log_norms()[0] == -math.inf
        with pytest.raises(ValueError):
            seq.logs[1] = 0.0
        for powers, logs in (([0, 2, 2], [0.0, 1.0, 2.0]), ([0, 1], [0.0]),
                             ([0, 1], [0.0, math.nan])):
            with pytest.raises(ValueError):
                NormSequence(1, 4, "l2", powers, logs)

    @pytest.mark.parametrize("n_max", [0, -2])
    def test_both_routes_refuse_n_max_below_one(self, n_max):
        from hgl import MixedNormParams, Weight, norm_sequence_mod
        s = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            norm_sequence(s, n_max, "linf")
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            norm_sequence_mod(s, n_max, MixedNormParams(2, 2, Weight()))


class TestOnePowerIsSequenceRow:
    """lp_norm of one power and the sequence route share one code path."""

    @pytest.mark.parametrize("p,dim", [(3.0, 1), (1.0, 2), (4.0, 2), (math.inf, 1),
                                       (math.inf, 2)])
    def test_lp_norm_equals_sequence_row(self, p, dim):
        s = finite_random(14 if dim == 1 else 6, 5, dimension=dim)
        kind = "linf" if p == math.inf else f"lp:{p:g}"
        seq = norm_sequence(s, 6, kind)
        for n, v in zip(seq.powers.tolist(), seq.logs.tolist()):
            one = lp_norm(apply_H(s, n), p)
            assert one == pytest.approx(v, abs=1e-12)


class TestDerivativeRows:
    """h_k' and h_k'' rows against mpmath differentiation of h_k."""

    KS = (0, 1, 2, 5, 13, 30, 47, 60)
    XS = np.concatenate([np.linspace(-8.0, 8.0, 17), [0.37, -2.9, 7.3]])

    def test_against_mpmath_derivatives(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        vals, first, second = hermite_derivative_rows(60, self.XS)
        for k in self.KS:
            for i, x in enumerate(self.XS):
                def h(t):
                    return hermite_mp(k, t)
                # size of the terms the ladder relation combines at x
                scale = float(abs(h(x)) + mpmath.sqrt(k / 2.0) * abs(hermite_mp(max(k - 1, 0), x))
                              + mpmath.sqrt((k + 1) / 2.0) * abs(hermite_mp(k + 1, x)))
                assert abs(first[k, i] - float(mpmath.diff(h, x))) <= 1e-10 * scale
                assert (abs(second[k, i] - float(mpmath.diff(h, x, 2)))
                        <= 1e-10 * (x * x + 2 * k + 1) * scale)


def test_cli_import_skips_scipy_optimize():
    import os
    import subprocess
    import sys
    code = "import sys, hgl.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


# ring maxima of these radial d = 2 Gaussians give Hessians that pass the
# eigenvalue test and are singular to LAPACK with one BLAS thread
SINGULAR_HESSIAN_CASES = [(1.7628, 16, 158), (1.6216, 14, 224), (1.5178, 12, 188),
                          (1.4957, 15, 259)]


@pytest.mark.parametrize("width,max_degree,quad_order", SINGULAR_HESSIAN_CASES)
def test_sup_norm_survives_singular_hessians(width, max_degree, quad_order):
    import os
    import subprocess
    import sys
    from hgl.presets import Preset, build_preset
    preset = f"gaussian:{width}"
    argv = ["norms", "--preset", preset, "--dim", "2", "--max-degree", str(max_degree),
            "--quad-order", str(quad_order), "--norm", "linf", "--n-max", "1"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-m", "hgl.cli", *argv], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    rows = [line.split(",") for line in out.stdout.splitlines()[2:]]
    assert [int(r[0]) for r in rows] == [0, 1]
    # |H^N f| on the sup norm's scan grid and on a grid ten times finer, by
    # the oracle's unscaled recurrence
    dense = build_preset(Preset.parse(preset), 2, max_degree, quad_order).dense()
    lam = 2.0 * np.indices(dense.shape).sum(axis=0) + 2.0
    osc = math.pi / (2.0 * math.sqrt(2 * max_degree + 2))
    step = min(0.25, osc / 2.0)
    extent = math.sqrt(2.0 * max_degree) + 6.0
    scan = np.arange(-extent, extent + step, step)
    fine = np.linspace(-extent, extent, 10 * scan.size)
    for n, log_norm, _ in rows:
        block = dense * lam ** int(n)
        peaks = []
        for axis in (scan, fine):
            table = hermite_table(dense.shape[0] - 1, axis)
            peaks.append(math.log(np.abs(table.T @ block @ table).max()))
        assert peaks[0] - 1e-12 <= float(log_norm) <= peaks[1] + 1e-2, (n, peaks)


class TestSpectralVsDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_application(self, seed):
        s = finite_random(20, seed)
        xs = np.linspace(-6, 6, 241)
        spectral = synthesize_many(apply_H(s, 1), xs)
        fd = oscillator_fd(s, xs)
        scale = np.abs(spectral).max()
        assert np.abs(spectral - fd).max() <= 1e-6 * scale

    def test_two_applications_fully_independent(self):
        s = finite_random(15, 9)
        xs = np.linspace(-6, 6, 121)
        spectral = synthesize_many(apply_H(s, 2), xs)
        fd = oscillator_fd_twice(s, xs)
        scale = np.abs(spectral).max()
        assert np.abs(spectral - fd).max() <= 1e-6 * scale

    def test_analyzed_gaussian_width(self):
        # H on exp(-x^2/2): eigenfunction with eigenvalue 1
        s = analyze(lambda x: np.exp(-x**2 / 2), 1, 10)
        xs = np.linspace(-5, 5, 101)
        hs = synthesize_many(apply_H(s, 1), xs)
        f = synthesize_many(s, xs)
        assert np.abs(hs - f).max() <= 1e-8


class TestStirlingBounds:
    def test_example_two_one(self):
        lo, up = stirling_bounds((2, 1))
        assert math.exp(lo) == pytest.approx(27 / (2 * math.e) ** 3, rel=1e-12)
        assert math.exp(up) == pytest.approx(27.0, rel=1e-12)
        assert math.exp(lo) <= 2.0 <= math.exp(up)

    def test_order_one(self):
        lo, up = stirling_bounds((1,))
        assert math.exp(lo) == pytest.approx(1 / math.e, rel=1e-12)
        assert math.exp(up) == pytest.approx(1.0, rel=1e-12)

    def test_balanced_three_dim(self):
        lo, up = stirling_bounds((3, 3, 3))
        fact = 6.0**3
        assert math.exp(lo) <= fact <= math.exp(up)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            stirling_bounds((0, 0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stirling_bounds((1, 2), dimension=3)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_random_indices_enclose_factorial(self, dimension):
        from scipy.special import gammaln
        rng = np.random.default_rng(17 + dimension)
        for _ in range(200):
            k = int(rng.integers(1, 61))
            parts = rng.multinomial(k, np.ones(dimension) / dimension)
            log_fact = float(sum(gammaln(p + 1) for p in parts))
            lo, up = stirling_bounds(tuple(int(p) for p in parts))
            slack = 1e-12 * max(1.0, abs(log_fact))
            assert lo <= log_fact + slack
            assert log_fact <= up + slack


class TestParsevalConsistency:
    def test_l2_squared_matches_brute_sum(self):
        from oracles import brute_parseval
        for seed in (0, 5, 9):
            s = finite_random(25, seed)
            direct = math.exp(2 * l2_norm(s))
            assert direct == pytest.approx(brute_parseval(s), rel=1e-12)

    def test_monotone_growth_two_dimensional(self):
        s = finite_random(8, 3, dimension=2)
        seq = norm_sequence(s, 6)
        logs = seq.log_norms()
        # eigenvalues are at least d = 2
        assert np.all(np.diff(logs) >= math.log(2.0) - 1e-12)


def test_logsumexp_bits_match_scipy():
    # scipy's logsumexp is the independent oracle: same float steps, so the
    # same bytes, at ties, -inf entries, all -inf slices and +inf
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import array_shapes, arrays
    from scipy.special import logsumexp
    from hgl.spectral import _logsumexp

    values = st.one_of(st.floats(-800.0, 800.0), st.sampled_from([-math.inf, 0.0, 1.5]))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(arrays(float, array_shapes(min_dims=1, max_dims=4, max_side=5), elements=values),
           st.data())
    def check(a, data):
        if data.draw(st.booleans()):
            a[(0,) * a.ndim] = data.draw(st.sampled_from([-math.inf, math.inf]))
        if data.draw(st.booleans()):
            a[0] = -math.inf        # all -inf slices along the later axes
        axes = [None, *range(a.ndim), -1]
        if a.ndim >= 2:
            axes += [(0, 1), tuple(range(a.ndim))]     # (0, 1): modulation's d = 2
        axis = data.draw(st.sampled_from(axes))
        got, want = _logsumexp(a, axis=axis), logsumexp(a, axis=axis)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    check()
