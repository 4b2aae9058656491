import math

import numpy as np
import pytest

from hgl import gauss_hermite_rule, hermite_matrix

from oracles import gaussian_moment

SQRT_PI = math.sqrt(math.pi)


def test_one_point_rule():
    rule = gauss_hermite_rule(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-14)


def test_two_point_rule():
    rule = gauss_hermite_rule(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
    assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 40])
def test_moment_exactness_to_degree_2n_minus_1(n):
    rule = gauss_hermite_rule(n)
    for k in range(0, 2 * n):
        approx = float(np.sum(rule.weights * rule.nodes**k))
        exact = gaussian_moment(k)
        # odd moments vanish by cancellation, so "relative" is measured
        # against the absolute-moment scale of the quadrature sum
        scale = float(np.sum(rule.weights * np.abs(rule.nodes) ** k))
        assert abs(approx - exact) <= 1e-10 * max(scale, 1e-300)


@pytest.mark.parametrize("n", [2, 5, 17, 64, 301])
def test_symmetry_and_positivity(n):
    rule = gauss_hermite_rule(n)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.all(np.isfinite(rule.log_weights))
    assert np.all(rule.weights[rule.weights > 0])  # raw weights nonnegative
    assert rule.weights.sum() == pytest.approx(SQRT_PI, rel=1e-12)


def test_large_rule_log_weights_stay_finite():
    rule = gauss_hermite_rule(2000)
    assert np.all(np.isfinite(rule.log_weights))
    assert rule.weights.sum() == pytest.approx(SQRT_PI, rel=1e-12)
    # raw edge weights genuinely underflow there; the log form carries them
    assert rule.weights.min() == 0.0
    assert rule.log_weights.min() < -800


@pytest.mark.parametrize("n", [50, 200])
def test_matches_mpmath_roots_and_weights(n):
    # roots of H_n polished by Newton steps at 40 digits from numpy's nodes;
    # log w = log(2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x)^2)) in closed form
    mpmath = pytest.importorskip("mpmath")
    rule = gauss_hermite_rule(n)
    start, _ = np.polynomial.hermite.hermgauss(n)
    with mpmath.workdps(40):
        log_const = ((n - 1) * mpmath.log(2) + mpmath.loggamma(n + 1)
                     + mpmath.log(mpmath.pi) / 2 - 2 * mpmath.log(n))
        for i in range(n // 2, n):  # the rule is exactly symmetric
            x = mpmath.mpf(start[i])
            for _ in range(3):
                x -= mpmath.hermite(n, x) / (2 * n * mpmath.hermite(n - 1, x))
            log_w = float(log_const - 2 * mpmath.log(abs(mpmath.hermite(n - 1, x))))
            for j, node in ((i, float(x)), (n - 1 - i, -float(x))):
                assert abs(rule.nodes[j] - node) <= 1e-13, j
                assert abs(rule.log_weights[j] - log_w) <= 1e-12, j


@pytest.mark.slow
@pytest.mark.parametrize("n", [500, 2000])
def test_large_rules_match_mpmath_roots_and_weights(n):
    # the method above at the orders analyze runs in bulk (--quad-order up to
    # 2000), from scipy's asymptotic nodes: two Newton steps at 40 digits,
    # the second already below float resolution.  Float rounding of x and of
    # -x^2 inside log w grows with the magnitudes, so the bounds scale with
    # |x| and |log w|; measured worst cases at n = 2000 are 2.1e-16 |x| and
    # 3.0e-15 |log w| (edge nodes near 62, log w near -3900).
    mpmath = pytest.importorskip("mpmath")
    from scipy.special import roots_hermite
    rule = gauss_hermite_rule(n)
    start, _ = roots_hermite(n)
    with mpmath.workdps(40):
        log_const = ((n - 1) * mpmath.log(2) + mpmath.loggamma(n + 1)
                     + mpmath.log(mpmath.pi) / 2 - 2 * mpmath.log(n))
        for i in range(n // 2, n):  # the rule is exactly symmetric
            x = mpmath.mpf(start[i])
            for _ in range(2):
                step = mpmath.hermite(n, x) / (2 * n * mpmath.hermite(n - 1, x))
                x -= step
            assert abs(step) <= 1e-20 * max(1, abs(x)), i
            log_w = float(log_const - 2 * mpmath.log(abs(mpmath.hermite(n - 1, x))))
            for j, node in ((i, float(x)), (n - 1 - i, -float(x))):
                assert abs(rule.nodes[j] - node) <= 1e-15 * max(1.0, abs(node)), j
                assert abs(rule.log_weights[j] - log_w) <= 1e-14 * max(1.0, abs(log_w)), j


def test_order_bounds():
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)
    with pytest.raises(ValueError):
        gauss_hermite_rule(2001)


def test_discrete_orthonormality_matrix():
    # sum_q w_q exp(x_q^2) h_j(x_q) h_k(x_q) = delta_jk for j, k <= M < n
    M, n = 30, 38
    rule = gauss_hermite_rule(n)
    mat = hermite_matrix(M, rule.nodes)
    gram = (mat * rule.modified_weights) @ mat.T
    assert np.abs(gram - np.eye(M + 1)).max() <= 1e-10


def test_nonconvergence_error_names_index(monkeypatch):
    import hgl.quadrature as quad
    monkeypatch.setattr(quad, "_NEWTON_MAX_ITER", 0)
    quad.gauss_hermite_rule.cache_clear()     # an earlier test may have built n = 6
    with pytest.raises(quad.QuadratureError, match="node 0"):
        quad.gauss_hermite_rule(6)


def test_rules_are_cached_and_read_only():
    rule = gauss_hermite_rule(37)
    assert gauss_hermite_rule(37) is rule
    assert gauss_hermite_rule(38) is not rule
    for arr in (rule.nodes, rule.weights, rule.log_weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0
