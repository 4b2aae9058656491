import math

import numpy as np
import pytest

from hgl import gauss_hermite_rule, hermite_matrix

from oracles import gaussian_moment, recurrence_reference_flagged

SQRT_PI = math.sqrt(math.pi)


def test_one_point_rule():
    rule = gauss_hermite_rule(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-14)


def test_two_point_rule():
    rule = gauss_hermite_rule(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
    assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], rel=1e-14)


def test_three_point_rule_closed_form():
    # H_3 = 8x^3 - 12x: nodes 0 and +-sqrt(3/2), weights sqrt(pi)/6 and 2 sqrt(pi)/3;
    # the odd order takes the exact middle root x = 0
    rule = gauss_hermite_rule(3)
    nodes = [-math.sqrt(1.5), 0.0, math.sqrt(1.5)]
    weights = [SQRT_PI / 6, 2 * SQRT_PI / 3, SQRT_PI / 6]
    assert rule.nodes[1] == 0.0
    for got, want in zip(rule.nodes, nodes):
        assert abs(got - want) <= math.ulp(want)
    for got, want in zip(rule.weights, weights):
        assert abs(got - want) <= 2 * math.ulp(want)


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


@pytest.mark.parametrize("n", [50, 51, 200, 201])
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
@pytest.mark.parametrize("n", [500, 1999, 2000])
def test_large_rules_match_mpmath_roots_and_weights(n):
    # the method above at the orders analyze runs in bulk (--quad-order up to
    # 2000), from scipy's asymptotic nodes: two Newton steps at 40 digits,
    # the second already below float resolution.  Float rounding of x and of
    # -x^2 inside log w grows with the magnitudes, so the bounds scale with
    # |x| and |log w|; measured worst cases over these orders are
    # 2.2e-16 max(1, |x|) and 3.3e-15 max(1, |log w|) (edge nodes near 62,
    # log w near -3900).
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


@pytest.mark.parametrize("n", [*range(1, 81), 128, 158, 224, 400, 799, 800, 1999, 2000])
def test_rule_bits_match_reference_kernel(n, monkeypatch):
    import hgl.quadrature as quad
    rule = quad.gauss_hermite_rule(n)
    monkeypatch.setattr(quad, "_recurrence", recurrence_reference_flagged)
    # __wrapped__ builds past the rule cache, which keeps the library's rules
    want = quad.gauss_hermite_rule.__wrapped__(n)
    for name in ("nodes", "weights", "log_weights"):
        assert getattr(rule, name).tobytes() == getattr(want, name).tobytes(), name


def test_every_rule_takes_one_newton_pass(monkeypatch):
    # one recurrence pass per build, and the root accepted there is already
    # within half an ulp of where the next step would move it
    import hgl.quadrature as quad
    real, passes = quad._recurrence, []

    def counted(kmax, x):
        for item in real(kmax, x):
            yield item
        passes.append((x.copy(), item[0].copy(), item[1].copy()))

    monkeypatch.setattr(quad, "_recurrence", counted)
    for n in [*range(1, 401), 799, 800, 1999, 2000]:
        passes.clear()
        quad.gauss_hermite_rule.__wrapped__(n)
        assert len(passes) == 1, n
        x, u_last, u_prev = passes[0]
        root_2n = math.sqrt(2.0 * n)
        step = u_last / (root_2n * u_prev)
        bound = 2.0**-53 * np.maximum(1.0, np.abs(x - step))
        assert np.all(root_2n * step * step <= bound), n


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
