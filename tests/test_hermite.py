import math

import numpy as np
import pytest

from hgl import hermite_eval, hermite_eval_multi, hermite_matrix
from hgl.hermite import log_abs_hermite_sumsq

from oracles import hermite_mp

PI_QUARTER = math.pi ** -0.25


def test_ground_state_value():
    assert hermite_eval(0, 0.0) == pytest.approx(PI_QUARTER, rel=1e-14)


def test_odd_function_vanishes_at_origin():
    assert hermite_eval(1, 0.0) == 0.0


def test_second_mode_from_recurrence():
    assert hermite_eval(2, 0.0) == pytest.approx(-PI_QUARTER / math.sqrt(2), rel=1e-14)


# degrees and points from the bulk of the basis out to the tails, where the
# recurrence runs on its rescale
MP_DEGREES = (0, 1, 17, 300, 999, 1000)
MP_POINTS = (0.3, 7.9, 25.0, 40.0, 44.5)


def test_values_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mat = hermite_matrix(max(MP_DEGREES), MP_POINTS)
    for k in MP_DEGREES:
        for i, x in enumerate(MP_POINTS):
            with mpmath.workdps(30):
                exact = float(hermite_mp(k, x))
            for got in (mat[k, i], hermite_eval(k, x)):
                if exact == 0.0:
                    assert got == 0.0  # true value below the float64 range
                else:
                    assert abs(got - exact) <= 1e-12 * abs(exact), (k, x)


def test_log_sumsq_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    got = log_abs_hermite_sumsq(300, MP_POINTS)
    for i, x in enumerate(MP_POINTS):
        with mpmath.workdps(30):
            exact = mpmath.log(mpmath.fsum(hermite_mp(k, x) ** 2 for k in range(300)))
        assert abs(got[i] - float(exact)) <= 1e-12, x


def test_finite_on_extreme_domain():
    for k in (0, 10, 10_000):
        for x in (-50.0, -13.3, 0.0, 50.0):
            assert math.isfinite(hermite_eval(k, x))


def test_uniform_bound_on_stability_grid():
    # normalized Hermite functions never exceed the ground-state peak
    bound = PI_QUARTER + 1e-8
    xs = np.linspace(-40.0, 40.0, 81)
    mat = hermite_matrix(5000, xs)
    assert np.abs(mat).max() <= bound


def test_recovers_amplitude_deep_in_underflow_region():
    # at x = 40 the seed exp(-800) underflows float64, yet high modes are O(0.1)
    val = hermite_eval(1000, 40.0)
    assert 0.01 < abs(val) <= PI_QUARTER


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0)
    with pytest.raises(ValueError):
        hermite_eval(2, math.inf)


def test_multi_tensor_product():
    assert hermite_eval_multi((0, 0), (0.0, 0.0)) == pytest.approx(math.pi ** -0.5, rel=1e-14)
    assert hermite_eval_multi((1, 0), (0.0, 3.7)) == 0.0
    expected = hermite_eval(2, 0.0) * hermite_eval(1, 1.0)
    assert hermite_eval_multi((2, 1), (0.0, 1.0)) == pytest.approx(expected, rel=1e-14)


def test_multi_dimension_mismatch():
    with pytest.raises(ValueError):
        hermite_eval_multi((1, 2), (0.0, 1.0, 2.0))
