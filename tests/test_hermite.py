import math

import numpy as np
import pytest

import hgl.hermite as hermite
from hgl import gauss_hermite_rule, hermite_eval, hermite_eval_multi, hermite_matrix
from hgl.hermite import hermite_derivative_rows, log_abs_hermite_sumsq

from oracles import hermite_mp, recurrence_reference, recurrence_reference_flagged

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


# the buffered, gated kernel against the frozen unbuffered one, bit for bit;
# both point sets run the rescale (the seed exp(-x^2/2) underflows float64 at
# the edge nodes of the 2000-point rule and at the ends of the +-50 line)
def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


RESCALE_SETS = {
    "rule2000": lambda: gauss_hermite_rule(2000).nodes.copy(),
    "line50": lambda: np.linspace(-50.0, 50.0, 1001),
}


@pytest.mark.parametrize("name", sorted(RESCALE_SETS))
def test_recurrence_yields_reference_bits(name):
    x = RESCALE_SETS[name]()
    rescales = 0
    steps = zip(hermite._recurrence(3000, x.copy()), recurrence_reference(3000, x.copy()),
                strict=True)
    for k, ((u, u_prev, log_scale, rescaled), (u_ref, u_prev_ref, log_ref)) in enumerate(steps):
        assert _same_bits(u, u_ref) and _same_bits(u_prev, u_prev_ref), k
        assert _same_bits(log_scale, log_ref), k
        rescales += rescaled
    assert rescales > 100  # the sets exercise the rescale


def test_rescale_flag_marks_every_change_of_scale():
    x = np.linspace(-50.0, 50.0, 101)
    last = None
    for k, (_, _, log_scale, rescaled) in enumerate(hermite._recurrence(1500, x)):
        assert rescaled == (k == 0 or not np.array_equal(log_scale, last)), k
        last = log_scale.copy()


@pytest.mark.parametrize("name", sorted(RESCALE_SETS))
def test_matrix_and_derivative_rows_match_reference(name, monkeypatch):
    x = RESCALE_SETS[name]()
    kmax = 2000
    want = np.array([u * np.exp(log_scale)
                     for u, _, log_scale in recurrence_reference(kmax, x.copy())])
    assert _same_bits(hermite_matrix(kmax, x), want)
    got = hermite_derivative_rows(300, x)
    monkeypatch.setattr(hermite, "_recurrence", recurrence_reference_flagged)
    for a, b in zip(got, hermite_derivative_rows(300, x), strict=True):
        assert _same_bits(a, b)


def test_log_sumsq_matches_reference_kernel(monkeypatch):
    x = np.concatenate((np.linspace(-50.0, 50.0, 201), [np.nan, np.inf, -np.inf, 0.0]))
    with np.errstate(all="ignore"):
        got = [log_abs_hermite_sumsq(n, x) for n in (1, 2, 300, 2500)]
        monkeypatch.setattr(hermite, "_recurrence", recurrence_reference_flagged)
        want = [log_abs_hermite_sumsq(n, x) for n in (1, 2, 300, 2500)]
    for a, b in zip(got, want):
        assert _same_bits(a, b)
    assert np.isnan(got[-1][-4:-1]).all()  # non-finite points stay NaN
