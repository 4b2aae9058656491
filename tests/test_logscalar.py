import math

import pytest

from hgl import LogScalar, LogRangeError
from hgl.io import json_value


def test_roundtrip_floats():
    # exp(log x) carries relative error ~ |log x| * eps, so the tolerance
    # scales with the exponent range rather than being a fixed ulp count
    for x in (3.5, -2.25, 1e-300, -1e280, 1.0):
        ls = LogScalar.from_float(x)
        assert ls.to_float() == pytest.approx(x, rel=1e-12)


def test_zero_handling():
    z = LogScalar.zero()
    assert z.is_zero
    assert z.to_float() == 0.0
    assert (z * LogScalar.from_float(5.0)).is_zero
    with pytest.raises(ZeroDivisionError):
        LogScalar.one() / z


def test_multiplication_and_signs():
    a = LogScalar.from_float(-3.0)
    b = LogScalar.from_float(2.0)
    assert (a * b).to_float() == pytest.approx(-6.0)
    assert (a * a).to_float() == pytest.approx(9.0)
    assert (a / b).to_float() == pytest.approx(-1.5)


def test_power_scales_log_magnitude():
    a = LogScalar.from_float(10.0)
    assert (a ** 3).log_magnitude == pytest.approx(3 * math.log(10))
    assert (a ** 0.5).to_float() == pytest.approx(math.sqrt(10))
    with pytest.raises(ValueError):
        LogScalar.from_float(-1.0) ** 2
    with pytest.raises(ValueError):
        LogScalar.zero() ** -1.0


def test_overflow_flags():
    big = LogScalar.from_log(705.0)
    assert big.overflows
    with pytest.raises(LogRangeError):
        big.to_float()
    assert big.to_float(clamp=True) == math.inf
    tiny = LogScalar.from_log(-705.0)
    with pytest.raises(LogRangeError):
        tiny.to_float()
    assert tiny.to_float(clamp=True) == 0.0
    # exp(700) is exactly representable
    edge = LogScalar.from_log(700.0)
    assert math.isfinite(edge.to_float())


def test_addition_signed():
    a = LogScalar.from_float(5.0)
    b = LogScalar.from_float(-3.0)
    assert (a + b).to_float() == pytest.approx(2.0)
    assert (b + b).to_float() == pytest.approx(-6.0)
    assert (a - a).is_zero
    # huge spread: small addend vanishes gracefully
    big = LogScalar.from_log(600.0)
    assert (big + LogScalar.one()).log_magnitude == pytest.approx(600.0)


def test_ordering_matches_reals():
    vals = [-4.0, -0.5, 0.0, 0.25, 3.0]
    scalars = [LogScalar.from_float(v) for v in vals]
    for x, lx in zip(vals, scalars):
        for y, ly in zip(vals, scalars):
            assert (lx < ly) == (x < y)
            assert (lx >= ly) == (x >= y)


def test_json_pair():
    assert json_value(LogScalar.from_float(2.0)) == {"sign": 1, "log": math.log(2)}
    assert json_value(LogScalar.zero()) == {"sign": 0, "log": None}
