import math

import pytest

from hgl import LogScalar, LogRangeError
from hgl.io import json_value


def test_roundtrip_floats():
    # exp(log x) carries relative error ~ |log x| * eps, so the tolerance
    # scales with the exponent range rather than being a fixed ulp count
    for x in (3.5, -2.25, 1e-300, -1e280, 1.0):
        ls = LogScalar.from_log(math.log(abs(x)), 1 if x > 0 else -1)
        assert ls.to_float() == pytest.approx(x, rel=1e-12)


def test_zero_handling():
    z = LogScalar.zero()
    assert z.is_zero
    assert z.to_float() == 0.0
    assert LogScalar.from_log(-math.inf).is_zero
    assert LogScalar.from_log(5.0, sign=0) == z


def test_overflow_flags():
    big = LogScalar.from_log(705.0)
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


def test_json_pair():
    assert json_value(LogScalar.from_log(math.log(2))) == {"sign": 1, "log": math.log(2)}
    assert json_value(LogScalar.zero()) == {"sign": 0, "log": None}
