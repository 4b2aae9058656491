"""Properties of the LogScalar record against exact rationals.

Operands are floats with magnitudes in [1e-150, 1e150], or zero.  The exact
reference is fractions.Fraction built from the same floats.

Error bound: a LogScalar carries log|x| rounded to within eps |log|x|| (half
an ulp plus the libm's ulp), and converting back with exp turns that
absolute log error into the same relative error plus one ulp.  So a value is
within 4 eps (1 + |log|x||) of the exact one, relative to |x|.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hgl import LogScalar  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
EPS = 2.0**-52

magnitudes = st.floats(min_value=1e-150, max_value=1e150)
nonzero = st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


def _tol(x):
    return 4 * EPS * (1 + abs(math.log(abs(x))))


@PROPERTY
@given(nonzero)
def test_sign_zero_edge_cases(x):
    sign = 1 if x > 0 else -1
    a = LogScalar.from_log(math.log(abs(x)), sign)
    assert a.sign == sign and not a.is_zero
    assert abs(Fraction(a.to_float()) - Fraction(x)) <= Fraction(_tol(x)) * abs(Fraction(x))
    # every way of writing zero gives the one zero record, whose log is 0.0
    zero = LogScalar.zero()
    assert zero.is_zero and zero.to_float() == 0.0 and zero.log_magnitude == 0.0
    assert LogScalar.from_log(-math.inf, sign) == zero
    assert LogScalar.from_log(math.log(abs(x)), 0) == zero
    assert LogScalar(0, math.log(abs(x))) == zero
    with pytest.raises(ValueError):
        LogScalar(sign, math.nan)
    with pytest.raises(ValueError):
        LogScalar(2 * sign, math.log(abs(x)))
