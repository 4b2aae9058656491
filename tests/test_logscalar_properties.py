"""Properties of LogScalar arithmetic and ordering against exact rationals.

Operands are floats with magnitudes in [1e-150, 1e150], or zero, so that
every sum and product is a normal float again.  The exact reference is
fractions.Fraction built from the same floats.

Error bound: a LogScalar carries log|x| rounded to within eps |log|x|| (half
an ulp plus the libm's ulp), one more rounding of about eps (|L| + 1) comes
from adding the log1p/exp correction, and converting back with exp turns an
absolute log error into the same relative error plus one ulp.  So a result
is within 4 eps (1 + |log|x|| + |log|y||) of the exact value, relative to
|x| + |y| for a sum or difference (cancellation is measured against the
operands) and to |x y| for a product.
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
reals = st.one_of(st.just(0.0), nonzero)


def _tol(*xs):
    return 4 * EPS * (1 + sum(abs(math.log(abs(x))) for x in xs if x != 0.0))


def _assert_near(got: LogScalar, exact: Fraction, scale: Fraction, tol: float):
    assert abs(Fraction(got.to_float()) - exact) <= Fraction(tol) * scale


@PROPERTY
@given(reals, reals)
def test_sum_and_difference_match_exact_rationals(x, y):
    a, b = LogScalar.from_float(x), LogScalar.from_float(y)
    scale = abs(Fraction(x)) + abs(Fraction(y))
    _assert_near(a + b, Fraction(x) + Fraction(y), scale, _tol(x, y))
    _assert_near(a - b, Fraction(x) - Fraction(y), scale, _tol(x, y))
    _assert_near(-a, -Fraction(x), abs(Fraction(x)), 0.0 if x == 0.0 else _tol(x))


@PROPERTY
@given(reals, reals)
def test_product_matches_exact_rationals(x, y):
    exact = Fraction(x) * Fraction(y)
    _assert_near(LogScalar.from_float(x) * LogScalar.from_float(y), exact, abs(exact),
                 _tol(x, y))


@PROPERTY
@given(reals, reals)
def test_ordering_follows_the_reals(x, y):
    # log rounding may merge two close magnitudes, never swap them
    a, b = LogScalar.from_float(x), LogScalar.from_float(y)
    if a < b:
        assert x < y
    if x < y:
        assert a <= b
    if x == y:
        assert a == b and not a < b


@PROPERTY
@given(nonzero)
def test_sign_zero_edge_cases(x):
    zero, a = LogScalar.zero(), LogScalar.from_float(x)
    assert zero + a == a and a + zero == a
    assert (a - a).is_zero and (a - a).sign == 0
    assert (zero - a) == -a
    assert (zero * a).is_zero and (a * zero).is_zero
    assert (zero < a) == (x > 0) and (a < zero) == (x < 0)
    assert (zero < -a) == (x < 0) and (-a < zero) == (x > 0)
    assert not zero < zero and zero == LogScalar.from_float(-0.0)
