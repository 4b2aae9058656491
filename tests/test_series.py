import math

import numpy as np
import pytest

from hgl import (HermiteSeries, MultiIndex, analyze, finite_random, hermite_eval,
                 synthesize, synthesize_many)

from oracles import brute_parseval


class TestMultiIndex:
    def test_order_and_factorial(self):
        a = MultiIndex((2, 1, 3))
        assert a.order == 6
        assert a.log_factorial == pytest.approx(math.log(2 * 1 * 6))
        assert a.dimension == 3

    def test_behaves_like_tuple(self):
        a = MultiIndex((1, 2))
        assert a == (1, 2)
        assert hash(a) == hash((1, 2))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            MultiIndex(())
        with pytest.raises(ValueError):
            MultiIndex((1, -2))


class TestHermiteSeries:
    def test_absent_indices_are_zero(self):
        s = HermiteSeries(dimension=1, max_degree=4, coefficients={(2,): 1.5})
        assert s.coefficient((2,)) == 1.5
        assert s.coefficient((3,)) == 0

    def test_rejects_degree_violation(self):
        with pytest.raises(ValueError):
            HermiteSeries(dimension=1, max_degree=2, coefficients={(3,): 1.0})
        with pytest.raises(ValueError):
            HermiteSeries(dimension=2, max_degree=5, coefficients={(1,): 1.0})

    def test_immutable_map(self):
        s = HermiteSeries(dimension=1, max_degree=1, coefficients={(0,): 1.0})
        with pytest.raises(TypeError):
            s.coefficients[(1,)] = 2.0

    def test_scaled(self):
        s = HermiteSeries(dimension=1, max_degree=1, coefficients={(1,): 2.0})
        assert s.scaled(3j).coefficient((1,)) == 6j

    def test_lookup_of_every_entry(self):
        s = finite_random(50, 1, dimension=3)
        assert s.coefficients._rows is None     # nothing is indexed at construction
        expected = dict(s.items())
        assert len(expected) == 23426
        assert {alpha: s.coefficient(alpha) for alpha in expected} == expected
        assert s.coefficients[np.array([50, 0, 0])] == expected[(50, 0, 0)]
        for absent in ((0, 0, 51), (1, 2), (1, 2, 3, 4)):
            with pytest.raises(KeyError):
                s.coefficients[absent]


class TestAnalyze:
    def test_gaussian_is_scaled_ground_state(self):
        s = analyze(lambda x: np.exp(-x**2 / 2), 1, 4)
        assert s.coefficient((0,)) == pytest.approx(math.pi**0.25, rel=1e-12)
        for k in range(1, 5):
            assert abs(s.coefficient((k,))) < 1e-10

    def test_picks_out_basis_function(self):
        h3 = lambda x: np.array([hermite_eval(3, v) for v in x])
        s = analyze(h3, 1, 6)
        assert s.coefficient((3,)) == pytest.approx(1.0, rel=1e-10)
        others = [abs(s.coefficient((k,))) for k in range(7) if k != 3]
        assert max(others) < 1e-10

    def test_odd_gaussian_moment(self):
        s = analyze(lambda x: x * np.exp(-x**2 / 2), 1, 3)
        assert s.coefficient((1,)) == pytest.approx(math.pi**0.25 / math.sqrt(2), rel=1e-12)

    def test_exactness_margin_enforced(self):
        with pytest.raises(ValueError):
            analyze(lambda x: x, 1, 10, quad_order=5)

    def test_nonfinite_sample_names_node(self):
        def f(x):
            out = np.asarray(x, dtype=float).copy()
            out[np.argmax(out)] = math.nan
            return out

        with pytest.raises(ValueError, match="non-finite sample value at node"):
            analyze(f, 1, 3)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            analyze(lambda p: np.zeros(p.shape[0]), 4, 2)

    def test_truncation_tag(self):
        s = analyze(lambda x: np.exp(-x**2 / 2), 1, 4, quad_order=20)
        assert s.truncation_tag == "quadrature(n=20)"


class TestSynthesize:
    def test_single_mode_at_origin(self):
        s = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
        assert synthesize(s, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-14)

    def test_empty_series_is_zero(self):
        s = HermiteSeries(dimension=1, max_degree=3, coefficients={})
        assert synthesize(s, 1.3) == 0

    def test_roundtrip_gaussian_pointwise(self):
        s = analyze(lambda x: np.exp(-x**2 / 2), 1, 8)
        assert synthesize(s, 1.0).real == pytest.approx(math.exp(-0.5), rel=1e-9)


@pytest.mark.parametrize("dimension,max_degree", [(1, 12), (1, 40), (2, 8), (2, 16)])
def test_roundtrip_random_finite_series(dimension, max_degree):
    base = finite_random(max_degree, seed=max_degree + dimension, dimension=dimension)
    f = lambda pts: synthesize_many(base, pts)
    recovered = analyze(f, dimension, max_degree, quad_order=max_degree + 8)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(100, dimension))
    if dimension == 1:
        pts = pts.ravel()
    a = synthesize_many(base, pts)
    b = synthesize_many(recovered, pts)
    assert np.abs(a - b).max() <= 1e-9 * np.abs(a).max()
    assert brute_parseval(recovered) == pytest.approx(brute_parseval(base), rel=1e-12)
