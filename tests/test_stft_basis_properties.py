"""Property of the closed-form STFT basis: sum_k |V h_k|^2 = 1 at every
phase-space point, so no field of ``hgl.modulation._bargmann_basis`` may
exceed 1 in modulus, on either side of its log-domain floor."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hgl.modulation import _bargmann_basis  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
coords = st.floats(-60.0, 60.0, allow_nan=False)


@PROPERTY
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8), st.integers(0, 2000))
@example([(48.98, 0.0), (48.99, 0.0), (0.0, -60.0), (0.0, 0.0)], 2000)   # floor at |z|^2 = 1200
def test_fields_are_bounded_by_one(points, kmax):
    x, xi = np.array(points).T
    fields = _bargmann_basis(kmax, x, xi)
    assert np.all(np.isfinite(fields))
    assert np.abs(fields).max() <= 1.0
    assert np.sum(np.abs(fields) ** 2, axis=0).max() <= 1.0 + 1e-12
