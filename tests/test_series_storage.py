"""Properties of the array storage of HermiteSeries.

Random sparse index sets in d = 1..3, drawn in random order: the mapping
and array constructors agree, the coefficient file round-trips the arrays
exactly and is written byte-identically twice, and corrupt entries are
rejected with the index named.
"""

import itertools
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hgl import HermiteSeries  # noqa: E402
from hgl.io import load_series, save_series  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def sparse_series(draw):
    """(d, M, indices in insertion order, values) with distinct indices."""
    d = draw(st.integers(1, 3))
    M = draw(st.integers(0, 7))
    simplex = [a for a in itertools.product(range(M + 1), repeat=d) if sum(a) <= M]
    chosen = draw(st.lists(st.sampled_from(simplex), unique=True, max_size=25))
    values = draw(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                           min_size=len(chosen), max_size=len(chosen)))
    return d, M, chosen, values


def _arrays(d, chosen):
    return np.array(chosen, dtype=np.int64).reshape(-1, d)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


@PROPERTY
@given(sparse_series())
def test_mapping_and_array_constructors_agree(case):
    d, M, chosen, values = case
    by_map = HermiteSeries(d, M, dict(zip(chosen, values)))
    by_arrays = HermiteSeries.from_arrays(d, M, _arrays(d, chosen), values)
    assert len(by_map) == len(by_arrays) == len(chosen)
    assert list(by_map.items()) == list(by_arrays.items()) == list(zip(chosen, values))
    assert np.array_equal(_bits(by_map.values), _bits(by_arrays.values))
    assert np.array_equal(by_map.dense(), by_arrays.dense())
    for alpha, c in zip(chosen, values):
        assert by_arrays.coefficient(alpha) == c
        assert by_arrays.dense()[alpha] == c
    absent = next((a for a in itertools.product(range(M + 1), repeat=d)
                   if sum(a) <= M and a not in chosen), None)
    if absent is not None:
        assert by_map.coefficient(absent) == by_arrays.coefficient(absent) == 0


@PROPERTY
@given(sparse_series())
def test_file_roundtrip_is_exact_and_stable(case):
    d, M, chosen, values = case
    series = HermiteSeries.from_arrays(d, M, _arrays(d, chosen), values)
    order = np.lexsort(series.indices.T[::-1])
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_series(series, first)
        back = load_series(first)
        save_series(back, second)
        assert second.read_bytes() == first.read_bytes()
    assert (back.dimension, back.max_degree) == (d, M)
    assert np.array_equal(back.indices, series.indices[order])
    assert np.array_equal(_bits(back.values), _bits(series.values[order]))


@PROPERTY
@given(sparse_series().filter(lambda case: case[2]), st.data())
def test_corrupt_entries_name_the_index(case, data):
    d, M, chosen, values = case
    indices = _arrays(d, chosen)
    k = data.draw(st.integers(0, len(chosen) - 1))
    alpha = chosen[k]

    repeated = np.vstack([indices, indices[k]])
    with pytest.raises(ValueError, match=re.escape(f"repeats alpha {list(alpha)}")):
        HermiteSeries.from_arrays(d, M, repeated, values + [1.0])

    bad = data.draw(st.sampled_from([complex("nan"), complex("inf"), complex(1, float("-inf"))]))
    corrupt = values[:k] + [bad] + values[k + 1:]
    with pytest.raises(ValueError, match=re.escape(f"index {alpha} is not finite")):
        HermiteSeries.from_arrays(d, M, indices, corrupt)

    high = (M + 1,) + (0,) * (d - 1)
    with pytest.raises(ValueError, match=re.escape(f"index {high} exceeds max degree {M}")):
        HermiteSeries.from_arrays(d, M, np.vstack([indices, high]), values + [1.0])
