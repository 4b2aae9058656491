"""The bulk coefficient JSON writer against the stdlib encoder.

``series_json`` must write exactly ``json.dumps(payload, indent=1,
allow_nan=False) + "\\n"`` where ``payload`` is ``series_to_json_dict`` of
the series plus an optional ``"config"`` object: random sparse series in
d = 1..3 drawn in random order, with signed zeros, subnormals, values near
1e+-300 and integer-valued floats, and configs holding quotes, backslashes
and non-ASCII text.  Non-finite values are refused, never written.
"""

import itertools
import json
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hgl import HermiteSeries  # noqa: E402
from hgl.io import save_series, series_json, series_to_json_dict  # noqa: E402

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
           1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0**53, 0.1]
FLOATS = st.one_of(st.sampled_from(AWKWARD),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**6, 10**6).map(float))
CONFIG_TEXT = 'q"uo\\te éσ∈\U0001d4d7 \x01'
CONFIGS = st.one_of(
    st.none(),
    st.dictionaries(st.text(max_size=8),
                    st.one_of(st.text(max_size=12), st.integers(), st.booleans(), st.none(),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=5))


@st.composite
def sparse_series(draw):
    """A series with distinct indices in random insertion order."""
    d = draw(st.integers(1, 3))
    M = draw(st.integers(0, 7))
    simplex = [a for a in itertools.product(range(M + 1), repeat=d) if sum(a) <= M]
    chosen = draw(st.lists(st.sampled_from(simplex), unique=True, max_size=25))
    parts = draw(st.lists(st.tuples(FLOATS, FLOATS), min_size=len(chosen),
                          max_size=len(chosen)))
    indices = np.array(chosen, dtype=np.int64).reshape(-1, d)
    values = np.array([complex(x, y) for x, y in parts], dtype=complex)
    return HermiteSeries.from_arrays(d, M, indices, values)


def _stdlib(series, config=None) -> str:
    payload = series_to_json_dict(series)
    if config is not None:
        payload["config"] = config
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


@PROPERTY
@given(sparse_series(), CONFIGS)
@example(HermiteSeries.from_arrays(2, 3, np.zeros((0, 2), dtype=np.int64), []), None)
@example(HermiteSeries.from_arrays(2, 3, np.zeros((0, 2), dtype=np.int64), []),
         {"command": "analyze", "preset": CONFIG_TEXT})
@example(HermiteSeries.from_arrays(3, 4, [[0, 0, 4], [1, 0, 0], [0, 2, 1]],
                                   [complex(-0.0, 5e-324), complex(1e300, -1e-300), 2.0]),
         {"command": "analyze", "input": CONFIG_TEXT, "dim": 3, "quad_order": 40})
def test_writer_matches_stdlib_dump(series, config):
    text = series_json(series, config)
    assert text == _stdlib(series, config)
    alphas = [entry["alpha"] for entry in json.loads(text)["entries"]]
    assert alphas == sorted(alphas)


@PROPERTY
@given(sparse_series())
def test_save_series_writes_the_stdlib_bytes(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "series.json")
        save_series(series, path)
        assert path.read_text() == _stdlib(series)


@PROPERTY
@given(sparse_series().filter(len), st.data())
def test_non_finite_values_are_refused(series, data):
    k = data.draw(st.integers(0, len(series) - 1))
    bad = data.draw(st.sampled_from([complex("nan"), complex("inf"), complex(1, float("-inf"))]))
    values = series.values.copy()
    values[k] = bad
    # the series validator refuses this too, so the writer gets a stand-in
    corrupt = SimpleNamespace(dimension=series.dimension, max_degree=series.max_degree,
                              indices=series.indices, values=values)
    alpha = tuple(series.indices[k].tolist())
    with pytest.raises(ValueError, match=re.escape(f"index {alpha} is not finite")):
        series_json(corrupt, {"command": "analyze"})
