"""The one-walk report writer against the stdlib encoder.

``report_json(p)`` must write exactly ``json.dumps(v, indent=1,
allow_nan=False) + "\\n"`` for ``v`` the plain value of ``p`` under the
report rules, with a two-walk converter kept here as the oracle.  Payloads
are drawn as nested dicts (str and float keys), lists, tuples, numpy arrays
and scalars, dataclasses with and without a log field, infinities, NaN and
non-ASCII text; the five report dataclasses are written from their fields.
"""

import dataclasses
import enum
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hgl import (HermiteSeries, MixedNormParams, Weight, check_factor_ratios_bounded,  # noqa: E402
                 classify, cross_validate, fit_flat_sigma, norm_equiv_harness, shell_profile,
                 synthetic_flat)
from hgl.classify import GAUGE_NOTE, EnvelopeFit, GrowthClass  # noqa: E402
from hgl.envelopes import BoundCheckReport  # noqa: E402
from hgl.io import json_value, log_field, report_json, series_json, series_to_json_dict  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@dataclasses.dataclass(frozen=True)
class Logged:
    log: float | None = log_field()
    note: object = None


# the log fields of each dataclass, named here rather than read from the marks
LOG_FIELDS = {Logged: {"log"}, EnvelopeFit: {"radius"}, GrowthClass: {"radius"},
              BoundCheckReport: {"max_ratio", "fitted_constant"}}


def oracle_log(log):
    """A log as its {"sign", "log"} pair: the log of zero is -inf."""
    if log is None:
        return None
    return {"sign": 0 if log == -math.inf else 1, "log": log}


def oracle_value(obj):
    """The two-walk converter: plain JSON value of a report field."""
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: oracle_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_value(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        logs = LOG_FIELDS.get(type(obj), ())
        return oracle_value({f.name: oracle_log(getattr(obj, f.name)) if f.name in logs
                             else getattr(obj, f.name) for f in dataclasses.fields(obj)})
    if isinstance(obj, (np.ndarray, np.generic)):
        return oracle_value(obj.tolist())
    return obj


def oracle_text(payload) -> str:
    return json.dumps(oracle_value(payload), indent=1, allow_nan=False) + "\n"


FLOATS = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324,
                                                 1.7976931348623157e308, 1e16, 0.1]))
TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=10) | st.sampled_from(
    ['q"uo\\te', "éσ∈\U0001d4d7", "\x01\x1f\x7f", "line\nbreak\ttab", ""])
LOGS = st.one_of(st.none(), st.floats(allow_nan=False),
                 st.sampled_from([-math.inf, math.inf, -0.0, 0.0]))
NUMPY_SCALARS = st.one_of(FLOATS.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
                          st.booleans().map(np.bool_), st.floats(width=32).map(np.float32))
ARRAYS = st.one_of(st.lists(FLOATS, max_size=6).map(lambda v: np.array(v, dtype=float)),
                   st.lists(st.integers(-1000, 1000), max_size=6).map(np.array),
                   st.lists(FLOATS, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2)))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
                   NUMPY_SCALARS, ARRAYS)
KEYS = st.one_of(TEXT, st.floats(allow_nan=False, allow_infinity=False))


@dataclasses.dataclass(frozen=True)
class Pair:
    second: object
    first: object = None


PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(KEYS, inner, max_size=4),
                            st.builds(Pair, inner, inner),
                            st.builds(Logged, LOGS, inner)),
    max_leaves=25)


@PROPERTY
@given(PAYLOADS)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [{}, [], ()], "": {"": []}})
@example({"radius": Logged(-math.inf), "log": Logged(2.5, math.inf), "top": Logged(math.inf),
          "drift": math.nan, "t": np.float64(math.inf), "rows": np.array([1.0, math.nan])})
@example({1.5: "float key", -0.0: [], 1e300: {"nested": (1, 2.0, "σ")}})
@example(Pair(Pair(Logged(-math.inf)), [Pair(math.nan, np.arange(2)), Logged(None)]))
def test_report_json_matches_the_two_walks(payload):
    assert report_json(payload) == oracle_text(payload)
    # the rules leave no NaN in a plain value, so == compares it fully
    assert json_value(payload) == oracle_value(payload)


@pytest.mark.parametrize("payload,error", [
    ({math.inf: 1}, ValueError),
    ({math.nan: 1}, ValueError),
    ({(1, 2): 1}, TypeError),
    ({np.int64(3): 1}, TypeError),
    ({np.bool_(True): 1}, TypeError),
    ({"x": {1, 2}}, TypeError),
    ({"x": 1j}, TypeError),
])
def test_unwritable_payloads_raise_as_the_stdlib_does(payload, error):
    with pytest.raises(error) as ours:
        report_json(payload)
    with pytest.raises(error) as stdlib:
        oracle_text(payload)
    assert str(ours.value) == str(stdlib.value)


def test_keys_of_every_kind_json_accepts():
    payload = {"s": 1, 2.5: 2, True: 3, False: 4, None: 5, 7: 6, np.float64(0.25): 7}
    assert report_json(payload) == oracle_text(payload)


def test_str_and_int_subclasses_are_written_as_json_writes_them():
    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    payload = {Name("key"): [Level.HIGH, Name('v"al')], "n": Level.HIGH}
    assert report_json(payload) == oracle_text(payload)


@pytest.mark.parametrize("config", [
    {},
    {"command": "analyze", "preset": 'q"uo\\te éσ∈\U0001d4d7', "dim": 2, "empty": [],
     "nested": {"a": {}, "b": [1.5, None, True]}},
])
def test_series_json_config_tail(config):
    series = HermiteSeries.from_arrays(2, 3, [[0, 1], [2, 0]], [complex(1.0, -0.0), 5e-324])
    payload = series_to_json_dict(series)
    payload["config"] = config
    assert series_json(series, config) == json.dumps(payload, indent=1, allow_nan=False) + "\n"


FIT_KEYS = ["scale_kind", "scale", "verdict", "radius", "fit_window", "drift", "stability",
            "orders", "log_radii", "residuals", "reason", "gauge"]
CLASS_KEYS = ["kind", "parameter", "flavor", "radius", "degree", "gauge", "diagnostics"]
CROSS_KEYS = ["sigma", "coeff_flavor", "norm_flavor", "agrees", "coeff_fit", "norm_fit"]
EQUIV_KEYS = ["p0", "params_label", "n0", "lp_fit", "mod_fit", "flavors_agree", "gap_window",
              "gap_shifted", "gap_stable", "embed_upper", "embed_lower"]
CHECK_KEYS = ["name", "grid", "max_ratio", "fitted_constant", "witness", "passed", "threshold",
              "details"]
SINGLE_MODE = HermiteSeries(dimension=1, max_degree=7, coefficients={(7,): 1.0})


REPORT_LABELS = ["nofit EnvelopeFit", "EnvelopeFit", "GrowthClass without radius",
                 "GrowthClass with fits", "CrossValidationReport without coeff_fit",
                 "CrossValidationReport", "NormEquivReport", "NormEquivReport p0 = inf",
                 "BoundCheckReport"]


@pytest.fixture(scope="module")
def reports():
    """label -> (report, the keys of its plain value), one per REPORT_LABELS."""
    flat = synthetic_flat(1.0, 1.0, 80)
    equiv = norm_equiv_harness(synthetic_flat(1.0, 1.0, 12), 1.0, 2.0,
                               MixedNormParams(2, 2, Weight()), n_max=10)
    return {
        "nofit EnvelopeFit": (fit_flat_sigma(shell_profile(SINGLE_MODE), 1.0), FIT_KEYS),
        "EnvelopeFit": (fit_flat_sigma(shell_profile(flat), 1.0), FIT_KEYS),
        "GrowthClass without radius": (classify(SINGLE_MODE), CLASS_KEYS),
        "GrowthClass with fits": (classify(flat), CLASS_KEYS),
        "CrossValidationReport without coeff_fit": (cross_validate(SINGLE_MODE, 1.0, 10),
                                                    CROSS_KEYS),
        "CrossValidationReport": (cross_validate(flat, 1.0, 20), CROSS_KEYS),
        "NormEquivReport": (equiv, EQUIV_KEYS),
        "NormEquivReport p0 = inf": (dataclasses.replace(equiv, p0=math.inf), EQUIV_KEYS),
        "BoundCheckReport": (check_factor_ratios_bounded(1.0), CHECK_KEYS),
    }


@pytest.mark.parametrize("label", REPORT_LABELS)
def test_reports_are_written_from_their_fields(reports, label):
    report, keys = reports[label]
    plain = json_value(report)
    assert list(plain) == keys
    text = report_json(report)
    assert text == oracle_text(report)
    assert json.loads(text, parse_constant=lambda token: pytest.fail(token)) == plain


def test_report_fields_take_the_rules(reports):
    nofit = json_value(reports["nofit EnvelopeFit"][0])
    assert nofit["verdict"] == "nofit"
    assert nofit["drift"] is None and nofit["stability"] is None
    assert nofit["radius"] == {"sign": 0, "log": None}
    assert nofit["fit_window"] == [0, 0] and nofit["orders"] == []

    bare = json_value(reports["GrowthClass without radius"][0])
    assert bare["kind"] == "finite_expansion" and bare["radius"] is None
    assert bare["gauge"] == GAUGE_NOTE and bare["diagnostics"] == {"nonzero_shells": 1}

    fitted = json_value(reports["GrowthClass with fits"][0])
    assert fitted["radius"]["sign"] == 1
    for name in ("flat_fit", "probe_low", "probe_high"):
        assert list(fitted["diagnostics"][name]) == FIT_KEYS

    cross = json_value(reports["CrossValidationReport without coeff_fit"][0])
    assert cross["coeff_fit"] is None and list(cross["norm_fit"]) == FIT_KEYS

    assert json_value(reports["NormEquivReport p0 = inf"][0])["p0"] is None
    check = json_value(reports["BoundCheckReport"][0])
    assert set(check["max_ratio"]) == {"sign", "log"}
