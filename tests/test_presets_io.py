import dataclasses
import json
import math

import numpy as np
import pytest

from hgl import HermiteSeries, Preset, build_preset, finite_random, synthetic_flat
from hgl.io import (InputFormatError, json_value, load_samples_csv, load_series, log_field,
                    report_json, save_json_report, save_norm_sequence_csv, save_series)
from hgl.spectral import norm_sequence


class TestPresets:
    def test_parse(self):
        p = Preset.parse("synthetic_flat:1,2,80")
        assert p.name == "synthetic_flat"
        assert p.params == (1.0, 2.0, 80.0)
        with pytest.raises(ValueError):
            Preset.parse("nosuch:1")

    def test_gaussian_preset_analyzed(self):
        s = build_preset(Preset.parse("gaussian:1.0"), dimension=1, max_degree=10)
        assert s.coefficient((0,)) == pytest.approx(math.pi**0.25, rel=1e-9)
        assert max(abs(s.coefficient((k,))) for k in range(1, 11)) < 1e-9

    def test_hermite_preset_exact(self):
        s = build_preset(Preset.parse("hermite:2,1"))
        assert s.dimension == 2
        assert s.coefficient((2, 1)) == 1.0
        assert len(s) == 1

    def test_synthetic_s_at_huge_s(self):
        # 2s overflows to inf here; c_0 = e^{-r 0} = 1 still holds
        s = build_preset(Preset.parse("synthetic_s:1e308,1,3"), 1, 3)
        assert s.coefficient((0,)) == 1.0
        assert s.coefficient((3,)) == math.exp(-1.0)

    def test_synthetic_flat_generator(self):
        s = synthetic_flat(1.0, 2.0, 10)
        assert s.coefficient((3,)).real == pytest.approx(8 / math.sqrt(6), rel=1e-12)

    def test_finite_random_deterministic(self):
        a = finite_random(12, seed=5)
        b = finite_random(12, seed=5)
        assert all(a.coefficient(k) == b.coefficient(k) for k, _ in a.items())

    def test_modulated_gaussian_is_complex(self):
        s = build_preset(Preset.parse("modulated_gaussian:1.0,0.5,3.0"),
                         max_degree=20)
        assert any(abs(c.imag) > 1e-3 for _, c in s.items())

    def test_degree_caps(self):
        with pytest.raises(ValueError):
            build_preset(Preset.parse("gaussian:1.0"), max_degree=61)
        with pytest.raises(ValueError):
            synthetic_flat(1.0, 1.0, 201)


class TestCoefficientFile:
    def test_roundtrip(self, tmp_path):
        s = finite_random(8, seed=2, dimension=2)
        path = tmp_path / "coef.json"
        save_series(s, path)
        back = load_series(path)
        assert back.dimension == 2
        assert back.max_degree == 8
        for alpha, c in s.items():
            assert back.coefficient(alpha) == c

    def test_schema_shape(self, tmp_path):
        s = HermiteSeries(dimension=1, max_degree=2, coefficients={(1,): 1 + 2j})
        path = tmp_path / "coef.json"
        save_series(s, path)
        data = json.loads(path.read_text())
        assert set(data) >= {"d", "max_degree", "entries"}
        assert data["entries"][0] == {"alpha": [1], "re": 1.0, "im": 2.0}

    def test_deterministic_bytes(self, tmp_path):
        s = finite_random(6, seed=9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_series(s, p1)
        save_series(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_json_reports(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 1, "max_degree": 1, "entries": [{"alpha": [0]}]}')
        with pytest.raises(InputFormatError):
            load_series(path)


class TestSampledCsv:
    def test_load_with_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x,f\n0.0,1.0\n-1.0,0.5\n1.0,0.5\n")
        xs, ys = load_samples_csv(path)
        assert xs.tolist() == [-1.0, 0.0, 1.0]
        assert ys.tolist() == [0.5, 1.0, 0.5]

    def test_malformed_row_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n1.0,oops\n")
        with pytest.raises(InputFormatError, match="row 2"):
            load_samples_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0\n")
        with pytest.raises(InputFormatError, match="row 1"):
            load_samples_csv(path)


def test_norm_sequence_csv_format(tmp_path):
    s = finite_random(6, seed=1)
    seq = norm_sequence(s, 3)
    path = tmp_path / "norms.csv"
    save_norm_sequence_csv(seq, path, config_line="config: {}")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "N,log_norm,norm_kind"
    assert len(lines) == 2 + 4
    n, log_norm, kind = lines[2].split(",")
    assert n == "0" and kind == "l2"
    float(log_norm)


@dataclasses.dataclass(frozen=True)
class Ratios:
    ratio: float = log_field()
    bound: float | None = log_field(default=None)
    drift: float = math.nan


def test_log_field_pair():
    assert json_value(Ratios(math.log(2))) == {
        "ratio": {"sign": 1, "log": math.log(2)}, "bound": None, "drift": None}
    assert json_value(Ratios(-math.inf, bound=np.float64(-0.5)))["bound"] == {"sign": 1, "log": -0.5}
    assert json_value(Ratios(-math.inf))["ratio"] == {"sign": 0, "log": None}
    assert json_value(Ratios(math.inf))["ratio"] == {"sign": 1, "log": None}
    for write in (json_value, report_json):
        with pytest.raises(ValueError, match="log field ratio must not be NaN"):
            write([Ratios(math.nan)])


def test_json_report_is_strict(tmp_path):
    path = tmp_path / "report.json"
    save_json_report({"ratios": Ratios(2.5, bound=-math.inf),
                      "values": np.array([1.0, np.nan, -np.inf]), "count": np.int64(3),
                      "fit": (np.float64(np.inf), 0.5)}, path)

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "ratios": {"ratio": {"sign": 1, "log": 2.5}, "bound": {"sign": 0, "log": None},
                   "drift": None},
        "values": [1.0, None, None], "count": 3, "fit": [None, 0.5]}
