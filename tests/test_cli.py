import argparse
import csv
import json
import math

import numpy as np
import pytest

from hgl.cli import EXIT_INPUT, EXIT_OK, build_parser, main
from hgl.spectral import NormSequence

from oracles import hermite_table, powered_abs_mp


def run(args):
    return main(args)


# the flags each command reads, in the order its report's config lists them
INPUT = ["--preset", "--input", "--dim", "--max-degree", "--quad-order"]
OPTIONS = {
    "analyze": INPUT + ["--out"],
    "classify": INPUT + ["--sigma", "--n-max", "--out"],
    "envelope": ["--sigma", "--s", "--radius", "--n-max", "--max-degree", "--target",
                 "--format", "--out"],
    "norms": INPUT + ["--n-max", "--norm", "--n0", "--format", "--out"],
    "verify-lemmas": ["--t-min", "--t-max", "--out"],
}


def test_each_command_takes_only_the_flags_it_reads():
    parser = build_parser()
    commands, = [a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    options = {name: [s for a in sub._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, sub in commands.items()}
    assert options == OPTIONS
    assert sum(map(len, options.values())) == 35
    assert not parser.allow_abbrev
    assert not any(sub.allow_abbrev for sub in commands.values())


class TestAnalyzeCommand:
    def test_gaussian_preset_writes_coefficients(self, tmp_path):
        out = tmp_path / "coef.json"
        code = run(["analyze", "--preset", "gaussian:1.0", "--dim", "1",
                    "--max-degree", "10", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        by_alpha = {tuple(e["alpha"]): e for e in data["entries"]}
        assert by_alpha[(0,)]["re"] == pytest.approx(math.pi**0.25, rel=1e-9)
        others = [abs(complex(e["re"], e["im"])) for a, e in by_alpha.items() if a != (0,)]
        assert max(others) < 1e-9
        assert data["config"]["command"] == "analyze"

    def test_hermite_preset_single_entry(self, tmp_path):
        out = tmp_path / "coef.json"
        assert run(["analyze", "--preset", "hermite:2,1", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert len(data["entries"]) == 1
        assert data["entries"][0]["alpha"] == [2, 1]
        assert data["entries"][0]["re"] == 1.0

    def test_malformed_csv_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\nnope,2.0\n")
        code = run(["analyze", "--input", str(bad), "--max-degree", "4"])
        assert code == EXIT_INPUT
        assert "row 2" in capsys.readouterr().err

    def test_sampled_csv_roundtrip(self, tmp_path):
        import numpy as np
        xs = np.linspace(-8, 8, 2001)
        csv = tmp_path / "g.csv"
        csv.write_text("\n".join(f"{x},{math.exp(-x * x / 2)}" for x in xs) + "\n")
        out = tmp_path / "coef.json"
        assert run(["analyze", "--input", str(csv), "--max-degree", "4",
                    "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        c0 = [e for e in data["entries"] if e["alpha"] == [0]][0]
        assert c0["re"] == pytest.approx(math.pi**0.25, rel=1e-4)

    def test_missing_input_is_error(self, capsys):
        assert run(["analyze"]) == EXIT_INPUT

    def test_stdout_and_out_file_are_the_same_bytes(self, tmp_path, capsys):
        # shuffled entries, a missing im and an integer re come back sorted by
        # alpha with every float as its repr, as json.dumps(indent=1) writes
        entries = [{"alpha": [2, 1], "re": -0.0, "im": 5e-324},
                   {"alpha": [0, 3], "re": 1e300},
                   {"alpha": [0, 0], "re": 3, "im": -1e-300},
                   {"alpha": [1, 0], "re": 0.1, "im": 2.0**53}]
        src = tmp_path / "shuffled.json"
        src.write_text(json.dumps({"d": 2, "max_degree": 4, "entries": entries}))
        argv = ["analyze", "--input", str(src)]
        assert run(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        out = tmp_path / "report.json"
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()
        want = {"d": 2, "max_degree": 4,
                "entries": [{"alpha": e["alpha"], "re": float(e["re"]),
                             "im": float(e.get("im", 0.0))}
                            for e in sorted(entries, key=lambda e: e["alpha"])],
                "config": {"command": "analyze", "input": str(src), "dim": 2,
                           "max_degree": 4}}
        assert stdout == json.dumps(want, indent=1) + "\n"


@pytest.mark.parametrize("argv", [["analyze"], ["classify", "--sigma", "1", "--n-max", "5"],
                                  ["norms", "--n-max", "3", "--format", "json"]],
                         ids=["analyze", "classify", "norms"])
def test_json_input_config_records_the_loaded_series(argv, tmp_path, capsys):
    # a coefficient file fixes d and M itself and uses no quadrature, so the
    # report's config records the file's d = 3, M = 4 whatever the flags say
    src = tmp_path / "t3.json"
    src.write_text(json.dumps({"d": 3, "max_degree": 4, "entries": [
        {"alpha": [0, 0, 0], "re": 1.0, "im": 0.0},
        {"alpha": [1, 2, 1], "re": 0.25, "im": -0.5}]}))
    for flags in ([], ["--dim", "2", "--max-degree", "3", "--quad-order", "40"]):
        assert run(argv + ["--input", str(src)] + flags) == EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["dim"] == 3 and config["max_degree"] == 4
        assert "quad_order" not in config


@pytest.mark.parametrize("argv,dim,max_degree,quad_order", [
    (["analyze", "--preset", "hermite:1"], 1, 1, None),
    (["analyze", "--preset", "hermite:2,1", "--quad-order", "40"], 2, 3, None),
    (["classify", "--preset", "synthetic_flat:1,1,80", "--quad-order", "40"], 1, 80, None),
    (["norms", "--preset", "finite_random:6,3", "--dim", "2", "--max-degree", "4",
      "--format", "json"], 2, 6, None),
    (["analyze", "--preset", "gaussian:1.0", "--max-degree", "4", "--quad-order", "40"],
     1, 4, 40),
])
def test_preset_config_records_the_series_that_ran(argv, dim, max_degree, quad_order, capsys):
    # a coefficient preset fixes d and M itself and uses no quadrature
    assert run(argv) == EXIT_OK
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["dim"], config["max_degree"], config.get("quad_order")) == (
        dim, max_degree, quad_order)


class TestClassifyCommand:
    def test_synthetic_flat(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["classify", "--preset", "synthetic_flat:1,1,80",
                    "--sigma", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        cls = data["classification"]
        assert cls["kind"] == "flat_sigma"
        assert cls["flavor"] == "roumieu"
        assert abs(cls["parameter"] - 1.0) <= 0.1
        assert data["cross_validation"]["agrees"] is True

    def test_hermite_preset_finite(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["classify", "--preset", "hermite:7", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["classification"]["kind"] == "finite_expansion"

    def test_synthetic_s(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["classify", "--preset", "synthetic_s:0.5,2,80",
                    "--out", str(out)]) == EXIT_OK
        cls = json.loads(out.read_text())["classification"]
        assert cls["kind"] == "s_type"
        assert abs(cls["parameter"] - 0.5) <= 0.05

    def test_csv_format_rejected(self):
        with pytest.raises(SystemExit) as usage:
            run(["classify", "--preset", "hermite:1", "--format", "csv"])
        assert usage.value.code == EXIT_INPUT


class TestEnvelopeCommand:
    def test_flat_table_monotone(self, tmp_path):
        out = tmp_path / "env.csv"
        code = run(["envelope", "--sigma", "1.0", "--radius", "1.0",
                    "--n-max", "40", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "N,log_envelope"
        rows = [line.split(",") for line in lines[2:]]
        ns = [int(r[0]) for r in rows]
        vals = [float(r[1]) for r in rows]
        assert ns[0] == 3  # N = 1, 2 omitted since N sigma <= e
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_n_skipped_with_warning(self, tmp_path, capsys):
        out = tmp_path / "env.csv"
        run(["envelope", "--sigma", "1.0", "--n-max", "5", "--out", str(out)])
        assert "omitted" in capsys.readouterr().err

    def test_s_table_is_factorial(self, tmp_path):
        out = tmp_path / "env.csv"
        run(["envelope", "--s", "0.5", "--radius", "1.0", "--n-max", "10",
             "--out", str(out)])
        rows = out.read_text().strip().splitlines()[2:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert vals[3] == pytest.approx(math.log(6.0), rel=1e-12)  # log 3!


class TestNormsCommand:
    def test_ground_state_constant_column(self, tmp_path):
        out = tmp_path / "norms.csv"
        code = run(["norms", "--preset", "hermite:0", "--n-max", "10",
                    "--out", str(out)])
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()[2:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert vals == pytest.approx([0.0] * 11, abs=1e-12)

    def test_synthetic_increasing(self, tmp_path):
        out = tmp_path / "norms.csv"
        run(["norms", "--preset", "synthetic_flat:1,1,80", "--n-max", "40",
             "--out", str(out)])
        rows = out.read_text().strip().splitlines()[2:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_linf_norm_kind(self, tmp_path):
        out = tmp_path / "norms.csv"
        run(["norms", "--preset", "gaussian:1.0", "--max-degree", "10",
             "--norm", "linf", "--n-max", "2", "--out", str(out)])
        rows = out.read_text().strip().splitlines()[2:]
        assert rows[0].endswith("linf")
        # the width-1 preset is exp(-x^2/2): sup norm 1
        assert float(rows[0].split(",")[1]) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("norm", ["l2", "lp:3", "mod:2,2,const"])
    def test_csv_rows_have_three_fields(self, capsys, norm):
        assert run(["norms", "--preset", "synthetic_flat:1,1,12", "--norm", norm,
                    "--n-max", "4"]) == EXIT_OK
        lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["N", "log_norm", "norm_kind"] and len(rows) == 6
        assert all(len(row) == 3 and row[2] == norm for row in rows[1:])

    @pytest.mark.parametrize("norm", ["l2", "linf", "lp:3", "mod:2,2,const"])
    def test_n0_rows_are_the_tail_of_the_full_run(self, capsys, norm):
        argv = ["norms", "--preset", "synthetic_flat:1,1,12", "--norm", norm, "--n-max", "6"]
        tables = {}
        for n0 in (0, 4):
            assert run(argv + ["--n0", str(n0)]) == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            assert json.loads(lines[0].removeprefix("# config: "))["n0"] == n0
            tables[n0] = lines[2:]
        assert [row.split(",")[0] for row in tables[4]] == ["4", "5", "6"]
        assert tables[4] == tables[0][4:]

    def test_writers_emit_plain_numbers(self, capsys, monkeypatch):
        # a zero norm, a float whose repr needs 17 digits and a quoted kind;
        # a numpy scalar would print as np.float64(...) in the CSV
        seq = NormSequence(1, 0, "mod:2,2,const", [0, 1, 2], [-math.inf, 0.1 + 0.2, -2.5])
        monkeypatch.setattr("hgl.cli.norm_sequence_mod", lambda *args, **kwargs: seq)
        argv = ["norms", "--preset", "hermite:0", "--norm", "mod:2,2,const", "--n-max", "2"]
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            '# config: {"command": "norms", "dim": 1, "max_degree": 0, "n0": 0, "n_max": 2, '
            '"norm": "mod:2,2,const", "preset": "hermite:0"}\n'
            'N,log_norm,norm_kind\n'
            '0,,"mod:2,2,const"\n'
            '1,0.30000000000000004,"mod:2,2,const"\n'
            '2,-2.5,"mod:2,2,const"\n')
        assert run(argv + ["--format", "json"]) == EXIT_OK
        rows = [f'  {{\n   "N": {n},\n   "log_norm": {v},\n   "norm_kind": "mod:2,2,const"\n  }}'
                for n, v in ((0, "null"), (1, "0.30000000000000004"), (2, "-2.5"))]
        assert capsys.readouterr().out == (
            '{\n "config": {\n  "command": "norms",\n  "preset": "hermite:0",\n  "dim": 1,\n'
            '  "max_degree": 0,\n  "n_max": 2,\n  "norm": "mod:2,2,const",\n  "n0": 0\n },\n'
            ' "values": [\n' + ",\n".join(rows) + '\n ]\n}\n')

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["norms", "--preset", "finite_random:20,7", "--n-max", "10"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def _norm_rows(path):
    return [(int(r.split(",")[0]), float(r.split(",")[1]))
            for r in path.read_text().strip().splitlines()[2:]]


class TestLinfTwoPeaks:
    """H^N f with two near-equal peaks: the sup must reach the higher one.

    The reference peak is the argmax of |H^N f| on a uniform grid of step
    0.002 from a test-local recurrence, valued in mpmath.
    """

    CASES = [("0.6362,0.7947,1.4658", 12, 247, 4),
             ("0.8404,1.1176,1.8633", 12, 309, 5),
             ("1.7536,-1.4168,-1.3708", 12, 190, 2),
             ("0.6031,-1.0075,-1.4593", 15, 310, 3)]

    @pytest.mark.parametrize("spec,degree,quad,n_max", CASES)
    def test_reaches_the_fine_grid_peak(self, tmp_path, spec, degree, quad, n_max):
        pytest.importorskip("mpmath")
        from hgl import Preset, build_preset
        preset = f"modulated_gaussian:{spec}"
        out = tmp_path / "norms.csv"
        assert run(["norms", "--preset", preset, "--max-degree", str(degree),
                    "--quad-order", str(quad), "--norm", "linf", "--n-max", str(n_max),
                    "--out", str(out)]) == EXIT_OK
        series = build_preset(Preset.parse(preset), dimension=1, max_degree=degree,
                              quad_order=quad)
        coeffs = {a[0]: c for a, c in series.items()}
        xs = np.arange(-12.0, 12.0, 0.002)
        table = hermite_table(degree, xs)
        rows = _norm_rows(out)
        assert [n for n, _ in rows] == list(range(n_max + 1))
        for n, got in rows:
            vals = sum(c * (2 * k + 1) ** n * table[k] for k, c in coeffs.items())
            x_peak = float(xs[np.argmax(np.abs(vals))])
            assert got >= math.log(powered_abs_mp(coeffs, n, x_peak)) - 1e-9


class TestLargePowers:
    """Grid norms at N = 200, far past the float range of the coefficients."""

    ARGS = ["norms", "--preset", "synthetic_flat:1,1,80", "--n-max", "200"]

    @pytest.mark.parametrize("norm", ["linf", "lp:3", "mod:2,2,const"])
    def test_finite_rows(self, tmp_path, norm):
        out = tmp_path / "norms.csv"
        assert run(self.ARGS + ["--norm", norm, "--out", str(out)]) == EXIT_OK
        rows = _norm_rows(out)
        assert [n for n, _ in rows] == list(range(201))
        assert all(math.isfinite(v) for _, v in rows)

    def test_lp2_is_parseval(self, tmp_path):
        # the 4M + 64 point rule integrates |H^N f|^2 exactly
        lp, l2 = tmp_path / "lp.csv", tmp_path / "l2.csv"
        assert run(self.ARGS + ["--norm", "lp:2", "--out", str(lp)]) == EXIT_OK
        assert run(self.ARGS + ["--norm", "l2", "--out", str(l2)]) == EXIT_OK
        lp_rows, l2_rows = _norm_rows(lp), _norm_rows(l2)
        assert [n for n, _ in lp_rows] == [n for n, _ in l2_rows] == list(range(201))
        for (_, a), (_, b) in zip(lp_rows, l2_rows):
            assert a == pytest.approx(b, abs=1e-9)


def test_classify_report_is_strict_json(tmp_path):
    out = tmp_path / "report.json"
    assert run(["classify", "--preset", "synthetic_flat:1,1,80", "--sigma", "1",
                "--n-max", "5", "--out", str(out)]) == EXIT_OK

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    data = json.loads(out.read_text(), parse_constant=refuse)
    fit = data["cross_validation"]["norm_fit"]
    assert fit["drift"] is None and fit["stability"] is None


class TestVerifyLemmasCommand:
    def test_default_grids_pass(self, tmp_path):
        out = tmp_path / "suites.json"
        code = run(["verify-lemmas", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["all_passed"] is True
        assert len(data["suites"]) == 9
        assert {s["name"] for s in data["suites"]} == {
            "factor_ratios_bounded", "envelope_factor_monotone",
            "infimum_coeff_bound", "peak_term_bounded"}

    def test_narrowed_domain_is_input_error(self, capsys):
        # t floor below sigma(e+1)+e violates the monotonicity domain
        assert run(["verify-lemmas", "--t-min", "2.0"]) == EXIT_INPUT
        # degenerate extent (below the domain floor) is also an input error
        assert run(["verify-lemmas", "--t-max", "8.0"]) == EXIT_INPUT

    def test_suite_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import hgl.cli as cli
        from hgl import check_factor_ratios_bounded

        def failing(R, **kwargs):
            rep = check_factor_ratios_bounded(R, **kwargs)
            return type(rep)(**{**rep.__dict__, "passed": False})

        monkeypatch.setattr(cli.envelopes, "check_factor_ratios_bounded", failing)
        assert run(["verify-lemmas"]) == 3
        capsys.readouterr()

    def test_search_error_exits_3_with_one_line(self, monkeypatch, capsys):
        import hgl.cli as cli

        def no_bracket(**kwargs):
            return cli.envelopes.infimum_coeff_bound(1e6, 1.0, domain=1, n_cap=50)

        monkeypatch.setattr(cli.envelopes, "check_infimum_bound", no_bracket)
        assert run(["verify-lemmas"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: EnvelopeSearchError: summand still decreasing "
                                "at N = 50; raise the cap\n")

    def test_report_roundtrips_schema(self, tmp_path):
        out = tmp_path / "suites.json"
        run(["verify-lemmas", "--out", str(out)])
        for suite in json.loads(out.read_text())["suites"]:
            assert {"name", "grid", "max_ratio", "fitted_constant", "witness",
                    "passed", "threshold", "details"} <= set(suite)
            assert set(suite["max_ratio"]) == {"sign", "log"}


def test_csv_input_with_higher_dim_rejected(tmp_path, capsys):
    csv = tmp_path / "g.csv"
    csv.write_text("0.0,1.0\n1.0,0.5\n")
    assert run(["analyze", "--input", str(csv), "--dim", "2"]) == EXIT_INPUT
    assert "dimension 1" in capsys.readouterr().err


def _coefficient_file(tmp_path, entries_json):
    path = tmp_path / "coef.json"
    path.write_text('{"d": 1, "max_degree": 2, "entries": [' + entries_json + ']}')
    return str(path)


class TestCorruptCoefficientInput:
    def test_repeated_alpha_is_input_error(self, tmp_path, capsys):
        src = _coefficient_file(tmp_path, '{"alpha": [0], "re": 1.0, "im": 0.0}, '
                                          '{"alpha": [1], "re": 0.5, "im": 0.0}, '
                                          '{"alpha": [0], "re": 5.0, "im": 0.0}')
        assert run(["norms", "--input", src, "--norm", "l2", "--n-max", "3"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "entry 2 repeats alpha [0]" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("norm", ["linf", "lp:3"])
    def test_nan_coefficient_is_input_error(self, tmp_path, capsys, norm):
        src = _coefficient_file(tmp_path, '{"alpha": [0], "re": 1.0, "im": 0.0}, '
                                          '{"alpha": [1], "re": NaN, "im": 0.0}')
        out = tmp_path / "norms.csv"
        assert run(["norms", "--input", src, "--norm", norm, "--n-max", "3",
                    "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert "not finite" in capsys.readouterr().err

    def test_infinite_coefficient_is_input_error(self, tmp_path, capsys):
        src = _coefficient_file(tmp_path, '{"alpha": [0], "re": 1.0, "im": 0.0}, '
                                          '{"alpha": [2], "re": Infinity, "im": 0.0}')
        assert run(["classify", "--input", src, "--sigma", "1"]) == EXIT_INPUT
        assert "index (2,) is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["envelope", "--target", "coeff", "--s", "1e-300", "--max-degree", "5"],
    ["classify", "--preset", "synthetic_flat:1,1e300,80", "--sigma", "1"],
    ["norms", "--preset", "synthetic_flat:1,1e300,80"],
])
def test_overflow_is_input_error_with_one_line(argv, capsys):
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# One fixed argv per row across the five commands, the reproducers of past
# defects included.  {name} stands for a coefficient file written by
# _contract_files; the second column is the expected exit code, and an
# optional third is the expected start of the error line.
CONTRACT = [
    ("analyze --preset gaussian:1.0 --max-degree 6", 0),
    ("analyze --preset hermite:2,1 --dim 2", 0),
    ("analyze --preset gaussian:1.0 --dim 3 --max-degree 4", 0),
    ("analyze --input {zero}", 0),
    ("analyze --preset nope:1", 2),
    ("analyze --preset gaussian:inf", 2),
    ("analyze --preset gaussian:1.0 --max-degree abc", 2),
    ("analyze", 2),
    ("classify --preset synthetic_flat:1,1,80 --sigma 1 --n-max 5", 0),
    ("classify --preset synthetic_s:0.5,2,80", 0),
    ("classify --preset finite_random:12,3 --dim 2 --sigma 1.5 --n-max 30", 0),
    ("classify --preset hermite:7", 0),
    ("classify --input {zero} --sigma 1 --n-max 5", 0),
    ("classify --preset synthetic_flat:1,1e300,80 --sigma 1", 2),
    ("classify --input {infinity} --sigma 1", 2),
    ("classify --preset hermite:1 --format csv", 2),
    ("classify --preset synthetic_flat:1,1,80 --sigma inf", 2),
    ("classify --preset synthetic_flat:1,1,80 --sigma NaN", 2),
    ("envelope --sigma 1 --n-max 40", 0),
    ("envelope --s 0.5 --n-max 10 --format json", 0),
    ("envelope --target coeff --sigma 2 --radius 3 --max-degree 8 --format json", 0),
    ("envelope --target coeff --s 1e-300 --max-degree 5", 2,
     "error: OverflowError: log envelope at k = 2 is out of float range"),
    ("envelope --radius -1", 2),
    ("envelope --radius -1 --n-max 2", 2),
    ("envelope --sigma -1 --n-max 5", 2),
    ("envelope --sigma 0 --n-max 5", 2),
    ("envelope --sigma 1e308 --n-max 3", 2,
     "error: N*sigma must be finite (got N = 2, sigma = 1e+308)"),
    ("envelope --s 1e308 --n-max 2", 0),
    ("envelope --s 1e308 --n-max 3", 2,
     "error: OverflowError: log envelope at N = 3 is out of float range"),
    ("envelope --target coeff --sigma 1e-308 --max-degree 8", 2,
     "error: OverflowError: log envelope at k = 5 is out of float range"),
    ("norms --preset synthetic_flat:1,1e300,80", 2),
    ("norms --preset synthetic_flat:1,1,80 --norm linf --n-max 200", 0),
    ("norms --preset synthetic_flat:1,1,80 --norm lp:3 --n-max 200", 0),
    ("norms --preset synthetic_flat:1,1,12 --norm mod:2,2,const --n-max 200", 0),
    ("norms --preset gaussian:1.0 --dim 2 --norm mod:2,2,const", 0),
    ("norms --preset gaussian:1.0 --dim 2 --norm mod:1,1,const", 2,
     "error: field would hold 70274689 entries; in d >= 2 only mod:2,2 norms run "
     "(weight const, vN, or 1/vN with N <= 5)"),
    ("norms --preset gaussian:1.0 --dim 3 --max-degree 6 --norm mod:2,2,v1", 0),
    ("norms --preset synthetic_flat:1,1,12 --norm mod:2,2,1/v1 --n-max 200", 0),
    ("norms --preset finite_random:20,7 --n-max 10 --format json", 0),
    ("norms --input {zero} --n-max 3", 0),
    ("norms --input {repeated} --norm l2 --n-max 3", 2),
    ("norms --input {nan} --norm linf --n-max 3", 2),
    ("norms --input {nan} --norm lp:3 --n-max 3", 2),
    ("norms --preset gaussian:1.0 --norm lp:nan --n-max 3", 2),
    ("norms --preset gaussian:1.0 --norm mod:2,2", 2,
     "error: mod norm needs p,q,weight (e.g. mod:2,2,const)"),
    ("norms --preset gaussian:1.0 --norm mod:abc,2,const", 2,
     "error: could not convert string to float: 'abc'"),
    ("verify-lemmas --t-max 400", 0),
    # flags a command does not read, abbreviations and powers outside [0, n_max]
    ("verify-lemmas --sigma 3", 2, "error: unrecognized arguments: --sigma 3"),
    ("verify-lemmas --format csv", 2, "error: unrecognized arguments: --format csv"),
    ("analyze --preset hermite:1 --format csv", 2, "error: unrecognized arguments"),
    ("envelope --dim 2", 2, "error: unrecognized arguments: --dim 2"),
    ("norms --preset hermite:0 --radius 2", 2, "error: unrecognized arguments"),
    ("norms --preset gaussian:1.0 --sigma 1", 2, "error: unrecognized arguments: --sigma 1"),
    ("classify --preset hermite:3 --s 0.5", 2, "error: unrecognized arguments: --s 0.5"),
    ("norms --preset hermite:0 --n-m 3", 2, "error: unrecognized arguments: --n-m 3"),
    ("norms --preset hermite:0 --n0 5 --n-max 3", 2,
     "error: need 0 <= n0 <= n_max, got n0 = 5, n_max = 3"),
    ("norms --preset hermite:0 --norm mod:2,2,const --n0 -2", 2,
     "error: need 0 <= n0 <= n_max, got n0 = -2, n_max = 40"),
    ("norms --preset hermite:0 --norm mod:2,2,const --n-max 0", 2,
     "error: n_max must be >= 1"),
    ("verify-lemmas --t-min 2.0", 2),
    ("verify-lemmas --t-max 8.0", 2),
    ("verify-lemmas --t-max Infinity", 2),
    ("verify-lemmas --t-max 0", 2, "error: t_max must exceed the t floor 2.77265 of R = 1"),
    ("verify-lemmas --t-max -5", 2, "error: t_max must exceed the t floor 2.77265 of R = 1"),
    ("analyze --input {alpha_float}", 2,
     "error: {alpha_float}: bad coefficient entry (entry 1: alpha must be a list of 1 integers"),
    ("analyze --input {alpha_true}", 2,
     "error: {alpha_true}: bad coefficient entry (entry 0: alpha must be a list of 1 integers"),
    ("analyze --input {alpha_string}", 2,
     "error: {alpha_string}: bad coefficient entry (entry 0: alpha must be a list of 1 integers"),
    ("analyze --input {d_float}", 2,
     "error: {d_float}: bad coefficient entry (d must be an integer, got 1.7)"),
    ("analyze --input {max_degree_float}", 2,
     "error: {max_degree_float}: bad coefficient entry (max_degree must be an integer, got 3.9)"),
    ("analyze --input {re_string}", 2,
     "error: {re_string}: bad coefficient entry (entry 0: re must be a number, got '1e5')"),
    ("analyze --input {ragged}", 2,
     "error: {ragged}: bad coefficient entry (entry 1: alpha must be a list of 1 integers"),
    ("analyze --input {alpha_huge}", 2,
     "error: {alpha_huge}: bad coefficient entry (entry 0: alpha [99999999999999999999] is out"),
]


@pytest.fixture(scope="module")
def _contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    entries = {
        "zero": "",
        "repeated": '{"alpha": [0], "re": 1.0, "im": 0.0}, '
                    '{"alpha": [0], "re": 5.0, "im": 0.0}',
        "nan": '{"alpha": [0], "re": 1.0, "im": 0.0}, {"alpha": [1], "re": NaN, "im": 0.0}',
        "infinity": '{"alpha": [2], "re": Infinity, "im": 0.0}',
        "alpha_float": '{"alpha": [0], "re": 1.0}, {"alpha": [1.5], "re": 1.0, "im": 0.0}',
        "alpha_true": '{"alpha": [true], "re": 1.0, "im": 0.0}',
        "alpha_string": '{"alpha": ["2"], "re": 1.0, "im": 0.0}',
        "re_string": '{"alpha": [1], "re": "1e5", "im": 0.0}',
        "ragged": '{"alpha": [1], "re": 1.0, "im": 0.0}, {"alpha": [1, 0], "re": 1.0, "im": 0.0}',
        "alpha_huge": '{"alpha": [99999999999999999999], "re": 1.0, "im": 0.0}',
    }
    files = {name: '{"d": 1, "max_degree": 2, "entries": [' + text + ']}'
             for name, text in entries.items()}
    files["d_float"] = '{"d": 1.7, "max_degree": 2, "entries": [{"alpha": [1], "re": 1.0}]}'
    files["max_degree_float"] = '{"d": 1, "max_degree": 3.9, "entries": [{"alpha": [1], "re": 1.0}]}'
    paths = {}
    for name, text in files.items():
        path = root / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _assert_strict_output(out: str) -> None:
    if out.startswith("{"):
        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        json.loads(out, parse_constant=refuse)
        return
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows, "no CSV rows"
    for row in rows[1:]:
        for item in row.split(","):
            try:
                value = float(item)
            except ValueError:
                continue
            assert math.isfinite(value), row


@pytest.mark.parametrize("argv,code,err", [(*row, None)[:3] for row in CONTRACT],
                         ids=[row[0] for row in CONTRACT])
def test_cli_contract(argv, code, err, _contract_files, capsys):
    try:
        got = run(argv.format(**_contract_files).split())
    except SystemExit as exc:      # argparse usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert got in (0, 2, 3)
    assert got == code
    if got == 0:
        _assert_strict_output(captured.out)
    else:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.err.endswith("\n")
        if err is not None:
            assert lines[0].startswith(err.format(**_contract_files))
