"""Batch front end: analyze, classify, envelope, norms, verify-lemmas.

Exit codes: 0 success, 2 input error (overflow and quadrature failures
included), 3 suite failure (an envelope search that finds no extremum
included).  Every report embeds the config that produced
it, and identical configs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import envelopes
from .classify import classify, cross_validate
from .io import (InputFormatError, atomic_write_text, load_samples_csv, load_series,
                 norm_sequence_csv, report_json, series_json)
from .modulation import MixedNormParams, Weight, norm_sequence_mod
from .presets import Preset, build_preset
from .quadrature import QuadratureError
from .series import HermiteSeries, analyze
from .spectral import norm_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SUITE = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one ``error:`` line, like every input error."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hgl",
        description="Hermite-spectral growth analysis: transforms, oscillator "
                    "norms, growth envelopes, scale classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--preset", help="preset spec, e.g. gaussian:1.0 or "
                                            "synthetic_flat:1,1,80")
            p.add_argument("--input", help="coefficient JSON or sampled CSV (d=1)")
        p.add_argument("--dim", type=int, default=1, help="dimension (default 1)")
        p.add_argument("--max-degree", type=int, default=10, dest="max_degree")
        p.add_argument("--quad-order", type=int, default=None, dest="quad_order")
        p.add_argument("--sigma", type=_finite_float, default=None)
        p.add_argument("--s", type=_finite_float, default=None)
        p.add_argument("--n-max", type=int, default=40, dest="n_max")
        p.add_argument("--n0", type=int, default=0)
        p.add_argument("--radius", type=_finite_float, default=1.0,
                       help="envelope radius r (default 1)")
        p.add_argument("--norm", default="l2",
                       help="l2 | linf | lp:<p> | mod:<p>,<q>,<weight>")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    p_an = sub.add_parser("analyze", help="project input onto Hermite coefficients")
    common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_cl = sub.add_parser("classify", help="decide the growth class")
    common(p_cl)
    p_cl.set_defaults(func=cmd_classify)

    p_env = sub.add_parser("envelope", help="tabulate a growth envelope")
    common(p_env, needs_input=False)
    p_env.add_argument("--target", choices=("norm", "coeff"), default="norm")
    p_env.set_defaults(func=cmd_envelope)

    p_no = sub.add_parser("norms", help="norm sequence of oscillator powers")
    common(p_no)
    p_no.set_defaults(func=cmd_norms)

    p_ve = sub.add_parser("verify-lemmas", help="run the inequality suites")
    common(p_ve, needs_input=False)
    p_ve.add_argument("--t-min", type=_finite_float, default=None, dest="t_min")
    p_ve.add_argument("--t-max", type=_finite_float, default=None, dest="t_max")
    p_ve.set_defaults(func=cmd_verify_lemmas)

    return parser


def _config_dict(args, keys) -> dict:
    cfg = {"command": args.command}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    return cfg


def _resolve_series(args) -> HermiteSeries:
    if getattr(args, "preset", None):
        preset = Preset.parse(args.preset)
        return build_preset(preset, dimension=args.dim, max_degree=args.max_degree,
                            quad_order=args.quad_order)
    if getattr(args, "input", None):
        path = args.input
        if path.endswith(".json"):
            return load_series(path)
        if args.dim != 1:
            raise InputFormatError("sampled CSV input implies dimension 1")
        xs, ys = load_samples_csv(path)

        def f(x):
            return np.interp(x, xs, ys, left=0.0, right=0.0)

        return analyze(f, 1, args.max_degree, args.quad_order)
    raise InputFormatError("provide --preset or --input")


def _emit(text: str, out_path) -> None:
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    series = _resolve_series(args)
    config = _config_dict(args, ("preset", "input", "dim", "max_degree", "quad_order"))
    _emit(series_json(series, config), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.format == "csv":
        raise InputFormatError("classification reports are JSON only")
    series = _resolve_series(args)
    result = classify(series)
    payload = {"config": _config_dict(args, ("preset", "input", "dim", "max_degree",
                                             "quad_order", "sigma", "n_max")),
               "classification": result.to_json_dict()}
    if args.sigma is not None:
        payload["cross_validation"] = cross_validate(series, args.sigma,
                                                     args.n_max).to_json_dict()
    _emit(report_json(payload), args.out)
    return EXIT_OK


def cmd_envelope(args) -> int:
    cfg = _config_dict(args, ("sigma", "s", "radius", "n_max", "max_degree", "target"))
    rows = []
    skipped = 0
    r = args.radius
    sigma = args.sigma if args.sigma is not None else 1.0
    # up front: the flat norm table skips rows N*sigma <= e, and their checks
    if args.s is None and (sigma <= 0 or r <= 0):
        raise InputFormatError("sigma and r must be positive")
    if args.target == "coeff":
        for k in range(0, args.max_degree + 1):
            if args.s is not None:
                v = envelopes.envelope_coeff_s((k,), args.s, r)
            else:
                v = envelopes.envelope_coeff_flat((k,), sigma, r)
            rows.append((k, v.log_magnitude))
        header = "k,log_envelope"
    else:
        for n in range(0, args.n_max + 1):
            if args.s is not None:
                if n == 0:
                    rows.append((0, 0.0))
                    continue
                rows.append((n, envelopes.envelope_norm_s(n, args.s, r).log_magnitude))
            else:
                if n < 1 or n * sigma <= math.e:
                    skipped += 1
                    continue
                rows.append((n, envelopes.envelope_norm_flat(n, sigma, r).log_magnitude))
        header = "N,log_envelope"
    if skipped:
        print(f"warning: {skipped} rows omitted (N*sigma <= e)", file=sys.stderr)
    if args.format == "json":
        payload = {"config": cfg, "skipped": skipped,
                   "rows": [{"order": k, "log_envelope": v} for k, v in rows]}
        _emit(report_json(payload), args.out)
    else:
        lines = [f"# config: {json.dumps(cfg, sort_keys=True)}", header]
        lines += [f"{k},{v!r}" for k, v in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_norms(args) -> int:
    series = _resolve_series(args)
    sigma = args.sigma if args.sigma is not None else 1.0
    cfg = _config_dict(args, ("preset", "input", "dim", "max_degree", "quad_order",
                              "sigma", "n_max", "norm", "n0"))
    kind = args.norm
    if kind.startswith("mod:"):
        parts = kind[4:].split(",")
        if len(parts) != 3:
            raise InputFormatError("mod norm needs p,q,weight (e.g. mod:2,2,const)")
        p = math.inf if parts[0] == "inf" else float(parts[0])
        q = math.inf if parts[1] == "inf" else float(parts[1])
        params = MixedNormParams(p, q, Weight.parse(parts[2]))
        seq = norm_sequence_mod(series, args.n_max, params, sigma=sigma,
                                n_min=args.n0)
    else:
        seq = norm_sequence(series, args.n_max, kind, sigma)
    if args.format == "json":
        text = report_json({"config": cfg,
                            "values": [{"N": n, "log_norm": (v.log_magnitude if v.sign else None),
                                        "norm_kind": seq.norm_kind} for n, v in seq.values]})
    else:
        text = norm_sequence_csv(seq, f"config: {json.dumps(cfg, sort_keys=True)}")
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    cfg = _config_dict(args, ("sigma", "t_min", "t_max"))
    t_max = args.t_max or 1e3
    mono_t_max = args.t_max or 200.0

    reports = [envelopes.check_factor_ratios_bounded(R, t_max=t_max) for R in (1.0, 5.0)]
    reports += [envelopes.check_envelope_factor_monotone(s, t_max=mono_t_max, t_min=args.t_min)
                for s in (1.0, 2.0)]
    reports.append(envelopes.check_infimum_bound())
    reports += [envelopes.check_peak_term_bounded(r) for r in (0.2, 0.5, 1.0, 2.0)]
    all_passed = all(r.passed for r in reports)
    payload = {"config": cfg,
               "all_passed": all_passed,
               "suites": [r.to_json_dict() for r in reports]}
    _emit(report_json(payload), args.out)
    return EXIT_OK if all_passed else EXIT_SUITE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OverflowError, QuadratureError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except envelopes.EnvelopeSearchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SUITE


if __name__ == "__main__":
    sys.exit(main())
