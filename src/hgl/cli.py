"""Batch front end: analyze, classify, envelope, norms, verify-lemmas.

Exit codes: 0 success, 2 input error (overflow and quadrature failures
included), 3 suite failure (an envelope search that finds no extremum
included).  Every report embeds the config that produced
it, and identical configs produce byte-identical output files.

One table, ``COMMANDS``, names the flags each command reads; the parser and
every report's config are built from it, so a command accepts only the flags
it reads and its config lists them in table order.  Abbreviated flags are
refused.  For commands with an input, the config records the dimension and
max degree of the series that ran, and ``quad_order`` only when the input
went through quadrature.  The argument parser is built once per process and
shared by every ``main`` call; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import envelopes
from .classify import classify, cross_validate
from .io import (InputFormatError, atomic_write_text, load_samples_csv, load_series,
                 norm_sequence_csv, report_json, series_json)
from .modulation import MixedNormParams, norm_sequence_mod
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


# flag -> argparse keywords; the namespace key is the flag with "-" as "_"
FLAGS = {
    "preset": dict(help="preset spec, e.g. gaussian:1.0 or synthetic_flat:1,1,80"),
    "input": dict(help="coefficient JSON or sampled CSV (d=1)"),
    "dim": dict(type=int, default=1, help="dimension (default 1)"),
    "max-degree": dict(type=int, default=10),
    "quad-order": dict(type=int),
    "sigma": dict(type=_finite_float),
    "s": dict(type=_finite_float),
    "radius": dict(type=_finite_float, default=1.0, help="envelope radius r (default 1)"),
    "n-max": dict(type=int, default=40),
    "norm": dict(default="l2", help="l2 | linf | lp:<p> | mod:<p>,<q>,<weight>"),
    "n0": dict(type=int, default=0, help="first power N (default 0)"),
    "target": dict(choices=("norm", "coeff"), default="norm"),
    "t-min": dict(type=_finite_float),
    "t-max": dict(type=_finite_float),
    "format": dict(choices=("json", "csv")),
    "out": dict(help="output path (default stdout)"),
}
_INPUT = ("preset", "input", "dim", "max-degree", "quad-order")


def _json_input(args) -> bool:
    """Whether the series comes from a coefficient JSON file (--preset wins)."""
    return not args.preset and (args.input or "").endswith(".json")


def _config_dict(args, series=None) -> dict:
    """The report's config: the command and every flag it reads that is set,
    in table order, without the output flags.

    With a series, the dimension and max degree are the series' own (a
    coefficient preset or file fixes them, whatever --dim and --max-degree
    say), and quad_order is recorded only if the series came from quadrature.
    """
    cfg = {"command": args.command}
    ran = {}
    if series is not None:
        ran = {"dim": series.dimension, "max_degree": series.max_degree}
        if _json_input(args) or not series.truncation_tag.startswith("quadrature"):
            ran["quad_order"] = None
    *_, flags = COMMANDS[args.command]
    for flag in flags:
        if flag in ("format", "out"):    # they shape the output, not the run
            continue
        key = flag.replace("-", "_")
        value = ran[key] if key in ran else getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


def _resolve_series(args) -> HermiteSeries:
    if args.preset:
        preset = Preset.parse(args.preset)
        return build_preset(preset, dimension=args.dim, max_degree=args.max_degree,
                            quad_order=args.quad_order)
    if _json_input(args):
        return load_series(args.input)
    if args.input:
        if args.dim != 1:
            raise InputFormatError("sampled CSV input implies dimension 1")
        xs, ys = load_samples_csv(args.input)

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
    _emit(series_json(series, _config_dict(args, series)), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    series = _resolve_series(args)
    payload = {"config": _config_dict(args, series),
               "classification": classify(series)}
    if args.sigma is not None:
        payload["cross_validation"] = cross_validate(series, args.sigma, args.n_max)
    _emit(report_json(payload), args.out)
    return EXIT_OK


def cmd_envelope(args) -> int:
    cfg = _config_dict(args)
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
                rows.append((k, envelopes.envelope_coeff_s((k,), args.s, r)))
            else:
                rows.append((k, envelopes.envelope_coeff_flat((k,), sigma, r)))
        header = "k,log_envelope"
    else:
        for n in range(0, args.n_max + 1):
            if args.s is not None:
                if n == 0:
                    rows.append((0, 0.0))
                    continue
                rows.append((n, envelopes.envelope_norm_s(n, args.s, r)))
            else:
                if n < 1 or n * sigma <= math.e:
                    skipped += 1
                    continue
                rows.append((n, envelopes.envelope_norm_flat(n, sigma, r)))
        header = "N,log_envelope"
    bad = [k for k, v in rows if not math.isfinite(v)]
    if bad:     # a log beyond the float range has no finite row to print
        raise OverflowError(f"log envelope at {header[0]} = {bad[0]} is out of float range")
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
    cfg = _config_dict(args, series)
    kind = args.norm
    if kind.startswith("mod:"):
        seq = norm_sequence_mod(series, args.n_max, MixedNormParams.parse(kind), n_min=args.n0)
    else:
        seq = norm_sequence(series, args.n_max, kind, n_min=args.n0)
    if args.format == "json":
        text = report_json({"config": cfg,
                            "values": [{"N": n, "log_norm": v, "norm_kind": seq.norm_kind}
                                       for n, v in zip(seq.powers.tolist(), seq.logs.tolist())]})
    else:
        text = norm_sequence_csv(seq, f"config: {json.dumps(cfg, sort_keys=True)}")
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    cfg = _config_dict(args)
    t_max = args.t_max if args.t_max is not None else 1e3
    mono_t_max = args.t_max if args.t_max is not None else 200.0

    reports = [envelopes.check_factor_ratios_bounded(R, t_max=t_max) for R in (1.0, 5.0)]
    reports += [envelopes.check_envelope_factor_monotone(s, t_max=mono_t_max, t_min=args.t_min)
                for s in (1.0, 2.0)]
    reports.append(envelopes.check_infimum_bound())
    reports += [envelopes.check_peak_term_bounded(r) for r in (0.2, 0.5, 1.0, 2.0)]
    all_passed = all(r.passed for r in reports)
    payload = {"config": cfg,
               "all_passed": all_passed,
               "suites": reports}
    _emit(report_json(payload), args.out)
    return EXIT_OK if all_passed else EXIT_SUITE


# command -> (help, handler, the flags it reads in the order its config lists them)
COMMANDS = {
    "analyze": ("project input onto Hermite coefficients", cmd_analyze, _INPUT + ("out",)),
    "classify": ("decide the growth class", cmd_classify,
                 _INPUT + ("sigma", "n-max", "out")),
    "envelope": ("tabulate a growth envelope", cmd_envelope,
                 ("sigma", "s", "radius", "n-max", "max-degree", "target", "format", "out")),
    "norms": ("norm sequence of oscillator powers", cmd_norms,
              _INPUT + ("n-max", "norm", "n0", "format", "out")),
    "verify-lemmas": ("run the inequality suites", cmd_verify_lemmas, ("t-min", "t-max", "out")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an abbreviation, or a flag another command takes,
    # could otherwise resolve to a flag this command reads
    parser = _Parser(
        prog="hgl", allow_abbrev=False,
        description="Hermite-spectral growth analysis: transforms, oscillator "
                    "norms, growth envelopes, scale classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, _ = COMMANDS[args.command]
    try:
        return handler(args)
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
