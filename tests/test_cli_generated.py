"""Generated argv sequences through ``cli.main`` in one process.

A small grammar draws short argv for the five commands: valid and invalid
values, unknown flags, missing values and tiny sizes.  Every argv must give
an exit code in {0, 2, 3} without a traceback, and a nonzero exit prints
exactly one ``error:`` line and no warning.  The parser is built once per
process, so each argv run on the shared parser after the others must give
the same exit code and bytes as the same argv on a freshly built parser.
"""

import contextlib
import io
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hgl.cli import build_parser, main  # noqa: E402

COMMANDS = ("analyze", "classify", "envelope", "norms", "verify-lemmas")
VALUES = {
    "--preset": ("gaussian:1.0", "hermite:2", "synthetic_flat:1,1,20",
                 "synthetic_s:0.5,2,20", "finite_random:5,3", "nope:1", "gaussian:inf"),
    "--input": ("missing.json", "missing.csv"),
    "--dim": ("1", "2", "0", "x"),
    "--max-degree": ("0", "1", "3", "-1", "abc"),
    "--quad-order": ("8", "0", "-3"),
    "--sigma": ("1", "0.5", "2", "0", "-1", "nan", "inf"),
    "--s": ("0.5", "1", "0", "1e-300"),
    "--n-max": ("0", "1", "3", "-2"),
    "--n0": ("0", "2"),
    "--radius": ("1", "0.3", "0", "-1"),
    "--norm": ("l2", "linf", "lp:3", "lp:nan", "mod:2,2,const", "mod:2,2", "bogus"),
    "--format": ("json", "csv", "xml"),
    "--target": ("norm", "coeff", "x"),
    "--t-min": ("2", "7", "11", "inf"),
    "--t-max": ("0", "-5", "8", "150", "nan", "abc"),
}
# the flags each command reads, but --out, which would write files
INPUT = ("--preset", "--input", "--dim", "--max-degree", "--quad-order")
FLAGS = {"analyze": INPUT, "classify": INPUT + ("--sigma", "--n-max"),
         "envelope": ("--sigma", "--s", "--radius", "--n-max", "--max-degree", "--target",
                      "--format"),
         "norms": INPUT + ("--n-max", "--norm", "--n0", "--format"),
         "verify-lemmas": ("--t-min", "--t-max")}
# unknown flags, a stray positional, missing values, another command's flags
ODD = (["--bogus"], ["stray"], ["--sigma"], ["--t-max"], ["--preset", "gaussian:1.0"],
       ["--t-min", "7"], ["--target", "coeff"])
GENERATED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _flag_value(flags):
    return st.sampled_from(flags).flatmap(
        lambda flag: st.sampled_from(VALUES[flag]).map(lambda value: [flag, value]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if "--preset" in FLAGS[command] and draw(st.integers(0, 3)):
        argv += ["--preset", draw(st.sampled_from(VALUES["--preset"]))]
    for _ in range(draw(st.integers(0, 3))):
        argv += draw(_flag_value(FLAGS[command]))
    if draw(st.integers(0, 4)) == 0:
        argv += draw(st.sampled_from(ODD))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


@GENERATED
@given(st.lists(argvs(), min_size=1, max_size=4))
def test_generated_argv_through_one_shared_parser(sequence):
    shared = [_run(argv) for argv in sequence]
    for argv, (code, out, err, caught) in zip(sequence, shared):
        assert code in (0, 2, 3), argv
        if code != 0:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
            assert not caught, (argv, caught)
    for argv, result in zip(sequence, shared):
        build_parser.cache_clear()
        assert _run(argv) == result, argv
