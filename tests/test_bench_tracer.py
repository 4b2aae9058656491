"""The benchmark tracer wraps library functions by name; they must exist.

``bench/tracer.py`` looks up every name in its ``TRACED`` table with
``getattr`` when it installs its spans, so a renamed or deleted function
would crash every traced benchmark run.  It also wraps
``HermiteSeries.__post_init__`` and counts ``len(series.coefficients)`` on
every construction, and counts the powers with N sigma > e of every radius
fit from ``seq.orders()``, ``seq.log_norms()`` and the ``sigma`` argument.
A traced job must exit and write exactly as the untraced one, since the
benchmark checks the reports of traced passes too.  The tracer is loaded by
path and left unmodified.
"""

import contextlib
import importlib
import importlib.util
import io
import math
from pathlib import Path

import pytest

from hgl import HermiteSeries, finite_random
from hgl.cli import main

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_a_module_function():
    tracer = _load_tracer()
    assert tracer.TRACED
    for module_name, names in tracer.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_construct_hook_counts_entries():
    assert callable(HermiteSeries.__post_init__)
    series = finite_random(6, seed=1, dimension=2)
    assert len(series.coefficients) == len(series) == 28
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        finite_random(6, seed=1, dimension=2)
        tracer.end_job()
    finally:
        tracer.uninstall()
    counts = [span[6] for span in tracer.spans if span[1] == "series.construct"]
    assert counts == [28]


def _run(argv, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = main(argv)
        else:
            tracer.install()
            try:
                tracer.begin_job(0)
                code = main(argv)
                tracer.end_job()
            finally:
                tracer.uninstall()
    return code, out.getvalue(), err.getvalue()


# one argv per kind of benchmark job, with values from the workloads' ranges
GRID = ["--dim", "1", "--max-degree", "14", "--quad-order", "60"]
JOBS = [
    ["norms", "--preset", "synthetic_flat:1.5,0.8,20", "--norm", "l2", "--n-max", "12",
     "--format", "json"],
    ["norms", "--preset", "gaussian:0.7", *GRID, "--norm", "linf", "--n-max", "3"],
    ["norms", "--preset", "modulated_gaussian:0.7,0.5,-1.2", *GRID, "--norm", "lp:3",
     "--n-max", "5"],
    ["norms", "--preset", "gaussian:1.3", *GRID, "--norm", "mod:2,2,const", "--n-max", "4"],
    ["classify", "--preset", "synthetic_flat:1.3,1.2,30", "--sigma", "1.3", "--n-max", "20"],
    ["analyze", "--preset", "gaussian:0.8", "--dim", "3", "--max-degree", "6",
     "--quad-order", "20"],
]


@pytest.mark.parametrize("argv", JOBS, ids=[" ".join(argv[:5]) for argv in JOBS])
def test_traced_job_writes_the_untraced_bytes(argv):
    plain = _run(argv)
    assert plain[0] == 0
    tracer = _load_tracer().Tracer()
    assert _run(argv, tracer) == plain
    fits = [span[6] for span in tracer.spans if span[1] == "classify.fit_radius_from_norms"]
    if argv[0] == "classify":
        sigma, n_max = float(argv[argv.index("--sigma") + 1]), int(argv[-1])
        assert fits == [sum(n * sigma > math.e for n in range(n_max + 1))]
    else:
        assert fits == []
