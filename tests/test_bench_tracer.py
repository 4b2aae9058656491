"""The benchmark tracer wraps library functions by name; they must exist.

``bench/tracer.py`` looks up every name in its ``TRACED`` table with
``getattr`` when it installs its spans, so a renamed or deleted function
would crash every traced benchmark run.  It also wraps
``HermiteSeries.__post_init__`` and counts ``len(series.coefficients)`` on
every construction.  The tracer is loaded by path and left unmodified.
"""

import importlib
import importlib.util
from pathlib import Path

from hgl import HermiteSeries, finite_random

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
