"""The benchmark tracer wraps library functions by name; they must exist.

``bench/tracer.py`` looks up every name in its ``TRACED`` table with
``getattr`` when it installs its spans, so a renamed or deleted function
would crash every traced benchmark run.  The tracer is loaded by path and
left unmodified.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_is_a_module_function():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module_name, names in tracer.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
