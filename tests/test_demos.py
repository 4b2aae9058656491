"""The demos run, and reproduce the outputs committed beside them.

Each demo writes its files next to ``__file__``, so it is copied into a
fresh directory and run there as a script with ``PYTHONPATH`` at ``src``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# demo -> the files it writes, committed in demos/
WRITES = {
    "01_hermite_transforms.py": (),
    "02_oscillator_norms.py": ("norm_sequence.csv",),
    "03_envelopes_and_inequalities.py": ("envelope_table.csv", "suite_report.json"),
    "04_classification.py": ("classification_report.json",),
    "05_modulation_shadow.py": (),
}


def test_every_demo_is_gated():
    assert sorted(WRITES) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("demo", sorted(WRITES))
def test_demo_reproduces_its_outputs(demo, tmp_path):
    script = tmp_path / demo
    shutil.copy(DEMOS / demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in WRITES[demo]:
        assert (tmp_path / name).read_bytes() == (DEMOS / name).read_bytes(), name
