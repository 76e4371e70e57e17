"""The quick demos run to completion as scripts.

Demos 01-03 take a couple of seconds each.  Demo 04 (the LLN ladder, about
70 s) and demo 05 (the finite-N checks, about 25 s) are left out to keep the
suite short.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_simulate_merger_histories.py",
                                  "02_solve_mean_field.py",
                                  "03_limit_measure.py"])
def test_quick_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
