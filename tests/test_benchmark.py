"""The benchmark's ``sim``, ``limit`` and ``lln`` workloads run and pass their
own checks.

A tiny run of each, untraced and traced, as a subprocess (about 3-4 s each),
so that a change to the sampler, the history text writer, ``parse``, the
tree classes, the solver, the limit evaluator, the LLN ladder and finite-N
checks, or the objects the tracer wraps (such as
``SolutionPath.survival_exponent``) cannot break the benchmark unseen.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_tiny(workload, trace):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--size", "tiny", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"], result.stderr
    assert last["failed"] == 0
    assert last["attempted"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_sim_workload_is_correct(trace):
    run_tiny("sim", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_limit_workload_is_correct(trace):
    run_tiny("limit", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_lln_workload_is_correct(trace):
    run_tiny("lln", trace)
