"""The benchmark's own checks pass on this checkout.

Each runs in a fresh process from the repository root, as the benchmark
expects, with bytecode writing off so that ``perfbench/`` stays as it is.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def test_selftest_passes():
    done = _run("perfbench/selftest.py")
    assert done.returncode == 0, done.stderr


def test_traced_sweep_run_is_correct():
    done = _run("perfbench/run.py", "--workload", "sweep_empirical",
                "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0


@pytest.mark.parametrize("workload", ["theory_uniform", "fixed_patterns"])
def test_traced_integral_run_is_correct(workload):
    # These two run the QMC and MC integrals that the tracer wraps.
    done = _run("perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0


def test_untraced_run_is_correct():
    # An untraced run also times the four fresh-process set-ups, which the
    # traced runs skip.
    done = _run("perfbench/run.py", "--workload", "fixed_patterns", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
