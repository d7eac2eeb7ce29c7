"""The names the benchmark (perfbench/) looks up in boxdet.

Its traced run wraps module attributes by name and its runner asks the
pool for the worker count, so renaming any of them would crash
``perfbench/run.py --trace 1``.  These tests catch that in the test suite.
"""

import sys
from pathlib import Path

from boxdet import _parallel, cli, detectors, experiment, gaussbox, success

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WRAPPED = {
    experiment: ("ordered_map", "sample_uniform_x", "sample_noise", "qr_positive",
                 "rounding_success_batch", "babai_success_batch", "p_bb_uniform"),
    gaussbox: ("ordered_map", "_qmc_probability", "_mc_probability",
               "_quadrature_probability", "qmc"),
    success: ("ordered_map", "box_probability", "p_br_uniform",
              "p_bb_deterministic", "p_bb_bounds"),
    detectors: ("back_substitute",),
    cli: ("qr_positive", "run_experiment", "format_rows_csv", "render_chart"),
}


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import spans

    before = {(module, attr): getattr(module, attr)
              for module, attrs in WRAPPED.items() for attr in attrs}
    tracer = spans.Tracer()
    tracer.install()
    try:
        replaced = [key for key, value in before.items() if getattr(*key) is not value]
    finally:
        tracer.restore()
    assert len(replaced) == len(before)
    assert all(getattr(*key) is value for key, value in before.items())


def test_worker_count_is_positive_int():
    workers = _parallel.worker_count()
    assert isinstance(workers, int) and workers >= 1
