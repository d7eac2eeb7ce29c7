"""The names the benchmark (perfbench/) looks up in boxdet.

Its traced run wraps module attributes by name and its runner asks the
pool for the worker count, so renaming any of them would crash
``perfbench/run.py --trace 1``.  These tests catch that in the test suite.
"""

import sys
from pathlib import Path

import numpy as np

from boxdet import _parallel, cli, detectors, experiment, gaussbox, success
from boxdet.model import parse_pattern
from boxdet.rng import RngStream

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


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import spans
    return spans


def test_tracer_installs_and_restores(monkeypatch):
    spans = _spans(monkeypatch)
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


def test_tracer_sees_every_backend(monkeypatch):
    # A dispatch that took the kernels or the Sobol class at import time
    # would pass the test above and still read 0 in these metrics.
    spans = _spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for method in ("qmc", "mc", "quad"):
            cfg = gaussbox.IntegratorConfig(method=method, samples=1024, quad_points=8)
            success.p_br_deterministic(np.array([[2.0, -1.0], [0.0, 1.0]]), 1.0,
                                       parse_pattern("LL"), cfg, RngStream(0))
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"gaussbox.qmc", "gaussbox.mc", "gaussbox.quad", "gaussbox.sobol_init"} <= names
    assert tracer.counts["gaussbox.integrand_samples"] > 0


def test_worker_count_is_positive_int():
    workers = _parallel.worker_count()
    assert isinstance(workers, int) and workers >= 1
