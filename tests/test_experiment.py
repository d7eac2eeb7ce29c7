import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from boxdet import _parallel
from boxdet.detectors import babai_success_batch, rounding_success_batch
from boxdet.errors import InvalidConfigError
from boxdet.experiment import (
    DEFAULT_EXPERIMENT_INTEGRATOR,
    ExperimentConfig,
    _count_successes,
    run_experiment,
)
from boxdet.gaussbox import IntegratorConfig, IntegratorMethod
from boxdet.linalg import qr_positive
from boxdet.model import BoxConstraint, sample_noise, sample_uniform_x
from boxdet.rng import RngStream
from boxdet.success import p_bb_uniform

BOX3 = BoxConstraint.cube(0, 3, 3)
FAST_QMC = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=1024)


def _config(**overrides):
    base = dict(
        n=3,
        box=BOX3,
        sigma_grid=(0.2, 0.5),
        num_matrices=2,
        trials_per_matrix=1500,
        seed=12,
        integrator=FAST_QMC,
        compute_exact_br=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_grid_must_increase(self):
        with pytest.raises(InvalidConfigError):
            _config(sigma_grid=(0.5, 0.2))
        with pytest.raises(InvalidConfigError):
            _config(sigma_grid=(0.2, 0.2))

    def test_grid_must_be_positive_and_finite(self):
        for bad in ((0.0, 0.5), (0.2, math.inf), (math.nan,), (-math.inf, 0.2)):
            with pytest.raises(InvalidConfigError):
                _config(sigma_grid=bad)

    def test_counts_positive(self):
        with pytest.raises(InvalidConfigError):
            _config(num_matrices=0)
        with pytest.raises(InvalidConfigError):
            _config(trials_per_matrix=0)

    def test_box_dimension(self):
        with pytest.raises(InvalidConfigError):
            _config(box=BoxConstraint.cube(0, 3, 2))

    def test_from_dict_round_trip(self):
        doc = {
            "n": 2,
            "box": {"lower": 0, "upper": 3},
            "sigma_grid": [0.1, 0.2],
            "num_matrices": 1,
            "trials_per_matrix": 1000,
            "seed": 5,
            "integrator": {"method": "qmc", "samples": 1024},
            "compute_exact_br": False,
        }
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.n == 2
        assert cfg.box.num_points() == 16
        assert cfg.integrator.method is IntegratorMethod.SEQ_QMC
        assert not cfg.compute_exact_br

    def test_equal_configs_compare_and_hash_equal(self):
        assert _config() == _config(box=BoxConstraint.cube(0, 3, 3))
        assert hash(_config()) == hash(_config(box=BoxConstraint.cube(0, 3, 3)))
        assert _config() != _config(box=BoxConstraint([0, 0, 0], [3, 3, 2]))

    def test_from_dict_integrator_defaults(self):
        doc = {
            "n": 2, "box": {"lower": 0, "upper": 3}, "sigma_grid": [0.1],
            "num_matrices": 1, "trials_per_matrix": 10,
        }
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.integrator == DEFAULT_EXPERIMENT_INTEGRATOR
        cfg = ExperimentConfig.from_dict({**doc, "integrator": {"method": "quad"}})
        assert cfg.integrator == replace(DEFAULT_EXPERIMENT_INTEGRATOR,
                                         method=IntegratorMethod.QUADRATURE)

    def test_from_dict_rejects_unknown_keys(self):
        doc = {
            "n": 2, "box": {"lower": 0, "upper": 3}, "sigma_grid": [0.1],
            "num_matrices": 1, "trials_per_matrix": 10,
        }
        ExperimentConfig.from_dict(doc)
        for bad, key in (
            ({**doc, "box": {"lower": 0, "upper": 3, "uper": 4}}, "uper"),
            ({**doc, "integrator": {"sampels": 99999}}, "sampels"),
        ):
            with pytest.raises(InvalidConfigError, match=key):
                ExperimentConfig.from_dict(bad)
        with pytest.raises(InvalidConfigError, match="JSON object"):
            ExperimentConfig.from_dict({**doc, "integrator": "qmc"})

    @pytest.mark.parametrize("key, override", [
        ("compute_exact_br", {"compute_exact_br": "false"}),
        ("compute_exact_br", {"compute_exact_br": 0}),
        ("n", {"n": 2.0}),
        ("n", {"n": True}),
        ("num_matrices", {"num_matrices": 1.5}),
        ("trials_per_matrix", {"trials_per_matrix": "10"}),
        ("seed", {"seed": 2.9}),
        ("seed", {"seed": False}),
        ("samples", {"integrator": {"samples": 2048.7}}),
        ("quad_points", {"integrator": {"method": "quad", "quad_points": 8.0}}),
        ("box lower", {"box": {"lower": 0.5, "upper": 3}}),
        ("box upper", {"box": {"lower": 0, "upper": [3, True]}}),
        ("sigma_grid", {"sigma_grid": ["0.2", True]}),
        ("sigma_grid", {"sigma_grid": "0.2"}),
    ])
    def test_from_dict_rejects_wrong_types(self, key, override):
        # JSON values are not coerced: bool("false") would be True and
        # int(2.9) would be 2.
        doc = {
            "n": 2, "box": {"lower": 0, "upper": 3}, "sigma_grid": [0.1],
            "num_matrices": 1, "trials_per_matrix": 10,
        }
        with pytest.raises(InvalidConfigError, match=key):
            ExperimentConfig.from_dict({**doc, **override})

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig.from_dict({"n": 2})
        with pytest.raises(InvalidConfigError):
            ExperimentConfig.from_dict({
                "n": 2, "box": {"lower": 0, "upper": 3},
                "sigma_grid": [], "num_matrices": 1, "trials_per_matrix": 10,
            })


def _counts(a, sigma, stream, trials):
    q1, r = qr_positive(a)
    return _count_successes(a, q1, r, BOX3, sigma, stream, trials)


class TestCountSuccesses:
    def test_tiny_noise_always_succeeds(self):
        a = np.random.default_rng(0).standard_normal((3, 3))
        assert _counts(a, 1e-9, RngStream(3), 5000) == (5000, 5000)

    def test_deterministic(self):
        a = np.random.default_rng(1).standard_normal((3, 3))
        counts = _counts(a, 0.3, RngStream(4), 5000)
        assert counts == _counts(a, 0.3, RngStream(4), 5000)
        assert min(counts) < 5000  # noise actually bites

    def test_identity_model_matches_closed_form(self):
        # at A = I the empirical Babai rate must track the closed form
        n, sigma, trials = 8, 0.2, 100_000
        a = np.eye(n)
        q1, r = qr_positive(a)
        box = BoxConstraint.cube(0, 3, n)
        br, bb = _count_successes(a, q1, r, box, sigma, RngStream(9), trials)
        expected = p_bb_uniform(r, sigma, box)
        rate = bb / trials
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) <= 30 * se / 10  # 3 standard errors
        assert br == bb  # detectors coincide for diagonal R


class TestRunExperiment:
    def test_rows_and_consistency(self):
        rows = run_experiment(_config())
        assert [row.sigma for row in rows] == [0.2, 0.5]
        for row in rows:
            assert 0.0 <= row.emp_p_bb.value <= 1.0
            assert row.emp_p_bb.stderr > 0.0
            assert abs(row.emp_p_bb.value - row.theo_p_bb) <= 4 * row.emp_p_bb.stderr
            assert row.theo_p_br is not None
            gap = 3 * math.hypot(row.theo_p_br.stderr, row.emp_p_br.stderr)
            assert row.emp_p_br.value <= row.emp_p_bb.value + gap

    def test_theoretical_curve_non_increasing(self):
        cfg = _config(sigma_grid=(0.1, 0.2, 0.4, 0.8), trials_per_matrix=1,
                      compute_exact_br=False)
        rows = run_experiment(cfg)
        values = [row.theo_p_bb for row in rows]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_uniform_ordering_of_theoretical_curves(self):
        rows = run_experiment(_config())
        for row in rows:
            assert row.theo_p_br.value <= row.theo_p_bb + 3 * row.theo_p_br.stderr

    def test_bit_identical_repeat(self):
        rows1 = run_experiment(_config())
        rows2 = run_experiment(_config())
        assert rows1 == rows2

    def test_exact_br_optional(self):
        rows = run_experiment(_config(compute_exact_br=False))
        assert all(row.theo_p_br is None for row in rows)
        assert all(row.emp_p_br.samples > 0 for row in rows)


def _per_block_counts(a, q1, r, box, sigma, stream, trials):
    """The trial loop one 4096-trial block at a time: block k draws x from
    stream.child(k).child(0) and the noise from stream.child(k).child(1)."""
    br = bb = 0
    for index, start in enumerate(range(0, trials, 4096)):
        size = min(4096, trials - start)
        sub = stream.child(index)
        x = sample_uniform_x(box, sub.child(0), count=size)
        v = sample_noise(sigma, a.shape[0], sub.child(1), count=size)
        ytilde = (x @ a.T + v) @ q1
        br += int(rounding_success_batch(r, ytilde, x, box.lower, box.upper).sum())
        bb += int(babai_success_batch(r, ytilde, x, box.lower, box.upper).sum())
    return br, bb


class TestBatchedCounts:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("trials", [1, 4095, 4097, 16385, 50001])
    def test_match_per_block_loop(self, n, trials):
        a = np.random.default_rng([21, n]).standard_normal((n, n))
        q1, r = qr_positive(a)
        lower = np.arange(n) % 3 - 1
        box = BoxConstraint(lower, lower + np.array([3, 1, 0, 2, 5, 1, 4, 2][:n]))
        for sigma in (0.05, 0.3, 0.9):
            stream = RngStream(trials).child(n)
            assert (_count_successes(a, q1, r, box, sigma, stream, trials)
                    == _per_block_counts(a, q1, r, box, sigma, stream, trials))


# 16384 QMC points per randomization at n = 3, so the integral pools when it
# is not on a pool worker; 20000 trials make more than one detector batch.
POOLED_QMC = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=4096)


class TestRowMap:
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("matrices", [1, 3])
    def test_rows_identical_across_thread_counts(self, monkeypatch, exact, matrices):
        cfg = _config(num_matrices=matrices, trials_per_matrix=20000,
                      integrator=POOLED_QMC, compute_exact_br=exact)
        outputs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("BOXDET_THREADS", threads)
            outputs.append(run_experiment(cfg))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_one_pool_per_row_and_none_on_a_worker(self, monkeypatch):
        created = []

        class CountingExecutor(_parallel.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(threading.current_thread() is threading.main_thread())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(_parallel, "ThreadPoolExecutor", CountingExecutor)
        monkeypatch.setenv("BOXDET_THREADS", "2")
        cfg = _config(num_matrices=3, trials_per_matrix=20000,
                      integrator=POOLED_QMC, sigma_grid=(0.2, 0.5, 0.8))
        run_experiment(cfg)
        assert created == [True] * 3
