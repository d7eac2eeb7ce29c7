import hashlib
import itertools
import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from boxdet import _parallel, detectors, experiment
from boxdet.detectors import babai_success_batch, rounding_success_batch
from boxdet.errors import InvalidConfigError, QuadratureDimensionError, RankDeficientError
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
from boxdet.success import p_bb_uniform, p_br_uniform

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

    def test_n_positive(self):
        with pytest.raises(InvalidConfigError, match="n must be at least 1"):
            _config(n=0)

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
        assert list(cfg.box.widths) == [3, 3]
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

    def test_quadrature_cap_is_the_theory_cells_own(self):
        # The refusal comes from the uniform cell's integrator; from_dict
        # wraps it as a config error.
        quad = IntegratorConfig(method=IntegratorMethod.QUADRATURE)
        box = BoxConstraint.cube(0, 3, 5)
        with pytest.raises(QuadratureDimensionError, match="got 5 coordinates of width >= 1"):
            _config(n=5, box=box, integrator=quad)
        assert _config(n=5, box=box, integrator=quad, compute_exact_br=False)
        doc = {"n": 5, "box": {"lower": 0, "upper": 3}, "sigma_grid": [0.1],
               "num_matrices": 1, "trials_per_matrix": 10, "integrator": {"method": "quad"}}
        with pytest.raises(InvalidConfigError, match="got 5 coordinates of width >= 1"):
            ExperimentConfig.from_dict(doc)

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

    @pytest.mark.parametrize("key, build", [
        ("num_matrices", lambda: _config(num_matrices=2.5)),
        ("trials_per_matrix", lambda: _config(trials_per_matrix=100.0)),
        ("seed", lambda: _config(seed=1.5)),
        ("compute_exact_br", lambda: _config(compute_exact_br="no")),
        ("n", lambda: _config(n=True, box=BoxConstraint.cube(0, 3, 1))),
        ("samples", lambda: IntegratorConfig(method="mc", samples=1e5)),
        ("quad_points", lambda: IntegratorConfig(method="quad", quad_points=8.0)),
        ("box", lambda: _config(box=[0, 3])),
        ("integrator", lambda: _config(integrator="qmc")),
    ])
    def test_constructors_reject_wrong_types(self, key, build):
        # Library callers get the checks of the JSON reader, not a TypeError
        # in the middle of the sweep.
        with pytest.raises(InvalidConfigError, match=key):
            build()

    def test_numpy_integers_accepted(self):
        cfg = _config(n=np.int64(3), seed=np.uint8(12), num_matrices=np.int32(2))
        assert cfg == _config()

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
    (counts,) = _count_successes(q1, r, BOX3, (sigma,), stream, trials)
    return counts


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
        n, grid, trials = 8, (0.1, 0.2, 0.3), 100_000
        a = np.eye(n)
        q1, r = qr_positive(a)
        box = BoxConstraint.cube(0, 3, n)
        counts = _count_successes(q1, r, box, grid, RngStream(9), trials)
        for sigma, (br, bb) in zip(grid, counts):
            expected = p_bb_uniform(r, sigma, box)
            rate = bb / trials
            se = math.sqrt(expected * (1 - expected) / trials)
            assert abs(rate - expected) <= 30 * se / 10  # 3 standard errors
            assert br == bb  # detectors coincide for diagonal R

    def test_overflow_boundary(self):
        # sigma v would overflow float64 at 1e308 for |v| > 1.8, but no trial
        # forms it: at every such sigma the rates are the large-sigma limit
        # prod 1/(w_i + 1), the chance that x is the corner the clamp picks.
        a = np.random.default_rng(2).standard_normal((3, 3))
        q1, r = qr_positive(a)
        trials, limit = 20_000, 0.25 ** 3
        se = math.sqrt(limit * (1 - limit) / trials)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _count_successes(q1, r, BOX3, (1e300, 1e308, 1.7e308),
                                      RngStream(4), trials)
        for hits in itertools.chain(*counts):
            assert abs(hits / trials - limit) <= 3 * se


class TestDrawFullRankMatrix:
    @staticmethod
    def _singular_draws(monkeypatch, singular):
        """Patch the matrix draw so that its first ``singular`` calls return
        a rank-deficient matrix; return the list of the streams drawn."""
        real, streams = experiment._rng.inverse_cdf_normal, []

        def draw(stream, shape):
            streams.append(stream)
            return np.ones(shape) if len(streams) <= singular else real(stream, shape)

        monkeypatch.setattr(experiment._rng, "inverse_cdf_normal", draw)
        return streams

    def test_redraws_after_a_rank_deficient_draw(self, monkeypatch):
        stream = RngStream(5)
        second = experiment._rng.inverse_cdf_normal(stream.child(1), (3, 3))
        streams = self._singular_draws(monkeypatch, 1)
        q1, r = experiment._draw_full_rank_matrix(3, stream)
        assert streams == [stream.child(0), stream.child(1)]
        np.testing.assert_allclose(q1 @ r, second, atol=1e-12)

    def test_refuses_after_64_attempts(self, monkeypatch):
        streams = self._singular_draws(monkeypatch, 64)
        with pytest.raises(RankDeficientError, match="64 attempts"):
            experiment._draw_full_rank_matrix(3, RngStream(5))
        assert len(streams) == 64


class TestPhiloxDraws:
    """The model matrices and QMC's scrambles draw from Philox, so a change
    of the trial and sample generator moves neither."""

    def test_model_matrices_digest(self):
        digest = hashlib.sha256()
        for m in range(10):
            q1, r = experiment._draw_full_rank_matrix(8, RngStream(6).child(0, m))
            digest.update(q1.tobytes() + r.tobytes())
        assert digest.hexdigest() == (
            "4654a26872615b9dac4526f6f013419ca6a818a5b6e7ce72384c146f24298d10")

    def test_uniform_qmc_digest(self):
        _, r = experiment._draw_full_rank_matrix(5, RngStream(6).child(0, 0))
        est = p_br_uniform(r, 0.4, BoxConstraint.cube(0, 3, 5), FAST_QMC,
                           RngStream(6).child(2, 0, 0))
        assert hashlib.sha256(repr((est.value, est.stderr, est.samples)).encode()).hexdigest() == (
            "bfa82183734d3afbc243e8e8c775c40bf94424070914c7040ce63915bfd3e7a2")


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

    def test_sigma_past_the_float_range_gives_the_limit(self):
        # Both theoretical curves reach prod 1/(w_i + 1) = 4^-4 to the bit.
        box = BoxConstraint.cube(0, 3, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_experiment(_config(n=4, box=box, sigma_grid=(0.3, 1e308)))
        assert rows[1].theo_p_bb == rows[1].theo_p_br.value == 0.25 ** 4

    def test_solves_do_not_grow_with_the_grid(self, monkeypatch):
        # Each batch reads every sigma off one solve of its noise.
        solves = []
        real = detectors.back_substitute

        def counting(*args):
            solves.append(None)
            return real(*args)

        monkeypatch.setattr(detectors, "back_substitute", counting)
        totals = []
        for grid in ((0.3,), tuple(0.1 * k for k in range(1, 9))):
            solves.clear()
            run_experiment(_config(num_matrices=1, trials_per_matrix=20000,
                                   sigma_grid=grid, compute_exact_br=False))
            totals.append(len(solves))
        assert totals[0] == totals[1] > 0

    def test_shared_draws_make_rates_monotone_in_sigma(self):
        # A detector succeeds exactly when sigma times the trial's scaled
        # noise lies in a product of intervals containing 0.  The sigma rows
        # share their draws, so a trial that fails at one sigma fails at
        # every larger one, even on a grid finer than the binomial noise.
        grid = tuple(0.300 + 0.001 * k for k in range(8))
        rows = run_experiment(_config(n=4, box=BoxConstraint.cube(0, 3, 4),
                                      sigma_grid=grid, trials_per_matrix=20_000,
                                      compute_exact_br=False))
        for rates in ([row.emp_p_bb.value for row in rows],
                      [row.emp_p_br.value for row in rows]):
            assert all(b <= a for a, b in zip(rates, rates[1:]))


def _per_block_counts(a, q1, r, box, sigma_grid, stream, trials):
    """The trial loop one 4096-trial block and one sigma at a time: block k
    draws x from stream.child(k).child(0) and, at every sigma, the noise
    sample_noise(sigma, ...) from stream.child(k).child(1)."""
    counts = [[0, 0] for _ in sigma_grid]
    for index, start in enumerate(range(0, trials, 4096)):
        size = min(4096, trials - start)
        sub = stream.child(index)
        for cell, sigma in zip(counts, sigma_grid):
            x = sample_uniform_x(box, sub.child(0), count=size)
            v = sample_noise(sigma, a.shape[0], sub.child(1), count=size)
            ytilde = (x @ a.T + v) @ q1
            cell[0] += int(rounding_success_batch(r, ytilde, x, box.lower, box.upper).sum())
            cell[1] += int(babai_success_batch(r, ytilde, x, box.lower, box.upper).sum())
    return [tuple(cell) for cell in counts]


class TestBatchedCounts:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("trials", [1, 4095, 4097, 16385, 50001])
    def test_match_per_block_loop(self, monkeypatch, n, trials):
        a = np.random.default_rng([21, n]).standard_normal((n, n))
        q1, r = qr_positive(a)
        lower = np.arange(n) % 3 - 1
        box = BoxConstraint(lower, lower + np.array([3, 1, 0, 2, 5, 1, 4, 2][:n]))
        grid, stream = (0.05, 0.3, 0.9), RngStream(trials).child(n)
        expected = _per_block_counts(a, q1, r, box, grid, stream, trials)
        # Batches of 1, 2 and 3 blocks cut these trial counts into full and
        # partial last batches, with and without a partial last block.
        for blocks in (1, 2, 3):
            monkeypatch.setattr(experiment, "_BATCH_BLOCKS", blocks)
            assert _count_successes(q1, r, box, grid, stream, trials) == expected


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

    @staticmethod
    def _pools_created(monkeypatch, cfg):
        """For each executor the sweep makes: was it made on the main thread?"""
        created = []

        class CountingExecutor(_parallel.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(threading.current_thread() is threading.main_thread())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(_parallel, "ThreadPoolExecutor", CountingExecutor)
        monkeypatch.setenv("BOXDET_THREADS", "2")
        run_experiment(cfg)
        return created

    def test_one_pool_per_sweep_and_none_on_a_worker(self, monkeypatch):
        cfg = _config(num_matrices=3, trials_per_matrix=20000,
                      integrator=POOLED_QMC, sigma_grid=(0.2, 0.5, 0.8))
        assert self._pools_created(monkeypatch, cfg) == [True]

    def test_one_matrix_without_theory_pools_nothing(self, monkeypatch):
        # Its one column runs inline, and its trial batches are a plain loop.
        cfg = _config(num_matrices=1, trials_per_matrix=20000, compute_exact_br=False,
                      sigma_grid=(0.2, 0.5, 0.8))
        assert self._pools_created(monkeypatch, cfg) == []
