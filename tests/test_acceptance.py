"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured numbers.  Run with ``pytest -s`` to see
the lines as they complete."""

import itertools
import math
import time

import numpy as np
import pytest

import boxdet as bd
from boxdet.detectors import babai_success_batch, rounding_success_batch
from boxdet.experiment import ExperimentConfig, run_experiment
from boxdet.gaussbox import FINITE, Interval
from boxdet.model import BoundaryTag
from boxdet.rng import RngStream, standard_normal

EX1 = np.array([[2.0, -1.0], [0.0, 1.0]])
LEFT_INFINITE = Interval(-math.inf, 0.5)
RIGHT_INFINITE = Interval(-0.5, math.inf)
QUAD = bd.IntegratorConfig(method=bd.IntegratorMethod.QUADRATURE)
QMC2048 = bd.IntegratorConfig(method=bd.IntegratorMethod.SEQ_QMC, samples=2048)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _random_r_from_qr(rng, n):
    while True:
        try:
            _, r = bd.qr_positive(rng.standard_normal((n, n)))
            return r
        except bd.RankDeficientError:
            continue


def test_criterion_1_closed_form_example():
    pattern = bd.parse_pattern("LL")
    bd.p_bb_deterministic(EX1, 1.0, pattern)  # warmup
    # CPU time of this thread, so that other processes on the cores do not count.
    t0 = time.thread_time_ns()
    value = bd.p_bb_deterministic(EX1, 1.0, pattern)
    elapsed = (time.thread_time_ns() - t0) * 1e-9
    ok = abs(value - 0.5818) <= 5e-4 and elapsed < 1e-3
    _report(1, "closed-form example", ok,
            f"value={value:.6f} (target 0.5818 +- 5e-4), runtime={elapsed * 1e6:.0f}us")


def test_criterion_2_integral_example_and_reversal():
    pattern = bd.parse_pattern("LL")
    t0 = time.perf_counter()
    quad_est = bd.p_br_deterministic(EX1, 1.0, pattern, QUAD)
    mc_cfg = bd.IntegratorConfig(method=bd.IntegratorMethod.MONTE_CARLO,
                                 samples=1_000_000)
    mc_est = bd.p_br_deterministic(EX1, 1.0, pattern, mc_cfg, RngStream(0))
    elapsed = time.perf_counter() - t0
    pbb = bd.p_bb_deterministic(EX1, 1.0, pattern)
    margin = mc_est.value - pbb
    ok = (
        abs(quad_est.value - 0.6192) <= 1e-3
        and abs(mc_est.value - 0.6192) <= 3 * mc_est.stderr
        and margin > 10 * mc_est.stderr
        and elapsed < 5.0
    )
    _report(2, "integral example + strict reversal", ok,
            f"quad={quad_est.value:.6f}, mc={mc_est.value:.6f}+-{mc_est.stderr:.6f}, "
            f"reversal margin={margin:.4f} (>10 stderr={10 * mc_est.stderr:.4f}), "
            f"runtime={elapsed:.2f}s")


def test_criterion_3_uniform_ordering_desk_scale():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_gap = -np.inf
    worst_stderr = 0.0
    count = 0
    for i in range(100):
        n = 2 + i % 5
        r = _random_r_from_qr(rng, n)
        sigma = float(rng.uniform(0.1, 1.0))
        box = bd.BoxConstraint.cube(0, 3, n)
        est = bd.p_br_uniform(r, sigma, box, QMC2048, RngStream(300, (i,)))
        pbb = bd.p_bb_uniform(r, sigma, box)
        gap = est.value - pbb - 3 * est.stderr
        worst_gap = max(worst_gap, gap)
        worst_stderr = max(worst_stderr, est.stderr)
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.0 and worst_stderr <= 1e-3 and elapsed < 600.0
    _report(3, "uniform-case ordering, 100 instances", ok,
            f"instances={count}, worst(p_br - p_bb - 3se)={worst_gap:.2e}, "
            f"max stderr={worst_stderr:.2e}, runtime={elapsed:.1f}s")


def test_criterion_4_reduced_scale_sweep():
    cfg = ExperimentConfig(
        n=8,
        box=bd.BoxConstraint.cube(0, 3, 8),
        sigma_grid=tuple(round(0.05 * k, 10) for k in range(1, 9)),
        num_matrices=10,
        trials_per_matrix=10_000,
        seed=6,
        compute_exact_br=False,
    )
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    consistent = all(
        abs(row.emp_p_bb.value - row.theo_p_bb) <= 3 * row.emp_p_bb.stderr
        for row in rows
    )
    ordered = all(
        row.emp_p_br.value
        <= row.emp_p_bb.value + 3 * math.hypot(row.emp_p_br.stderr,
                                               row.emp_p_bb.stderr)
        for row in rows
    )
    first = rows[0]
    near_one = (abs(first.theo_p_bb - 1.0) <= 1e-3
                and abs(first.emp_p_bb.value - 1.0) <= 1e-3)
    ok = consistent and ordered and near_one and elapsed < 300.0
    _report(4, "reduced-scale sweep", ok,
            f"consistency={consistent}, ordering={ordered}, "
            f"curves at sigma=0.05: theo={first.theo_p_bb:.6f} "
            f"emp={first.emp_p_bb.value:.6f} (within 1e-3 of 1: {near_one}), "
            f"runtime={elapsed:.1f}s")


def _enumerated_average_bb(r, sigma, box):
    """Independent oracle: enumerate per-coordinate tag options with their
    point counts and average the closed-form deterministic probability."""
    options = []
    for w in box.widths:
        w = int(w)
        if w == 0:
            options.append([(BoundaryTag.SINGLETON, 1)])
        elif w == 1:
            options.append([(BoundaryTag.LOWER, 1), (BoundaryTag.UPPER, 1)])
        else:
            options.append([
                (BoundaryTag.LOWER, 1),
                (BoundaryTag.INTERIOR, w - 1),
                (BoundaryTag.UPPER, 1),
            ])
    total = 0.0
    for combo in itertools.product(*options):
        weight = 1
        for _, cnt in combo:
            weight *= cnt
        total += weight * bd.p_bb_deterministic(
            r, sigma, tuple(tag for tag, _ in combo)
        )
    return total / math.prod(int(w) + 1 for w in box.widths)


def test_criterion_5_uniform_is_pattern_weighted_average():
    rng = np.random.default_rng(55)
    worst = 0.0
    for i in range(50):
        n = 1 + i % 4
        r = _random_r_from_qr(rng, n)
        sigma = float(rng.uniform(0.1, 1.5))
        lower = rng.integers(-2, 2, n)
        upper = lower + rng.integers(0, 4, n)
        box = bd.BoxConstraint(lower, upper)
        direct = _enumerated_average_bb(r, sigma, box)
        closed = bd.p_bb_uniform(r, sigma, box)
        worst = max(worst, abs(closed - direct) / max(direct, 1e-300))
    ok = worst <= 1e-12
    _report(5, "uniform Babai = pattern-weighted average", ok,
            f"50 instances (n <= 4), worst relative difference={worst:.2e}")


def test_criterion_6_pattern_enumeration_equals_point_sum():
    rng = np.random.default_rng(66)
    box = bd.BoxConstraint.cube(0, 2, 2)
    worst = 0.0
    for _ in range(20):
        r = _random_r_from_qr(rng, 2)
        sigma = float(rng.uniform(0.2, 1.2))
        grouped = bd.p_br_uniform(r, sigma, box, QUAD).value
        total = 0.0
        for pt in itertools.product(range(3), repeat=2):
            pattern = bd.classify(np.array(pt), box)
            total += bd.p_br_deterministic(r, sigma, pattern, QUAD).value
        direct = total / math.prod(int(w) + 1 for w in box.widths)
        worst = max(worst, abs(grouped - direct) / max(direct, 1e-300))
    ok = worst <= 1e-12
    _report(6, "pattern enumeration = direct sum", ok,
            f"20 matrices, n=2, box [0,2]^2, worst relative difference={worst:.2e}")


def _product_bound_sides(r, sigma, a, tail):
    """Pr(|xi_1| <= a, xi_tail in T) and its bound phi(2 a r_11) Pr(xi'_tail in T),
    where xi' uses the trailing block of R, as estimates with stderrs."""
    full = bd.box_probability(r, sigma, (bd.Interval(-a, a),) + tail, QUAD)
    one_dim = bd.phi(2.0 * a * r[0, 0], sigma)
    tail_est = bd.box_probability(r[1:, 1:], sigma, tail, QUAD)
    return full, (one_dim * tail_est.value, one_dim * tail_est.stderr)


def test_criterion_7_integral_product_bound():
    rng = np.random.default_rng(77)
    kinds = [FINITE, LEFT_INFINITE, RIGHT_INFINITE]
    worst_excess = -np.inf
    for i in range(50):
        r = np.triu(rng.standard_normal((3, 3)))
        r[np.diag_indices(3)] = rng.uniform(0.5, 2.0, 3)
        sigma = float(rng.uniform(0.3, 1.2))
        a = (0.25, 0.5, 1.0)[i % 3]
        tail = tuple(kinds[k] for k in rng.integers(0, 3, 2))
        lhs, (rhs, rhs_se) = _product_bound_sides(r, sigma, a, tail)
        # quadrature stderr is 0; allow roundoff/truncation slack
        tol = 3 * math.hypot(lhs.stderr, rhs_se) + 1e-9 * rhs
        worst_excess = max(worst_excess, (lhs.value - rhs - tol) / rhs)
    diag = np.diag(rng.uniform(0.5, 2.0, 3))
    lhs_d, (rhs_d, _) = _product_bound_sides(diag, 0.8, 0.5, (FINITE, RIGHT_INFINITE))
    eq_err = abs(lhs_d.value - rhs_d) / rhs_d
    ok = worst_excess <= 0.0 and eq_err <= 1e-9
    _report(7, "integral product bound", ok,
            f"50 instances, worst excess relative to the bound={worst_excess:.2e}, "
            f"diagonal equality rel err={eq_err:.2e}")


def test_criterion_8_pattern_free_bounds_and_interior_minimality():
    rng = np.random.default_rng(88)
    worst_eq = 0.0
    worst_excess = -np.inf
    tags = [BoundaryTag.LOWER, BoundaryTag.INTERIOR, BoundaryTag.UPPER]
    for i in range(20):
        n = 2 + i % 3
        r = _random_r_from_qr(rng, n)
        sigma = float(rng.uniform(0.2, 1.2))
        lower, upper = bd.p_bb_bounds(r, sigma)
        interior_bb = bd.p_bb_deterministic(r, sigma, (BoundaryTag.INTERIOR,) * n)
        boundary_bb = bd.p_bb_deterministic(r, sigma, (BoundaryTag.LOWER,) * n)
        worst_eq = max(worst_eq, abs(interior_bb - lower), abs(boundary_bb - upper))
        interior_br = bd.p_br_deterministic(
            r, sigma, (BoundaryTag.INTERIOR,) * n, QMC2048, RngStream(800, (i,))
        )
        for j in range(20):
            pattern = tuple(tags[k] for k in rng.integers(0, 3, n))
            other = bd.p_br_deterministic(r, sigma, pattern, QMC2048,
                                          RngStream(801, (i, j)))
            tol = 3 * math.hypot(interior_br.stderr, other.stderr)
            worst_excess = max(worst_excess,
                               interior_br.value - other.value - tol)
    ok = worst_eq <= 1e-15 and worst_excess <= 0.0
    _report(8, "bound attainment + interior minimality", ok,
            f"equality error={worst_eq:.2e} (tol 1e-15), "
            f"worst interior excess={worst_excess:.2e} over 400 patterns")


def test_criterion_9_detectors_match_formulas():
    rng = np.random.default_rng(99)
    trials = 100_000
    worst_z_bb = 0.0
    worst_z_br = 0.0
    for i in range(10):
        n = 1 + i % 4
        r = _random_r_from_qr(rng, n)
        sigma = float(rng.uniform(0.3, 0.8))
        box = bd.BoxConstraint.cube(0, 3, n)
        xhat = np.array([int(v) for v in rng.integers(0, 4, n)])
        pattern = bd.classify(xhat, box)

        noise = sigma * standard_normal(RngStream(900, (i,)), (trials, n))
        ytilde = noise + r @ xhat
        xhat_batch = np.broadcast_to(xhat, (trials, n))
        bb_rate = float(np.mean(babai_success_batch(
            r, ytilde, xhat_batch, box.lower, box.upper)))
        br_rate = float(np.mean(rounding_success_batch(
            r, ytilde, xhat_batch, box.lower, box.upper)))

        p_bb = bd.p_bb_deterministic(r, sigma, pattern)
        p_br = bd.p_br_deterministic(r, sigma, pattern, QUAD).value
        se_bb = math.sqrt(p_bb * (1 - p_bb) / trials)
        se_br = math.sqrt(p_br * (1 - p_br) / trials)
        worst_z_bb = max(worst_z_bb, abs(bb_rate - p_bb) / se_bb)
        worst_z_br = max(worst_z_br, abs(br_rate - p_br) / se_br)
    ok = worst_z_bb <= 3.0 and worst_z_br <= 3.0
    _report(9, "detector rates match formulas", ok,
            f"10 instances x {trials} trials, worst |z|: babai={worst_z_bb:.2f}, "
            f"rounding={worst_z_br:.2f} (limit 3)")


def test_criterion_10_backend_cross_validation():
    rng = np.random.default_rng(101)
    kinds = [FINITE, LEFT_INFINITE, RIGHT_INFINITE]
    mc_cfg = bd.IntegratorConfig(method=bd.IntegratorMethod.MONTE_CARLO,
                                 samples=200_000)
    worst = -np.inf
    for i in range(25):
        n = 1 + i % 4
        r = np.triu(rng.standard_normal((n, n)))
        r[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
        sigma = float(rng.uniform(0.3, 1.2))
        ivs = tuple(kinds[k] for k in rng.integers(0, 3, n))
        stream = RngStream(1000, (i,))
        ests = [
            bd.box_probability(r, sigma, ivs, cfg, stream.child(j))
            for j, cfg in enumerate((mc_cfg, QMC2048, QUAD))
        ]
        for a in range(3):
            for b in range(a + 1, 3):
                gap = abs(ests[a].value - ests[b].value)
                # 1e-12 floor: when both sides are deterministic (n = 1
                # makes the conditional sweep exact) the combined stderr
                # is 0 and only roundoff separates the backends
                tol = 3 * math.hypot(ests[a].stderr, ests[b].stderr) + 1e-12
                worst = max(worst, gap - tol)
    ok = worst <= 0.0
    _report(10, "backend cross-validation", ok,
            f"25 instances, worst |gap| - 3*combined stderr = {worst:.2e}")


def test_criterion_11_byte_identical_csv(tmp_path, monkeypatch):
    from boxdet.cli import main

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        '{"n": 3, "box": {"lower": 0, "upper": 3}, '
        '"sigma_grid": [0.15, 0.3], "num_matrices": 2, '
        '"trials_per_matrix": 2000, "seed": 11, '
        '"integrator": {"method": "qmc", "samples": 1024}, '
        '"compute_exact_br": true}'
    )
    outputs = []
    for run, threads in enumerate(("1", "4", "4")):
        monkeypatch.setenv("BOXDET_THREADS", threads)
        out = tmp_path / f"run{run}.csv"
        code = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(11, "byte-identical CSV across runs and thread counts", ok,
            f"three runs with BOXDET_THREADS in {{1, 4, 4}}, "
            f"identical={ok}, bytes={len(outputs[0])}")
