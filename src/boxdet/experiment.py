"""Success-probability sweep over a noise grid with random square models.

Protocol: draw ``num_matrices`` square matrices with i.i.d. standard
normal entries; for every noise level in the grid, run
``trials_per_matrix`` detection trials per matrix (uniform true vector,
fresh Gaussian noise, both clamped detectors) and pool the success counts
into empirical rates with binomial standard errors.  The closed-form
Babai probability is averaged over the matrices for the theoretical
curve; the rounding-detector curve is optionally estimated the same way
by ``p_br_uniform``.

Pooling note: with equal trial counts per matrix, the pooled empirical
rate coincides with the average of per-matrix rates; the pooled binomial
standard error is reported.

Everything is driven by substreams of a single seed, keyed on
(matrix index, sigma index, block index), so results are bit-identical
across repeat runs and worker counts.
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import rng as _rng
from ._parallel import ordered_map
from .detectors import babai_success_batch, rounding_success_batch
from .errors import InvalidConfigError, RankDeficientError
from .gaussbox import IntegratorConfig, IntegratorMethod, McEstimate
from .linalg import qr_positive
from .model import BoxConstraint, sample_noise, sample_uniform_x
from .success import p_bb_uniform, p_br_uniform

_TRIAL_BLOCK = 4096

DEFAULT_EXPERIMENT_INTEGRATOR = IntegratorConfig(
    method=IntegratorMethod.SEQ_QMC, samples=2048
)


def _reject_unknown_keys(doc, schema, where: str) -> None:
    """A config section may only name the fields of its dataclass."""
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(schema)})
    if unknown:
        raise InvalidConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _json_int(value, key: str) -> int:
    """A config value that must be a JSON integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigError(f"{key} must be a JSON integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    box: BoxConstraint
    sigma_grid: tuple
    num_matrices: int
    trials_per_matrix: int
    seed: int = 0
    integrator: IntegratorConfig = field(default=DEFAULT_EXPERIMENT_INTEGRATOR)
    compute_exact_br: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise InvalidConfigError("n must be at least 1")
        if self.box.dim != self.n:
            raise InvalidConfigError(
                f"box dimension {self.box.dim} does not match n = {self.n}"
            )
        grid = tuple(float(s) for s in self.sigma_grid)
        if not grid or not all(math.isfinite(s) and s > 0.0 for s in grid):
            raise InvalidConfigError("sigma_grid must hold positive finite values")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidConfigError("sigma_grid must be strictly increasing")
        object.__setattr__(self, "sigma_grid", grid)
        if self.num_matrices < 1 or self.trials_per_matrix < 1:
            raise InvalidConfigError("counts must be at least 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            _reject_unknown_keys(doc, cls, "config")
            n = _json_int(doc["n"], "n")
            box_doc = doc["box"]
            _reject_unknown_keys(box_doc, BoxConstraint, "box")
            bounds = [[_json_int(v, f"box {key}") for v in box_doc[key]]
                      if isinstance(box_doc[key], list)
                      else np.full(n, _json_int(box_doc[key], f"box {key}"))
                      for key in ("lower", "upper")]
            integ = doc.get("integrator", {})
            _reject_unknown_keys(integ, IntegratorConfig, "integrator")
            integrator = IntegratorConfig(
                method=IntegratorMethod(integ.get("method", "qmc")),
                samples=_json_int(integ.get("samples", DEFAULT_EXPERIMENT_INTEGRATOR.samples),
                                  "samples"),
                quad_points=_json_int(integ.get("quad_points", 64), "quad_points"),
            )
            grid = doc["sigma_grid"]
            if not isinstance(grid, list) or any(
                    isinstance(s, bool) or not isinstance(s, (int, float)) for s in grid):
                raise InvalidConfigError(f"sigma_grid must be a JSON list of numbers, got {grid!r}")
            exact = doc.get("compute_exact_br", True)
            if not isinstance(exact, bool):
                raise InvalidConfigError(
                    f"compute_exact_br must be a JSON boolean, got {exact!r}")
            return cls(
                n=n,
                box=BoxConstraint(*bounds),
                sigma_grid=tuple(grid),
                num_matrices=_json_int(doc["num_matrices"], "num_matrices"),
                trials_per_matrix=_json_int(doc["trials_per_matrix"], "trials_per_matrix"),
                seed=_json_int(doc.get("seed", 0), "seed"),
                integrator=integrator,
                compute_exact_br=exact,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfigError(f"bad experiment config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class ExperimentRow:
    sigma: float
    theo_p_bb: float
    theo_p_br: McEstimate | None
    emp_p_bb: McEstimate
    emp_p_br: McEstimate


def _draw_full_rank_matrix(n: int, stream: _rng.RngStream):
    """i.i.d. standard normal square matrix, redrawn on the (measure-zero)
    event that it is rank deficient at working precision."""
    for attempt in range(64):
        a = _rng.standard_normal(stream.child(attempt), (n, n))
        try:
            q1, r = qr_positive(a)
        except RankDeficientError:
            continue
        return a, q1, r
    raise RankDeficientError("could not draw a full-rank matrix in 64 attempts")


def _count_successes(a, q1, r, box, sigma, stream, trials):
    def run_block(block):
        index, size = block
        sub = stream.child(index)
        x = sample_uniform_x(box, sub.child(0), count=size)
        v = sample_noise(sigma, a.shape[0], sub.child(1), count=size)
        ytilde = (x @ a.T + v) @ q1
        br = rounding_success_batch(r, ytilde, x, box.lower, box.upper)
        bb = babai_success_batch(r, ytilde, x, box.lower, box.upper)
        return int(br.sum()), int(bb.sum())

    blocks = [(index, min(_TRIAL_BLOCK, trials - start))
              for index, start in enumerate(range(0, trials, _TRIAL_BLOCK))]
    counts = ordered_map(run_block, blocks)
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def run_experiment(cfg: ExperimentConfig) -> list:
    """Full sweep; returns one row per noise level, in grid order."""
    root = _rng.RngStream(cfg.seed)
    matrices = [
        _draw_full_rank_matrix(cfg.n, root.child(0, m))
        for m in range(cfg.num_matrices)
    ]
    total_trials = cfg.num_matrices * cfg.trials_per_matrix
    rows = []
    for s_idx, sigma in enumerate(cfg.sigma_grid):
        theo_bb = float(np.mean([
            p_bb_uniform(r, sigma, cfg.box) for _, _, r in matrices
        ]))
        theo_br = None
        if cfg.compute_exact_br:
            ests = [
                p_br_uniform(r, sigma, cfg.box, cfg.integrator,
                             root.child(2, m, s_idx))
                for m, (_, _, r) in enumerate(matrices)
            ]
            value = float(np.mean([e.value for e in ests]))
            stderr = math.sqrt(sum(e.stderr ** 2 for e in ests)) / len(ests)
            theo_br = McEstimate(value, stderr, sum(e.samples for e in ests),
                                 root.label())

        br_hits = bb_hits = 0
        for m, (a, q1, r) in enumerate(matrices):
            br_m, bb_m = _count_successes(
                a, q1, r, cfg.box, sigma, root.child(1, m, s_idx),
                cfg.trials_per_matrix,
            )
            br_hits += br_m
            bb_hits += bb_m
        def pooled(hits):
            p = hits / total_trials
            stderr = math.sqrt(p * (1.0 - p) / total_trials)
            return McEstimate(p, stderr, total_trials, root.label())

        rows.append(ExperimentRow(sigma, theo_bb, theo_br,
                                  pooled(bb_hits), pooled(br_hits)))
    return rows
