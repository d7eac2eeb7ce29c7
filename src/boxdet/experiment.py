"""Success-probability sweep over a noise grid with random square models.

Protocol: draw ``num_matrices`` square matrices with i.i.d. standard
normal entries; run ``trials_per_matrix`` detection trials per matrix
(uniform true vector, Gaussian noise, both clamped detectors) at every
noise level in the grid, and pool the success counts into empirical rates
with binomial standard errors.  The noise levels share their draws: a
trial draws x and a unit normal z once, observes A x + sigma z at each
sigma, and is decided at every sigma by one noise solve
(``detectors.failure_scales``).  Each row's rate and stderr are those of
independent trials, but adjacent rows are positively correlated.  The
closed-form Babai probability is averaged over the matrices for the
theoretical curve; the rounding-detector curve is optionally estimated
the same way by ``p_br_uniform``.

Pooling note: with equal trial counts per matrix, the pooled empirical
rate coincides with the average of per-matrix rates; the pooled binomial
standard error is reported.

Everything is driven by substreams of a single seed: the trials on
(matrix index, block index), the theoretical rounding cells on
(matrix index, sigma index).  So results are bit-identical across repeat
runs and worker counts.

Parallelism: a sweep maps once over its matrices.  One item is a matrix's
column: at every sigma its Babai probability, its trial counts and, when
asked, its ``p_br_uniform`` estimate.  Rows reduce the columns in matrix
order; the maps inside an item run inline on the pool worker.
"""

import json
import math
from dataclasses import dataclass, field, fields, replace
from numbers import Real

import numpy as np

from . import rng as _rng
from ._parallel import ordered_map
# The success_batch kernels and samplers are unused, but perfbench/spans.py wraps them by name.
from .detectors import babai_success_batch, failure_scales, rounding_success_batch  # noqa: F401
from .errors import InvalidConfigError, RankDeficientError, require_int
from .gaussbox import IntegratorConfig, IntegratorMethod, McEstimate
from .linalg import qr_positive
from .model import BoxConstraint, boundary_masks, sample_noise, sample_uniform_x  # noqa: F401
from .success import p_bb_uniform, p_br_uniform, uniform_integrator

_TRIAL_BLOCK = 4096
# Trial blocks per batch.  On 2 cores the n = 8, 8-sigma, 10 x 32768-trial sweep
# took a median 0.098 s (peak RSS 109 MB) with 2, 0.109 s (105-107) with 1, 0.102 s
# (114) with 3, 0.161 s (118-119) with 4 and 0.163 s (135-137) with 8; 16 runs each.
_BATCH_BLOCKS = 2

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
        for key in ("n", "num_matrices", "trials_per_matrix", "seed"):
            require_int(getattr(self, key), key)
        if not isinstance(self.compute_exact_br, bool):
            raise InvalidConfigError(
                f"compute_exact_br must be a JSON boolean, got {self.compute_exact_br!r}")
        for key, kind in (("box", BoxConstraint), ("integrator", IntegratorConfig)):
            if not isinstance(getattr(self, key), kind):
                raise InvalidConfigError(
                    f"{key} must be a {kind.__name__}, got {getattr(self, key)!r}")
        if self.n < 1:
            raise InvalidConfigError("n must be at least 1")
        if self.box.dim != self.n:
            raise InvalidConfigError(
                f"box dimension {self.box.dim} does not match n = {self.n}"
            )
        if not all(isinstance(s, Real) and not isinstance(s, bool) for s in self.sigma_grid):
            raise InvalidConfigError(f"sigma_grid must hold numbers, got {self.sigma_grid!r}")
        grid = tuple(map(float, self.sigma_grid))
        if not grid or not all(math.isfinite(s) and s > 0.0 for s in grid):
            raise InvalidConfigError("sigma_grid must hold positive finite values")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidConfigError("sigma_grid must be strictly increasing")
        object.__setattr__(self, "sigma_grid", grid)
        if self.num_matrices < 1 or self.trials_per_matrix < 1:
            raise InvalidConfigError("counts must be at least 1")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.compute_exact_br:  # the theory cells' integrator, checked before any trial
            try:
                uniform_integrator(self.integrator, self.box)
            except InvalidConfigError as exc:
                raise InvalidConfigError(
                    f"integrator.samples {self.integrator.samples} is too many for the "
                    f"theory curve at n = {self.n}: {exc}") from None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config of a parsed JSON document: its shape is checked here, its values by cls."""
        try:
            _reject_unknown_keys(doc, cls, "config")
            box_doc = doc["box"]
            _reject_unknown_keys(box_doc, BoxConstraint, "box")
            # JSON box bounds must be integers; BoxConstraint also takes 3.0.
            bounds = [[require_int(v, f"box {key}") for v in box_doc[key]]
                      if isinstance(box_doc[key], list)
                      else [require_int(box_doc[key], f"box {key}")] * require_int(doc["n"], "n")
                      for key in ("lower", "upper")]
            integ = doc.get("integrator", {})
            _reject_unknown_keys(integ, IntegratorConfig, "integrator")
            if not isinstance(doc["sigma_grid"], list):
                raise InvalidConfigError(
                    f"sigma_grid must be a JSON list of numbers, got {doc['sigma_grid']!r}")
            return cls(**{**doc, "box": BoxConstraint(*bounds),
                          "integrator": replace(DEFAULT_EXPERIMENT_INTEGRATOR, **integ)})
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
        a = _rng.inverse_cdf_normal(stream.child(attempt), (n, n))
        try:
            q1, r = qr_positive(a)
        except RankDeficientError:
            continue
        return q1, r
    raise RankDeficientError("could not draw a full-rank matrix in 64 attempts")


def _count_successes(q1, r, box, sigma_grid, stream, trials):
    """(rounding, Babai) success counts of ``trials`` trials on one matrix,
    one pair per sigma of ``sigma_grid``.

    Trial block ``k`` (``_TRIAL_BLOCK`` trials) draws the uniforms of x
    (``sample_uniform_x``) from ``stream.child(k).child(0)`` and a unit
    normal z from ``stream.child(k).child(1)``; at each sigma it observes
    (x A^T + sigma z) Q1 = x R^T + sigma v with v = z Q1.  A batch of blocks
    draws both into one reused buffer, forms v once and reads x's
    ``boundary_masks`` off the uniforms; a sigma's successes are the trials
    whose ``failure_scales`` are at most 1/(2 sigma).
    """
    n, batch = r.shape[0], _BATCH_BLOCKS * _TRIAL_BLOCK
    hits = np.zeros((len(sigma_grid), 2), dtype=np.int64)
    buffer = np.empty((2, min(batch, trials), n))  # x uniforms, then z
    for first in range(0, trials, batch):
        u, z = buffer[:, :trials - first]  # fewer rows in a partial last batch
        for s in range(0, len(u), _TRIAL_BLOCK):
            sub, rows = stream.child((first + s) // _TRIAL_BLOCK), slice(s, s + _TRIAL_BLOCK)
            _rng.uniform(sub.child(0), out=u[rows])
            _rng.standard_normal(sub.child(1), out=z[rows])
        v = z @ q1
        k_br, k_bb = failure_scales(r, v, *boundary_masks(box, u))
        for cell, sigma in zip(hits, sigma_grid):
            cell += [np.count_nonzero(k <= 0.5 / sigma) for k in (k_br, k_bb)]
    return [tuple(map(int, cell)) for cell in hits]


def run_experiment(cfg: ExperimentConfig) -> list:
    """Full sweep; returns one row per noise level, in grid order."""
    root = _rng.RngStream(cfg.seed)
    total_trials = cfg.num_matrices * cfg.trials_per_matrix

    def pooled(hits):
        p = hits / total_trials
        stderr = math.sqrt(p * (1.0 - p) / total_trials)
        return McEstimate(p, stderr, total_trials, root.label())

    def column(m):
        """Matrix m's (theo_bb, theo_br, br_hits, bb_hits) at every sigma."""
        q1, r = _draw_full_rank_matrix(cfg.n, root.child(0, m))
        counts = _count_successes(q1, r, cfg.box, cfg.sigma_grid,
                                  root.child(1, m), cfg.trials_per_matrix)
        cells = []
        for s_idx, sigma in enumerate(cfg.sigma_grid):
            theo_br = (p_br_uniform(r, sigma, cfg.box, cfg.integrator,
                                    root.child(2, m, s_idx))
                       if cfg.compute_exact_br else None)
            cells.append((p_bb_uniform(r, sigma, cfg.box), theo_br, *counts[s_idx]))
        return cells

    columns = ordered_map(column, range(cfg.num_matrices))
    rows = []
    for s_idx, sigma in enumerate(cfg.sigma_grid):
        theo_bbs, ests, br_hits, bb_hits = zip(*(col[s_idx] for col in columns))
        theo_br = (McEstimate(float(np.mean([e.value for e in ests])),
                              math.sqrt(sum(e.stderr ** 2 for e in ests)) / len(ests),
                              sum(e.samples for e in ests), root.label())
                   if cfg.compute_exact_br else None)
        rows.append(ExperimentRow(sigma, float(np.mean(theo_bbs)), theo_br,
                                  pooled(sum(bb_hits)), pooled(sum(br_hits))))
    return rows
