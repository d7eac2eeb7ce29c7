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

Parallelism: each sigma row maps once over its matrices.  One item is one
matrix's whole cell (its trial counts and, when asked, its ``p_br_uniform``
estimate); the maps inside an item run inline on the pool worker.  With a
single matrix the row map runs inline and the trial batches are pooled.
"""

import json
import math
from dataclasses import dataclass, field, fields, replace

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
# Trial blocks per detector call.  At n = 8 a batch's x and ytilde are
# 512 KB arrays each, so they stay in a 2 MB L2 cache with the detectors'
# temporaries.  On 2 cores, 3 or 4 blocks ran no faster and raised the peak
# memory; projecting a whole matrix's trials at once let OpenBLAS thread
# the matmul and was 1.6x slower.
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
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be a non-negative integer, got {self.seed}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            _reject_unknown_keys(doc, cls, "config")
            n = _json_int(doc["n"], "n")
            box_doc = doc["box"]
            _reject_unknown_keys(box_doc, BoxConstraint, "box")
            bounds = [[_json_int(v, f"box {key}") for v in box_doc[key]]
                      if isinstance(box_doc[key], list)
                      else [_json_int(box_doc[key], f"box {key}")] * n
                      for key in ("lower", "upper")]
            integ = doc.get("integrator", {})
            _reject_unknown_keys(integ, IntegratorConfig, "integrator")
            integrator = replace(DEFAULT_EXPERIMENT_INTEGRATOR, **{
                key: IntegratorMethod(value) if key == "method" else _json_int(value, key)
                for key, value in integ.items()})
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
    """(rounding, Babai) success counts of ``trials`` trials on one matrix.

    Trial block ``k`` (``_TRIAL_BLOCK`` trials) draws from
    ``stream.child(k)``; the blocks of a batch are written into one pair of
    (batch, n) arrays that each detector scans once.
    """
    n = a.shape[0]
    batch_trials = _BATCH_BLOCKS * _TRIAL_BLOCK

    def run_batch(first):
        size = min(batch_trials, trials - first)
        x = np.empty((size, n), dtype=np.int64)
        ytilde = np.empty((size, n))
        for start in range(0, size, _TRIAL_BLOCK):
            rows = slice(start, min(start + _TRIAL_BLOCK, size))
            count = rows.stop - start
            sub = stream.child((first + start) // _TRIAL_BLOCK)
            x[rows] = sample_uniform_x(box, sub.child(0), count=count)
            v = sample_noise(sigma, n, sub.child(1), count=count)
            ytilde[rows] = (x[rows] @ a.T + v) @ q1
        br = rounding_success_batch(r, ytilde, x, box.lower, box.upper)
        bb = babai_success_batch(r, ytilde, x, box.lower, box.upper)
        return int(br.sum()), int(bb.sum())

    counts = ordered_map(run_batch, range(0, trials, batch_trials))
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def run_experiment(cfg: ExperimentConfig) -> list:
    """Full sweep; returns one row per noise level, in grid order."""
    root = _rng.RngStream(cfg.seed)
    matrices = [
        _draw_full_rank_matrix(cfg.n, root.child(0, m))
        for m in range(cfg.num_matrices)
    ]
    total_trials = cfg.num_matrices * cfg.trials_per_matrix

    def pooled(hits):
        p = hits / total_trials
        stderr = math.sqrt(p * (1.0 - p) / total_trials)
        return McEstimate(p, stderr, total_trials, root.label())

    rows = []
    for s_idx, sigma in enumerate(cfg.sigma_grid):
        def cell(m):
            a, q1, r = matrices[m]
            theo_br = (p_br_uniform(r, sigma, cfg.box, cfg.integrator,
                                    root.child(2, m, s_idx))
                       if cfg.compute_exact_br else None)
            br, bb = _count_successes(a, q1, r, cfg.box, sigma,
                                      root.child(1, m, s_idx), cfg.trials_per_matrix)
            return p_bb_uniform(r, sigma, cfg.box), theo_br, br, bb

        theo_bbs, ests, br_hits, bb_hits = zip(*ordered_map(cell, range(cfg.num_matrices)))
        theo_bb = float(np.mean(theo_bbs))
        theo_br = None
        if cfg.compute_exact_br:
            value = float(np.mean([e.value for e in ests]))
            stderr = math.sqrt(sum(e.stderr ** 2 for e in ests)) / len(ests)
            theo_br = McEstimate(value, stderr, sum(e.samples for e in ests),
                                 root.label())
        rows.append(ExperimentRow(sigma, theo_bb, theo_br,
                                  pooled(sum(bb_hits)), pooled(sum(br_hits))))
    return rows
