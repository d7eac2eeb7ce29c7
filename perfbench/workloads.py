"""The three workloads: their inputs, one round of operations, and checks.

A workload is built from the seed alone (``__init__`` makes every input),
then ``run_round`` makes one closed-loop round: each call into boxdet
starts only after the previous one returned.  Every round attempts the
same operations (on the same inputs, except that each sweep call draws
from a config seed of its own), so a run of any length attempts whole
rounds of ``ops_per_round`` operations.  ``check`` returns one failure
list per operation of every round (empty when it passed); ``quality`` gives
the error-bar metric ``pbr_stderr``, deterministic for a seed.
"""

import csv
import io
import json
import math
import os
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout

import numpy as np

import checks
import reference
from boxdet import cli, success
from boxdet.gaussbox import IntegratorConfig
from boxdet.model import BoxConstraint, parse_pattern
from boxdet.rng import RngStream

WIDTH = 3  # box 0..3 in every coordinate, as in the paper's Figure 1


def _attempt(fn, *args):
    """Run one operation; an exception is its result (and fails its check)."""
    try:
        return fn(*args)
    except Exception as exc:  # the program's fault is counted, not fatal
        return exc


def _seed_int(*words):
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def _identical(results):
    """Failure list per repeat: a repeated operation must reproduce the
    first round's output bit for bit (the program's documented rerun
    invariant)."""
    first = results[0]
    return [[] if r == first else [f"output {r!r} differs from the first round's {first!r}"]
            for r in results]


class SweepEmpirical:
    """The Figure-1 protocol through ``boxdet experiment``: n = 8, box 0..3,
    the reduced 8-point sigma grid, empirical rates only.  One call is one
    round; an operation is one sigma row of its CSV."""

    name = "sweep_empirical"
    SIGMA_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
    MATRICES = 10
    TRIALS_PER_MATRIX = 32768

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.calls = 0
        self.ops_per_round = len(self.SIGMA_GRID)

    def _config(self, stem, config_seed, matrices, trials, grid):
        path = os.path.join(self.workdir, stem + ".json")
        doc = {
            "n": 8,
            "box": {"lower": 0, "upper": WIDTH},
            "sigma_grid": list(grid),
            "num_matrices": matrices,
            "trials_per_matrix": trials,
            "seed": config_seed,
            "compute_exact_br": False,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def _call(self, config, stem):
        out = os.path.join(self.workdir, stem + ".csv")
        svg = os.path.join(self.workdir, stem + ".svg")
        with redirect_stdout(io.StringIO()):
            code = cli.main(["experiment", "--config", config, "--out", out, "--svg", svg])
        return code, out, svg

    def warm_up(self):
        config = self._config("sweep-warm", _seed_int(self.seed, 0), 1, 256,
                              self.SIGMA_GRID[:2])
        code, _, _ = self._call(config, "sweep-warm")
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited with {code}")

    def run_round(self):
        index = self.calls
        self.calls += 1
        config = self._config(f"sweep-{index}", _seed_int(self.seed, 1, index),
                              self.MATRICES, self.TRIALS_PER_MATRIX, self.SIGMA_GRID)
        return [_attempt(self._call, config, f"sweep-{index}")]

    def check(self, rounds):
        failures = []
        for (result,) in rounds:
            failures.extend(self._check_call(result))
        return failures

    def _check_call(self, result):
        rows = len(self.SIGMA_GRID)
        if isinstance(result, Exception):
            return [[f"sweep raised {result!r}"]] * rows
        code, out, svg = result
        if code != 0:
            return [[f"boxdet experiment exited with {code}"]] * rows
        try:
            parsed = _parse_csv(out)
            root = ET.parse(svg).getroot()
        except (OSError, ValueError, KeyError, ET.ParseError) as exc:
            return [[f"unreadable output: {exc!r}"]] * rows
        if not root.tag.endswith("svg"):
            return [[f"SVG root element is {root.tag}"]] * rows
        if len(parsed) != rows:
            return [[f"CSV has {len(parsed)} rows, expected {rows}"]] * rows
        return checks.sweep_rows(parsed, self.SIGMA_GRID,
                                 self.MATRICES * self.TRIALS_PER_MATRIX)

    def quality(self, rounds):
        """The stderr of the sigma-averaged empirical P_R^BR of the first
        call, from its CSV."""
        result = rounds[0][0]
        try:
            stderrs = [row["emp_pbr_stderr"] for row in _parse_csv(result[1])]
            se = math.sqrt(sum(s * s for s in stderrs)) / len(stderrs)
        except (TypeError, OSError, ValueError, KeyError, ZeroDivisionError):
            return {}  # the checks have failed this call already
        return {"pbr_stderr": (se, "probability")}


def _parse_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != cli.CSV_HEADER.split(","):
            raise ValueError(f"CSV header {reader.fieldnames}")
        return [{key: (float(value) if value != "" else None) for key, value in row.items()}
                for row in reader]


class TheoryUniform:
    """P_R^BR for x uniform over the box by 3^n pattern integrals (QMC, 2048
    samples, the experiment default).  An operation is one (R, sigma) cell.

    The matrices are drawn once from a fixed seed: the cell's stderr, which
    ``pbr_stderr`` reports, changes up to fourfold between draws of R, so
    with a seeded R the seed, not the program, would set it.  The workload
    seed drives the program's QMC randomization and the independent
    simulation."""

    name = "theory_uniform"
    MATRIX_SEED = 1704
    CELLS = ((5, 0.8), (5, 0.5), (6, 0.5))  # (n, P_R^BB that sets sigma)
    CONFIG = IntegratorConfig(method="qmc", samples=2048)
    SIM_TRIALS = 1_000_000

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cells = []
        for index, (n, target) in enumerate(self.CELLS):
            r = reference.random_r(np.random.default_rng([self.MATRIX_SEED, n]), n)
            sigma = reference.sigma_for(
                target, lambda s, r=r: reference.p_bb_uniform(r, s, WIDTH))
            self.cells.append((r, sigma, BoxConstraint.cube(0, WIDTH, n),
                               RngStream(seed).child(index)))
        self.ops_per_round = len(self.cells)

    def warm_up(self):
        r = np.array([[2.0, -1.0], [0.0, 1.0]])
        success.p_br_uniform(r, 1.0, BoxConstraint.cube(0, WIDTH, 2), self.CONFIG,
                             RngStream(self.seed))

    def _cell(self, r, sigma, box, stream):
        est = success.p_br_uniform(r, sigma, box, self.CONFIG, stream)
        return est.value, est.stderr

    def run_round(self):
        return [_attempt(self._cell, *cell) for cell in self.cells]

    def check(self, rounds):
        per_cell = []
        for index, (r, sigma, _, _) in enumerate(self.cells):
            results = [round_results[index] for round_results in rounds]
            if isinstance(results[0], Exception):
                per_cell.append([[f"cell raised {res!r}"] for res in results])
                continue
            rng = np.random.default_rng([self.seed, index, 1])
            hits = reference.simulate_rounding_uniform(r, sigma, WIDTH, self.SIM_TRIALS, rng)
            p_bb = reference.p_bb_uniform(r, sigma, WIDTH)
            base = checks.theory_cell(*results[0], p_bb, hits, self.SIM_TRIALS)
            per_cell.append([base + same for same in _identical(results)])
        return [per_cell[c][k] for k in range(len(rounds)) for c in range(len(self.cells))]

    def quality(self, rounds):
        stderrs = [res[1] for res in rounds[0] if not isinstance(res, Exception)]
        if not stderrs:
            return {}
        se = math.sqrt(sum(s * s for s in stderrs)) / len(stderrs)
        return {"pbr_stderr": (se, "probability")}


class _Job:
    """R, sigma and pattern of fixed-pattern integrals, the backends that
    compute them, and the ``abseps`` of their scipy reference (None when R
    is built from 2x2 blocks, where scipy is exact)."""

    def __init__(self, r, sigma, pattern, methods, abseps):
        self.r, self.sigma, self.letters, self.methods = r, sigma, pattern, methods
        self.pattern = parse_pattern(pattern)
        self.abseps = abseps


class FixedPatterns:
    """Single pattern integrals P_D^BR through ``p_br_deterministic``, one
    backend at a time, next to the closed-form P_D^BB and its bounds.  An
    operation is one integral.

    The MC and QMC jobs draw R, the pattern and sigma from the workload
    seed; sigma puts P_D^BR near 1/2, where the MC stderr hardly depends on
    R.  QMC runs once per dimension from 4 to 8 at 100 000 samples, the
    default of ``boxdet mc-sp``, the program's own single-integral path."""

    name = "fixed_patterns"
    CONFIGS = {
        "quad": IntegratorConfig(method="quad"),
        "mc": IntegratorConfig(method="mc", samples=1_000_000),
        "qmc": IntegratorConfig(method="qmc", samples=100_000),
    }
    EXAMPLE = np.array([[2.0, -1.0], [0.0, 1.0]])
    MC_DIMS = (4, 6, 8)
    QMC_DIMS = (4, 5, 6, 7, 8)
    ABSEPS = {4: 1e-6, 5: 2e-5, 6: 2e-5, 7: 3e-5, 8: 3e-5}
    TARGET_P = 0.5
    TARGET_SAMPLES = 20000

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        letters = "".join(rng.choice(list("LIU"), 4))
        self.jobs = [
            # The paper's 2x2 reversal example, on every backend.
            _Job(self.EXAMPLE, 1.0, "LL", ("quad", "mc", "qmc"), None),
            # Two copies of it side by side: a 4-D quadrature whose exact
            # value is the product of two 2-D probabilities.
            _Job(np.kron(np.eye(2), self.EXAMPLE), 1.0, letters, ("quad",), None),
        ]
        self.jobs += [self._random_job(rng, n, "mc") for n in self.MC_DIMS]
        self.jobs += [self._random_job(rng, n, "qmc") for n in self.QMC_DIMS]
        self.ops = [(j, m) for j, job in enumerate(self.jobs) for m in job.methods]
        self.ops_per_round = len(self.ops)

    def _random_job(self, rng, n, method):
        r = reference.random_r(rng, n)
        letters = "".join(rng.choice(list("LIU"), n))
        sigma = reference.sigma_for_rounding(self.TARGET_P, r, letters,
                                             self.TARGET_SAMPLES, rng)
        return _Job(r, sigma, letters, (method,), self.ABSEPS[n])

    def warm_up(self):
        pattern = parse_pattern("LL")
        for method in self.CONFIGS:
            cfg = IntegratorConfig(method=method, samples=1000, quad_points=8)
            success.p_br_deterministic(self.EXAMPLE, 1.0, pattern, cfg, RngStream(self.seed))

    def _integral(self, j, method):
        job = self.jobs[j]
        stream = RngStream(self.seed).child(j, list(self.CONFIGS).index(method))
        est = success.p_br_deterministic(job.r, job.sigma, job.pattern,
                                         self.CONFIGS[method], stream)
        p_bb = success.p_bb_deterministic(job.r, job.sigma, job.pattern)
        bounds = success.p_bb_bounds(job.r, job.sigma)
        return est.value, est.stderr, est.samples, p_bb, tuple(bounds)

    def run_round(self):
        return [_attempt(self._integral, j, method) for j, method in self.ops]

    def _reference(self, j):
        """(value, tolerance) of the job's probability from scipy."""
        job = self.jobs[j]
        rng = np.random.default_rng([self.seed, j, 2])
        if job.abseps is None:  # built from 2-D blocks: scipy is exact there
            value = 1.0
            for k in range(0, len(job.letters), 2):
                lo, hi = reference.pattern_limits(job.letters[k:k + 2])
                value *= reference.box_cdf(self.EXAMPLE, job.sigma, lo, hi, 1.0, rng)
            return value, 1e-9
        lo, hi = reference.pattern_limits(job.letters)
        value = reference.box_cdf(job.r, job.sigma, lo, hi, job.abseps, rng)
        return value, reference.REFERENCE_ERROR_MULTIPLE * job.abseps

    def check(self, rounds):
        refs = {}
        per_op = []
        for o, (j, method) in enumerate(self.ops):
            results = [round_results[o] for round_results in rounds]
            if isinstance(results[0], Exception):
                per_op.append([[f"{method} integral raised {res!r}"] for res in results])
                continue
            if j not in refs:
                refs[j] = self._reference(j)
            ref, ref_tol = refs[j]
            job = self.jobs[j]
            value, stderr, samples, p_bb, bounds = results[0]
            base = checks.integral(method, value, stderr, samples, ref, ref_tol)
            base += checks.babai_closed_form(
                p_bb, bounds, reference.p_bb_pattern(job.r, job.sigma, job.letters))
            if j == 0:
                tol = checks.integral_tolerance(method, stderr, samples, ref, ref_tol)
                base += checks.reversal_example(value, tol, p_bb)
            per_op.append([base + same for same in _identical(results)])
        return [per_op[o][k] for k in range(len(rounds)) for o in range(len(self.ops))]

    def quality(self, rounds):
        stderrs = [res[1] for res in rounds[0] if not isinstance(res, Exception)]
        if not stderrs:
            return {}
        rms = math.sqrt(sum(s * s for s in stderrs) / len(stderrs))
        return {"pbr_stderr": (rms, "probability")}


WORKLOADS = {cls.name: cls for cls in (SweepEmpirical, TheoryUniform, FixedPatterns)}
