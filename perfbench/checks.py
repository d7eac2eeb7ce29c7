"""Correctness checks of the program's outputs.

Each check takes plain numbers and returns a list of failure messages,
empty when the output passes, so that the benchmark's own tests can feed it
perturbed values.  The tolerances are explained in ``reference``.
"""

import math

from reference import (
    CSV_ROUNDING,
    STDERR_MULTIPLE,
    bernstein_halfwidth,
    binomial_variance_bound,
)

# The paper's 2x2 example: A = [[2, -1], [0, 1]], sigma = 1, x on the lower
# bound in both coordinates.  Four printed digits, so +-5e-5.
EXAMPLE_P_BR = 0.6192
EXAMPLE_P_BB = 0.5818
EXAMPLE_DIGITS = 5e-5
CLOSED_FORM_SLACK = 1e-12


def sweep_rows(rows, sigma_grid, trials_per_row):
    """Check the rows of one sweep CSV (dicts of floats, None for an empty
    field); returns one failure list per row."""
    failures = []
    prev_theo = None
    for i, row in enumerate(rows):
        bad = []
        sigma, theo = row["sigma"], row["theo_pbb"]
        emp_bb, emp_br = row["emp_pbb"], row["emp_pbr"]
        if i >= len(sigma_grid) or abs(sigma - sigma_grid[i]) > CSV_ROUNDING:
            bad.append(f"row {i}: sigma {sigma} is not grid point {i}")
        for key, value in row.items():
            if key != "sigma" and value is not None and not 0.0 <= value <= 1.0:
                bad.append(f"row {i}: {key}={value} outside [0, 1]")
        if row["theo_pbr"] is not None or row["theo_pbr_stderr"] is not None:
            bad.append(f"row {i}: theo_pbr present although compute_exact_br is off")
        if prev_theo is not None and not theo < prev_theo:
            bad.append(f"row {i}: theo_pbb {theo} does not decrease from {prev_theo}")
        prev_theo = theo

        # emp_pbb is a binomial rate whose mean is theo_pbb (closed form).
        variance = min(0.25, theo * (1.0 - theo) + CSV_ROUNDING)
        tol = bernstein_halfwidth(variance, trials_per_row) + CSV_ROUNDING
        if abs(emp_bb - theo) > tol:
            bad.append(f"row {i}: emp_pbb {emp_bb} differs from theo_pbb {theo} "
                       f"by more than {tol:.2e}")

        # Theorem: P^BR <= P^BB for a uniform x.  Both rates come from the
        # same trials; a term bb_t - br_t lies in [-1, 1] and is nonzero only
        # when a detector fails, so its variance is at most
        # (1 - P^BB) + (1 - P^BR).
        br_fail = 1.0 - emp_br + bernstein_halfwidth(0.25, trials_per_row)
        variance = min(1.0, (1.0 - theo + CSV_ROUNDING) + br_fail)
        tol = bernstein_halfwidth(variance, trials_per_row, span=2.0) + CSV_ROUNDING
        if emp_br > emp_bb + tol:
            bad.append(f"row {i}: emp_pbr {emp_br} exceeds emp_pbb {emp_bb} "
                       f"by more than {tol:.2e}")
        failures.append(bad)
    return failures


def theory_cell(value, stderr, p_bb, sim_hits, sim_trials):
    """Check one P_R^BR estimate against an independent simulation of the
    clamped rounding detector and against P_R^BR <= P_R^BB."""
    bad = []
    if not 0.0 <= value <= 1.0:
        bad.append(f"P_R^BR {value} outside [0, 1]")
    if not (math.isfinite(stderr) and stderr > 0.0):
        bad.append(f"P_R^BR stderr {stderr} is not a positive number")
        return bad
    sim = sim_hits / sim_trials
    tol = (STDERR_MULTIPLE * stderr
           + bernstein_halfwidth(binomial_variance_bound(sim, sim_trials), sim_trials))
    if abs(value - sim) > tol:
        bad.append(f"P_R^BR {value:.6f} +- {stderr:.2e} disagrees with the "
                   f"simulated {sim:.6f} over {sim_trials} trials (tolerance {tol:.2e})")
    if value > p_bb + STDERR_MULTIPLE * stderr:
        bad.append(f"P_R^BR {value:.6f} exceeds P_R^BB {p_bb:.6f} by more than "
                   f"{STDERR_MULTIPLE:g} stderr")
    return bad


def integral_tolerance(method, stderr, samples, ref, ref_tol):
    """Allowed |estimate - reference| for one backend's estimate."""
    if method == "mc":
        # Binomial count: bound it from the reference rate, not from the
        # reported stderr, which reads 0 at a rate of 0 or 1.
        variance = min(0.25, ref * (1.0 - ref) + ref_tol)
        return bernstein_halfwidth(variance, samples) + ref_tol
    return STDERR_MULTIPLE * stderr + ref_tol


def integral(method, value, stderr, samples, ref, ref_tol):
    """Check one pattern integral against scipy's multivariate normal CDF."""
    bad = []
    if not 0.0 <= value <= 1.0:
        bad.append(f"{method}: P_D^BR {value} outside [0, 1]")
    if not (math.isfinite(stderr) and stderr >= 0.0):
        bad.append(f"{method}: stderr {stderr} is not a nonnegative number")
        return bad
    tol = integral_tolerance(method, stderr, samples, ref, ref_tol)
    if abs(value - ref) > tol:
        bad.append(f"{method}: P_D^BR {value:.6f} +- {stderr:.2e} disagrees with "
                   f"scipy's {ref:.6f} (tolerance {tol:.2e})")
    return bad


def babai_closed_form(p_bb, bounds, p_bb_own):
    """Check the closed-form P_D^BB against the benchmark's erf product and
    against the pattern-free bounds that must bracket it."""
    bad = []
    if abs(p_bb - p_bb_own) > CLOSED_FORM_SLACK:
        bad.append(f"P_D^BB {p_bb!r} differs from the erf product {p_bb_own!r}")
    lower, upper = bounds
    if not lower - CLOSED_FORM_SLACK <= p_bb <= upper + CLOSED_FORM_SLACK:
        bad.append(f"P_D^BB {p_bb!r} outside its bounds [{lower!r}, {upper!r}]")
    return bad


def reversal_example(p_br, tol, p_bb):
    """The paper's 2x2 example: P_D^BR = 0.6192 exceeds P_D^BB = 0.5818."""
    bad = []
    if abs(p_bb - EXAMPLE_P_BB) > EXAMPLE_DIGITS:
        bad.append(f"example P_D^BB {p_bb:.6f} is not {EXAMPLE_P_BB}")
    if abs(p_br - EXAMPLE_P_BR) > EXAMPLE_DIGITS + tol:
        bad.append(f"example P_D^BR {p_br:.6f} is not {EXAMPLE_P_BR}")
    if not p_br - p_bb > tol:
        bad.append(f"example P_D^BR {p_br:.6f} does not exceed P_D^BB {p_bb:.6f} "
                   f"by more than {tol:.2e}")
    return bad
