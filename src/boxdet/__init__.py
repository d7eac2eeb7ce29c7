"""Box-constrained rounding and Babai detectors, their exact and
Monte Carlo success probabilities, and a reproducible simulation harness.
"""

from .detectors import (
    bils_brute_force,
    box_babai,
    box_rounding,
    ordinary_babai,
    ordinary_rounding,
)
from .errors import (
    BoxdetError,
    BoxTooLargeError,
    DimensionMismatchError,
    InvalidConfigError,
    OutOfBoxError,
    QuadratureDimensionError,
    RankDeficientError,
)
from .experiment import ExperimentConfig, ExperimentRow, run_experiment
from .gaussbox import (
    FINITE,
    FULL_LINE,
    LEFT_INFINITE,
    RIGHT_INFINITE,
    IntegratorConfig,
    IntegratorMethod,
    Interval,
    McEstimate,
    box_probability,
    check_product_bound,
    intervals_from_pattern,
)
from .linalg import back_substitute, qr_positive
from .model import (
    BoundaryTag,
    BoxConstraint,
    ReducedModel,
    classify,
    parse_pattern,
    sample_noise,
    sample_uniform_x,
)
from .rng import RngStream
from .success import (
    p_bb_bounds,
    p_bb_deterministic,
    p_bb_uniform,
    p_br_deterministic,
    p_br_uniform,
    phi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
