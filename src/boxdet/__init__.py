"""Box-constrained rounding and Babai detectors, their exact and
Monte Carlo success probabilities, and a reproducible simulation harness.
"""

from .detectors import box_babai, box_rounding
from .errors import (
    BoxdetError,
    DimensionMismatchError,
    InvalidConfigError,
    OutOfBoxError,
    QuadratureDimensionError,
    RankDeficientError,
)
from .experiment import ExperimentConfig, ExperimentRow, run_experiment
from .gaussbox import (
    FINITE,
    IntegratorConfig,
    IntegratorMethod,
    Interval,
    McEstimate,
    box_probability,
)
from .linalg import back_substitute, qr_positive
from .model import (
    BoundaryTag,
    BoxConstraint,
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
