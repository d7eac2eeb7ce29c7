"""Box-constrained rounding and Babai detectors, their exact and
Monte Carlo success probabilities, and a reproducible simulation harness.
"""

from types import ModuleType as _ModuleType

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
from .model import BoundaryTag, BoxConstraint, classify, parse_pattern
from .rng import RngStream
from .success import (
    p_bb_bounds,
    p_bb_deterministic,
    p_bb_uniform,
    p_br_deterministic,
    p_br_uniform,
    phi,
)

# Library names only: the submodules stay reachable as ``boxdet.<module>``.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
