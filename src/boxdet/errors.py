"""Exception types shared across the package, and the constructors' integer check."""

from numbers import Integral


class BoxdetError(Exception):
    """Base class for all boxdet errors."""


class RankDeficientError(BoxdetError, ValueError):
    """Model matrix has (numerically) dependent columns."""


class DimensionMismatchError(BoxdetError, ValueError):
    """Operands have incompatible shapes."""


class OutOfBoxError(BoxdetError, ValueError):
    """An integer vector violates its box constraint."""


class QuadratureDimensionError(BoxdetError, ValueError):
    """Tensor quadrature requested above its dimension cap."""


class InvalidConfigError(BoxdetError, ValueError):
    """An integrator or experiment configuration is inconsistent."""


def require_int(value, key: str):
    """``value``, which must be an integer (a numpy one too, but not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidConfigError(f"{key} must be an integer, got {value!r}")
    return value
