"""Exception types shared across the package."""


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
