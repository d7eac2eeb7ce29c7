"""Reproducible random streams.

Every stochastic quantity in the package is driven by an :class:`RngStream`,
a (seed, substream-path) value.  Streams are split, never advanced in place,
so parallel and serial evaluation orders draw identical numbers.  Uniform
deviates come from the counter-based Philox generator; normal deviates are
produced by applying the inverse normal CDF to that uniform stream, which
keeps the draw sequence bit-reproducible across platforms (the inverse CDF
is a fixed rational approximation with relative error far below 1e-9).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidConfigError, require_int

# random() returns doubles in [0, 1); clip away an exact 0 so the inverse
# normal CDF stays finite (probability 2^-53 per draw).
_U_MIN = 2.0 ** -53


@dataclass(frozen=True)
class RngStream:
    """A value-semantics random stream identified by seed and substream path.

    Identical (seed, path) pairs yield identical draw sequences.  ``child``
    derives an independent substream; the parent remains usable for its own
    draws only if it is never passed to two different consumers.
    """

    seed: int
    path: tuple = ()

    def __post_init__(self):
        if require_int(self.seed, "seed") < 0:
            raise InvalidConfigError(f"seed must be a non-negative integer, got {self.seed}")

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def label(self) -> str:
        if not self.path:
            return f"seed={self.seed}"
        return f"seed={self.seed} stream={'/'.join(str(i) for i in self.path)}"


def uniform(stream: RngStream, size=None, out=None) -> np.ndarray:
    """Uniform deviates in [0, 1) from the stream's Philox counter, of shape
    ``size`` or into a C-contiguous ``out``, with the bits of its shape."""
    return stream.generator().random(size, out=out)


def standard_normal(stream: RngStream, size=None, out=None) -> np.ndarray:
    """Standard normal deviates via inverse CDF of the uniform stream, made
    in place (in ``out`` when given)."""
    u = uniform(stream, size, out)
    return ndtri(np.maximum(u, _U_MIN, out=u), out=u)
