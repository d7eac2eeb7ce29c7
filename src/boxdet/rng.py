"""Reproducible random streams.

Every stochastic quantity in the package is driven by an :class:`RngStream`,
a (seed, substream-path) value.  Streams are split, never advanced in place,
so parallel and serial evaluation orders draw identical numbers.  Trials,
Monte Carlo samples and the ``model`` samplers draw from SFC64, normals by
numpy's ziggurat (Marsaglia and Tsang, J. Stat. Softw. 5(8), 2000): the
cheapest numpy offers.  QMC's Sobol scrambles (``RngStream.generator``) and
the sweep's model matrices (``inverse_cdf_normal``) stay on Philox, so that
their numbers do not move.  Reruns are bit-identical for a fixed numpy and
scipy: numpy pins its bit generators' raw streams (NEP 19), not the ziggurat.
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

    def generator(self, bits=np.random.Philox) -> np.random.Generator:
        """A generator on the stream's seed sequence.  Philox by default:
        scipy's Sobol scrambles draw from it, so QMC keeps its numbers."""
        return np.random.Generator(bits(np.random.SeedSequence(self.seed, spawn_key=self.path)))

    def label(self) -> str:
        if not self.path:
            return f"seed={self.seed}"
        return f"seed={self.seed} stream={'/'.join(str(i) for i in self.path)}"


def sample_generator(stream: RngStream) -> np.random.Generator:
    """The stream's SFC64 generator: trials, Monte Carlo and ``model`` draw from it."""
    return stream.generator(np.random.SFC64)


def uniform(stream: RngStream, size=None, out=None) -> np.ndarray:
    """Uniform deviates in [0, 1) from the stream's SFC64 generator, of shape
    ``size`` or into a C-contiguous ``out``, with the bits of its shape."""
    return sample_generator(stream).random(size, out=out)


def standard_normal(stream: RngStream, size=None, out=None) -> np.ndarray:
    """Standard normal deviates by the ziggurat on the stream's SFC64
    generator, of shape ``size`` or into a C-contiguous ``out``."""
    return sample_generator(stream).standard_normal(size, out=out)


def inverse_cdf_normal(stream: RngStream, size) -> np.ndarray:
    """Standard normal deviates as the inverse CDF of the stream's Philox
    uniforms: the draw of the sweep's model matrices, kept as it was."""
    u = stream.generator().random(size)
    return ndtri(np.maximum(u, _U_MIN, out=u), out=u)
