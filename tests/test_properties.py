"""Property tests (hypothesis): the L <-> U mirror symmetry of the rounding
success probability, the uniform-case quadrature against the sum of its
pattern integrals taken one at a time, independence from the worker count,
the pattern-free Babai bounds, and the two detector kernels (output in the
box, and equal to the ordinary detector, bounds of +-inf, when the clamp
never acts)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdet.detectors import babai_batch, rounding_batch
from boxdet.gaussbox import IntegratorConfig, IntegratorMethod
from boxdet.model import BoundaryTag, BoxConstraint
from boxdet.rng import RngStream
from boxdet.success import (
    p_bb_bounds,
    p_bb_deterministic,
    p_br_deterministic,
    p_br_uniform,
)

# Quadrature nodes per axis: the properties below are exact identities of
# the quadrature rule, so a coarse rule tests them as well as a fine one.
QUAD = IntegratorConfig(method=IntegratorMethod.QUADRATURE, quad_points=24)
QMC = IntegratorConfig(method=IntegratorMethod.SEQ_QMC, samples=2048)
MIRROR = {
    BoundaryTag.LOWER: BoundaryTag.UPPER,
    BoundaryTag.UPPER: BoundaryTag.LOWER,
    BoundaryTag.INTERIOR: BoundaryTag.INTERIOR,
    BoundaryTag.SINGLETON: BoundaryTag.SINGLETON,
}
SIGMAS = st.floats(0.2, 1.5)


@st.composite
def well_conditioned(draw):
    """Upper-triangular R of dimension <= 3 with diagonal in [0.7, 1.5]
    and small off-diagonal entries."""
    n = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    r = np.triu(rng.uniform(-0.3, 0.3, (n, n)))
    r[np.diag_indices(n)] = rng.uniform(0.7, 1.5, n)
    return r


@settings(max_examples=40, deadline=None)
@given(r=well_conditioned(), sigma=SIGMAS, data=st.data())
def test_mirror_symmetry(r, sigma, data):
    tags = st.sampled_from([BoundaryTag.LOWER, BoundaryTag.INTERIOR, BoundaryTag.UPPER])
    pattern = tuple(data.draw(st.lists(tags, min_size=r.shape[0], max_size=r.shape[0])))
    mirror = tuple(MIRROR[t] for t in pattern)
    value = p_br_deterministic(r, sigma, pattern, QUAD).value
    assert p_br_deterministic(r, sigma, mirror, QUAD).value == pytest.approx(
        value, rel=1e-12, abs=1e-15)


def _pattern_average(r, sigma, box):
    """Independent oracle: the average of the rounding success over the box
    points, grouped by boundary pattern.  A width-w coordinate has one lower
    point, w - 1 interior points and one upper point; width 0 is a
    singleton."""
    options = [[(BoundaryTag.SINGLETON, 1)] if w == 0 else
               [(BoundaryTag.LOWER, 1), (BoundaryTag.INTERIOR, w - 1), (BoundaryTag.UPPER, 1)]
               for w in (int(w) for w in box.widths)]
    total = 0.0
    for combo in itertools.product(*options):
        weight = np.prod([count for _, count in combo])
        if weight:
            pattern = tuple(tag for tag, _ in combo)
            total += weight * p_br_deterministic(r, sigma, pattern, QUAD).value
    return total / math.prod(int(w) + 1 for w in box.widths)


@settings(max_examples=25, deadline=None)
@given(r=well_conditioned(), sigma=SIGMAS, data=st.data())
def test_uniform_quadrature_equals_pattern_sum(r, sigma, data):
    n = r.shape[0]
    lower = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    widths = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    box = BoxConstraint(lower, lower + widths)
    uniform = p_br_uniform(r, sigma, box, QUAD).value
    assert uniform == pytest.approx(_pattern_average(r, sigma, box), rel=1e-12, abs=1e-15)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sigma=st.floats(0.1, 0.5),
       widths=st.lists(st.integers(1, 3), min_size=6, max_size=6))
def test_uniform_identical_across_thread_counts(seed, sigma, widths):
    rng = np.random.default_rng(seed)
    r = np.triu(rng.standard_normal((6, 6)))
    r[np.diag_indices(6)] = rng.uniform(0.5, 2.0, 6)
    box = BoxConstraint(np.zeros(6, dtype=int), widths)
    outputs = []
    with pytest.MonkeyPatch.context() as patch:
        for threads in ("1", "2"):
            patch.setenv("BOXDET_THREADS", threads)
            outputs.append(repr(p_br_uniform(r, sigma, box, QMC, RngStream(seed))))
    assert outputs[0] == outputs[1]


@settings(max_examples=60, deadline=None)
@given(r=well_conditioned(), sigma=st.floats(0.05, 5.0))
def test_babai_bounds_sandwich_every_pattern(r, sigma):
    lower, upper = p_bb_bounds(r, sigma)
    tags = (BoundaryTag.LOWER, BoundaryTag.INTERIOR, BoundaryTag.UPPER)
    for pattern in itertools.product(tags, repeat=r.shape[0]):
        p = p_bb_deterministic(r, sigma, pattern)
        assert lower * (1 - 1e-12) <= p <= upper * (1 + 1e-12)


@st.composite
def detector_batches(draw):
    """(R, ytilde batch, box): R of dimension <= 5 with arbitrary
    off-diagonal entries; a third of the batches put the rounding statistic
    d = R^{-1} ytilde on exact half-integers, where the tie rule acts."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = np.triu(rng.uniform(-2.0, 2.0, (n, n)))
    r[np.diag_indices(n)] = rng.uniform(0.3, 2.5, n)
    if draw(st.integers(0, 2)) == 0:
        r = np.diag(rng.integers(1, 4, n).astype(float))
        ytilde = (rng.integers(-8, 8, (count, n)) + 0.5) @ r.T
    else:
        ytilde = rng.normal(0.0, draw(st.floats(0.1, 20.0)), (count, n))
    lower = rng.integers(-4, 3, n)
    box = BoxConstraint(lower, lower + rng.integers(0, 5, n))
    return r, ytilde, box


@pytest.mark.parametrize("kernel", [rounding_batch, babai_batch])
@settings(max_examples=60, deadline=None)
@given(instance=detector_batches())
def test_detector_output_in_box(kernel, instance):
    r, ytilde, box = instance
    x = kernel(r, ytilde, box.lower, box.upper)
    assert x.shape == ytilde.shape
    assert np.all(x == np.round(x))
    assert np.all((x >= box.lower) & (x <= box.upper))


@pytest.mark.parametrize("kernel", [rounding_batch, babai_batch])
@settings(max_examples=60, deadline=None)
@given(instance=detector_batches(), margin=st.integers(0, 2))
def test_wide_box_equals_ordinary_detector(kernel, instance, margin):
    r, ytilde, _ = instance
    unbounded = np.full(r.shape[0], np.inf)
    free = kernel(r, ytilde, -unbounded, unbounded)
    # Every unclamped output lies inside, so the clamp never acts.
    lower, upper = free.min(axis=0) - margin, free.max(axis=0) + margin
    np.testing.assert_array_equal(kernel(r, ytilde, lower, upper), free)
