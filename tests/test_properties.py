"""Property tests (hypothesis) of the rounding success probabilities:
the L <-> U mirror symmetry that pattern folding rests on, folding against
the unfolded pattern sum, and independence from the worker count."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxdet.gaussbox import IntegratorConfig, IntegratorMethod
from boxdet.model import BoundaryTag, BoxConstraint
from boxdet.rng import RngStream
from boxdet.success import _pattern_choices, p_br_deterministic, p_br_uniform

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


@settings(max_examples=25, deadline=None)
@given(r=well_conditioned(), sigma=SIGMAS, data=st.data())
def test_folded_uniform_equals_unfolded_sum(r, sigma, data):
    n = r.shape[0]
    lower = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    widths = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    box = BoxConstraint(lower, lower + widths)
    total = 0.0
    for combo in itertools.product(*_pattern_choices(box)):
        weight = np.prod([count for _, count in combo])
        pattern = tuple(tag for tag, _ in combo)
        total += weight * p_br_deterministic(r, sigma, pattern, QUAD).value
    folded = p_br_uniform(r, sigma, box, QUAD).value
    assert folded == pytest.approx(total / box.num_points(), rel=1e-12, abs=1e-15)


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
