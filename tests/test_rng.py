import numpy as np
import pytest
from scipy.special import ndtri

from boxdet import rng
from boxdet.errors import InvalidConfigError
from boxdet.rng import RngStream, standard_normal, uniform


class TestOut:
    """Drawing into ``out`` gives the bits of the size form."""

    @pytest.mark.parametrize("draw", [uniform, standard_normal])
    @pytest.mark.parametrize("shape", [(1, 1), (4095, 8), (3, 1000), (17,)])
    def test_out_equals_size_form(self, draw, shape):
        stream = RngStream(4, (1, 2))
        out = np.empty(shape)
        assert draw(stream, out=out) is out
        np.testing.assert_array_equal(out, draw(stream, shape))

    def test_two_streams_fill_row_slices_of_one_buffer(self):
        # The sweep's layout: uniforms and normals of several streams in
        # row slices of one (2, rows, n) buffer.
        streams = [RngStream(9, (1, k)) for k in range(3)]
        sizes = (4096, 4096, 1809)
        buffer = np.full((2, sum(sizes), 8), np.nan)
        first = 0
        for stream, size in zip(streams, sizes):
            rows = slice(first, first + size)
            uniform(stream.child(0), out=buffer[0, rows])
            standard_normal(stream.child(1), out=buffer[1, rows])
            first += size
        np.testing.assert_array_equal(buffer[0], np.concatenate(
            [uniform(s.child(0), (size, 8)) for s, size in zip(streams, sizes)]))
        np.testing.assert_array_equal(buffer[1], np.concatenate(
            [standard_normal(s.child(1), (size, 8)) for s, size in zip(streams, sizes)]))

    def test_zero_uniform_stays_finite_in_place(self, monkeypatch):
        # The matrix draw clips an exact 0 from random() to 2^-53 before the
        # inverse CDF.
        class Zeros:
            def random(self, size):
                return np.zeros(size)

        monkeypatch.setattr(RngStream, "generator", lambda self: Zeros())
        out = rng.inverse_cdf_normal(RngStream(1), 5)
        np.testing.assert_array_equal(out, np.full(5, ndtri(2.0 ** -53)))


def test_normals_drawn_in_parts_equal_one_draw():
    # Monte Carlo draws each 2^16-sample block in parts from one generator;
    # its bits rest on numpy filling consecutive draws in sequence.
    gen = rng.sample_generator(RngStream(33, (5,)))
    rows = [8192] * 7 + [1000] * 8 + [192]  # the last part partial
    assert sum(rows) == 65536
    parts = [gen.standard_normal((k, 8)) for k in rows]
    np.testing.assert_array_equal(np.concatenate(parts),
                                  standard_normal(RngStream(33, (5,)), (65536, 8)))


class TestSeed:
    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, False, -1, None])
    def test_refused_before_any_draw(self, seed):
        # InvalidConfigError is a ValueError, so the ValueError contract holds.
        with pytest.raises(InvalidConfigError, match="seed"):
            RngStream(seed)

    def test_numpy_integer_draws_as_its_value(self):
        np.testing.assert_array_equal(uniform(RngStream(np.int64(7), (1,)), 4),
                                      uniform(RngStream(7, (1,)), 4))
