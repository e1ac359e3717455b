"""Unit tests for repro.utils.mathx."""

import pytest

from repro.utils.mathx import clamp, interp1d, rate_limit


class TestClamp:
    def test_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below(self):
        assert clamp(-3.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(7.0, 0.0, 1.0) == 1.0

    def test_degenerate_interval(self):
        assert clamp(5.0, 2.0, 2.0) == 2.0

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            clamp(0.0, 1.0, -1.0)


class TestRateLimit:
    def test_within_rate(self):
        assert rate_limit(0.0, 0.05, 0.1) == pytest.approx(0.05)

    def test_limited_up(self):
        assert rate_limit(0.0, 1.0, 0.1) == pytest.approx(0.1)

    def test_limited_down(self):
        assert rate_limit(0.0, -1.0, 0.1) == pytest.approx(-0.1)

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            rate_limit(0.0, 1.0, -0.1)


class TestInterp1d:
    def test_exact_knot(self):
        assert interp1d(10.0, [0.0, 10.0, 20.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_midpoint(self):
        assert interp1d(5.0, [0.0, 10.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_clamps_left(self):
        assert interp1d(-5.0, [0.0, 10.0], [1.0, 2.0]) == 1.0

    def test_clamps_right(self):
        assert interp1d(25.0, [0.0, 10.0], [1.0, 2.0]) == 2.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            interp1d(1.0, [0.0, 1.0], [0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            interp1d(1.0, [], [])

