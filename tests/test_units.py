"""Unit tests for repro.utils.units."""

import pytest

from repro.utils.units import G, MPH_TO_MS, mph_to_ms


def test_g_matches_paper_full_brake_divisor():
    # Eq. 4 uses t_fb = V / 9.8, i.e. full braking decelerates at G.
    assert G == 9.8


def test_fifty_mph_value():
    assert mph_to_ms(50.0) == pytest.approx(22.352, abs=1e-3)


def test_thirty_mph_value():
    assert mph_to_ms(30.0) == pytest.approx(13.4112, abs=1e-3)


def test_mph_constant_consistency():
    assert mph_to_ms(1.0) == pytest.approx(MPH_TO_MS)

