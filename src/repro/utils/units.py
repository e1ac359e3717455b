"""Unit conversions and physical constants.

The library uses SI units internally everywhere: metres, seconds, m/s,
radians, and 1/m (curvature).  The paper quotes speeds in mph (NHTSA
scenarios), so the mph conversion lives here.
"""

from __future__ import annotations

#: Gravitational acceleration [m/s^2].  The paper's full-braking TTC
#: threshold is ``t_fb = V / 9.8`` (Eq. 4), i.e. full braking is assumed to
#: decelerate at exactly one ``g`` on dry asphalt, so we keep 9.8 here.
G = 9.8

#: Multiplicative factor converting miles-per-hour to metres-per-second.
MPH_TO_MS = 0.44704


def mph_to_ms(mph: float) -> float:
    """Convert a speed in miles per hour to metres per second."""
    return mph * MPH_TO_MS

