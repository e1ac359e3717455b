"""Small math helpers used throughout the hot simulation loop.

These are deliberately plain functions over floats (no NumPy): the
closed-loop platform steps at 100 Hz over small scalar states, where NumPy
call overhead dominates actual arithmetic.
"""

from __future__ import annotations

from typing import Sequence


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``.

    Raises:
        ValueError: if ``lo > hi``.
    """
    if lo > hi:
        raise ValueError(f"empty clamp interval: [{lo}, {hi}]")
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def rate_limit(current: float, target: float, max_delta: float) -> float:
    """Move ``current`` toward ``target`` by at most ``max_delta``.

    Models actuators (steering racks, brake pressure) that cannot jump to a
    commanded value instantaneously.

    Raises:
        ValueError: if ``max_delta`` is negative.
    """
    if max_delta < 0.0:
        raise ValueError(f"max_delta must be non-negative, got {max_delta}")
    delta = target - current
    if delta > max_delta:
        return current + max_delta
    if delta < -max_delta:
        return current - max_delta
    return target


def interp1d(x: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """Piecewise-linear interpolation of ``x`` over knots ``(xs, ys)``.

    ``xs`` must be strictly increasing.  Values outside the knot range are
    clamped to the boundary values (no extrapolation), matching how lookup
    tables behave in production controllers.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not xs:
        raise ValueError("empty knot table")
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    # Binary search would be overkill for the 3-5 knot tables used here.
    for i in range(1, len(xs)):
        if x <= xs[i]:
            x0, x1 = xs[i - 1], xs[i]
            y0, y1 = ys[i - 1], ys[i]
            t = (x - x0) / (x1 - x0)
            return y0 + t * (y1 - y0)
    return ys[-1]

