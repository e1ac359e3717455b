"""Shared utilities: units, math helpers, RNG streams.

These modules are dependency-free (standard library + ``math`` only) so that
every other subpackage can import them without cycles.
"""

from repro.utils.units import G, MPH_TO_MS, mph_to_ms
from repro.utils.canonical import canonical_scalar
from repro.utils.mathx import clamp, interp1d, rate_limit
from repro.utils.rng import RngStreams, derive_seed

__all__ = [
    "G",
    "MPH_TO_MS",
    "mph_to_ms",
    "clamp",
    "interp1d",
    "rate_limit",
    "canonical_scalar",
    "RngStreams",
    "derive_seed",
]
