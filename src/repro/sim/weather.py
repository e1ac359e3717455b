"""Road-friction (weather) conditions.

MetaDrive exposes no lighting interface usable with OpenPilot (the paper,
Section IV-E5), so — exactly like the paper — weather is modelled purely as
a road-friction scale factor:

* default (dry):      mu = 1.00   (full braking decelerates at ~1 g,
  matching the paper's ``t_fb = V / 9.8`` full-brake threshold)
* 25 % off (wet):     mu = 0.75
* 50 % off (heavy rain): mu = 0.50
* 75 % off (icy):     mu = 0.25

Friction caps both the achievable braking deceleration and the lateral
(cornering) acceleration through the vehicle model's friction circle, which
is what makes curvature attacks collapse on ice (the paper's Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.utils.units import G


@dataclass(frozen=True)
class FrictionCondition:
    """A named road-friction level.

    Attributes:
        name: human-readable label, also the campaign key.
        mu: friction coefficient scale (1.0 = dry asphalt).
    """

    name: str
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mu <= 1.2:
            raise ValueError(f"mu must be in (0, 1.2], got {self.mu}")

    @property
    def max_deceleration(self) -> float:
        """Maximum braking deceleration [m/s^2] on this surface."""
        return self.mu * G


#: The four conditions evaluated in the paper's Table VIII, keyed by the
#: labels used in that table.
FRICTION_CONDITIONS: Dict[str, FrictionCondition] = {
    "default": FrictionCondition("default", 1.0),
    "25% off": FrictionCondition("25% off", 0.75),
    "50% off": FrictionCondition("50% off", 0.50),
    "75% off": FrictionCondition("75% off", 0.25),
}
