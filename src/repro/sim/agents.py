"""Lead-vehicle behaviour policies for the S1-S6 scenarios.

Each behaviour is attached to one :class:`~repro.sim.vehicle.KinematicActor`
and is ticked once per 100 Hz step with a view of the ego vehicle, setting
the actor's ``accel_cmd`` and ``d_target``.

Behaviours are deliberately simple, trigger-based state machines — exactly
how the paper scripts its NHTSA pre-collision scenarios (lead cruises, then
accelerates / decelerates / stops / cuts in when the ego closes in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple, Type

from repro.sim.vehicle import EgoVehicle, KinematicActor
from repro.utils.mathx import clamp


class Behavior(Protocol):
    """Policy interface: mutate ``actor`` given the ego state and time."""

    def update(self, actor: KinematicActor, ego: EgoVehicle, t: float) -> None:
        """Advance the policy one tick."""
        ...  # pragma: no cover - protocol definition


def bumper_gap(actor: KinematicActor, ego: EgoVehicle) -> float:
    """Bumper-to-bumper gap [m] from the ego front to the actor rear."""
    return actor.rear_s - ego.front_s


class CruiseBehavior:
    """Hold a constant speed with a gentle proportional speed loop."""

    def __init__(self, speed: float, gain: float = 0.5) -> None:
        if speed < 0.0:
            raise ValueError(f"speed must be non-negative, got {speed}")
        self.speed = speed
        self.gain = gain

    def update(self, actor: KinematicActor, ego: EgoVehicle, t: float) -> None:
        actor.accel_cmd = clamp(self.gain * (self.speed - actor.speed), -2.0, 2.0)


class SpeedChangeBehavior:
    """Cruise at ``initial_speed``; change to ``final_speed`` when triggered.

    The trigger fires the first time the bumper gap to the ego drops below
    ``trigger_gap`` (the paper's S2 "then accelerates" / S3 "then
    decelerates" events both happen as the ego closes in).

    Args:
        initial_speed: cruise speed before the trigger [m/s].
        final_speed: target speed after the trigger [m/s].
        trigger_gap: bumper gap that arms the change [m].
        rate: signed-magnitude acceleration used for the change [m/s^2].
    """

    def __init__(
        self,
        initial_speed: float,
        final_speed: float,
        trigger_gap: float,
        rate: float,
    ) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.initial_speed = initial_speed
        self.final_speed = final_speed
        self.trigger_gap = trigger_gap
        self.rate = rate
        self.triggered = False
        self._cruise = CruiseBehavior(initial_speed)

    def update(self, actor: KinematicActor, ego: EgoVehicle, t: float) -> None:
        if not self.triggered and bumper_gap(actor, ego) < self.trigger_gap:
            self.triggered = True
        if not self.triggered:
            self._cruise.update(actor, ego, t)
            return
        error = self.final_speed - actor.speed
        if abs(error) < 0.05:
            actor.accel_cmd = 0.0
        else:
            actor.accel_cmd = clamp(error * 2.0, -self.rate, self.rate)


class SuddenStopBehavior:
    """S4: cruise, then brake hard to a stop (obstacle ahead).

    Args:
        speed: cruise speed [m/s].
        trigger_gap: bumper gap to the ego that triggers the stop [m].
        decel: braking deceleration magnitude [m/s^2].
    """

    def __init__(self, speed: float, trigger_gap: float, decel: float) -> None:
        if decel <= 0.0:
            raise ValueError(f"decel must be positive, got {decel}")
        self.speed = speed
        self.trigger_gap = trigger_gap
        self.decel = decel
        self.triggered = False
        self._cruise = CruiseBehavior(speed)

    def update(self, actor: KinematicActor, ego: EgoVehicle, t: float) -> None:
        if not self.triggered and bumper_gap(actor, ego) < self.trigger_gap:
            self.triggered = True
        if self.triggered:
            actor.accel_cmd = -self.decel if actor.speed > 0.0 else 0.0
        else:
            self._cruise.update(actor, ego, t)


class CutInBehavior:
    """S5: cruise in the adjacent lane, then cut into the ego lane.

    The cut-in arms when the ego front bumper comes within ``trigger_gap``
    of the actor's rear bumper (the classic "merges into your headway"
    situation from the NHTSA typology).

    Args:
        speed: cruise speed [m/s].
        trigger_gap: longitudinal gap that triggers the lane change [m].
        target_d: lateral offset of the destination lane centre [m].
    """

    def __init__(self, speed: float, trigger_gap: float, target_d: float = 0.0) -> None:
        self.speed = speed
        self.trigger_gap = trigger_gap
        self.target_d = target_d
        self.triggered = False
        self._cruise = CruiseBehavior(speed)

    def update(self, actor: KinematicActor, ego: EgoVehicle, t: float) -> None:
        self._cruise.update(actor, ego, t)
        if not self.triggered and 0.0 < bumper_gap(actor, ego) < self.trigger_gap:
            self.triggered = True
            actor.d_target = self.target_d


class LaneChangeAwayBehavior:
    """S6: the nearer of two leads changes out of the ego lane.

    Args:
        speed: cruise speed [m/s].
        trigger_gap: gap to the ego that triggers the lane change [m].
        target_d: lateral offset of the destination (adjacent) lane [m].
    """

    def __init__(self, speed: float, trigger_gap: float, target_d: float) -> None:
        self.speed = speed
        self.trigger_gap = trigger_gap
        self.target_d = target_d
        self.triggered = False
        self._cruise = CruiseBehavior(speed)

    def update(self, actor: KinematicActor, ego: EgoVehicle, t: float) -> None:
        self._cruise.update(actor, ego, t)
        if not self.triggered and bumper_gap(actor, ego) < self.trigger_gap:
            self.triggered = True
            actor.d_target = self.target_d


class AgentBinding:
    """Pairs an actor with its behaviour for the world's step loop."""

    def __init__(self, actor: KinematicActor, behavior: Optional[Behavior]) -> None:
        self.actor = actor
        self.behavior = behavior

    def update(self, ego: EgoVehicle, t: float) -> None:
        """Tick the behaviour (if any)."""
        if self.behavior is not None:
            self.behavior.update(self.actor, ego, t)


# --------------------------------------------------------------------- #
# Behaviour registry (the ``ParamSpec``-shaped schema idiom from
# ``sim/families.py``, applied to behaviours)
# --------------------------------------------------------------------- #

#: The closed built-in behaviour set, by kind name.  Each entry maps the
#: kind to its class and the ordered constructor-parameter names, which is
#: what lets a behaviour round-trip through :class:`BehaviorSpec` (and
#: lets the batch engine freeze the parameters into arrays).  Third-party
#: behaviours are simply absent: :func:`behavior_kind` returns ``None``
#: for them, and the batch engine runs their lanes on the scalar loop
#: (:func:`repro.sim.batch_agents.behavior_refusal`).
BEHAVIOR_REGISTRY: Dict[str, Tuple[Type, Tuple[str, ...]]] = {
    "cruise": (CruiseBehavior, ("speed", "gain")),
    "speed_change": (
        SpeedChangeBehavior,
        ("initial_speed", "final_speed", "trigger_gap", "rate"),
    ),
    "sudden_stop": (SuddenStopBehavior, ("speed", "trigger_gap", "decel")),
    "cut_in": (CutInBehavior, ("speed", "trigger_gap", "target_d")),
    "lane_change_away": (
        LaneChangeAwayBehavior,
        ("speed", "trigger_gap", "target_d"),
    ),
}

_KIND_BY_TYPE: Dict[type, str] = {
    cls: kind for kind, (cls, _) in BEHAVIOR_REGISTRY.items()
}


@dataclass(frozen=True)
class BehaviorSpec:
    """Declarative form of a registered behaviour: kind + parameters.

    Only construction parameters are captured — trigger latches and other
    episode state stay on the live object.  ``params`` is an ordered
    ``(name, value)`` tuple so specs are hashable and digest-stable.
    """

    kind: str
    params: Tuple[Tuple[str, float], ...]


def behavior_kind(behavior: object) -> Optional[str]:
    """The registry kind of ``behavior``, or ``None`` for unknown types.

    The lookup is by *exact* type: a subclass may override ``update`` with
    arbitrary semantics, so it must not match its base class's fast path.
    """
    return _KIND_BY_TYPE.get(type(behavior))


def behavior_spec(behavior: object) -> Optional[BehaviorSpec]:
    """Extract the :class:`BehaviorSpec` of a registered behaviour."""
    kind = behavior_kind(behavior)
    if kind is None:
        return None
    _, names = BEHAVIOR_REGISTRY[kind]
    return BehaviorSpec(
        kind=kind, params=tuple((name, getattr(behavior, name)) for name in names)
    )


def build_behavior(spec: BehaviorSpec) -> Behavior:
    """Construct a fresh behaviour from its spec.

    Raises:
        KeyError: on an unregistered kind.
    """
    cls, _ = BEHAVIOR_REGISTRY[spec.kind]
    return cls(**dict(spec.params))
