"""Vectorized agent-behaviour stepping for the batch engine.

:class:`BehaviorBatch` replaces the per-lane behaviour loop at the top of
``World.step`` (``binding.update(ego, time)`` per agent) with a
structure-of-arrays fast path over the closed built-in behaviour set from
:mod:`repro.sim.agents`.  Dispatch is keyed on *exact* behaviour type via
:func:`repro.sim.agents.behavior_kind`: every built-in kind's ``update``
is replicated as float64 array expressions (``np_clamp``/``np.where``
selections preserving the scalar branch structure, operand order and the
post-update trigger semantics), so the computed ``accel_cmd``/``d_target``
values are **bit-identical** to the object loop.

A world carrying any *unknown* behaviour — a third-party class, or a
subclass of a built-in (which may override ``update``) — has no array
twin: :func:`behavior_refusal` names it, the executor runs that lane on
the scalar loop from its first step, and :class:`BehaviorBatch` refuses
it.

Per-agent state lives in lane-by-slot arrays, packed like every other
lockstep array (see :class:`repro.sim.batch_state.LaneRegistry`): row
``i`` is the ``i``-th active lane and agent ``k`` of that lane sits in
slot ``k``, the layout of the dynamics' actor arrays, so an agent's
commands, trigger latch and frozen parameters follow its lane through a
compaction.  On the rare step a trigger flips, the flag is written
through to the behaviour object; ``accel_cmd`` and ``d_target`` reach
the actor objects with the kinematic state when
:meth:`repro.sim.batch_state.BatchDynamics.sync` writes the lane for a
scalar reader.  Behaviour *parameters* are frozen into arrays at
construction —
the same "fixed after scenario build" contract the batch dynamics already
places on agent lists.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sim.agents import behavior_kind
from repro.sim.world import World
from repro.utils.npmath import np_clamp as _np_clamp

#: Registry kinds with a vectorized fast path.  A slot's kind code is its
#: index here; the two lateral kinds come last.
_KINDS = ("cruise", "speed_change", "sudden_stop", "cut_in", "lane_change_away")
_CRUISE, _SPEED_CHANGE, _SUDDEN_STOP, _CUT_IN = range(4)


def behavior_refusal(world: World) -> Optional[str]:
    """Why :class:`BehaviorBatch` cannot step ``world``'s agents, or None.

    Only the registered kinds have an array twin; an agent whose
    behaviour :func:`~repro.sim.agents.behavior_kind` does not know is
    named with its behaviour class.
    """
    for binding in world.agents:
        behavior = binding.behavior
        if behavior is not None and behavior_kind(behavior) is None:
            return (
                f"agent {binding.actor.name!r} runs "
                f"{type(behavior).__name__}, a behaviour with no registered kind"
            )
    return None


class BehaviorBatch:
    """Lockstep behaviour updates for a fixed set of worlds.

    Args:
        worlds: the per-episode worlds, in batch-lane order.  Agent ``k``
            of lane ``i`` takes slot ``k`` of row ``i``, the slot layout
            of :class:`~repro.sim.batch_state.BatchDynamics`' actor
            arrays for the same worlds.

    Raises:
        ValueError: naming the first lane :func:`behavior_refusal`
            refuses, and why.
    """

    def __init__(self, worlds: Sequence[World]) -> None:
        for lane, world in enumerate(worlds):
            why = behavior_refusal(world)
            if why is not None:
                raise ValueError(f"lane {lane} cannot join the lockstep: {why}")
        #: Each lane's behaviours in agent order (trigger write-through).
        self._behaviors = [[b.behavior for b in w.agents] for w in worlds]
        n = len(worlds)
        shape = (n, max((len(w.agents) for w in worlds), default=0))

        #: This class's lane-axis arrays, ``(lanes, slots)`` each: the
        #: current commands and trigger latches, seeded from the objects
        #: so None behaviours (which never write) keep their initial
        #: values, exactly as in the scalar loop; the behaviour kind
        #: (:data:`_KINDS` index, -1 for none or an empty slot); and the
        #: frozen parameters, meaningful only in slots of a kind that
        #: reads them and 0 elsewhere.
        a = self.arrays = SimpleNamespace(
            accel=np.zeros(shape),
            d_target=np.zeros(shape),
            trig=np.zeros(shape, dtype=bool),
            kind=np.full(shape, -1, dtype=np.int8),
            c_speed=np.zeros(shape),      # the (possibly nested) cruise loop
            c_gain=np.zeros(shape),
            final=np.zeros(shape),        # speed_change
            rate=np.zeros(shape),
            decel=np.zeros(shape),        # sudden_stop
            trigger_gap=np.zeros(shape),
            target_d=np.zeros(shape),     # cut_in / lane_change_away
        )
        for i, world in enumerate(worlds):
            for k, binding in enumerate(world.agents):
                beh = binding.behavior
                a.accel[i, k] = binding.actor.accel_cmd
                a.d_target[i, k] = binding.actor.d_target
                a.trig[i, k] = bool(getattr(beh, "triggered", False))
                if beh is None:
                    continue
                kind = behavior_kind(beh)
                a.kind[i, k] = _KINDS.index(kind)
                # Every triggered kind delegates to a nested CruiseBehavior
                # before / alongside its trigger branch.
                cruise = beh if kind == "cruise" else beh._cruise
                a.c_speed[i, k] = cruise.speed
                a.c_gain[i, k] = cruise.gain
                if kind == "cruise":
                    continue
                a.trigger_gap[i, k] = beh.trigger_gap
                if kind == "speed_change":
                    a.final[i, k] = beh.final_speed
                    a.rate[i, k] = beh.rate
                elif kind == "sudden_stop":
                    a.decel[i, k] = beh.decel
                else:  # cut_in / lane_change_away
                    a.target_d[i, k] = beh.target_d

    # ------------------------------------------------------------------ #
    # One behaviour phase
    # ------------------------------------------------------------------ #

    def update(
        self, lanes: Sequence[int], gap: np.ndarray, a_speed: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one behaviour phase for the active lanes.

        Each kind's ``update`` is evaluated in every slot and selected by
        the slot's kind, so a selected value is the scalar expression on
        the same operands.

        Args:
            lanes: the global ids of the packed rows, in row order.
            gap: ``bumper_gap(actor, ego)`` per slot.
            a_speed: actor speed per slot.

        Returns:
            ``(accel_cmd, d_target)`` per slot — the command state after
            this phase, identical to what the scalar loop would leave on
            the actor objects.
        """
        a = self.arrays
        kind = a.kind
        trig = a.trig
        # CruiseBehavior.update: clamp(gain * (speed - v), -2, 2).
        cruise = _np_clamp(a.c_gain * (a.c_speed - a_speed), -2.0, 2.0)
        near = gap < a.trigger_gap
        fire = np.where(kind == _CUT_IN, (gap > 0.0) & near, near)
        new_t = trig | (fire & (kind > _CRUISE))
        error = a.final - a_speed
        changed = np.where(
            np.abs(error) < 0.05, 0.0, _np_clamp(error * 2.0, -a.rate, a.rate)
        )
        stopping = np.where(a_speed > 0.0, -a.decel, 0.0)
        a.accel = np.where(
            new_t & (kind == _SPEED_CHANGE),
            changed,
            np.where(
                new_t & (kind == _SUDDEN_STOP),
                stopping,
                np.where(kind >= _CRUISE, cruise, a.accel),
            ),
        )
        # Trigger latches: a lateral kind takes its target lane on the
        # step its trigger first fires; newly-flipped flags are written
        # through to the behaviour objects (rare: once per behaviour per
        # episode).
        newly = new_t & ~trig
        a.d_target = np.where(newly & (kind >= _CUT_IN), a.target_d, a.d_target)
        a.trig = new_t
        if newly.any():
            for row, slot in zip(*np.nonzero(newly)):
                self._behaviors[lanes[row]][slot].triggered = True
        return a.accel, a.d_target
