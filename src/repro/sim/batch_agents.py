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

Trigger latches (``behavior.triggered``) and lateral targets live in
persistent full-width arrays indexed by a global actor id, so re-binding
to a different active-lane subset (lanes finish independently) loses
nothing.  On the rare step a trigger flips, the flag is written through
to the behaviour object so the objects never go stale; ``accel_cmd`` and
``d_target`` are scattered back every step by
:meth:`repro.sim.batch_state.BatchDynamics.step` alongside the kinematic
state.  Behaviour *parameters* are frozen into arrays at construction —
the same "fixed after scenario build" contract the batch dynamics already
places on agent lists.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.agents import behavior_kind
from repro.sim.world import World
from repro.utils.npmath import np_clamp as _np_clamp

#: Registry kinds with a vectorized fast path, in dispatch order.
_KINDS = ("cruise", "speed_change", "sudden_stop", "cut_in", "lane_change_away")


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
        worlds: the per-episode worlds, in batch-lane order.  The global
            actor layout (lane-major, agent order) must match the flat
            actor layout :class:`~repro.sim.batch_state.BatchDynamics`
            builds for the same worlds.

    Raises:
        ValueError: naming the first lane :func:`behavior_refusal`
            refuses, and why.
    """

    def __init__(self, worlds: Sequence[World]) -> None:
        actors = []
        behaviors = []
        lane_first: List[int] = []
        lane_count: List[int] = []
        for lane, world in enumerate(worlds):
            why = behavior_refusal(world)
            if why is not None:
                raise ValueError(f"lane {lane} cannot join the lockstep: {why}")
            lane_first.append(len(actors))
            lane_count.append(len(world.agents))
            for binding in world.agents:
                actors.append(binding.actor)
                behaviors.append(binding.behavior)
        self._behaviors = behaviors
        self._lane_first = lane_first
        self._lane_count = lane_count
        n = len(actors)

        # Persistent per-actor state (global index): current commands and
        # trigger latches.  Commands are seeded from the objects so None
        # behaviours (which never write) keep their initial values, exactly
        # as in the scalar loop.
        self._accel = np.array([a.accel_cmd for a in actors], dtype=float)
        self._d_target = np.array([a.d_target for a in actors], dtype=float)
        self._trig = np.array(
            [bool(getattr(beh, "triggered", False)) for beh in behaviors]
        )
        self._half_len = np.array([0.5 * a.params.length for a in actors])

        # Frozen behaviour parameters, one column set per fast-path kind.
        # Only rows of that kind are meaningful; everything else is 0.
        self._kind_id = np.full(n, -1, dtype=np.int8)
        self._p = {name: np.zeros(n) for name in (
            "c_speed", "c_gain",      # the (possibly nested) cruise loop
            "final", "rate",          # speed_change
            "decel",                  # sudden_stop
            "trigger_gap", "target_d",
        )}
        for gid, beh in enumerate(behaviors):
            if beh is None:
                continue
            kind = behavior_kind(beh)
            self._kind_id[gid] = _KINDS.index(kind)
            p = self._p
            if kind == "cruise":
                p["c_speed"][gid] = beh.speed
                p["c_gain"][gid] = beh.gain
                continue
            # Every triggered kind delegates to a nested CruiseBehavior
            # before / alongside its trigger branch.
            p["c_speed"][gid] = beh._cruise.speed
            p["c_gain"][gid] = beh._cruise.gain
            p["trigger_gap"][gid] = beh.trigger_gap
            if kind == "speed_change":
                p["final"][gid] = beh.final_speed
                p["rate"][gid] = beh.rate
            elif kind == "sudden_stop":
                p["decel"][gid] = beh.decel
            else:  # cut_in / lane_change_away
                p["target_d"][gid] = beh.target_d

        self._bkey: Optional[tuple] = None
        self._bound: Optional[SimpleNamespace] = None

    # ------------------------------------------------------------------ #
    # Active-set binding
    # ------------------------------------------------------------------ #

    def _bind(self, key: tuple) -> SimpleNamespace:
        """Row layouts for an active-lane subset (memoized, like the
        dynamics binding: the active set only changes when a lane ends)."""
        if key == self._bkey and self._bound is not None:
            return self._bound
        m = SimpleNamespace()
        g: List[int] = []
        for i in key:
            first = self._lane_first[i]
            g.extend(range(first, first + self._lane_count[i]))
        m.g = np.asarray(g, dtype=np.intp)
        kid = self._kind_id[m.g]
        m.kind_rows = [
            np.nonzero(kid == k)[0] for k in range(len(_KINDS))
        ]
        m.half_len = self._half_len[m.g]
        self._bkey = key
        self._bound = m
        return m

    # ------------------------------------------------------------------ #
    # One behaviour phase
    # ------------------------------------------------------------------ #

    def _cruise_accel(self, gk: np.ndarray, a_speed: np.ndarray) -> np.ndarray:
        """``CruiseBehavior.update``: clamp(gain * (speed - v), -2, 2)."""
        p = self._p
        return _np_clamp(p["c_gain"][gk] * (p["c_speed"][gk] - a_speed), -2.0, 2.0)

    def update(self, b: SimpleNamespace, key: tuple) -> Tuple[np.ndarray, np.ndarray]:
        """Run one behaviour phase for the bound active set.

        Args:
            b: the dynamics binding for ``key`` (supplies the persistent
                kinematic arrays and the flat actor layout).
            key: the active-lane tuple.

        Returns:
            ``(accel_cmd, d_target)`` float64 arrays aligned with
            ``b.actors`` — the command state after this phase, identical
            to what the scalar loop would leave on the actor objects.
        """
        m = self._bind(key)
        g = m.g
        acc = self._accel
        d_tgt = self._d_target
        trig = self._trig
        p = self._p
        rows_cruise, rows_sc, rows_ss, rows_ci, rows_lc = m.kind_rows
        if rows_cruise.size or rows_sc.size or rows_ss.size or rows_ci.size or rows_lc.size:
            # bumper_gap(actor, ego) = actor.rear_s - ego.front_s, with the
            # scalar association: (a.s - 0.5*len) - (e.s + 0.5*len).
            ego_front = (b.s + b.ego_half_len)[b.flat_lane]
            gap = (b.a_s - m.half_len) - ego_front
            a_speed = b.a_speed

            if rows_cruise.size:
                gk = g[rows_cruise]
                acc[gk] = self._cruise_accel(gk, a_speed[rows_cruise])

            if rows_sc.size:
                gk = g[rows_sc]
                new_t = trig[gk] | (gap[rows_sc] < p["trigger_gap"][gk])
                error = p["final"][gk] - a_speed[rows_sc]
                changed = np.where(
                    np.abs(error) < 0.05,
                    0.0,
                    _np_clamp(error * 2.0, -p["rate"][gk], p["rate"][gk]),
                )
                acc[gk] = np.where(
                    new_t, changed, self._cruise_accel(gk, a_speed[rows_sc])
                )
                self._latch(gk, trig, new_t)

            if rows_ss.size:
                gk = g[rows_ss]
                new_t = trig[gk] | (gap[rows_ss] < p["trigger_gap"][gk])
                stopping = np.where(a_speed[rows_ss] > 0.0, -p["decel"][gk], 0.0)
                acc[gk] = np.where(
                    new_t, stopping, self._cruise_accel(gk, a_speed[rows_ss])
                )
                self._latch(gk, trig, new_t)

            if rows_ci.size:
                gk = g[rows_ci]
                acc[gk] = self._cruise_accel(gk, a_speed[rows_ci])
                fire = (gap[rows_ci] > 0.0) & (gap[rows_ci] < p["trigger_gap"][gk])
                new_t = trig[gk] | fire
                d_tgt[gk] = np.where(
                    new_t & ~trig[gk], p["target_d"][gk], d_tgt[gk]
                )
                self._latch(gk, trig, new_t)

            if rows_lc.size:
                gk = g[rows_lc]
                acc[gk] = self._cruise_accel(gk, a_speed[rows_lc])
                new_t = trig[gk] | (gap[rows_lc] < p["trigger_gap"][gk])
                d_tgt[gk] = np.where(
                    new_t & ~trig[gk], p["target_d"][gk], d_tgt[gk]
                )
                self._latch(gk, trig, new_t)

        return acc[g], d_tgt[g]

    def _latch(self, gk: np.ndarray, trig: np.ndarray, new_t: np.ndarray) -> None:
        """Commit trigger latches, writing newly-flipped flags through to
        the behaviour objects (rare: once per behaviour per episode)."""
        newly = new_t & ~trig[gk]
        trig[gk] = new_t
        if newly.any():
            for gid in gk[newly].tolist():
                self._behaviors[gid].triggered = True
