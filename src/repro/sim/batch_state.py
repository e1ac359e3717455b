"""Structure-of-arrays batch stepping: N worlds advance in lockstep.

:class:`BatchDynamics` replaces the per-object ``World.step`` hot loop for a
*batch* of episodes: per control tick it integrates every lane's dynamic
state (ego bicycle model, powertrain lag, traffic actors) as flat NumPy
arrays with vectorized float64 arithmetic, driven by the actuator
commands the control stack writes into its command arrays, and scatters
the state back onto the per-lane objects.  It then computes the pure world
queries the control stack reads every step — lead selection for each
sensor corridor, lane-line distances, look-ahead road curvature, the
cut-in screen — for all lanes at once into
:attr:`BatchDynamics.control_view`, the lockstep's only copy of them.
Scalar callers (hazard-flagged lanes, lanes handed off to the scalar loop)
run the world's own queries on the synced objects.

The perception/control/safety stack is vectorized in
:mod:`repro.sim.batch_control`, which reads the control view.  The batch
path produces **bit-identical** episode results to the serial path:

* behaviours run through :class:`repro.sim.batch_agents.BehaviorBatch`,
  which replicates the built-in behaviour set as array expressions (a
  lane with any other behaviour never joins a lockstep); the resulting
  ``accel_cmd`` / ``d_target`` are scattered back onto the actors every
  step, exactly as in ``World.step``;
* the vectorized math uses only IEEE-754 elementwise operations
  (``+ - * / sqrt copysign abs`` and comparisons), which NumPy evaluates
  bit-identically to the scalar Python expressions they replace;
* transcendentals (``tan``/``sin``/``cos``) are **not** IEEE-pinned across
  libm and SIMD implementations, so they stay per-lane ``math`` calls;
* branch constructs (``clamp``, ``rate_limit``, guarded ``sqrt``,
  ``interp1d``, the lead-selection scan) are replicated with ``np.where``
  selections that preserve the exact branch semantics, including
  signed-zero behaviour and first/best-match ordering;
* collision / departure detection calls the world's own detectors, so
  event construction and latch ordering cannot drift.

The speedup comes from amortising Python bytecode and function-call
overhead of the per-step float math and world queries across all lanes at
once; see ``benchmarks/bench_platform_speed.py``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.batch_agents import BehaviorBatch
from repro.sim.sensors import CUT_IN_GAP_RANGE, HUMAN_CORRIDOR, RADAR_CORRIDOR
from repro.sim.world import World
from repro.utils.npmath import (
    np_clamp as _np_clamp,
    np_rate_limit as _np_rate_limit,
    np_sqrt_pos as _np_sqrt_pos,
)
from repro.utils.units import G


class BatchDynamics:
    """Lockstep integrator for a fixed set of worlds.

    Args:
        worlds: the per-episode worlds.  Their parameter tables (vehicle,
            powertrain, road geometry, friction) are frozen into arrays at
            construction; their state is gathered when an active subset
            is bound and scattered back on every :meth:`step`, so lanes
            may be stepped in any active subset.
        curvature_lookaheads: per-lane perception curvature look-ahead [m]
            (``GroundTruthSensor.road_curvature``'s argument).
        radar_leads: also compute the independent-radar lead corridor
            (an AEBS INDEPENDENT lane is present).
        human_leads: also compute the human-vision lead corridor (a
            driver model is present).

    Raises:
        ValueError: on an empty batch or a non-positive friction ``mu``
            (the same condition ``EgoVehicle.step`` rejects).
    """

    def __init__(
        self,
        worlds: Sequence[World],
        curvature_lookaheads: Sequence[float],
        *,
        radar_leads: bool = False,
        human_leads: bool = False,
    ) -> None:
        if not worlds:
            raise ValueError("BatchDynamics needs at least one world")
        self.worlds: List[World] = list(worlds)
        for world in self.worlds:
            if world.friction.mu <= 0.0:
                raise ValueError(f"mu must be positive, got {world.friction.mu}")
        egos = [w.ego for w in self.worlds]
        n = len(egos)

        self._mu = np.array([w.friction.mu for w in self.worlds])
        self._wheelbase = np.array([e.params.wheelbase for e in egos])
        self._adas_rate = np.array([e.params.adas_steer_rate for e in egos])
        self._driver_rate = np.array([e.params.driver_steer_rate for e in egos])
        self._lat_frac = np.array([e.params.lateral_friction_fraction for e in egos])
        self._emergency_decel = np.array([e.EMERGENCY_BRAKE_DECEL for e in egos])
        self._ego_half_len = np.array([0.5 * e.params.length for e in egos])
        self._ego_half_wid = np.array([0.5 * e.params.width for e in egos])

        pt = [e.powertrain.params for e in egos]
        knot_count = max(len(p.engine_speed_knots) for p in pt)
        # Knot tables are padded to a shared width: +inf speeds with the
        # last acceleration value repeated, which is exactly the clamped
        # out-of-range behaviour of ``mathx.interp1d``.
        eng_xs = np.full((n, knot_count), np.inf)
        eng_ys = np.zeros((n, knot_count))
        for i, params in enumerate(pt):
            k = len(params.engine_speed_knots)
            eng_xs[i, :k] = params.engine_speed_knots
            eng_ys[i, :k] = params.engine_accel_knots
            eng_ys[i, k:] = params.engine_accel_knots[-1]
        self._eng_xs = eng_xs
        self._eng_ys = eng_ys
        self._eng_x_last = np.array([p.engine_speed_knots[-1] for p in pt])
        self._eng_y_last = np.array([p.engine_accel_knots[-1] for p in pt])
        self._max_brake = np.array([p.max_brake_decel for p in pt])
        self._brake_lag = np.array([p.brake_lag for p in pt])
        self._roll_res = np.array([p.rolling_resistance for p in pt])
        self._drag_coef = np.array([p.drag_coefficient for p in pt])

        roads = [w.road for w in self.worlds]
        seg_count = max(len(r.segments) for r in roads)
        # Segment-start tables padded with +inf so padded columns never
        # match the ``start <= s`` count used to replicate bisect_right.
        starts = np.full((n, seg_count), np.inf)
        curv = np.zeros((n, seg_count))
        for i, road in enumerate(roads):
            k = len(road.segments)
            starts[i, :k] = road._starts
            curv[i, :k] = [seg.curvature for seg in road.segments]
            curv[i, k:] = road.segments[-1].curvature
        self._seg_starts = starts
        self._seg_curv = curv
        self._seg_n = np.array([len(r.segments) for r in roads])
        self._road_len = np.array([r.length for r in roads])
        self._lane_width = np.array([r.lane_width for r in roads])
        self._max_lane = np.array([float(r.num_lanes - 1) for r in roads])

        # Traffic actor slots (agent lists are fixed after scenario build).
        self._actors_by_lane = [[b.actor for b in w.agents] for w in self.worlds]
        # Vectorized behaviour updates.
        self.behaviors = BehaviorBatch(self.worlds)

        # Lead corridors computed each step, by name: the sensor's (also
        # the hazard monitor's ``world.lead_actor()``), plus the radar and
        # human corridors when some lane reads them.
        self._lead_range = np.array([float(w.LEAD_RANGE) for w in self.worlds])
        self._corridors = {
            "sensor": np.array([float(w.LEAD_CORRIDOR) for w in self.worlds])
        }
        if radar_leads:
            self._corridors["radar"] = np.full(n, RADAR_CORRIDOR)
        if human_leads:
            self._corridors["human"] = np.full(n, HUMAN_CORRIDOR)
        self._curv_la = np.array([float(v) for v in curvature_lookaheads])

        #: Latched actuator commands by lane, the array twin of
        #: ``EgoVehicle.apply_controls``: the control stack writes them
        #: every tick and :meth:`step` reads them.  Zero until then, like a
        #: fresh ego's latch.
        self.accel_cmd = np.zeros(n)
        self.steer_cmd = np.zeros(n)
        self.driver_steering = np.zeros(n, dtype=bool)

        self._bound_key: Optional[tuple] = None
        self._bound: Optional[SimpleNamespace] = None
        #: World queries of the latest :meth:`step` or :meth:`prime`, as
        #: arrays over its active set (see :meth:`_update_view`).  ``None``
        #: until the first of them.
        self.control_view: Optional[SimpleNamespace] = None

    # ------------------------------------------------------------------ #
    # Active-set binding (constant tables gathered per active subset)
    # ------------------------------------------------------------------ #

    def _bind(self, lanes: Sequence[int]) -> SimpleNamespace:
        """Gather constant tables for an active-lane subset (memoized).

        The active set only changes when a lane finishes, so the fancy
        indexing here runs a handful of times per campaign instead of once
        per step.
        """
        key = tuple(lanes)
        if key == self._bound_key and self._bound is not None:
            return self._bound
        idx = np.asarray(key, dtype=np.intp)
        b = SimpleNamespace()
        b.idx = idx
        b.worlds = [self.worlds[i] for i in key]
        b.egos = [w.ego for w in b.worlds]
        b.mu_g = self._mu[idx] * G
        b.wheelbase = self._wheelbase[idx]
        b.adas_rate = self._adas_rate[idx]
        b.driver_rate = self._driver_rate[idx]
        b.lat_frac = self._lat_frac[idx]
        b.emergency_decel = self._emergency_decel[idx]
        b.ego_half_len = self._ego_half_len[idx]
        b.ego_half_wid = self._ego_half_wid[idx]
        b.eng_xs = self._eng_xs[idx]
        b.eng_ys = self._eng_ys[idx]
        b.eng_x_last = self._eng_x_last[idx]
        b.eng_y_last = self._eng_y_last[idx]
        b.max_brake = self._max_brake[idx]
        b.brake_lag = self._brake_lag[idx]
        b.roll_res = self._roll_res[idx]
        b.drag_coef = self._drag_coef[idx]
        b.seg_starts = self._seg_starts[idx]
        b.seg_curv = self._seg_curv[idx]
        b.seg_curv_flat = b.seg_curv.ravel()
        b.seg_row_offset = np.arange(len(key), dtype=np.intp) * b.seg_curv.shape[1]
        b.seg_last = self._seg_n[idx] - 1
        b.road_len = self._road_len[idx]
        b.lane_width = self._lane_width[idx]
        b.half_lane = 0.5 * b.lane_width
        b.max_lane = self._max_lane[idx]

        # Flat actor layout + padded slot tables for the lead queries.
        b.actors = []
        flat_lane: List[int] = []
        flat_slot: List[int] = []
        for j, i in enumerate(key):
            for slot, actor in enumerate(self._actors_by_lane[i]):
                b.actors.append(actor)
                flat_lane.append(j)
                flat_slot.append(slot)
        n_active = len(key)
        b.max_slots = max(
            (len(self._actors_by_lane[i]) for i in key), default=0
        )
        b.flat_lane = np.asarray(flat_lane, dtype=np.intp)
        b.flat_slot = np.asarray(flat_slot, dtype=np.intp)
        b.actor_limit = b.mu_g[b.flat_lane]
        b.valid = np.zeros((n_active, b.max_slots), dtype=bool)
        b.slot_len = np.zeros((n_active, b.max_slots))
        b.slot_wid = np.zeros((n_active, b.max_slots))
        if b.actors:
            b.valid[b.flat_lane, b.flat_slot] = True
            b.slot_len[b.flat_lane, b.flat_slot] = [
                a.params.length for a in b.actors
            ]
            b.slot_wid[b.flat_lane, b.flat_slot] = [
                a.params.width for a in b.actors
            ]
        b.slot_half_len = 0.5 * b.slot_len
        b.slot_half_wid = 0.5 * b.slot_wid
        b.actor_rate = np.array([a.lane_change_rate for a in b.actors])

        # Departure-test bounds, pre-combined with the per-world margin
        # using the same arithmetic as ``World._detect_departure``.
        lane0 = [w.road.lane_bounds(0) for w in b.worlds]
        roadb = [w.road.road_bounds() for w in b.worlds]
        margin = np.array([w.OFF_LANE_MARGIN for w in b.worlds])
        b.off_lane_lo = np.array([bounds[0] for bounds in lane0]) - margin
        b.off_lane_hi = np.array([bounds[1] for bounds in lane0]) + margin
        b.road_right = np.array([bounds[0] for bounds in roadb])
        b.road_left = np.array([bounds[1] for bounds in roadb])

        # Detection latches mirroring each world's flags: once a lane has a
        # collision / both departure flags, its scalar detector would
        # short-circuit or be idempotent, so the batch test skips it.
        b.coll_open = np.array([w.collision is None for w in b.worlds])
        b.off_lane_latch = np.array([w.off_lane for w in b.worlds])
        b.off_road_latch = np.array([w.off_road for w in b.worlds])

        # Persistent dynamic-state arrays.  These fields are written *only*
        # by the integrate (the control stack writes the command arrays),
        # so within one binding they stay authoritative.
        b.steer = np.array([e.steer for e in b.egos])
        b.speed = np.array([e.speed for e in b.egos])
        b.s = np.array([e.s for e in b.egos])
        b.d = np.array([e.d for e in b.egos])
        b.psi = np.array([e.psi for e in b.egos])
        b.brake_decel = np.array([e.powertrain._brake_decel for e in b.egos])
        b.a_speed = np.array([a.speed for a in b.actors])
        b.a_s = np.array([a.s for a in b.actors])
        b.a_d = np.array([a.d for a in b.actors])

        b.lead_range = self._lead_range[idx]
        b.corridors = {name: corr[idx] for name, corr in self._corridors.items()}
        b.curv_la = self._curv_la[idx]

        self._bound_key = key
        self._bound = b
        return b

    # ------------------------------------------------------------------ #
    # Vectorized lookups
    # ------------------------------------------------------------------ #

    @staticmethod
    def _engine_accel(b: SimpleNamespace, speed: np.ndarray) -> np.ndarray:
        """``Powertrain.max_engine_accel`` for each active lane.

        Replicates ``mathx.interp1d`` exactly: boundary clamp first, then
        first-match segment selection with the same ``t = (x-x0)/(x1-x0)``
        arithmetic.
        """
        xs, ys = b.eng_xs, b.eng_ys
        out = b.eng_y_last.copy()
        done = speed >= b.eng_x_last
        low = ~done & (speed <= xs[:, 0])
        out = np.where(low, ys[:, 0], out)
        done |= low
        with np.errstate(invalid="ignore"):
            for i in range(1, xs.shape[1]):
                seg = ~done & (speed <= xs[:, i])
                x0, x1 = xs[:, i - 1], xs[:, i]
                y0, y1 = ys[:, i - 1], ys[:, i]
                t = (speed - x0) / (x1 - x0)
                out = np.where(seg, y0 + t * (y1 - y0), out)
                done |= seg
        return out

    @staticmethod
    def _curvature(b: SimpleNamespace, s: np.ndarray) -> np.ndarray:
        """``Road.curvature_at`` for each active lane.

        ``bisect_right(starts, s) - 1`` equals the count of segment starts
        ``<= s`` minus one; the boundary overrides replicate
        ``segment_index_at``'s clamping.
        """
        seg_idx = np.sum(b.seg_starts <= s[:, None], axis=1) - 1
        seg_idx = np.where(s <= 0.0, 0, seg_idx)
        seg_idx = np.where(s >= b.road_len, b.seg_last, seg_idx)
        return b.seg_curv_flat[seg_idx + b.seg_row_offset]

    # ------------------------------------------------------------------ #
    # Lockstep advance
    # ------------------------------------------------------------------ #

    def step(self, lanes: Sequence[int], dt: float) -> None:
        """Advance the given lanes by ``dt`` (the batch ``World.step``).

        Order per lane is identical to ``World.step``: behaviours, ego
        integrate (on the latched :attr:`accel_cmd`, :attr:`steer_cmd` and
        :attr:`driver_steering`), actor integrate, time advance, collision
        detection, departure detection — then the control-view update.
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        b = self._bind(lanes)
        key = self._bound_key

        # Behaviours run *before* the integrate (they set the actor
        # commands the integrate consumes), exactly as World.step — but
        # vectorized over lanes.
        if b.actors:
            a_cmd_accel, a_cmd_dt = self.behaviors.update(b, key)

        # The dynamic state lives in the binding's persistent arrays.
        steer_cmd = self.steer_cmd[b.idx]
        accel_cmd = self.accel_cmd[b.idx]
        driver_steering = self.driver_steering[b.idx]
        steer = b.steer
        speed = b.speed
        s = b.s
        d = b.d
        psi = b.psi
        brake_decel = b.brake_decel
        mu_g = b.mu_g

        # -------- EgoVehicle.step, vectorized ------------------------- #
        steer_rate = np.where(driver_steering, b.driver_rate, b.adas_rate)
        steer = _np_rate_limit(steer, steer_cmd, steer_rate * dt)

        tan_steer = np.array([math.tan(v) for v in steer.tolist()])
        kappa_vehicle = tan_steer / b.wheelbase
        lat_demand = speed * speed * np.abs(kappa_vehicle)
        emergency = accel_cmd <= -b.emergency_decel
        brake_demand = np.minimum(-accel_cmd, mu_g * 0.97)
        lat_budget_sq = mu_g * mu_g - brake_demand * brake_demand
        lat_max = np.where(
            emergency, _np_sqrt_pos(lat_budget_sq), mu_g * b.lat_frac
        )
        understeer = (lat_demand > lat_max) & (speed > 0.1)
        denom_sq = np.where(understeer, speed * speed, 1.0)
        kappa_eff = np.where(
            understeer,
            np.copysign(lat_max / denom_sq, kappa_vehicle),
            kappa_vehicle,
        )
        lat_used = np.where(understeer, lat_max, lat_demand)

        # Powertrain.actuate.
        positive = accel_cmd >= 0.0
        engine = np.where(
            positive, np.minimum(accel_cmd, self._engine_accel(b, speed)), 0.0
        )
        target_brake = np.where(
            positive, 0.0, _np_clamp(-accel_cmd, 0.0, b.max_brake)
        )
        lag = np.where(target_brake > brake_decel, b.brake_lag, 0.5 * b.brake_lag)
        alpha = dt / (lag + dt)
        brake_decel = brake_decel + alpha * (target_brake - brake_decel)
        drag = b.roll_res + b.drag_coef * speed * speed
        drag = np.where((speed <= 0.01) & (engine <= 0.0), 0.0, drag)
        achieved = engine - brake_decel - drag

        # Friction circle on the longitudinal channel.
        long_budget_sq = mu_g * mu_g - lat_used * lat_used
        long_max = _np_sqrt_pos(long_budget_sq)
        hi = np.where(0.0 > long_max, 0.0, long_max)  # max(long_max, 0.0)
        achieved = _np_clamp(achieved, -long_max, hi)

        # Frenet integrate (semi-implicit Euler on speed).
        speed_next = speed + achieved * dt
        speed = np.where(speed_next > 0.0, speed_next, 0.0)
        k_road = self._curvature(b, s)
        denom = 1.0 - d * k_road
        denom = np.where(denom < 0.2, 0.2, denom)
        cos_psi = np.array([math.cos(v) for v in psi.tolist()])
        sin_psi = np.array([math.sin(v) for v in psi.tolist()])
        s_dot = speed * cos_psi / denom
        d_dot = speed * sin_psi
        psi_dot = speed * kappa_eff - k_road * s_dot
        s = s + s_dot * dt
        d = d + d_dot * dt
        psi = _np_clamp(psi + psi_dot * dt, -1.2, 1.2)

        b.steer = steer
        b.speed = speed
        b.s = s
        b.d = d
        b.psi = psi
        b.brake_decel = brake_decel

        # -------- scatter ego state ----------------------------------- #
        ego_out = np.stack(
            (steer, brake_decel, achieved, speed, s, d, psi), axis=1
        ).tolist()
        sliding = understeer.tolist()
        for j, ego in enumerate(b.egos):
            row = ego_out[j]
            ego.steer = row[0]
            ego.powertrain._brake_decel = row[1]
            ego.accel = row[2]
            ego.speed = row[3]
            ego.s = row[4]
            ego.d = row[5]
            ego.psi = row[6]
            ego.sliding = sliding[j]

        # -------- KinematicActor.step, vectorized (flat over lanes) --- #
        n_active = len(b.worlds)
        a_s_pad = np.zeros((n_active, b.max_slots))
        a_d_pad = np.zeros((n_active, b.max_slots))
        a_speed_pad = np.zeros((n_active, b.max_slots))
        a_dt_pad = np.zeros((n_active, b.max_slots))
        if b.actors:
            a_accel = _np_clamp(a_cmd_accel, -b.actor_limit, b.actor_limit)
            a_next = b.a_speed + a_accel * dt
            a_speed = np.where(a_next > 0.0, a_next, 0.0)
            a_s = b.a_s + a_speed * dt
            a_d = _np_rate_limit(b.a_d, a_cmd_dt, b.actor_rate * dt)
            b.a_speed = a_speed
            b.a_s = a_s
            b.a_d = a_d

            # The command columns ride along so the actor objects always
            # carry the behaviour outputs (scalar callers — cut-in scans,
            # re-binds, direct world queries — read them from the objects).
            a_out = np.stack(
                (a_accel, a_speed, a_s, a_d, a_cmd_accel, a_cmd_dt), axis=1
            ).tolist()
            for j, actor in enumerate(b.actors):
                row = a_out[j]
                actor.accel = row[0]
                actor.speed = row[1]
                actor.s = row[2]
                actor.d = row[3]
                actor.accel_cmd = row[4]
                actor.d_target = row[5]
            a_s_pad[b.flat_lane, b.flat_slot] = a_s
            a_d_pad[b.flat_lane, b.flat_slot] = a_d
            a_speed_pad[b.flat_lane, b.flat_slot] = a_speed
            a_dt_pad[b.flat_lane, b.flat_slot] = a_cmd_dt

        # -------- time advance ---------------------------------------- #
        for world in b.worlds:
            world.time += dt

        # -------- detection (vectorized test, scalar event path) ------ #
        # The batch evaluates exactly the detectors' comparisons; only
        # lanes whose test fires (rare) run the world's own detector, so
        # event construction / first-match ordering cannot drift.
        overlap = (
            b.valid
            & (np.abs(a_s_pad - s[:, None]) < b.ego_half_len[:, None] + b.slot_half_len)
            & (np.abs(a_d_pad - d[:, None]) < b.ego_half_wid[:, None] + b.slot_half_wid)
        )
        collide = b.coll_open & overlap.any(axis=1)
        for j in np.nonzero(collide)[0]:
            world = b.worlds[j]
            world._detect_collision()
            b.coll_open[j] = world.collision is None
        off_lane_now = (d < b.off_lane_lo) | (d > b.off_lane_hi)
        off_road_now = (d + b.ego_half_wid < b.road_right) | (
            d - b.ego_half_wid > b.road_left
        )
        departed = (off_lane_now & ~b.off_lane_latch) | (
            off_road_now & ~b.off_road_latch
        )
        for j in np.nonzero(departed)[0]:
            world = b.worlds[j]
            world._detect_departure()
            b.off_lane_latch[j] = world.off_lane
            b.off_road_latch[j] = world.off_road

        # -------- control view (pure queries, post-step) -------------- #
        self._update_view(
            b, s, d, speed, a_s_pad, a_d_pad, a_speed_pad, a_dt_pad
        )

    def prime(self, lanes: Sequence[int]) -> None:
        """Compute the :attr:`control_view` from the *current* (unstepped)
        state.

        The control phase runs before the first :meth:`step`, so the batch
        control stack's step-0 world queries come from here.
        """
        b = self._bind(lanes)
        n_active = len(b.worlds)
        a_s_pad = np.zeros((n_active, b.max_slots))
        a_d_pad = np.zeros((n_active, b.max_slots))
        a_speed_pad = np.zeros((n_active, b.max_slots))
        a_dt_pad = np.zeros((n_active, b.max_slots))
        if b.actors:
            a_s_pad[b.flat_lane, b.flat_slot] = b.a_s
            a_d_pad[b.flat_lane, b.flat_slot] = b.a_d
            a_speed_pad[b.flat_lane, b.flat_slot] = b.a_speed
            a_dt_pad[b.flat_lane, b.flat_slot] = [a.d_target for a in b.actors]
        self._update_view(
            b, b.s, b.d, b.speed, a_s_pad, a_d_pad, a_speed_pad, a_dt_pad
        )

    # ------------------------------------------------------------------ #
    # Per-step world queries
    # ------------------------------------------------------------------ #

    def _update_view(
        self,
        b: SimpleNamespace,
        s: np.ndarray,
        d: np.ndarray,
        speed: np.ndarray,
        a_s_pad: np.ndarray,
        a_d_pad: np.ndarray,
        a_speed_pad: np.ndarray,
        a_dt_pad: np.ndarray,
    ) -> None:
        """Vectorized replicas of the per-step pure world queries.

        Each lane's entries equal, bit for bit, what its objects give:
        ``world.lane_line_distances()`` (``dist_right``/``dist_left``, with
        the nearest lane's centre in ``lane_center``),
        ``sensor.road_curvature(lookahead)`` (``curvature``), the three
        lead corridors (``leads["sensor"]`` is ``world.lead_actor()``,
        ``"radar"`` ``sensor.radar_lead()`` and ``"human"``
        ``sensor.lead_human()``, each a ``valid``/``gap``/``speed``
        triple) and ``sensor.cut_in() is not None`` (``cut_in``).
        """
        n_active = len(b.worlds)

        # World.lane_line_distances (via Road.nearest_lane/lane_bounds).
        # ``<=`` turns rint's -0.0 (a slightly negative d) into the +0.0
        # of the scalar path's integer lane index.
        lane = np.rint(d / b.lane_width)
        lane = np.where(
            lane <= 0.0, 0.0, np.where(lane > b.max_lane, b.max_lane, lane)
        )
        center = lane * b.lane_width
        right = center - b.half_lane
        left = center + b.half_lane
        dist_right = (d - b.ego_half_wid) - right
        dist_left = left - (d + b.ego_half_wid)

        # Road.curvature_ahead at each lane's perception look-ahead.  All
        # six sample points (the s-anchor plus the five look-ahead probes)
        # go through one broadcast segment lookup; the accumulation below
        # keeps the serial loop's left-associative addition order.
        pts = np.stack([s] + [s + b.curv_la * (i + 0.5) / 5 for i in range(5)])
        seg_idx = np.sum(b.seg_starts[None] <= pts[..., None], axis=2) - 1
        seg_idx = np.where(pts <= 0.0, 0, seg_idx)
        seg_idx = np.where(pts >= b.road_len, b.seg_last, seg_idx)
        vals = b.seg_curv_flat[seg_idx + b.seg_row_offset]
        acc = 0.0 + vals[1]  # serial starts from acc = 0.0 (signed zero)
        for i in range(2, 6):
            acc = acc + vals[i]
        curvature = np.where(b.curv_la > 0.0, acc / 5, vals[0])

        # World.lead_actor for each computed corridor.
        ego_front = s + b.ego_half_len
        leads: Dict[str, SimpleNamespace] = {}
        for name, corridor in b.corridors.items():
            best_slot = np.full(n_active, -1, dtype=np.intp)
            best_gap = b.lead_range.copy()
            for j in range(b.max_slots):
                gap = (a_s_pad[:, j] - b.slot_half_len[:, j]) - ego_front
                sel = (
                    b.valid[:, j]
                    & ~(np.abs(a_d_pad[:, j] - d) > corridor)
                    & (gap > -b.slot_len[:, j])
                    & (gap < best_gap)
                )
                best_slot = np.where(sel, j, best_slot)
                best_gap = np.where(sel, np.where(gap > 0.0, gap, 0.0), best_gap)
            has_lead = best_slot >= 0
            slot_clip = np.where(has_lead, best_slot, 0)
            if b.max_slots:
                lead_speed = a_speed_pad[np.arange(n_active), slot_clip]
            else:
                lead_speed = np.zeros(n_active)
            # best_gap of a selected slot is exactly the measurement gap
            # (`max(0.0, rear_s - front_s)`) GroundTruthSensor computes.
            leads[name] = SimpleNamespace(
                valid=has_lead, gap=best_gap, speed=lead_speed
            )

        # GroundTruthSensor.cut_in screen: the exact per-agent predicate,
        # broadcast over agents x lanes and reduced with any().  cut_in()
        # returns the *first* matching agent, so "some agent matches" is
        # exactly "the scalar scan returns non-None".
        if b.max_slots:
            gap_all = (a_s_pad - b.slot_half_len) - (s + b.ego_half_len)[:, None]
            delta = a_dt_pad - a_d_pad
            cut_in = (
                b.valid
                & (np.abs(a_d_pad - d[:, None]) > b.half_lane[:, None])
                & (gap_all > -5.0)
                & (gap_all < CUT_IN_GAP_RANGE)
                & (delta * (d[:, None] - a_d_pad) > 0.0)
                & (np.abs(delta) > 0.3)
            ).any(axis=1)
        else:
            cut_in = np.zeros(n_active, dtype=bool)

        self.control_view = SimpleNamespace(
            key=self._bound_key,
            dist_right=dist_right,
            dist_left=dist_left,
            lane_center=center,
            curvature=curvature,
            leads=leads,
            cut_in=cut_in,
        )
