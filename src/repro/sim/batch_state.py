"""Structure-of-arrays batch stepping: N worlds advance in lockstep.

:class:`BatchDynamics` replaces the per-object ``World.step`` hot loop for a
*batch* of episodes: per control tick it integrates every lane's dynamic
state (ego bicycle model, powertrain lag, traffic actors) as flat NumPy
arrays with vectorized float64 arithmetic, driven by the actuator
commands the control stack writes into its command arrays, and advances
one clock, :attr:`BatchDynamics.time`, for every lane.  It then computes
the pure world queries the control stack reads every step — lead
selection for each sensor corridor, lane-line distances, look-ahead road
curvature, the cut-in screen — for all lanes at once into
:attr:`BatchDynamics.control_view`, the lockstep's only copy of them.

The arrays are the lockstep's state; the per-lane objects are written only
where scalar code reads them.  :meth:`BatchDynamics.sync` writes a lane's
ego, traffic actors and ``world.time`` from the arrays, and runs before
every scalar reader: the world's collision or departure detector on a lane
whose vectorized test fired, the hazard monitor on a hazard-flagged lane,
and the control stack's ``retire`` (a finished lane, or one handed off to
the scalar loop).  Between syncs a lane's objects are stale.

Every lane-axis array of the lockstep is *packed*: row ``j`` belongs to
the ``j``-th active lane, and the ``lanes`` argument of the step methods
lists the global ids of the rows, in row order.  Each batch class keeps
its arrays in one namespace registered with the lockstep's
:class:`LaneRegistry`; when lanes retire, one
:meth:`LaneRegistry.compact` call keeps the survivors' rows of every
registered array, so a tick never gathers or scatters by lane id.  A
lane's traffic actors sit in the slots of its row (agent ``k`` in slot
``k``, unused slots masked off), so they follow their lane through a
compaction.

The perception/control/safety stack is vectorized in
:mod:`repro.sim.batch_control`, which reads the control view.  The batch
path produces **bit-identical** episode results to the serial path:

* behaviours run through :class:`repro.sim.batch_agents.BehaviorBatch`,
  which replicates the built-in behaviour set as array expressions (a
  lane with any other behaviour never joins a lockstep); the resulting
  ``accel_cmd`` / ``d_target`` reach the actors with the rest of a sync;
* the vectorized math uses only IEEE-754 elementwise operations
  (``+ - * / sqrt copysign abs`` and comparisons), which NumPy evaluates
  bit-identically to the scalar Python expressions they replace;
* transcendentals (``tan``/``sin``/``cos``) are **not** IEEE-pinned across
  libm and SIMD implementations, so they stay per-lane ``math`` calls;
* branch constructs (``clamp``, ``rate_limit``, guarded ``sqrt``,
  ``interp1d``, the lead-selection scan) are replicated with ``np.where``
  selections that preserve the exact branch semantics, including
  signed-zero behaviour and first/best-match ordering;
* collision / departure detection calls the world's own detectors on the
  synced lanes whose test fired, so event construction and latch ordering
  cannot drift.

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


class LaneRegistry:
    """Every lane-axis array of one lockstep, packed to its active lanes.

    Each batch class keeps its per-lane state in one namespace, its
    *table*, registered here.  A table holds only arrays whose first axis
    is the lockstep's current :attr:`width` (or dicts and namespaces of
    such arrays, or None), so that :meth:`compact` can keep the
    survivors' rows of all of them at once.

    Args:
        width: the lockstep's lane count at construction.
    """

    def __init__(self, width: int) -> None:
        #: Rows of every registered array (the active-lane count).
        self.width = width
        self._tables: List[SimpleNamespace] = []

    def add(self, table: SimpleNamespace) -> SimpleNamespace:
        """Register ``table`` and return it."""
        self._tables.append(table)
        return table

    def compact(self, rows: Sequence[int]) -> None:
        """Keep ``rows`` (row positions, in their new order) of every array.

        Raises:
            ValueError: naming a registered array whose first axis is not
                the lane axis.
        """
        take = np.asarray(rows, dtype=np.intp)
        for table in self._tables:
            for name, value in list(vars(table).items()):
                setattr(table, name, self._take(name, value, take))
        self.width = len(take)

    def _take(self, name: str, value, take: np.ndarray):
        if isinstance(value, np.ndarray):
            if value.shape[:1] != (self.width,):
                raise ValueError(
                    f"{name} has shape {value.shape}, not {self.width} lane rows"
                )
            return value[take]
        if isinstance(value, dict):
            return {k: self._take(f"{name}[{k!r}]", v, take) for k, v in value.items()}
        if isinstance(value, SimpleNamespace):
            return SimpleNamespace(
                **{k: self._take(f"{name}.{k}", v, take) for k, v in vars(value).items()}
            )
        if value is None:
            return None
        raise ValueError(f"{name} is a {type(value).__name__}, not a lane-axis array")


class BatchDynamics:
    """Lockstep integrator for a fixed set of worlds.

    Args:
        worlds: the per-episode worlds, all at one ``time``.  Their
            parameter tables (vehicle, powertrain, road geometry,
            friction) and their state are read into packed arrays at
            construction; :meth:`sync` writes a lane's state back.
        curvature_lookaheads: per-lane perception curvature look-ahead [m]
            (``GroundTruthSensor.road_curvature``'s argument).
        radar_leads: also compute the independent-radar lead corridor
            (an AEBS INDEPENDENT lane is present).
        human_leads: also compute the human-vision lead corridor and the
            cut-in screen, the driver model's inputs (a driver model is
            present).

    Raises:
        ValueError: on an empty batch, worlds at different times or a
            non-positive friction ``mu`` (the same condition
            ``EgoVehicle.step`` rejects).
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
        times = sorted({w.time for w in self.worlds})
        if len(times) > 1:
            raise ValueError(f"BatchDynamics needs worlds at one time, got {times}")
        #: The lockstep's one clock, every lane's ``world.time``: advanced
        #: by :meth:`step` with ``World.step``'s ``+= dt`` and written to a
        #: lane's world by :meth:`sync`.
        self.time = self.worlds[0].time
        egos = [w.ego for w in self.worlds]
        n = len(egos)

        #: The lockstep's lane-axis arrays; the control stack and the
        #: hazard screen register theirs here too.
        self.registry = LaneRegistry(n)
        #: Vectorized behaviour updates.
        self.behaviors = BehaviorBatch(self.worlds)
        self.registry.add(self.behaviors.arrays)
        #: This class's lane-axis arrays (see :class:`LaneRegistry`).
        a = self.arrays = self.registry.add(SimpleNamespace())

        # Per-lane constants, each combined once into the operand the step
        # reads (the same arithmetic the scalar step does every call).
        mu_g = np.array([w.friction.mu for w in self.worlds]) * G
        lat_frac = np.array([e.params.lateral_friction_fraction for e in egos])
        a.mu_g = mu_g
        a.neg_mu_g = -mu_g
        a.mu_g_sq = mu_g * mu_g
        a.brake_cap = mu_g * 0.97
        a.lat_cap = mu_g * lat_frac
        a.wheelbase = np.array([e.params.wheelbase for e in egos])
        a.adas_rate = np.array([e.params.adas_steer_rate for e in egos])
        a.driver_rate = np.array([e.params.driver_steer_rate for e in egos])
        a.emergency_cmd = -np.array([e.EMERGENCY_BRAKE_DECEL for e in egos])
        a.ego_half_len = np.array([0.5 * e.params.length for e in egos])
        a.ego_half_wid = np.array([0.5 * e.params.width for e in egos])

        pt = [e.powertrain.params for e in egos]
        knot_count = max(2, max(len(p.engine_speed_knots) for p in pt))
        # Knot tables are padded to a shared width of at least two: +inf
        # speeds with the last acceleration value repeated, which is
        # exactly the clamped out-of-range behaviour of ``mathx.interp1d``.
        a.eng_xs = np.full((n, knot_count), np.inf)
        a.eng_ys = np.zeros((n, knot_count))
        for i, params in enumerate(pt):
            k = len(params.engine_speed_knots)
            a.eng_xs[i, :k] = params.engine_speed_knots
            a.eng_ys[i, :k] = params.engine_accel_knots
            a.eng_ys[i, k:] = params.engine_accel_knots[-1]
        a.eng_x_last = np.array([p.engine_speed_knots[-1] for p in pt])
        a.eng_y_last = np.array([p.engine_accel_knots[-1] for p in pt])
        a.max_brake = np.array([p.max_brake_decel for p in pt])
        a.brake_lag = np.array([p.brake_lag for p in pt])
        a.release_lag = 0.5 * a.brake_lag
        a.roll_res = np.array([p.rolling_resistance for p in pt])
        a.drag_coef = np.array([p.drag_coefficient for p in pt])

        roads = [w.road for w in self.worlds]
        seg_count = max(len(r.segments) for r in roads)
        # Segment-start tables padded with +inf so padded columns never
        # match the ``start <= s`` count used to replicate bisect_right.
        a.seg_starts = np.full((n, seg_count), np.inf)
        a.seg_curv = np.zeros((n, seg_count))
        for i, road in enumerate(roads):
            k = len(road.segments)
            a.seg_starts[i, :k] = road._starts
            a.seg_curv[i, :k] = [seg.curvature for seg in road.segments]
            a.seg_curv[i, k:] = road.segments[-1].curvature
        a.seg_last = np.array([len(r.segments) - 1 for r in roads])
        a.road_len = np.array([r.length for r in roads])
        a.lane_width = np.array([r.lane_width for r in roads])
        a.half_lane = 0.5 * a.lane_width
        a.max_lane = np.array([float(r.num_lanes - 1) for r in roads])

        # Departure-test bounds, pre-combined with the per-world margin
        # using the same arithmetic as ``World._detect_departure``.
        lane0 = [r.lane_bounds(0) for r in roads]
        roadb = [r.road_bounds() for r in roads]
        margin = np.array([w.OFF_LANE_MARGIN for w in self.worlds])
        a.off_lane_lo = np.array([bounds[0] for bounds in lane0]) - margin
        a.off_lane_hi = np.array([bounds[1] for bounds in lane0]) + margin
        a.road_right = np.array([bounds[0] for bounds in roadb])
        a.road_left = np.array([bounds[1] for bounds in roadb])

        # Detection latches mirroring each world's flags: once a lane has a
        # collision / both departure flags, its scalar detector would
        # short-circuit or be idempotent, so the batch test skips it.
        a.coll_open = np.array([w.collision is None for w in self.worlds])
        a.off_lane_latch = np.array([w.off_lane for w in self.worlds])
        a.off_road_latch = np.array([w.off_road for w in self.worlds])

        # Lead corridors computed each step, one column each, named by
        # ``_corridor_names``: the sensor's (also the hazard monitor's
        # ``world.lead_actor()``), plus the radar and human corridors when
        # some lane reads them.
        a.lead_range = np.array([float(w.LEAD_RANGE) for w in self.worlds])
        columns = [np.array([float(w.LEAD_CORRIDOR) for w in self.worlds])]
        self._corridor_names = ["sensor"]
        if radar_leads:
            columns.append(np.full(n, RADAR_CORRIDOR))
            self._corridor_names.append("radar")
        if human_leads:
            columns.append(np.full(n, HUMAN_CORRIDOR))
            self._corridor_names.append("human")
        a.corridors = np.stack(columns, axis=1)
        # The cut-in screen's one reader is the driver model.
        self._cut_in = human_leads
        # Road.curvature_ahead's five probe offsets, `lookahead * (i +
        # 0.5) / 5`, per lane.
        curv_la = np.array([float(v) for v in curvature_lookaheads])
        a.curv_la = curv_la
        a.probe_offsets = np.stack([curv_la * (i + 0.5) / 5 for i in range(5)], axis=1)

        # Ego state.  Written *only* by the integrate (the control stack
        # writes the command arrays), so the arrays stay authoritative.
        a.steer = np.array([e.steer for e in egos])
        a.speed = np.array([e.speed for e in egos])
        a.s = np.array([e.s for e in egos])
        a.d = np.array([e.d for e in egos])
        a.psi = np.array([e.psi for e in egos])
        a.brake_decel = np.array([e.powertrain._brake_decel for e in egos])
        a.accel = np.array([e.accel for e in egos])
        a.sliding = np.array([e.sliding for e in egos])
        # sin(psi), read by the next integrate and by LDW.
        a.sin_psi = np.array([math.sin(e.psi) for e in egos])

        # Traffic actors: lane-by-slot tables, agent order within a lane
        # (agent lists are fixed after scenario build).
        self._actors = [[b.actor for b in w.agents] for w in self.worlds]
        slots = max(len(actors) for actors in self._actors)
        a.valid = np.zeros((n, slots), dtype=bool)
        slot_len = np.zeros((n, slots))
        slot_wid = np.zeros((n, slots))
        a.actor_rate = np.zeros((n, slots))
        a.a_accel = np.zeros((n, slots))
        a.a_speed = np.zeros((n, slots))
        a.a_s = np.zeros((n, slots))
        a.a_d = np.zeros((n, slots))
        for i, actors in enumerate(self._actors):
            for slot, actor in enumerate(actors):
                a.valid[i, slot] = True
                slot_len[i, slot] = actor.params.length
                slot_wid[i, slot] = actor.params.width
                a.actor_rate[i, slot] = actor.lane_change_rate
                a.a_accel[i, slot] = actor.accel
                a.a_speed[i, slot] = actor.speed
                a.a_s[i, slot] = actor.s
                a.a_d[i, slot] = actor.d
        a.slot_half_len = 0.5 * slot_len
        # A lead candidate's gap must exceed minus its length.
        a.neg_slot_len = -slot_len
        # The collision test's half-extent sums, ego + actor.
        a.coll_len = a.ego_half_len[:, None] + a.slot_half_len
        a.coll_wid = a.ego_half_wid[:, None] + 0.5 * slot_wid

        #: Latched actuator commands, the array twin of
        #: ``EgoVehicle.apply_controls``: the control stack writes them
        #: every tick and :meth:`step` reads them.  Zero until then, like a
        #: fresh ego's latch.
        a.accel_cmd = np.zeros(n)
        a.steer_cmd = np.zeros(n)
        a.driver_steering = np.zeros(n, dtype=bool)

        # The world queries of the latest step or prime (_update_view),
        # and the two the next integrate reads: the road curvature at
        # each ego's s and each actor's bumper gap to its ego.
        a.view = None
        a.k_road = self._curvature(a.s)
        a.gap = (a.a_s - a.slot_half_len) - (a.s + a.ego_half_len)[:, None]

    @property
    def control_view(self) -> Optional[SimpleNamespace]:
        """World queries of the latest :meth:`step` or :meth:`prime`, one
        row per active lane (see :meth:`_update_view`); None until the
        first of them."""
        return self.arrays.view

    def sync(self, row: int, lane: int) -> None:
        """Write lane ``lane``'s state, at packed row ``row``, onto its
        objects: the ego, its traffic actors and ``world.time``.

        The objects then hold what the serial path's ``World.step`` would
        have left, ready for a scalar reader (the world's detectors, the
        hazard monitor, the scalar loop after a hand-off).  Between syncs
        they are stale.
        """
        a = self.arrays
        world = self.worlds[lane]
        ego = world.ego
        ego.steer = float(a.steer[row])
        ego.powertrain._brake_decel = float(a.brake_decel[row])
        ego.accel = float(a.accel[row])
        ego.speed = float(a.speed[row])
        ego.s = float(a.s[row])
        ego.d = float(a.d[row])
        ego.psi = float(a.psi[row])
        ego.sliding = bool(a.sliding[row])
        actors = self._actors[lane]
        if actors:
            b = self.behaviors.arrays
            k = len(actors)
            columns = zip(
                a.a_accel[row, :k].tolist(),
                a.a_speed[row, :k].tolist(),
                a.a_s[row, :k].tolist(),
                a.a_d[row, :k].tolist(),
                b.accel[row, :k].tolist(),
                b.d_target[row, :k].tolist(),
            )
            for actor, (accel, speed, s, d, accel_cmd, d_target) in zip(
                actors, columns
            ):
                actor.accel = accel
                actor.speed = speed
                actor.s = s
                actor.d = d
                actor.accel_cmd = accel_cmd
                actor.d_target = d_target
        world.time = self.time

    # ------------------------------------------------------------------ #
    # Vectorized lookups
    # ------------------------------------------------------------------ #

    def _engine_accel(self, speed: np.ndarray) -> np.ndarray:
        """``Powertrain.max_engine_accel`` for each active lane.

        Replicates ``mathx.interp1d`` exactly: boundary clamp first, then
        the first knot ``i >= 1`` with ``speed <= xs[i]`` (one gather over
        the knot axis) and the same ``t = (x-x0)/(x1-x0)`` arithmetic.
        """
        a = self.arrays
        xs, ys = a.eng_xs, a.eng_ys
        done = speed >= a.eng_x_last
        low = ~done & (speed <= xs[:, 0])
        hit = speed[:, None] <= xs[:, 1:]
        rows = np.arange(len(speed))
        first = np.argmax(hit, axis=1)  # the first match's knot, minus one
        knot = first + 1
        x0, x1 = xs[rows, first], xs[rows, knot]
        y0, y1 = ys[rows, first], ys[rows, knot]
        with np.errstate(invalid="ignore"):
            t = (speed - x0) / (x1 - x0)
            inner = y0 + t * (y1 - y0)
        # ``hit[rows, first]`` is False only when no knot matched (a NaN
        # speed), where the scalar loop falls through to ``ys[-1]``.
        seg = ~done & ~low & hit[rows, first]
        return np.where(seg, inner, np.where(low, ys[:, 0], a.eng_y_last))

    def _curvature(self, s: np.ndarray) -> np.ndarray:
        """``Road.curvature_at`` for each active lane, at every entry of
        ``s`` (shape ``(..., lanes)``).

        ``bisect_right(starts, s) - 1`` equals the count of segment starts
        ``<= s`` minus one; the boundary overrides replicate
        ``segment_index_at``'s clamping.
        """
        a = self.arrays
        seg_idx = np.sum(a.seg_starts <= s[..., None], axis=-1) - 1
        seg_idx = np.where(s <= 0.0, 0, seg_idx)
        seg_idx = np.where(s >= a.road_len, a.seg_last, seg_idx)
        return a.seg_curv[np.arange(len(a.seg_curv)), seg_idx]

    # ------------------------------------------------------------------ #
    # Lockstep advance
    # ------------------------------------------------------------------ #

    def step(self, lanes: Sequence[int], dt: float) -> None:
        """Advance the active lanes by ``dt`` (the batch ``World.step``).

        ``lanes`` lists the global ids of the packed rows, in row order.
        Order per lane is identical to ``World.step``: behaviours, ego
        integrate (on the latched command arrays), actor integrate, time
        advance, collision detection, departure detection — then the
        control-view update.  Only the rows whose detector test fires are
        synced (:meth:`sync`) and run the world's own detector.
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        a = self.arrays
        has_slots = a.valid.shape[1] > 0

        # Behaviours run *before* the integrate (they set the actor
        # commands the integrate consumes), exactly as World.step — but
        # vectorized over lanes, on the bumper gaps of the last view.
        if has_slots:
            a_cmd_accel, a_cmd_dt = self.behaviors.update(lanes, a.gap, a.a_speed)

        steer_cmd = a.steer_cmd
        accel_cmd = a.accel_cmd
        speed = a.speed
        s = a.s
        d = a.d
        psi = a.psi
        brake_decel = a.brake_decel

        # -------- EgoVehicle.step, vectorized ------------------------- #
        steer_rate = np.where(a.driver_steering, a.driver_rate, a.adas_rate)
        steer = _np_rate_limit(a.steer, steer_cmd, steer_rate * dt)

        tan_steer = np.array([math.tan(v) for v in steer.tolist()])
        kappa_vehicle = tan_steer / a.wheelbase
        lat_demand = speed * speed * np.abs(kappa_vehicle)
        emergency = accel_cmd <= a.emergency_cmd
        brake_demand = np.minimum(-accel_cmd, a.brake_cap)
        lat_budget_sq = a.mu_g_sq - brake_demand * brake_demand
        lat_max = np.where(emergency, _np_sqrt_pos(lat_budget_sq), a.lat_cap)
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
            positive, np.minimum(accel_cmd, self._engine_accel(speed)), 0.0
        )
        target_brake = np.where(
            positive, 0.0, _np_clamp(-accel_cmd, 0.0, a.max_brake)
        )
        lag = np.where(target_brake > brake_decel, a.brake_lag, a.release_lag)
        alpha = dt / (lag + dt)
        brake_decel = brake_decel + alpha * (target_brake - brake_decel)
        drag = a.roll_res + a.drag_coef * speed * speed
        drag = np.where((speed <= 0.01) & (engine <= 0.0), 0.0, drag)
        achieved = engine - brake_decel - drag

        # Friction circle on the longitudinal channel.
        long_budget_sq = a.mu_g_sq - lat_used * lat_used
        long_max = _np_sqrt_pos(long_budget_sq)
        hi = np.where(0.0 > long_max, 0.0, long_max)  # max(long_max, 0.0)
        achieved = _np_clamp(achieved, -long_max, hi)

        # Frenet integrate (semi-implicit Euler on speed), on the road
        # curvature and sin(psi) of the current state.
        speed_next = speed + achieved * dt
        speed = np.where(speed_next > 0.0, speed_next, 0.0)
        k_road = a.k_road
        denom = 1.0 - d * k_road
        denom = np.where(denom < 0.2, 0.2, denom)
        cos_psi = np.array([math.cos(v) for v in psi.tolist()])
        s_dot = speed * cos_psi / denom
        d_dot = speed * a.sin_psi
        psi_dot = speed * kappa_eff - k_road * s_dot
        s = s + s_dot * dt
        d = d + d_dot * dt
        psi = _np_clamp(psi + psi_dot * dt, -1.2, 1.2)

        a.steer = steer
        a.speed = speed
        a.s = s
        a.d = d
        a.psi = psi
        a.sin_psi = np.array([math.sin(v) for v in psi.tolist()])
        a.brake_decel = brake_decel
        a.accel = achieved
        a.sliding = understeer

        # -------- KinematicActor.step, vectorized (lane x slot) ------- #
        if has_slots:
            a.a_accel = _np_clamp(a_cmd_accel, a.neg_mu_g[:, None], a.mu_g[:, None])
            a_next = a.a_speed + a.a_accel * dt
            a.a_speed = np.where(a_next > 0.0, a_next, 0.0)
            a.a_s = a.a_s + a.a_speed * dt
            a.a_d = _np_rate_limit(a.a_d, a_cmd_dt, a.actor_rate * dt)

        # -------- time advance ---------------------------------------- #
        self.time += dt

        # -------- detection (vectorized test, scalar event path) ------ #
        # The batch evaluates exactly the detectors' comparisons; only
        # lanes whose test fires (rare) are synced and run the world's own
        # detector, so event construction / first-match ordering cannot
        # drift.
        overlap = (
            a.valid
            & (np.abs(a.a_s - s[:, None]) < a.coll_len)
            & (np.abs(a.a_d - d[:, None]) < a.coll_wid)
        )
        collide = a.coll_open & overlap.any(axis=1)
        for j in np.flatnonzero(collide).tolist():
            world = self.worlds[lanes[j]]
            self.sync(j, lanes[j])
            world._detect_collision()
            a.coll_open[j] = world.collision is None
        off_lane_now = (d < a.off_lane_lo) | (d > a.off_lane_hi)
        off_road_now = (d + a.ego_half_wid < a.road_right) | (
            d - a.ego_half_wid > a.road_left
        )
        departed = (off_lane_now & ~a.off_lane_latch) | (
            off_road_now & ~a.off_road_latch
        )
        for j in np.flatnonzero(departed).tolist():
            world = self.worlds[lanes[j]]
            self.sync(j, lanes[j])
            world._detect_departure()
            a.off_lane_latch[j] = world.off_lane
            a.off_road_latch[j] = world.off_road

        # -------- control view (pure queries, post-step) -------------- #
        self._update_view()

    def prime(self) -> None:
        """Compute the :attr:`control_view` from the *current* (unstepped)
        state.

        The control phase runs before the first :meth:`step`, so the batch
        control stack's step-0 world queries come from here.
        """
        self._update_view()

    # ------------------------------------------------------------------ #
    # Per-step world queries
    # ------------------------------------------------------------------ #

    def _update_view(self) -> None:
        """Vectorized replicas of the per-step pure world queries.

        Each lane's entries equal, bit for bit, what its synced objects
        give: ``world.lane_line_distances()`` (``dist_right``/
        ``dist_left``, with the nearest lane's centre in ``lane_center``),
        ``sensor.road_curvature(lookahead)`` (``curvature``), the lead
        corridors (``leads["sensor"]`` is ``world.lead_actor()``,
        ``"radar"`` ``sensor.radar_lead()`` and ``"human"``
        ``sensor.lead_human()``, each a ``valid``/``gap``/``speed``
        triple) and, with the human corridor, ``sensor.cut_in() is not
        None`` (``cut_in``; None without it).
        """
        a = self.arrays
        s, d = a.s, a.d
        a_d, valid = a.a_d, a.valid
        n_active, slots = valid.shape

        # World.lane_line_distances (via Road.nearest_lane/lane_bounds).
        # ``<=`` turns rint's -0.0 (a slightly negative d) into the +0.0
        # of the scalar path's integer lane index.
        lane = np.rint(d / a.lane_width)
        lane = np.where(
            lane <= 0.0, 0.0, np.where(lane > a.max_lane, a.max_lane, lane)
        )
        center = lane * a.lane_width
        right = center - a.half_lane
        left = center + a.half_lane
        dist_right = (d - a.ego_half_wid) - right
        dist_left = left - (d + a.ego_half_wid)

        # Road.curvature_ahead at each lane's perception look-ahead: the
        # s-anchor (also the next integrate's road curvature) and the five
        # probes, whose sum keeps the serial loop's left-associative
        # order.
        a.k_road = self._curvature(s)
        probes = self._curvature(s + a.probe_offsets.T)
        acc = 0.0 + probes[0]  # serial starts from acc = 0.0 (signed zero)
        for i in range(1, 5):
            acc = acc + probes[i]
        curvature = np.where(a.curv_la > 0.0, acc / 5, a.k_road)

        # World.lead_actor for every computed corridor at once: the slot
        # scan runs over a (corridors, lanes) array.
        gap = (a.a_s - a.slot_half_len) - (s + a.ego_half_len)[:, None]
        a.gap = gap
        lateral = np.abs(a_d - d[:, None])
        candidate = valid & (gap > a.neg_slot_len)
        corridors = a.corridors.T
        inside = candidate & ~(lateral > corridors[:, :, None])
        gap_pos = np.where(gap > 0.0, gap, 0.0)
        best_slot = np.full(corridors.shape, -1, dtype=np.intp)
        best_gap = np.broadcast_to(a.lead_range, corridors.shape)
        for j in range(slots):
            sel = inside[:, :, j] & (gap[:, j] < best_gap)
            best_slot = np.where(sel, j, best_slot)
            best_gap = np.where(sel, gap_pos[:, j], best_gap)
        has_lead = best_slot >= 0
        if slots:
            slot_clip = np.where(has_lead, best_slot, 0)
            lead_speed = a.a_speed[np.arange(n_active), slot_clip]
        else:
            lead_speed = np.zeros(corridors.shape)
        # best_gap of a selected slot is exactly the measurement gap
        # (`max(0.0, rear_s - front_s)`) GroundTruthSensor computes.
        leads: Dict[str, SimpleNamespace] = {
            name: SimpleNamespace(
                valid=has_lead[k], gap=best_gap[k], speed=lead_speed[k]
            )
            for k, name in enumerate(self._corridor_names)
        }

        # GroundTruthSensor.cut_in screen: the exact per-agent predicate,
        # broadcast over agents x lanes and reduced with any().  cut_in()
        # returns the *first* matching agent, so "some agent matches" is
        # exactly "the scalar scan returns non-None".
        cut_in = None
        if self._cut_in:
            delta = self.behaviors.arrays.d_target - a_d
            cut_in = (
                valid
                & (lateral > a.half_lane[:, None])
                & (gap > -5.0)
                & (gap < CUT_IN_GAP_RANGE)
                & (delta * (d[:, None] - a_d) > 0.0)
                & (np.abs(delta) > 0.3)
            ).any(axis=1)

        a.view = SimpleNamespace(
            dist_right=dist_right,
            dist_left=dist_left,
            lane_center=center,
            curvature=curvature,
            leads=leads,
            cut_in=cut_in,
        )
