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
        worlds: the per-episode worlds.  Their parameter tables (vehicle,
            powertrain, road geometry, friction) and their state are read
            into packed arrays at construction; the state is scattered back
            onto the objects on every :meth:`step`.
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

        #: The lockstep's lane-axis arrays; the control stack and the
        #: hazard screen register theirs here too.
        self.registry = LaneRegistry(n)
        #: Vectorized behaviour updates.
        self.behaviors = BehaviorBatch(self.worlds)
        self.registry.add(self.behaviors.arrays)
        #: This class's lane-axis arrays (see :class:`LaneRegistry`).
        a = self.arrays = self.registry.add(SimpleNamespace())

        a.mu_g = np.array([w.friction.mu for w in self.worlds]) * G
        a.wheelbase = np.array([e.params.wheelbase for e in egos])
        a.adas_rate = np.array([e.params.adas_steer_rate for e in egos])
        a.driver_rate = np.array([e.params.driver_steer_rate for e in egos])
        a.lat_frac = np.array([e.params.lateral_friction_fraction for e in egos])
        a.emergency_decel = np.array([e.EMERGENCY_BRAKE_DECEL for e in egos])
        a.ego_half_len = np.array([0.5 * e.params.length for e in egos])
        a.ego_half_wid = np.array([0.5 * e.params.width for e in egos])

        pt = [e.powertrain.params for e in egos]
        knot_count = max(len(p.engine_speed_knots) for p in pt)
        # Knot tables are padded to a shared width: +inf speeds with the
        # last acceleration value repeated, which is exactly the clamped
        # out-of-range behaviour of ``mathx.interp1d``.
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

        # Lead corridors computed each step, by name: the sensor's (also
        # the hazard monitor's ``world.lead_actor()``), plus the radar and
        # human corridors when some lane reads them.
        a.lead_range = np.array([float(w.LEAD_RANGE) for w in self.worlds])
        a.corridors = {
            "sensor": np.array([float(w.LEAD_CORRIDOR) for w in self.worlds])
        }
        if radar_leads:
            a.corridors["radar"] = np.full(n, RADAR_CORRIDOR)
        if human_leads:
            a.corridors["human"] = np.full(n, HUMAN_CORRIDOR)
        a.curv_la = np.array([float(v) for v in curvature_lookaheads])

        # Ego state.  Written *only* by the integrate (the control stack
        # writes the command arrays), so the arrays stay authoritative.
        a.steer = np.array([e.steer for e in egos])
        a.speed = np.array([e.speed for e in egos])
        a.s = np.array([e.s for e in egos])
        a.d = np.array([e.d for e in egos])
        a.psi = np.array([e.psi for e in egos])
        a.brake_decel = np.array([e.powertrain._brake_decel for e in egos])

        # Traffic actors: lane-by-slot tables, agent order within a lane
        # (agent lists are fixed after scenario build).
        self._actors = [[b.actor for b in w.agents] for w in self.worlds]
        slots = max(len(actors) for actors in self._actors)
        a.valid = np.zeros((n, slots), dtype=bool)
        a.slot_len = np.zeros((n, slots))
        slot_wid = np.zeros((n, slots))
        a.actor_rate = np.zeros((n, slots))
        a.a_speed = np.zeros((n, slots))
        a.a_s = np.zeros((n, slots))
        a.a_d = np.zeros((n, slots))
        for i, actors in enumerate(self._actors):
            for slot, actor in enumerate(actors):
                a.valid[i, slot] = True
                a.slot_len[i, slot] = actor.params.length
                slot_wid[i, slot] = actor.params.width
                a.actor_rate[i, slot] = actor.lane_change_rate
                a.a_speed[i, slot] = actor.speed
                a.a_s[i, slot] = actor.s
                a.a_d[i, slot] = actor.d
        a.slot_half_len = 0.5 * a.slot_len
        a.slot_half_wid = 0.5 * slot_wid

        #: Latched actuator commands, the array twin of
        #: ``EgoVehicle.apply_controls``: the control stack writes them
        #: every tick and :meth:`step` reads them.  Zero until then, like a
        #: fresh ego's latch.
        a.accel_cmd = np.zeros(n)
        a.steer_cmd = np.zeros(n)
        a.driver_steering = np.zeros(n, dtype=bool)

        # The world queries of the latest step or prime (_update_view).
        a.view = None

    @property
    def control_view(self) -> Optional[SimpleNamespace]:
        """World queries of the latest :meth:`step` or :meth:`prime`, one
        row per active lane (see :meth:`_update_view`); None until the
        first of them."""
        return self.arrays.view

    # ------------------------------------------------------------------ #
    # Vectorized lookups
    # ------------------------------------------------------------------ #

    def _engine_accel(self, speed: np.ndarray) -> np.ndarray:
        """``Powertrain.max_engine_accel`` for each active lane.

        Replicates ``mathx.interp1d`` exactly: boundary clamp first, then
        first-match segment selection with the same ``t = (x-x0)/(x1-x0)``
        arithmetic.
        """
        a = self.arrays
        xs, ys = a.eng_xs, a.eng_ys
        out = a.eng_y_last.copy()
        done = speed >= a.eng_x_last
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
        control-view update.
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        a = self.arrays
        worlds = self.worlds
        has_slots = a.valid.shape[1] > 0

        # Behaviours run *before* the integrate (they set the actor
        # commands the integrate consumes), exactly as World.step — but
        # vectorized over lanes.  bumper_gap(actor, ego) is
        # actor.rear_s - ego.front_s, with the scalar association.
        if has_slots:
            a_cmd_accel, a_cmd_dt = self.behaviors.update(
                lanes,
                (a.a_s - a.slot_half_len) - (a.s + a.ego_half_len)[:, None],
                a.a_speed,
            )

        steer_cmd = a.steer_cmd
        accel_cmd = a.accel_cmd
        speed = a.speed
        s = a.s
        d = a.d
        psi = a.psi
        brake_decel = a.brake_decel
        mu_g = a.mu_g

        # -------- EgoVehicle.step, vectorized ------------------------- #
        steer_rate = np.where(a.driver_steering, a.driver_rate, a.adas_rate)
        steer = _np_rate_limit(a.steer, steer_cmd, steer_rate * dt)

        tan_steer = np.array([math.tan(v) for v in steer.tolist()])
        kappa_vehicle = tan_steer / a.wheelbase
        lat_demand = speed * speed * np.abs(kappa_vehicle)
        emergency = accel_cmd <= -a.emergency_decel
        brake_demand = np.minimum(-accel_cmd, mu_g * 0.97)
        lat_budget_sq = mu_g * mu_g - brake_demand * brake_demand
        lat_max = np.where(
            emergency, _np_sqrt_pos(lat_budget_sq), mu_g * a.lat_frac
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
            positive, np.minimum(accel_cmd, self._engine_accel(speed)), 0.0
        )
        target_brake = np.where(
            positive, 0.0, _np_clamp(-accel_cmd, 0.0, a.max_brake)
        )
        lag = np.where(target_brake > brake_decel, a.brake_lag, 0.5 * a.brake_lag)
        alpha = dt / (lag + dt)
        brake_decel = brake_decel + alpha * (target_brake - brake_decel)
        drag = a.roll_res + a.drag_coef * speed * speed
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
        k_road = self._curvature(s)
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

        a.steer = steer
        a.speed = speed
        a.s = s
        a.d = d
        a.psi = psi
        a.brake_decel = brake_decel

        # -------- scatter ego state ----------------------------------- #
        ego_out = np.stack(
            (steer, brake_decel, achieved, speed, s, d, psi), axis=1
        ).tolist()
        for lane, row, sliding in zip(lanes, ego_out, understeer.tolist()):
            ego = worlds[lane].ego
            ego.steer = row[0]
            ego.powertrain._brake_decel = row[1]
            ego.accel = row[2]
            ego.speed = row[3]
            ego.s = row[4]
            ego.d = row[5]
            ego.psi = row[6]
            ego.sliding = sliding

        # -------- KinematicActor.step, vectorized (lane x slot) ------- #
        if has_slots:
            limit = mu_g[:, None]
            a_accel = _np_clamp(a_cmd_accel, -limit, limit)
            a_next = a.a_speed + a_accel * dt
            a.a_speed = np.where(a_next > 0.0, a_next, 0.0)
            a.a_s = a.a_s + a.a_speed * dt
            a.a_d = _np_rate_limit(a.a_d, a_cmd_dt, a.actor_rate * dt)

            # The command columns ride along so the actor objects always
            # carry the behaviour outputs (scalar callers — cut-in scans,
            # direct world queries — read them from the objects).
            a_out = np.stack(
                (a_accel, a.a_speed, a.a_s, a.a_d, a_cmd_accel, a_cmd_dt),
                axis=-1,
            )[a.valid].tolist()
            actors = [actor for lane in lanes for actor in self._actors[lane]]
            for actor, row in zip(actors, a_out):
                actor.accel = row[0]
                actor.speed = row[1]
                actor.s = row[2]
                actor.d = row[3]
                actor.accel_cmd = row[4]
                actor.d_target = row[5]

        # -------- time advance ---------------------------------------- #
        for lane in lanes:
            worlds[lane].time += dt

        # -------- detection (vectorized test, scalar event path) ------ #
        # The batch evaluates exactly the detectors' comparisons; only
        # lanes whose test fires (rare) run the world's own detector, so
        # event construction / first-match ordering cannot drift.
        overlap = (
            a.valid
            & (np.abs(a.a_s - s[:, None]) < a.ego_half_len[:, None] + a.slot_half_len)
            & (np.abs(a.a_d - d[:, None]) < a.ego_half_wid[:, None] + a.slot_half_wid)
        )
        collide = a.coll_open & overlap.any(axis=1)
        for j in np.nonzero(collide)[0]:
            world = worlds[lanes[j]]
            world._detect_collision()
            a.coll_open[j] = world.collision is None
        off_lane_now = (d < a.off_lane_lo) | (d > a.off_lane_hi)
        off_road_now = (d + a.ego_half_wid < a.road_right) | (
            d - a.ego_half_wid > a.road_left
        )
        departed = (off_lane_now & ~a.off_lane_latch) | (
            off_road_now & ~a.off_road_latch
        )
        for j in np.nonzero(departed)[0]:
            world = worlds[lanes[j]]
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

        Each lane's entries equal, bit for bit, what its objects give:
        ``world.lane_line_distances()`` (``dist_right``/``dist_left``, with
        the nearest lane's centre in ``lane_center``),
        ``sensor.road_curvature(lookahead)`` (``curvature``), the three
        lead corridors (``leads["sensor"]`` is ``world.lead_actor()``,
        ``"radar"`` ``sensor.radar_lead()`` and ``"human"``
        ``sensor.lead_human()``, each a ``valid``/``gap``/``speed``
        triple) and ``sensor.cut_in() is not None`` (``cut_in``).
        """
        a = self.arrays
        s, d = a.s, a.d
        a_s, a_d, valid = a.a_s, a.a_d, a.valid
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

        # Road.curvature_ahead at each lane's perception look-ahead.  All
        # six sample points (the s-anchor plus the five look-ahead probes)
        # go through one broadcast segment lookup; the accumulation below
        # keeps the serial loop's left-associative addition order.
        vals = self._curvature(
            np.stack([s] + [s + a.curv_la * (i + 0.5) / 5 for i in range(5)])
        )
        acc = 0.0 + vals[1]  # serial starts from acc = 0.0 (signed zero)
        for i in range(2, 6):
            acc = acc + vals[i]
        curvature = np.where(a.curv_la > 0.0, acc / 5, vals[0])

        # World.lead_actor for each computed corridor.
        ego_front = s + a.ego_half_len
        leads: Dict[str, SimpleNamespace] = {}
        for name, corridor in a.corridors.items():
            best_slot = np.full(n_active, -1, dtype=np.intp)
            best_gap = a.lead_range.copy()
            for j in range(slots):
                gap = (a_s[:, j] - a.slot_half_len[:, j]) - ego_front
                sel = (
                    valid[:, j]
                    & ~(np.abs(a_d[:, j] - d) > corridor)
                    & (gap > -a.slot_len[:, j])
                    & (gap < best_gap)
                )
                best_slot = np.where(sel, j, best_slot)
                best_gap = np.where(sel, np.where(gap > 0.0, gap, 0.0), best_gap)
            has_lead = best_slot >= 0
            if slots:
                slot_clip = np.where(has_lead, best_slot, 0)
                lead_speed = a.a_speed[np.arange(n_active), slot_clip]
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
        gap_all = (a_s - a.slot_half_len) - ego_front[:, None]
        delta = self.behaviors.arrays.d_target - a_d
        cut_in = (
            valid
            & (np.abs(a_d - d[:, None]) > a.half_lane[:, None])
            & (gap_all > -5.0)
            & (gap_all < CUT_IN_GAP_RANGE)
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
