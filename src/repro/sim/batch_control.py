"""Vectorized control phase: N lanes' perception/controller/safety math.

:class:`BatchControlStack` is the control-side twin of
:class:`repro.sim.batch_state.BatchDynamics`: per lockstep tick it computes
the perception heads (lead gating + noise, lane lines, lagged curvature
feed-forward/feedback), the lead tracker, the longitudinal/lateral planner
math, the AEBS TTC/phase machine, LDW, the firmware safety checker and the
arbitration hierarchy for *all* lanes at once on structure-of-arrays NumPy
float64, and hands each tick's actuator commands to the integrator as
arrays (``accel_cmd``/``steer_cmd``/``driver_steering`` in
``BatchDynamics.arrays``).
The intervention recorders and running metrics stay on arrays until
:meth:`BatchControlStack.retire`.

Bit-exactness contract (the ``tests/test_batch_executor.py`` gate):

* **Each lane's noise is one stream.**  A lane's perception
  ``Generator`` yields one sequence of standard normals however many are
  drawn per call, and ``normal(0.0, s)`` is ``0.0 + s * z`` (the
  arithmetic NumPy performs internally).  ``PerceptionModel`` draws them
  ``NOISE_BLOCK`` at a time and keeps the ones it has not consumed; the
  stack keeps a ``(lanes, NOISE_BLOCK)`` block with a cursor per row,
  starts a row from its lane's pending normals, refills it from the
  lane's ``Generator`` when fewer remain than a tick needs (5 with a
  valid lead, 3 without), and takes each tick's values with one gather.
  :meth:`BatchControlStack.retire` hands the row's unconsumed normals
  back as the lane's pending ones.  So at every tick boundary the next
  normal a lane consumes is the one serial's would, and a lane can leave
  the lockstep for the scalar loop at any tick.
* **Branches replicate scalar semantics** via the ``*_arrays`` step-math
  twins each module exposes (``np.where`` selections preserving operand
  order, signed zeros, and guard short-circuits).
* **Transcendentals stay per-lane ``math`` calls** (``atan``/``sin`` are
  not bit-pinned across libm/SIMD implementations).
* **The ML arm batches its LSTM forward.**  Lanes whose controller
  passes :func:`repro.sim.batch_ml.ml_batchable` (stock controller,
  baseline and network) run Algorithm 1 through
  :class:`repro.sim.batch_ml.BatchMitigation` — one row-exact
  ``LstmNetwork.forward`` per network per tick — and arbitrate through
  the same vectorized hierarchy (the ACC brake clamp under ``"ml"``
  authority included).
* **Only lanes it fully vectorizes join.**  :func:`lockstep_refusal`
  keeps out a lane with a trace recorder, an ML controller
  :func:`~repro.sim.batch_ml.ml_batchable` rejects or an agent behaviour
  with no registered kind; the executor runs such a lane on the scalar
  loop from step 0, and the stack refuses it.  The driver model and the
  fault-injection triggers run as per-lane hooks *inside* the vectorized
  step, fed by (and feeding) the arrays.
* **World queries come from the control view.**  Lead corridors,
  lane-line distances, look-ahead curvature and the cut-in bit are read
  from ``BatchDynamics.control_view``; no lockstep lane queries its world,
  and the driver hook reads the ego's acceleration from the dynamics'
  arrays.

State lives in arrays packed to the active lanes (row ``j`` is the
``j``-th active lane; see :class:`repro.sim.batch_state.LaneRegistry`),
so a tick reads and writes whole arrays and reaches a lane's platform,
world and ``Generator`` through the global ids the executor passes in.
When a lane finishes, or the executor hands it to the scalar loop,
:meth:`retire` syncs its world (``BatchDynamics.sync``) and writes its
controller state and noise stream back onto the scalar objects, which
then hold exactly what the serial path would have left behind; once a
tick's finished lanes are retired, one compaction drops their rows.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from repro.adas.controlsd import AdasCommand
from repro.adas.lat_planner import lat_plan_arrays
from repro.adas.lead_tracker import TrackedLead, tracker_step_arrays
from repro.adas.long_planner import long_plan_arrays
from repro.adas.perception import NOISE_BLOCK, perception_head_arrays
from repro.safety.aebs import AebsConfig, aebs_step_arrays
from repro.safety.driver import DriverView
from repro.safety.ldw import ldw_arrays
from repro.safety.panda import checker_arrays
from repro.sim.batch_agents import behavior_refusal
from repro.sim.batch_ml import BatchMitigation, ml_batchable
from repro.sim.batch_state import BatchDynamics
from repro.utils.npmath import np_clamp, np_max_pair, np_min_pair
from repro.utils.units import G

#: Columns of a tick's noise row, ``[rd, rs, lane_left, lane_right,
#: curvature]``, and the stream offsets that fill them: a lane with a
#: valid lead consumes its next 5 normals, one without its next 3 (into
#: the last three columns; the first two are then never read).
_LEAD_DRAWS = np.arange(5)
_NO_LEAD_DRAWS = np.array([0, 0, 0, 1, 2])

#: The five intervention recorders, in their column order.
_RECORDERS = ("aeb", "fcw", "driver_brake", "driver_steer", "ml_recovery")


def lockstep_refusal(platform) -> Optional[str]:
    """Why ``platform``'s episode cannot join a lockstep, or None.

    The batch engine's one admission rule: a lane joins only when every
    stage of its step has a lane-wide twin.  A trace recorder, an ML
    controller :func:`~repro.sim.batch_ml.ml_batchable` rejects and an
    agent behaviour with no registered kind
    (:func:`~repro.sim.batch_agents.behavior_refusal`) have none.  A
    campaign task carries no trace recorder, so the trace cause guards
    direct :class:`BatchControlStack` use.
    """
    if platform.trace is not None:
        return "it records a trace"
    controller = platform.ml_controller
    if controller is not None and not ml_batchable(controller):
        return (
            "its ML controller is not a stock MitigationController over a "
            "TrainedBaseline and LstmNetwork"
        )
    return behavior_refusal(platform.world)


class BatchControlStack:
    """Vectorized control phase over a fixed set of platforms.

    Args:
        platforms: the per-episode platforms, in batch-lane order.

    The stack builds :attr:`dynamics`, the batch integrator over the
    platforms' worlds, and picks from the platforms what its
    ``control_view`` carries: each lane's perception look-ahead, the
    radar corridor when some lane runs AEBS on its independent sensor and
    the human corridor when some lane has a driver model.  So the stack
    never reads a view that lacks a query one of its lanes needs.  Its
    own lane-axis arrays, and those of its ML stage, go into the
    dynamics' :attr:`~repro.sim.batch_state.BatchDynamics.registry`.

    Raises:
        ValueError: naming the first lane :func:`lockstep_refusal`
            refuses, and why.
    """

    def __init__(self, platforms: Sequence) -> None:
        self.platforms = list(platforms)
        n = len(self.platforms)
        for lane, p in enumerate(self.platforms):
            why = lockstep_refusal(p)
            if why is not None:
                raise ValueError(
                    f"lane {lane} ({p.spec.label()}) cannot join the "
                    f"lockstep: {why}"
                )

        def arr(get) -> np.ndarray:
            return np.array([float(get(p)) for p in self.platforms])

        def flags(get) -> np.ndarray:
            return np.array([bool(get(p)) for p in self.platforms])

        aeb_indep = flags(lambda p: p.interventions.aeb is AebsConfig.INDEPENDENT)
        has_driver = flags(lambda p: p.driver is not None)
        #: The lockstep integrator whose ``control_view`` (set by
        #: ``prime``/``step``) supplies the per-step world queries.
        self.dynamics = BatchDynamics(
            [p.world for p in self.platforms],
            arr(lambda p: p.perception.params.curvature_lookahead),
            radar_leads=bool(aeb_indep.any()),
            human_leads=bool(has_driver.any()),
        )

        #: Vectorized Algorithm 1 over the ML lanes (None without any).
        ml_lanes = [
            i for i, p in enumerate(self.platforms) if p.ml_controller is not None
        ]
        #: Lanes whose Algorithm 1 runs batched (``self.ml``).
        self.ml_set = frozenset(ml_lanes)
        self.ml = BatchMitigation(self.platforms, ml_lanes) if ml_lanes else None
        if self.ml is not None:
            self.dynamics.registry.add(self.ml.arrays)

        #: This class's lane-axis arrays: frozen parameters, controller
        #: state, intervention recorders and running metrics.
        a = self.arrays = self.dynamics.registry.add(SimpleNamespace())

        # Perception.
        a.det_range = arr(lambda p: p.perception.params.detection_range)
        a.blind_range = arr(lambda p: p.perception.params.blind_range)
        a.centering_gain = arr(lambda p: p.perception.params.centering_gain)
        a.heading_gain = arr(lambda p: p.perception.params.heading_gain)
        a.ff_lag = arr(lambda p: p.perception.params.ff_lag)
        a.rd_noise = arr(lambda p: p.perception.params.rd_noise)
        a.rs_noise = arr(lambda p: p.perception.params.rs_noise)
        a.lane_noise = arr(lambda p: p.perception.params.lane_noise)
        a.curv_noise = arr(lambda p: p.perception.params.curvature_noise)
        a.max_curv = arr(lambda p: p.perception.params.max_curvature)

        # Lead tracker.
        a.tr_alpha = arr(lambda p: p.controls.tracker.alpha)
        a.tr_beta = arr(lambda p: p.controls.tracker.beta)
        a.tr_coast = arr(lambda p: p.controls.tracker.coast_time)

        # Longitudinal planner.
        lp = lambda f: arr(lambda p: f(p.controls.long_planner))  # noqa: E731
        a.set_speed = lp(lambda m: m.set_speed)
        a.time_gap = lp(lambda m: m.params.time_gap)
        a.min_gap = lp(lambda m: m.params.min_gap)
        a.cruise_gain = lp(lambda m: m.params.cruise_gain)
        a.cruise_limit = lp(lambda m: m.params.cruise_accel_limit)
        a.approach_trigger = lp(lambda m: m.params.approach_trigger_decel)
        a.approach_margin = lp(lambda m: m.params.approach_margin)
        a.comfort = lp(lambda m: m.params.comfort_brake_limit)
        a.panic_ttc = lp(lambda m: m.params.panic_ttc)
        a.panic_decel = lp(lambda m: m.params.panic_decel)
        a.max_accel = lp(lambda m: m.params.max_accel)

        # Lateral planner.
        a.lat_smoothing = arr(lambda p: p.controls.lat_planner.params.smoothing)
        a.lat_wheelbase = arr(lambda p: p.controls.lat_planner.params.wheelbase)
        a.lat_max_steer = arr(lambda p: p.controls.lat_planner.params.max_steer)

        # AEBS.
        a.aeb_disabled = flags(lambda p: p.aebs.config is AebsConfig.DISABLED)
        a.aeb_indep = aeb_indep
        ap = lambda f: arr(lambda p: f(p.aebs.params))  # noqa: E731
        a.aeb_driver_decel = ap(lambda m: m.driver_decel)
        a.aeb_reaction = ap(lambda m: m.reaction_time)
        a.aeb_pb1 = ap(lambda m: m.pb1_divisor)
        a.aeb_pb2 = ap(lambda m: m.pb2_divisor)
        a.aeb_fb = ap(lambda m: m.fb_divisor)
        a.aeb_min_speed = ap(lambda m: m.min_speed)
        a.aeb_min_closing = ap(lambda m: m.min_closing)
        a.aeb_release_margin = ap(lambda m: m.release_margin)
        a.aeb_release_sustain = ap(lambda m: m.release_sustain)
        a.aeb_standstill_hold = ap(lambda m: m.standstill_hold)
        a.aeb_hold_gap = ap(lambda m: m.hold_gap)
        frac_width = max(
            3, max(len(p.aebs.params.brake_fractions) for p in self.platforms)
        )
        a.aeb_fractions = np.zeros((n, frac_width))
        for i, p in enumerate(self.platforms):
            row = list(p.aebs.params.brake_fractions)
            row += [row[-1]] * (frac_width - len(row))
            a.aeb_fractions[i] = row

        # LDW.
        a.ldw_dist = arr(lambda p: p.ldw.params.distance_threshold)
        a.ldw_ttc = arr(lambda p: p.ldw.params.time_to_crossing)
        a.ldw_min_speed = arr(lambda p: p.ldw.params.min_speed)

        # Safety checker (inside the arbitrator) + arbitration knobs.
        a.has_checker = flags(lambda p: p.arbitrator.checker is not None)

        def chk(f, default: float) -> np.ndarray:
            return arr(
                lambda p: default
                if p.arbitrator.checker is None
                else f(p.arbitrator.checker.params)
            )

        a.chk_max_accel = chk(lambda m: m.max_accel, 0.0)
        a.chk_min_accel = chk(lambda m: m.min_accel, 0.0)
        a.chk_max_steer = chk(lambda m: m.max_steer, 0.0)
        a.chk_steer_rate = chk(lambda m: m.max_steer_rate, 0.0)
        a.aeb_overrides = flags(lambda p: p.arbitrator.config.aeb_overrides_driver)
        a.neg_brake_auth = -arr(
            lambda p: p.world.ego.powertrain.params.adas_brake_authority
        )
        a.ego_max_steer = arr(lambda p: p.world.ego.params.max_steer)
        a.neg_max_steer = -a.ego_max_steer

        # Lanes with per-lane scalar hooks.
        a.has_driver = has_driver
        a.fi_enabled = flags(lambda p: p.fi.enabled)

        # Driver-trigger thresholds for the vectorized idle screen
        # (values are never consulted for lanes without a driver model).
        def drv(get) -> np.ndarray:
            return arr(lambda p: 0.0 if p.driver is None else get(p.driver.params))

        a.drv_visual_ttc = drv(lambda q: q.visual_ttc)
        a.drv_overspeed = 1.1 * drv(lambda q: q.speed_limit)
        a.drv_unsafe_gap = drv(lambda q: q.unsafe_gap)
        a.drv_ua_gap = drv(lambda q: q.unexpected_accel_gap)
        a.drv_lane_thresh = drv(lambda q: q.lane_distance_threshold)
        a.drv_idle = flags(lambda p: p.driver is not None and _driver_idle(p.driver))
        # The driver's lateral offset is measured from lane 0's centre.
        a.lane0_center = arr(lambda p: p.world.road.lane_center(0))

        # Intervention-activity recorders (the vectorized recording at the
        # end of `_control_phase`): one (lanes, 5) block per field, a
        # column per channel of `_RECORDERS`, flushed into the
        # EpisodeResult at retire.  Zero state matches a fresh
        # InterventionActivity, and channels a lane never drives (e.g.
        # driver_* without a driver model) stay all-False — state-identical
        # to the scalar path.
        shape = (n, len(_RECORDERS))
        a.rec = SimpleNamespace(
            trig=np.zeros(shape, dtype=bool),
            first=np.full(shape, math.nan),
            dur=np.zeros(shape),
            count=np.zeros(shape, dtype=np.int64),
            prev=np.zeros(shape, dtype=bool),
        )

        # ---- mutable controller state ----
        def opt(get) -> np.ndarray:
            """An ``Optional[float]`` timer or latch, NaN-encoded."""
            return arr(lambda p: math.nan if get(p) is None else get(p))

        def count(get) -> np.ndarray:
            return np.array([get(p) for p in self.platforms], dtype=np.int64)

        a.ff = arr(lambda p: p.perception._ff_curvature)
        a.t_valid = flags(lambda p: p.controls.tracker._valid)
        a.t_rd = arr(lambda p: p.controls.tracker._rd)
        a.t_rs = arr(lambda p: p.controls.tracker._rs)
        a.t_tss = arr(lambda p: p.controls.tracker._time_since_seen)
        a.braking = flags(lambda p: p.controls.long_planner._braking)
        a.lat_curv = arr(lambda p: p.controls.lat_planner._curvature)
        a.aeb_phase = count(lambda p: p.aebs._phase)
        a.aeb_hold = opt(lambda p: p.aebs._hold_until)
        a.aeb_rec = opt(lambda p: p.aebs._recovered_since)
        a.aeb_time = arr(lambda p: p.aebs._time)
        checker = lambda p: p.arbitrator.checker  # noqa: E731
        a.chk_last_steer = arr(
            lambda p: 0.0 if checker(p) is None else checker(p)._last_steer
        )
        a.chk_blocked_accel = count(
            lambda p: 0 if checker(p) is None else checker(p).blocked_accel_count
        )
        a.chk_blocked_steer = count(
            lambda p: 0 if checker(p) is None else checker(p).blocked_steer_count
        )
        a.frozen = opt(lambda p: p.arbitrator._frozen_steer)
        a.stat_blocked = count(lambda p: p.arbitrator.stats.aeb_blocked_driver_steps)
        a.stat_frozen = count(
            lambda p: p.arbitrator.stats.driver_brake_frozen_steer_steps
        )
        # Last raw ADAS command per lane (ControlsD.last_command parity).
        a.last_adas_accel = np.zeros(n)
        a.last_adas_steer = np.zeros(n)
        # Last *executed* command per lane (`_prev_exec` parity; the ML
        # feature vector reads it, and the scalar path refreshes it every
        # `_control_phase`).
        a.prev_accel = arr(lambda p: p._prev_exec.accel)
        a.prev_steer = arr(lambda p: p._prev_exec.steer)

        # Running episode metrics (the ``_accumulate`` + follow-distance
        # part of ``_after_dynamics``), kept as arrays and flushed into the
        # scalar ``EpisodeResult`` at :meth:`retire`.  Initial values are
        # the ``EpisodeResult`` field defaults.
        a.last_brake = np.zeros(n)
        a.acc_min_ttc = np.full(n, math.inf)
        a.acc_min_tfcw = np.full(n, math.inf)
        a.acc_hardest_brake = np.zeros(n)
        a.acc_min_lane = np.full(n, math.inf)
        a.acc_max_speed = np.zeros(n)
        a.acc_follow_sum = np.zeros(n)
        a.acc_follow_count = np.zeros(n, dtype=np.int64)

        # Per-lane perception streams: each row holds the head of its
        # lane's normal stream in ``noise[row, noise_at[row]:]``, starting
        # from the normals its PerceptionModel drew and has not consumed.
        self._rngs = [p.perception._rng for p in self.platforms]
        a.noise = np.zeros((n, NOISE_BLOCK))
        a.noise_at = np.full(n, NOISE_BLOCK, dtype=np.intp)
        for i, p in enumerate(self.platforms):
            pending = p.perception._pending
            if pending:
                a.noise_at[i] = NOISE_BLOCK - len(pending)
                a.noise[i, a.noise_at[i]:] = list(pending)
                pending.clear()

    # ------------------------------------------------------------------ #
    # One vectorized control tick
    # ------------------------------------------------------------------ #

    def step_control(self, lanes: Sequence[int]) -> None:
        """Run the control phase for the active lanes.

        ``lanes`` lists the global ids of the packed rows, in row order.
        Equivalent to calling ``platform._control_phase`` on each lane,
        except that the actuator commands are latched in the dynamics'
        command arrays rather than on the egos; requires the dynamics'
        control view to be current (``prime`` before the first tick,
        ``step`` thereafter).
        """
        if not lanes:
            return
        a = self.arrays
        d = self.dynamics.arrays
        view = d.view
        if view is None:
            raise RuntimeError(
                "BatchDynamics.prime() must run before step_control()"
            )
        m = len(lanes)
        now = self.dynamics.time
        dt = self.platforms[lanes[0]].DT

        speed = d.speed
        psi = d.psi
        dist_right = view.dist_right
        dist_left = view.dist_left

        sv = view.leads["sensor"]
        lead_present = sv.valid
        lead_gap = sv.gap

        # --- 1. Perception heads --------------------------------------- #
        gate = lead_present & (lead_gap <= a.det_range) & (lead_gap >= a.blind_range)
        noise = self._draw_noise(lanes, gate)
        (
            lead_valid,
            rd,
            rs,
            lane_left,
            lane_right,
            k_des,
            ff_next,
        ) = perception_head_arrays(
            dt,
            lead_present,
            lead_gap,
            speed - sv.speed,
            noise,
            dist_right,
            dist_left,
            view.curvature,
            d.d - view.lane_center,
            psi,
            a.ff,
            a.det_range,
            a.blind_range,
            a.centering_gain,
            a.heading_gain,
            a.ff_lag,
            a.rd_noise,
            a.rs_noise,
            a.lane_noise,
            a.curv_noise,
            a.max_curv,
        )

        # --- 2. Fault injection (per-lane trigger hooks) ---------------- #
        fi_rows = np.flatnonzero(a.fi_enabled).tolist()
        if fi_rows:
            rd_l = rd.tolist()
            curv_l = k_des.tolist()
            lv_l = lead_valid.tolist()
            present_l = lead_present.tolist()
            gap_l = lead_gap.tolist()
            s_l = d.s.tolist()
            for j in fi_rows:
                fi = self.platforms[lanes[j]].fi
                true_gap = gap_l[j] if present_l[j] else None
                rd_l[j], curv_l[j] = fi.apply_values(
                    now, lv_l[j], rd_l[j], curv_l[j],
                    true_gap=true_gap, ego_s=s_l[j],
                )
            rd = np.asarray(rd_l)
            k_des = np.asarray(curv_l)

        # --- 3. ADAS control loop (tracker + planners) ------------------ #
        t_valid, t_rd, t_rs, t_tss = tracker_step_arrays(
            a.t_valid,
            a.t_rd,
            a.t_rs,
            a.t_tss,
            lead_valid,
            rd,
            rs,
            dt,
            a.tr_alpha,
            a.tr_beta,
            a.tr_coast,
        )
        adas_accel, braking = long_plan_arrays(
            speed,
            t_valid,
            t_rd,
            t_rs,
            a.braking,
            a.set_speed,
            a.time_gap,
            a.min_gap,
            a.cruise_gain,
            a.cruise_limit,
            a.approach_trigger,
            a.approach_margin,
            a.comfort,
            a.panic_ttc,
            a.panic_decel,
            a.max_accel,
        )
        adas_steer, lat_curv = lat_plan_arrays(
            a.lat_curv,
            k_des,
            dt,
            a.lat_smoothing,
            a.lat_wheelbase,
            a.lat_max_steer,
        )

        # --- 4. ML mitigation from fault-free inputs (Algorithm 1) ------ #
        ml_recovery = np.zeros(m, dtype=bool)
        base_in_accel, base_in_steer = adas_accel, adas_steer
        if self.ml is not None:
            # `_ml_features` reads the *true* sensor lead, not the
            # perceived/attacked one: `min(rd, 120.0)` with Python-min
            # tie semantics, 120.0 when no lead is in range.
            features = np.column_stack(
                (
                    speed,
                    np.where(lead_present, np_min_pair(lead_gap, 120.0), 120.0),
                    dist_left,
                    dist_right,
                    a.prev_accel,
                    a.prev_steer,
                )
            )
            ml_recovery, ml_accel, ml_steer = self.ml.step(
                features, adas_accel, adas_steer
            )
            if ml_recovery.any():
                # Base path selection (arbitrator step 1): the ML command
                # replaces the ADAS one *before* the checker.
                base_in_accel = np.where(ml_recovery, ml_accel, adas_accel)
                base_in_steer = np.where(ml_recovery, ml_steer, adas_steer)

        # --- 5. AEBS from its configured source ------------------------- #
        indep = a.aeb_indep
        ai_valid, ai_rd, ai_rs = t_valid, t_rd, t_rs
        if indep.any():
            rv = view.leads["radar"]
            r_ok = rv.valid
            ai_valid = np.where(indep, r_ok, t_valid)
            ai_rd = np.where(indep, np.where(r_ok, rv.gap, 0.0), t_rd)
            ai_rs = np.where(indep, np.where(r_ok, speed - rv.speed, 0.0), t_rs)
        (
            fcw,
            aeb_out_phase,
            aeb_brake,
            _aeb_ttc,
            aeb_phase,
            aeb_hold,
            aeb_rec,
            aeb_time,
        ) = aebs_step_arrays(
            a.aeb_phase,
            a.aeb_hold,
            a.aeb_rec,
            a.aeb_time,
            speed,
            ai_valid,
            ai_rd,
            ai_rs,
            dt,
            a.aeb_disabled,
            a.aeb_driver_decel,
            a.aeb_reaction,
            a.aeb_pb1,
            a.aeb_pb2,
            a.aeb_fb,
            a.aeb_fractions,
            a.aeb_min_speed,
            a.aeb_min_closing,
            a.aeb_release_margin,
            a.aeb_release_sustain,
            a.aeb_standstill_hold,
            a.aeb_hold_gap,
        )

        # --- 6. LDW + driver hooks -------------------------------------- #
        # LDW's one reader is the driver model, so both run only when
        # some lane has one.
        drv_brake = np.zeros(m, dtype=bool)
        drv_brake_accel = np.zeros(m)
        drv_steer = np.zeros(m, dtype=bool)
        drv_steer_angle = np.zeros(m)
        drv_rows = np.flatnonzero(a.has_driver).tolist()
        if drv_rows:
            ldw_active = ldw_arrays(
                dist_right,
                dist_left,
                speed * d.sin_psi,
                speed,
                a.ldw_dist,
                a.ldw_ttc,
                a.ldw_min_speed,
            )
            hv = view.leads["human"]
            h_okm = hv.valid
            h_gapm = hv.gap
            h_relm = speed - hv.speed
            h_ok = h_okm.tolist()
            h_gap = h_gapm.tolist()
            h_rel = h_relm.tolist()
            # Vectorized screen for the Table II triggers: an idle driver
            # whose lane cannot trigger this step skips the scalar state
            # machine (its update() is a provable no-op).  The mask
            # over-approximates — unexpected-accel drops the accel term,
            # the cut-in bit is checked below — so it can only cost a
            # redundant update, never skip a real one.
            with np.errstate(divide="ignore", invalid="ignore"):
                h_ttc = h_gapm / h_relm
            brake_poss = (
                fcw
                | (h_okm & (h_relm > 0.3) & (h_ttc < a.drv_visual_ttc))
                | (speed > a.drv_overspeed)
                | (h_okm & (h_gapm < a.drv_unsafe_gap) & (h_relm > -0.5))
                | (h_okm & (h_gapm < a.drv_ua_gap) & (h_relm > 0.0))
            )
            steer_poss = ldw_active | (
                np.minimum(dist_right, dist_left) < a.drv_lane_thresh
            )
            busy = (brake_poss | steer_poss | ~a.drv_idle).tolist()
            speed_l = speed.tolist()
            accel_l = d.accel.tolist()
            offset_l = (d.d - a.lane0_center).tolist()
            psi_l = psi.tolist()
            dr_l = dist_right.tolist()
            dl_l = dist_left.tolist()
            fcw_l = fcw.tolist()
            ldw_l = ldw_active.tolist()
            aeb_on_l = (aeb_out_phase > 0).tolist()
            # The driver only consumes the cut-in *presence* bit, which the
            # batch screen computes exactly ("some agent matches" is "the
            # scalar scan returns non-None") — no per-lane re-scan needed.
            cut_l = view.cut_in.tolist()
            for j in drv_rows:
                cut = cut_l[j]
                if not busy[j] and not cut:
                    continue
                drv = self.platforms[lanes[j]].driver
                gap = h_gap[j] if h_ok[j] else None
                closing = h_rel[j] if h_ok[j] else 0.0
                action = drv.update(
                    DriverView(
                        time=now,
                        ego_speed=speed_l[j],
                        ego_accel=accel_l[j],
                        gap=gap,
                        closing=closing,
                        cut_in=cut,
                        dist_right=dr_l[j],
                        dist_left=dl_l[j],
                        lateral_offset=offset_l[j],
                        rel_heading=psi_l[j],
                        fcw=fcw_l[j],
                        ldw=ldw_l[j],
                        aeb_active=aeb_on_l[j],
                    )
                )
                a.drv_idle[j] = _driver_idle(drv)
                drv_brake[j] = action.brake_active
                drv_brake_accel[j] = action.brake_accel
                drv_steer[j] = action.steer_active
                drv_steer_angle[j] = action.steer_angle

        # --- 7. Arbitration (checker + hierarchy) ----------------------- #
        has_chk = a.has_checker
        base_accel, base_steer = base_in_accel, base_in_steer
        if has_chk.any():
            c_accel, c_steer, c_ba, c_bs = checker_arrays(
                base_in_accel,
                base_in_steer,
                a.chk_last_steer,
                dt,
                a.chk_max_accel,
                a.chk_min_accel,
                a.chk_max_steer,
                a.chk_steer_rate,
            )
            base_accel = np.where(has_chk, c_accel, base_in_accel)
            base_steer = np.where(has_chk, c_steer, base_in_steer)
            a.chk_last_steer = np.where(has_chk, c_steer, a.chk_last_steer)
            a.chk_blocked_accel += has_chk & c_ba
            a.chk_blocked_steer += has_chk & c_bs

        aeb_braking = aeb_out_phase > 0
        frozen = a.frozen
        frozen = np.where(
            drv_brake & np.isnan(frozen), d.steer,
            np.where(~drv_brake, math.nan, frozen),
        )
        a.frozen = frozen

        final_accel = np.where(
            aeb_braking, aeb_brake, np.where(drv_brake, drv_brake_accel, base_accel)
        )
        aeb_over = aeb_braking & a.aeb_overrides
        a.stat_blocked += aeb_over & (drv_steer | drv_brake)
        m_frozen = ~aeb_over & drv_brake
        a.stat_frozen += m_frozen
        m_drv_steer = ~aeb_over & ~drv_brake & drv_steer
        final_steer = np.where(
            m_frozen, frozen, np.where(m_drv_steer, drv_steer_angle, base_steer)
        )

        # ACC brake-authority clamp (long authority "adas" *or* "ml" —
        # exactly the lanes neither AEB nor the driver is braking).
        adas_long = ~aeb_braking & ~drv_brake
        neg_auth = a.neg_brake_auth
        applied_accel = np.where(
            adas_long,
            np.where(neg_auth > final_accel, neg_auth, final_accel),
            final_accel,
        )

        # --- state write-back + actuation ------------------------------- #
        a.ff = ff_next
        a.t_valid = t_valid
        a.t_rd = t_rd
        a.t_rs = t_rs
        a.t_tss = t_tss
        a.braking = braking
        a.lat_curv = lat_curv
        a.aeb_phase = aeb_phase
        a.aeb_hold = aeb_hold
        a.aeb_rec = aeb_rec
        a.aeb_time = aeb_time
        a.last_adas_accel = adas_accel
        a.last_adas_steer = adas_steer
        # max(0.0, -accel): strictly-negative commands brake; 0.0 and -0.0
        # both map to +0.0, like the scalar max.
        a.last_brake = np.where(final_accel < 0.0, -final_accel, 0.0)
        a.prev_accel = final_accel
        a.prev_steer = final_steer
        # EgoVehicle.apply_controls, on arrays.
        d.accel_cmd = applied_accel
        d.steer_cmd = np_clamp(final_steer, a.neg_max_steer, a.ego_max_steer)
        d.driver_steering = m_drv_steer

        # Intervention recorders take this tick's outputs, exactly the
        # values the scalar `_control_phase` records, one column each.
        self._record(
            a.rec,
            np.column_stack((aeb_braking, fcw, drv_brake, drv_steer, ml_recovery)),
            now,
            dt,
        )

    @staticmethod
    def _record(rec, active: np.ndarray, now: float, dt: float) -> None:
        """One vectorized ``InterventionActivity.record`` step for every
        lane and channel."""
        trig = rec.trig
        rec.first = np.where(active & ~trig, now, rec.first)
        rec.trig = trig | active
        rec.count += active & ~rec.prev
        rec.dur = np.where(active, rec.dur + dt, rec.dur)
        rec.prev = active

    # ------------------------------------------------------------------ #
    # Post-physics metric accumulation
    # ------------------------------------------------------------------ #

    def accumulate(self) -> None:
        """Fold one post-step frame into the running episode metrics.

        The vectorized twin of ``SimulationPlatform._accumulate`` plus the
        follow-distance accumulation in ``_after_dynamics`` — call after
        ``BatchDynamics.step`` (whose control view provides the post-step
        world queries).  Results stay in arrays until :meth:`retire`.
        """
        a = self.arrays
        d = self.dynamics.arrays
        view = d.view
        speed = d.speed

        sv = view.leads["sensor"]
        l_ok = sv.valid
        l_gap = sv.gap
        l_rel = speed - sv.speed

        with np.errstate(divide="ignore", invalid="ignore"):
            # Guarded: the scalar path divides only behind `rel > 0.3`.
            ttc = l_gap / l_rel
        ttc_seen = l_ok & (l_rel > 0.3)
        a.acc_min_ttc = np.where(
            ttc_seen, np_min_pair(a.acc_min_ttc, ttc), a.acc_min_ttc
        )
        t_fcw = a.aeb_reaction + speed / a.aeb_driver_decel
        a.acc_min_tfcw = np_min_pair(a.acc_min_tfcw, t_fcw)
        a.acc_hardest_brake = np_max_pair(a.acc_hardest_brake, a.last_brake / G)
        a.acc_min_lane = np_min_pair(
            np_min_pair(a.acc_min_lane, view.dist_right), view.dist_left
        )
        a.acc_max_speed = np_max_pair(a.acc_max_speed, speed)

        following = l_ok & (l_gap < 60.0) & (np.abs(l_rel) < 0.75)
        a.acc_follow_sum = a.acc_follow_sum + np.where(following, l_gap, 0.0)
        a.acc_follow_count += following

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _draw_noise(self, lanes: Sequence[int], lead_valid: np.ndarray) -> np.ndarray:
        """Each lane's standard normals for one perception frame.

        A row takes the next 5 normals of its stream with a valid lead
        (rd, rs, lane_left, lane_right, curvature) and the next 3 without
        (the scalar path skips the lead head), in the scalar path's
        order, with one gather over the lockstep's noise block.
        """
        a = self.arrays
        need = np.where(lead_valid, 5, 3)
        short = np.flatnonzero(a.noise_at > NOISE_BLOCK - need)
        if short.size:
            self._refill_noise(lanes, short.tolist())
        at = a.noise_at
        columns = at[:, None] + np.where(
            lead_valid[:, None], _LEAD_DRAWS, _NO_LEAD_DRAWS
        )
        noise = a.noise[np.arange(len(at))[:, None], columns]
        a.noise_at = at + need
        return noise

    def _refill_noise(self, lanes: Sequence[int], rows: Sequence[int]) -> None:
        """Move each row's unconsumed normals to the front of its block
        and fill the rest from its lane's ``Generator``."""
        a = self.arrays
        for row in rows:
            block = a.noise[row]
            tail = NOISE_BLOCK - int(a.noise_at[row])
            block[:tail] = block[NOISE_BLOCK - tail:].copy()
            self._rngs[lanes[row]].standard_normal(out=block[tail:])
            a.noise_at[row] = 0

    def retire(self, row: int, lane: int, result=None) -> None:
        """Write lane ``lane``'s state, at packed row ``row``, back onto its
        objects: its world (``BatchDynamics.sync``), its controller state
        and its unconsumed perception normals.

        After this the scalar objects look exactly as if the serial path
        had run the lane's steps so far (tracker/planner/AEBS/checker/
        arbitrator state and counters included).  When ``result`` is
        given, the running metric accumulators (see :meth:`accumulate`)
        are flushed into it and the follow-distance sums onto the
        platform, ready for ``_finish_episode`` or for further scalar
        steps.  The row stays until the registry compacts it away.

        The command latches are neither written by the lockstep nor
        restored here: ``ego._accel_cmd``, ``ego._steer_cmd``,
        ``ego._driver_steering``, ``platform._trace_frame`` and
        ``platform._last_commanded_brake``.  The next scalar
        ``_control_phase`` rewrites each of them before anything reads it.
        """
        p = self.platforms[lane]
        a = self.arrays
        self.dynamics.sync(row, lane)
        # The row's unconsumed normals are the head of the lane's stream.
        p.perception._pending.extend(a.noise[row, a.noise_at[row]:].tolist())
        if result is not None:
            result.min_ttc = float(a.acc_min_ttc[row])
            result.min_tfcw = float(a.acc_min_tfcw[row])
            result.hardest_brake_fraction = float(a.acc_hardest_brake[row])
            result.min_lane_distance = float(a.acc_min_lane[row])
            result.max_speed = float(a.acc_max_speed[row])
            p._follow_sum = float(a.acc_follow_sum[row])
            p._follow_count = int(a.acc_follow_count[row])
            rec = a.rec
            for k, name in enumerate(_RECORDERS):
                activity = getattr(result, name)
                activity.triggered = bool(rec.trig[row, k])
                activity.first_time = _optional(rec.first[row, k])
                activity.active_duration = float(rec.dur[row, k])
                activity.activation_count = int(rec.count[row, k])
                activity._prev_active = bool(rec.prev[row, k])
        p._prev_exec = AdasCommand(
            accel=float(a.prev_accel[row]),
            steer=float(a.prev_steer[row]),
        )
        if self.ml is not None:
            self.ml.retire(row, lane)
        p.perception._ff_curvature = float(a.ff[row])
        tracker = p.controls.tracker
        tracker._valid = bool(a.t_valid[row])
        tracker._rd = float(a.t_rd[row])
        tracker._rs = float(a.t_rs[row])
        tracker._time_since_seen = float(a.t_tss[row])
        p.controls.long_planner._braking = bool(a.braking[row])
        p.controls.lat_planner._curvature = float(a.lat_curv[row])
        p.controls.last_lead = TrackedLead(
            valid=bool(a.t_valid[row]),
            rd=float(a.t_rd[row]),
            rs=float(a.t_rs[row]),
        )
        p.controls.last_command = AdasCommand(
            accel=float(a.last_adas_accel[row]),
            steer=float(a.last_adas_steer[row]),
        )
        aebs = p.aebs
        aebs._phase = int(a.aeb_phase[row])
        aebs._hold_until = _optional(a.aeb_hold[row])
        aebs._recovered_since = _optional(a.aeb_rec[row])
        aebs._time = float(a.aeb_time[row])
        arb = p.arbitrator
        arb._frozen_steer = _optional(a.frozen[row])
        arb.stats.aeb_blocked_driver_steps = int(a.stat_blocked[row])
        arb.stats.driver_brake_frozen_steer_steps = int(a.stat_frozen[row])
        if arb.checker is not None:
            arb.checker._last_steer = float(a.chk_last_steer[row])
            arb.checker.blocked_accel_count = int(a.chk_blocked_accel[row])
            arb.checker.blocked_steer_count = int(a.chk_blocked_steer[row])


def _driver_idle(driver) -> bool:
    """Whether ``driver`` has no manoeuvre active or pending."""
    return (
        not driver._brake_active
        and driver._pending_brake_at is None
        and not driver._steer_active
        and driver._pending_steer_at is None
    )


def _optional(value) -> Optional[float]:
    """A NaN-encoded ``Optional[float]``, decoded."""
    value = float(value)
    return None if math.isnan(value) else value
