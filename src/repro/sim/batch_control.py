"""Vectorized control phase: N lanes' perception/controller/safety math.

:class:`BatchControlStack` is the control-side twin of
:class:`repro.sim.batch_state.BatchDynamics`: per lockstep tick it computes
the perception heads (lead gating + noise, lane lines, lagged curvature
feed-forward/feedback), the lead tracker, the longitudinal/lateral planner
math, the AEBS TTC/phase machine, LDW, the firmware safety checker and the
arbitration hierarchy for *all* lanes at once on structure-of-arrays NumPy
float64, and hands each tick's actuator commands to the integrator as
arrays (``BatchDynamics.accel_cmd``/``steer_cmd``/``driver_steering``).
The intervention recorders and running metrics stay on arrays until
:meth:`BatchControlStack.retire`.

Bit-exactness contract (the ``tests/test_batch_executor.py`` gate):

* **RNG draws are exact per tick.**  Each lane keeps its own
  ``Generator`` (the platform's perception stream) and draws exactly its
  tick's ``standard_normal`` values into its noise row: 5 with a valid
  lead, 3 without.  That consumes the underlying bit stream exactly like
  the scalar path's sequential ``rng.normal(0.0, scale)`` calls, and
  ``normal(0.0, s)`` is computed as ``0.0 + s * z`` (the same arithmetic
  NumPy performs internally).  Nothing is drawn ahead, so at every tick
  boundary each ``Generator`` stands where serial's would, and a lane can
  leave the lockstep for the scalar loop at any tick.
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
  from ``BatchDynamics.control_view``; no lockstep lane queries its world.

State lives in full-width arrays indexed by global lane id; when a lane
finishes, or the executor hands it to the scalar loop, :meth:`retire`
scatters its controller state back onto the scalar objects, which then
hold exactly what the serial path would have left behind.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.adas.controlsd import AdasCommand
from repro.adas.lat_planner import lat_plan_arrays
from repro.adas.lead_tracker import TrackedLead, tracker_step_arrays
from repro.adas.long_planner import long_plan_arrays
from repro.adas.perception import perception_head_arrays
from repro.safety.aebs import AebsConfig, aebs_step_arrays
from repro.safety.driver import DriverView
from repro.safety.ldw import ldw_arrays
from repro.safety.panda import checker_arrays
from repro.sim.batch_agents import behavior_refusal
from repro.sim.batch_ml import BatchMitigation, ml_batchable
from repro.sim.batch_state import BatchDynamics
from repro.utils.npmath import np_clamp, np_max_pair, np_min_pair
from repro.utils.units import G

#: Worst-case standard-normal draws one lane consumes per step.
_DRAWS_PER_STEP = 5


def lockstep_refusal(platform) -> Optional[str]:
    """Why ``platform``'s episode cannot join a lockstep, or None.

    The batch engine's one admission rule: a lane joins only when every
    stage of its step has a lane-wide twin.  A trace recorder, an ML
    controller :func:`~repro.sim.batch_ml.ml_batchable` rejects and an
    agent behaviour with no registered kind
    (:func:`~repro.sim.batch_agents.behavior_refusal`) have none.
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
    never reads a view that lacks a query one of its lanes needs.

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

        #: Vectorized Algorithm 1 over the ML lanes (None without any).
        ml_lanes = [
            i for i, p in enumerate(self.platforms) if p.ml_controller is not None
        ]
        #: Lanes whose Algorithm 1 runs batched (``self.ml``).
        self.ml_set = frozenset(ml_lanes)
        self.ml = BatchMitigation(self.platforms, ml_lanes) if ml_lanes else None

        def arr(get) -> np.ndarray:
            return np.array([float(get(p)) for p in self.platforms])

        # Perception.
        self._det_range = arr(lambda p: p.perception.params.detection_range)
        self._blind_range = arr(lambda p: p.perception.params.blind_range)
        self._centering_gain = arr(lambda p: p.perception.params.centering_gain)
        self._heading_gain = arr(lambda p: p.perception.params.heading_gain)
        self._ff_lag = arr(lambda p: p.perception.params.ff_lag)
        self._rd_noise = arr(lambda p: p.perception.params.rd_noise)
        self._rs_noise = arr(lambda p: p.perception.params.rs_noise)
        self._lane_noise = arr(lambda p: p.perception.params.lane_noise)
        self._curv_noise = arr(lambda p: p.perception.params.curvature_noise)
        self._max_curv = arr(lambda p: p.perception.params.max_curvature)
        self._curv_la = arr(lambda p: p.perception.params.curvature_lookahead)

        # Lead tracker.
        self._tr_alpha = arr(lambda p: p.controls.tracker.alpha)
        self._tr_beta = arr(lambda p: p.controls.tracker.beta)
        self._tr_coast = arr(lambda p: p.controls.tracker.coast_time)

        # Longitudinal planner.
        lp = lambda f: arr(lambda p: f(p.controls.long_planner))  # noqa: E731
        self._set_speed = lp(lambda m: m.set_speed)
        self._time_gap = lp(lambda m: m.params.time_gap)
        self._min_gap = lp(lambda m: m.params.min_gap)
        self._cruise_gain = lp(lambda m: m.params.cruise_gain)
        self._cruise_limit = lp(lambda m: m.params.cruise_accel_limit)
        self._approach_trigger = lp(lambda m: m.params.approach_trigger_decel)
        self._approach_margin = lp(lambda m: m.params.approach_margin)
        self._comfort = lp(lambda m: m.params.comfort_brake_limit)
        self._panic_ttc = lp(lambda m: m.params.panic_ttc)
        self._panic_decel = lp(lambda m: m.params.panic_decel)
        self._max_accel = lp(lambda m: m.params.max_accel)

        # Lateral planner.
        self._lat_smoothing = arr(lambda p: p.controls.lat_planner.params.smoothing)
        self._lat_wheelbase = arr(lambda p: p.controls.lat_planner.params.wheelbase)
        self._lat_max_steer = arr(lambda p: p.controls.lat_planner.params.max_steer)

        # AEBS.
        self._aeb_disabled = np.array(
            [p.aebs.config is AebsConfig.DISABLED for p in self.platforms]
        )
        self._aeb_indep = np.array(
            [p.interventions.aeb is AebsConfig.INDEPENDENT for p in self.platforms]
        )
        ap = lambda f: arr(lambda p: f(p.aebs.params))  # noqa: E731
        self._aeb_driver_decel = ap(lambda m: m.driver_decel)
        self._aeb_reaction = ap(lambda m: m.reaction_time)
        self._aeb_pb1 = ap(lambda m: m.pb1_divisor)
        self._aeb_pb2 = ap(lambda m: m.pb2_divisor)
        self._aeb_fb = ap(lambda m: m.fb_divisor)
        self._aeb_min_speed = ap(lambda m: m.min_speed)
        self._aeb_min_closing = ap(lambda m: m.min_closing)
        self._aeb_release_margin = ap(lambda m: m.release_margin)
        self._aeb_release_sustain = ap(lambda m: m.release_sustain)
        self._aeb_standstill_hold = ap(lambda m: m.standstill_hold)
        self._aeb_hold_gap = ap(lambda m: m.hold_gap)
        frac_width = max(
            3, max(len(p.aebs.params.brake_fractions) for p in self.platforms)
        )
        fracs = np.zeros((n, frac_width))
        for i, p in enumerate(self.platforms):
            row = list(p.aebs.params.brake_fractions)
            row += [row[-1]] * (frac_width - len(row))
            fracs[i] = row
        self._aeb_fractions = fracs

        # LDW.
        self._ldw_dist = arr(lambda p: p.ldw.params.distance_threshold)
        self._ldw_ttc = arr(lambda p: p.ldw.params.time_to_crossing)
        self._ldw_min_speed = arr(lambda p: p.ldw.params.min_speed)

        # Safety checker (inside the arbitrator) + arbitration knobs.
        self._has_checker = np.array(
            [p.arbitrator.checker is not None for p in self.platforms]
        )

        def chk(f, default: float) -> np.ndarray:
            return np.array(
                [
                    float(f(p.arbitrator.checker.params))
                    if p.arbitrator.checker is not None
                    else default
                    for p in self.platforms
                ]
            )

        self._chk_max_accel = chk(lambda m: m.max_accel, 0.0)
        self._chk_min_accel = chk(lambda m: m.min_accel, 0.0)
        self._chk_max_steer = chk(lambda m: m.max_steer, 0.0)
        self._chk_steer_rate = chk(lambda m: m.max_steer_rate, 0.0)
        self._aeb_overrides = np.array(
            [p.arbitrator.config.aeb_overrides_driver for p in self.platforms]
        )
        self._brake_auth = arr(
            lambda p: p.world.ego.powertrain.params.adas_brake_authority
        )
        self._ego_max_steer = arr(lambda p: p.world.ego.params.max_steer)

        # Per-lane scalar hooks.
        self._has_driver = [p.driver is not None for p in self.platforms]
        self._fi_enabled = [p.fi.enabled for p in self.platforms]

        #: The lockstep integrator whose ``control_view`` (set by
        #: ``prime``/``step``) supplies the per-step world queries.
        self.dynamics = BatchDynamics(
            [p.world for p in self.platforms],
            self._curv_la,
            radar_leads=bool(self._aeb_indep.any()),
            human_leads=any(self._has_driver),
        )

        # Driver-trigger thresholds for the vectorized idle screen
        # (values are never consulted for lanes without a driver model).
        def drv(get):
            return np.array(
                [
                    get(p.driver.params) if p.driver is not None else 0.0
                    for p in self.platforms
                ]
            )

        self._drv_visual_ttc = drv(lambda q: q.visual_ttc)
        self._drv_speed_limit = drv(lambda q: q.speed_limit)
        self._drv_unsafe_gap = drv(lambda q: q.unsafe_gap)
        self._drv_ua_gap = drv(lambda q: q.unexpected_accel_gap)
        self._drv_lane_thresh = drv(lambda q: q.lane_distance_threshold)
        self._drv_idle = np.array(
            [
                p.driver is not None
                and not p.driver._brake_active
                and p.driver._pending_brake_at is None
                and not p.driver._steer_active
                and p.driver._pending_steer_at is None
                for p in self.platforms
            ]
        )

        # Intervention-activity recorders (the vectorized `_post_step`):
        # per-channel state blocks, flushed into the EpisodeResult at
        # retire.  Zero state matches a fresh InterventionActivity, and
        # channels a lane never drives (e.g. driver_* without a driver
        # model) stay all-False — state-identical to the scalar path.
        def activity():
            return SimpleNamespace(
                trig=np.zeros(n, dtype=bool),
                first=np.full(n, math.nan),
                dur=np.zeros(n),
                count=np.zeros(n, dtype=np.int64),
                prev=np.zeros(n, dtype=bool),
            )

        self._rec_aeb = activity()
        self._rec_fcw = activity()
        self._rec_drv_brake = activity()
        self._rec_drv_steer = activity()
        self._rec_ml = activity()

        # ---- mutable controller state (full width, global lane index) ----
        self._ff = arr(lambda p: p.perception._ff_curvature)
        self._t_valid = np.array(
            [p.controls.tracker._valid for p in self.platforms]
        )
        self._t_rd = arr(lambda p: p.controls.tracker._rd)
        self._t_rs = arr(lambda p: p.controls.tracker._rs)
        self._t_tss = arr(lambda p: p.controls.tracker._time_since_seen)
        self._braking = np.array(
            [p.controls.long_planner._braking for p in self.platforms]
        )
        self._lat_curv = arr(lambda p: p.controls.lat_planner._curvature)
        self._aeb_phase = np.array(
            [p.aebs._phase for p in self.platforms], dtype=np.int64
        )
        self._aeb_hold = np.array(
            [
                math.nan if p.aebs._hold_until is None else p.aebs._hold_until
                for p in self.platforms
            ]
        )
        self._aeb_rec = np.array(
            [
                math.nan
                if p.aebs._recovered_since is None
                else p.aebs._recovered_since
                for p in self.platforms
            ]
        )
        self._aeb_time = arr(lambda p: p.aebs._time)
        self._chk_last_steer = np.array(
            [
                p.arbitrator.checker._last_steer
                if p.arbitrator.checker is not None
                else 0.0
                for p in self.platforms
            ]
        )
        self._chk_blocked_accel = np.zeros(n, dtype=np.int64)
        self._chk_blocked_steer = np.zeros(n, dtype=np.int64)
        for i, p in enumerate(self.platforms):
            if p.arbitrator.checker is not None:
                self._chk_blocked_accel[i] = p.arbitrator.checker.blocked_accel_count
                self._chk_blocked_steer[i] = p.arbitrator.checker.blocked_steer_count
        self._frozen = np.array(
            [
                math.nan
                if p.arbitrator._frozen_steer is None
                else p.arbitrator._frozen_steer
                for p in self.platforms
            ]
        )
        self._stat_blocked = np.array(
            [p.arbitrator.stats.aeb_blocked_driver_steps for p in self.platforms],
            dtype=np.int64,
        )
        self._stat_frozen = np.array(
            [
                p.arbitrator.stats.driver_brake_frozen_steer_steps
                for p in self.platforms
            ],
            dtype=np.int64,
        )
        # Last raw ADAS command per lane (ControlsD.last_command parity).
        self._last_adas_accel = np.zeros(n)
        self._last_adas_steer = np.zeros(n)
        # Last *executed* command per lane (`_prev_exec` parity; the ML
        # feature vector reads it, and the scalar path refreshes it every
        # `_post_step`).
        self._prev_accel = arr(lambda p: p._prev_exec.accel)
        self._prev_steer = arr(lambda p: p._prev_exec.steer)

        # Running episode metrics (the ``_accumulate`` + follow-distance
        # part of ``_after_dynamics``), kept as arrays and flushed into the
        # scalar ``EpisodeResult`` at :meth:`retire`.  Initial values are
        # the ``EpisodeResult`` field defaults.
        self._last_brake = np.zeros(n)
        self._acc_min_ttc = np.full(n, math.inf)
        self._acc_min_tfcw = np.full(n, math.inf)
        self._acc_hardest_brake = np.zeros(n)
        self._acc_min_lane = np.full(n, math.inf)
        self._acc_max_speed = np.zeros(n)
        self._acc_follow_sum = np.zeros(n)
        self._acc_follow_count = np.zeros(n, dtype=np.int64)

        # Per-lane perception streams (draw-order preservation).
        self._rngs = [p.perception._rng for p in self.platforms]

        self._pos_cache: Dict[Tuple[tuple, tuple], np.ndarray] = {}
        self._param_key: Optional[tuple] = None
        self._param_bound = None

    #: Constant per-lane parameter arrays gathered per active-set key (the
    #: active set only changes when a lane finishes, so memoizing the
    #: fancy-indexing here removes ~45 gathers per step).
    _PARAM_FIELDS = (
        "_det_range", "_blind_range", "_centering_gain", "_heading_gain",
        "_ff_lag", "_rd_noise", "_rs_noise", "_lane_noise", "_curv_noise",
        "_max_curv",
        "_tr_alpha", "_tr_beta", "_tr_coast",
        "_set_speed", "_time_gap", "_min_gap", "_cruise_gain",
        "_cruise_limit", "_approach_trigger", "_approach_margin",
        "_comfort", "_panic_ttc", "_panic_decel", "_max_accel",
        "_lat_smoothing", "_lat_wheelbase", "_lat_max_steer",
        "_aeb_disabled", "_aeb_indep", "_aeb_driver_decel", "_aeb_reaction",
        "_aeb_pb1", "_aeb_pb2", "_aeb_fb", "_aeb_fractions",
        "_aeb_min_speed", "_aeb_min_closing", "_aeb_release_margin",
        "_aeb_release_sustain", "_aeb_standstill_hold", "_aeb_hold_gap",
        "_ldw_dist", "_ldw_ttc", "_ldw_min_speed",
        "_has_checker", "_chk_max_accel", "_chk_min_accel",
        "_chk_max_steer", "_chk_steer_rate",
        "_aeb_overrides", "_brake_auth", "_ego_max_steer", "_curv_la",
        "_drv_visual_ttc", "_drv_speed_limit", "_drv_unsafe_gap",
        "_drv_ua_gap", "_drv_lane_thresh",
    )

    def _params_for(self, key: tuple):
        """Per-active-set slices of every constant parameter array."""
        if key == self._param_key and self._param_bound is not None:
            return self._param_bound
        idx = np.asarray(key, dtype=np.intp)
        bound = SimpleNamespace()
        for name in self._PARAM_FIELDS:
            setattr(bound, name, getattr(self, name)[idx])
        self._param_key = key
        self._param_bound = bound
        return bound

    # ------------------------------------------------------------------ #
    # One vectorized control tick
    # ------------------------------------------------------------------ #

    def step_control(self, lanes: Sequence[int]) -> None:
        """Run the control phase for the given lanes.

        Equivalent to calling ``platform._control_phase`` on each lane,
        except that the actuator commands are latched in the dynamics'
        command arrays rather than on the egos; requires the dynamics'
        control view to be current (``prime`` before the first tick,
        ``step`` thereafter).
        """
        key = tuple(lanes)
        if not key:
            return
        dyn = self.dynamics
        view = dyn.control_view
        if view is None:
            raise RuntimeError(
                "BatchDynamics.prime() must run before step_control()"
            )
        b = dyn._bind(key)
        idx = np.asarray(key, dtype=np.intp)
        pr = self._params_for(key)
        pos = self._view_positions(view.key, key)
        m = len(key)
        now = self.platforms[key[0]].world.time
        dt = self.platforms[key[0]].dt

        speed = b.speed
        d = b.d
        psi = b.psi
        s_arr = b.s
        cur_steer = b.steer

        dist_right = view.dist_right[pos]
        dist_left = view.dist_left[pos]
        lane_center = view.lane_center[pos]
        k_road = view.curvature[pos]

        sv = view.leads["sensor"]
        lead_present = sv.valid[pos]
        lead_gap = sv.gap[pos]
        lead_rel = speed - sv.speed[pos]

        # --- 1. Perception heads --------------------------------------- #
        gate = lead_present & (lead_gap <= pr._det_range) & (
            lead_gap >= pr._blind_range
        )
        noise = self._draw_noise(key, gate)
        offset = d - lane_center
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
            lead_rel,
            noise,
            dist_right,
            dist_left,
            k_road,
            offset,
            psi,
            self._ff[idx],
            pr._det_range,
            pr._blind_range,
            pr._centering_gain,
            pr._heading_gain,
            pr._ff_lag,
            pr._rd_noise,
            pr._rs_noise,
            pr._lane_noise,
            pr._curv_noise,
            pr._max_curv,
        )

        # --- 2. Fault injection (per-lane trigger hooks) ---------------- #
        fi_sub = [j for j, lane in enumerate(key) if self._fi_enabled[lane]]
        if fi_sub:
            rd_l = rd.tolist()
            curv_l = k_des.tolist()
            lv_l = lead_valid.tolist()
            present_l = lead_present.tolist()
            gap_l = lead_gap.tolist()
            s_l = s_arr.tolist()
            for j in fi_sub:
                fi = self.platforms[key[j]].fi
                true_gap = gap_l[j] if present_l[j] else None
                rd_l[j], curv_l[j] = fi.apply_values(
                    now, lv_l[j], rd_l[j], curv_l[j],
                    true_gap=true_gap, ego_s=s_l[j],
                )
            rd = np.asarray(rd_l)
            k_des = np.asarray(curv_l)

        # --- 3. ADAS control loop (tracker + planners) ------------------ #
        t_valid, t_rd, t_rs, t_tss = tracker_step_arrays(
            self._t_valid[idx],
            self._t_rd[idx],
            self._t_rs[idx],
            self._t_tss[idx],
            lead_valid,
            rd,
            rs,
            dt,
            pr._tr_alpha,
            pr._tr_beta,
            pr._tr_coast,
        )
        adas_accel, braking = long_plan_arrays(
            speed,
            t_valid,
            t_rd,
            t_rs,
            self._braking[idx],
            pr._set_speed,
            pr._time_gap,
            pr._min_gap,
            pr._cruise_gain,
            pr._cruise_limit,
            pr._approach_trigger,
            pr._approach_margin,
            pr._comfort,
            pr._panic_ttc,
            pr._panic_decel,
            pr._max_accel,
        )
        adas_steer, lat_curv = lat_plan_arrays(
            self._lat_curv[idx],
            k_des,
            dt,
            pr._lat_smoothing,
            pr._lat_wheelbase,
            pr._lat_max_steer,
        )

        # --- 4. ML mitigation from fault-free inputs (Algorithm 1) ------ #
        ml_recovery = np.zeros(m, dtype=bool)
        base_in_accel, base_in_steer = adas_accel, adas_steer
        if self.ml is not None:
            ml_sub = [j for j, lane in enumerate(key) if lane in self.ml_set]
            if ml_sub:
                jdx = np.asarray(ml_sub, dtype=np.intp)
                # `_ml_features` reads the *true* sensor lead, not the
                # perceived/attacked one: `min(rd, 120.0)` with Python-min
                # tie semantics, 120.0 when no lead is in range.
                rd_feat = np.where(
                    lead_present[jdx],
                    np_min_pair(lead_gap[jdx], 120.0),
                    120.0,
                )
                features = np.column_stack(
                    (
                        speed[jdx],
                        rd_feat,
                        dist_left[jdx],
                        dist_right[jdx],
                        self._prev_accel[idx[jdx]],
                        self._prev_steer[idx[jdx]],
                    )
                )
                rec_sub, ml_accel, ml_steer = self.ml.step(
                    tuple(key[j] for j in ml_sub),
                    features,
                    adas_accel[jdx],
                    adas_steer[jdx],
                )
                ml_recovery[jdx] = rec_sub
                if rec_sub.any():
                    # Base path selection (arbitrator step 1): the ML
                    # command replaces the ADAS one *before* the checker.
                    base_in_accel = adas_accel.copy()
                    base_in_steer = adas_steer.copy()
                    base_in_accel[jdx] = np.where(
                        rec_sub, ml_accel, adas_accel[jdx]
                    )
                    base_in_steer[jdx] = np.where(
                        rec_sub, ml_steer, adas_steer[jdx]
                    )

        # --- 5. AEBS from its configured source ------------------------- #
        indep = pr._aeb_indep
        ai_valid, ai_rd, ai_rs = t_valid, t_rd, t_rs
        if indep.any():
            rv = view.leads["radar"]
            r_ok = rv.valid[pos]
            r_gap = rv.gap[pos]
            r_rel = speed - rv.speed[pos]
            ai_valid = np.where(indep, r_ok, t_valid)
            ai_rd = np.where(indep, np.where(r_ok, r_gap, 0.0), t_rd)
            ai_rs = np.where(indep, np.where(r_ok, r_rel, 0.0), t_rs)
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
            self._aeb_phase[idx],
            self._aeb_hold[idx],
            self._aeb_rec[idx],
            self._aeb_time[idx],
            speed,
            ai_valid,
            ai_rd,
            ai_rs,
            dt,
            pr._aeb_disabled,
            pr._aeb_driver_decel,
            pr._aeb_reaction,
            pr._aeb_pb1,
            pr._aeb_pb2,
            pr._aeb_fb,
            pr._aeb_fractions,
            pr._aeb_min_speed,
            pr._aeb_min_closing,
            pr._aeb_release_margin,
            pr._aeb_release_sustain,
            pr._aeb_standstill_hold,
            pr._aeb_hold_gap,
        )

        # --- 6. LDW + driver hooks -------------------------------------- #
        sin_psi = np.array([math.sin(v) for v in psi.tolist()])
        ldw_active = ldw_arrays(
            dist_right,
            dist_left,
            speed * sin_psi,
            speed,
            pr._ldw_dist,
            pr._ldw_ttc,
            pr._ldw_min_speed,
        )

        drv_brake = np.zeros(m, dtype=bool)
        drv_brake_accel = np.zeros(m)
        drv_steer = np.zeros(m, dtype=bool)
        drv_steer_angle = np.zeros(m)
        drv_sub = [j for j, lane in enumerate(key) if self._has_driver[lane]]
        if drv_sub:
            hv = view.leads["human"]
            h_okm = hv.valid[pos]
            h_gapm = hv.gap[pos]
            h_relm = speed - hv.speed[pos]
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
                | (h_okm & (h_relm > 0.3) & (h_ttc < pr._drv_visual_ttc))
                | (speed > 1.1 * pr._drv_speed_limit)
                | (h_okm & (h_gapm < pr._drv_unsafe_gap) & (h_relm > -0.5))
                | (h_okm & (h_gapm < pr._drv_ua_gap) & (h_relm > 0.0))
            )
            steer_poss = ldw_active | (
                np.minimum(dist_right, dist_left) < pr._drv_lane_thresh
            )
            busy = (brake_poss | steer_poss | ~self._drv_idle[idx]).tolist()
            speed_l = speed.tolist()
            d_l = d.tolist()
            psi_l = psi.tolist()
            dr_l = dist_right.tolist()
            dl_l = dist_left.tolist()
            fcw_l = fcw.tolist()
            ldw_l = ldw_active.tolist()
            aeb_on_l = (aeb_out_phase > 0).tolist()
            # The driver only consumes the cut-in *presence* bit, which the
            # batch screen computes exactly ("some agent matches" is "the
            # scalar scan returns non-None") — no per-lane re-scan needed.
            cut_l = view.cut_in[pos].tolist()
            for j in drv_sub:
                cut = cut_l[j]
                if not busy[j] and not cut:
                    continue
                lane = key[j]
                platform = self.platforms[lane]
                drv = platform.driver
                ego = platform.world.ego
                gap = h_gap[j] if h_ok[j] else None
                closing = h_rel[j] if h_ok[j] else 0.0
                action = drv.update(
                    DriverView(
                        time=now,
                        ego_speed=speed_l[j],
                        ego_accel=ego.accel,
                        gap=gap,
                        closing=closing,
                        cut_in=cut,
                        dist_right=dr_l[j],
                        dist_left=dl_l[j],
                        lateral_offset=d_l[j]
                        - platform.world.road.lane_center(0),
                        rel_heading=psi_l[j],
                        fcw=fcw_l[j],
                        ldw=ldw_l[j],
                        aeb_active=aeb_on_l[j],
                    )
                )
                self._drv_idle[lane] = (
                    not drv._brake_active
                    and drv._pending_brake_at is None
                    and not drv._steer_active
                    and drv._pending_steer_at is None
                )
                drv_brake[j] = action.brake_active
                drv_brake_accel[j] = action.brake_accel
                drv_steer[j] = action.steer_active
                drv_steer_angle[j] = action.steer_angle

        # --- 7. Arbitration (checker + hierarchy) ----------------------- #
        has_chk = pr._has_checker
        base_accel, base_steer = base_in_accel, base_in_steer
        if has_chk.any():
            c_accel, c_steer, c_ba, c_bs = checker_arrays(
                base_in_accel,
                base_in_steer,
                self._chk_last_steer[idx],
                dt,
                pr._chk_max_accel,
                pr._chk_min_accel,
                pr._chk_max_steer,
                pr._chk_steer_rate,
            )
            base_accel = np.where(has_chk, c_accel, base_in_accel)
            base_steer = np.where(has_chk, c_steer, base_in_steer)
            self._chk_last_steer[idx] = np.where(
                has_chk, c_steer, self._chk_last_steer[idx]
            )
            self._chk_blocked_accel[idx] += has_chk & c_ba
            self._chk_blocked_steer[idx] += has_chk & c_bs

        aeb_braking = aeb_out_phase > 0
        frozen = self._frozen[idx]
        frozen = np.where(
            drv_brake & np.isnan(frozen), cur_steer,
            np.where(~drv_brake, math.nan, frozen),
        )
        self._frozen[idx] = frozen

        final_accel = np.where(
            aeb_braking, aeb_brake, np.where(drv_brake, drv_brake_accel, base_accel)
        )
        aeb_over = aeb_braking & pr._aeb_overrides
        self._stat_blocked[idx] += aeb_over & (drv_steer | drv_brake)
        m_frozen = ~aeb_over & drv_brake
        self._stat_frozen[idx] += m_frozen
        m_drv_steer = ~aeb_over & ~drv_brake & drv_steer
        final_steer = np.where(
            m_frozen, frozen, np.where(m_drv_steer, drv_steer_angle, base_steer)
        )

        # ACC brake-authority clamp (long authority "adas" *or* "ml" —
        # exactly the lanes neither AEB nor the driver is braking).
        adas_long = ~aeb_braking & ~drv_brake
        neg_auth = -pr._brake_auth
        applied_accel = np.where(
            adas_long,
            np.where(neg_auth > final_accel, neg_auth, final_accel),
            final_accel,
        )

        # --- state write-back + actuation ------------------------------- #
        self._ff[idx] = ff_next
        self._t_valid[idx] = t_valid
        self._t_rd[idx] = t_rd
        self._t_rs[idx] = t_rs
        self._t_tss[idx] = t_tss
        self._braking[idx] = braking
        self._lat_curv[idx] = lat_curv
        self._aeb_phase[idx] = aeb_phase
        self._aeb_hold[idx] = aeb_hold
        self._aeb_rec[idx] = aeb_rec
        self._aeb_time[idx] = aeb_time
        self._last_adas_accel[idx] = adas_accel
        self._last_adas_steer[idx] = adas_steer
        # max(0.0, -accel): strictly-negative commands brake; 0.0 and -0.0
        # both map to +0.0, like the scalar max.
        self._last_brake[idx] = np.where(final_accel < 0.0, -final_accel, 0.0)
        self._prev_accel[idx] = final_accel
        self._prev_steer[idx] = final_steer
        # EgoVehicle.apply_controls, on arrays.
        dyn.accel_cmd[idx] = applied_accel
        dyn.steer_cmd[idx] = np_clamp(
            final_steer, -pr._ego_max_steer, pr._ego_max_steer
        )
        dyn.driver_steering[idx] = m_drv_steer

        # Intervention recorders take this tick's outputs, exactly the
        # values the scalar `_post_step` records.
        self._record(self._rec_aeb, idx, aeb_braking, now, dt)
        self._record(self._rec_fcw, idx, fcw, now, dt)
        self._record(self._rec_drv_brake, idx, drv_brake, now, dt)
        self._record(self._rec_drv_steer, idx, drv_steer, now, dt)
        self._record(self._rec_ml, idx, ml_recovery, now, dt)

    @staticmethod
    def _record(rec, idx: np.ndarray, active: np.ndarray, now: float, dt: float):
        """One vectorized ``InterventionActivity.record`` step."""
        trig = rec.trig[idx]
        prev = rec.prev[idx]
        rec.first[idx] = np.where(active & ~trig, now, rec.first[idx])
        rec.trig[idx] = trig | active
        rec.count[idx] += active & ~prev
        dur = rec.dur[idx]
        rec.dur[idx] = np.where(active, dur + dt, dur)
        rec.prev[idx] = active

    # ------------------------------------------------------------------ #
    # Post-physics metric accumulation
    # ------------------------------------------------------------------ #

    def accumulate(self, lanes: Sequence[int]) -> None:
        """Fold one post-step frame into the running episode metrics.

        The vectorized twin of ``SimulationPlatform._accumulate`` plus the
        follow-distance accumulation in ``_after_dynamics`` — call after
        ``BatchDynamics.step`` (whose control view provides the post-step
        world queries).  Results stay in arrays until :meth:`retire`.
        """
        key = tuple(lanes)
        if not key:
            return
        dyn = self.dynamics
        view = dyn.control_view
        pos = self._view_positions(view.key, key)
        idx = np.asarray(key, dtype=np.intp)
        pr = self._params_for(key)
        speed = dyn._bound.speed[pos]

        sv = view.leads["sensor"]
        l_ok = sv.valid[pos]
        l_gap = sv.gap[pos]
        l_rel = speed - sv.speed[pos]

        with np.errstate(divide="ignore", invalid="ignore"):
            # Guarded: the scalar path divides only behind `rel > 0.3`.
            ttc = l_gap / l_rel
        ttc_seen = l_ok & (l_rel > 0.3)
        acc = self._acc_min_ttc[idx]
        self._acc_min_ttc[idx] = np.where(
            ttc_seen, np_min_pair(acc, ttc), acc
        )
        t_fcw = pr._aeb_reaction + speed / pr._aeb_driver_decel
        self._acc_min_tfcw[idx] = np_min_pair(self._acc_min_tfcw[idx], t_fcw)
        self._acc_hardest_brake[idx] = np_max_pair(
            self._acc_hardest_brake[idx], self._last_brake[idx] / G
        )
        lane_min = np_min_pair(
            np_min_pair(self._acc_min_lane[idx], view.dist_right[pos]),
            view.dist_left[pos],
        )
        self._acc_min_lane[idx] = lane_min
        self._acc_max_speed[idx] = np_max_pair(self._acc_max_speed[idx], speed)

        following = l_ok & (l_gap < 60.0) & (np.abs(l_rel) < 0.75)
        self._acc_follow_sum[idx] += np.where(following, l_gap, 0.0)
        self._acc_follow_count[idx] += following

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _view_positions(self, view_key: tuple, key: tuple) -> np.ndarray:
        """Positions of ``key``'s lanes inside the control view (memoized)."""
        if view_key == key:
            out = np.arange(len(key), dtype=np.intp)
            return out
        cache_key = (view_key, key)
        out = self._pos_cache.get(cache_key)
        if out is None:
            lookup = {lane: i for i, lane in enumerate(view_key)}
            out = np.array([lookup[lane] for lane in key], dtype=np.intp)
            self._pos_cache[cache_key] = out
        return out

    def _draw_noise(self, key: tuple, lead_valid: np.ndarray) -> np.ndarray:
        """Per-lane standard-normal draws for one perception frame.

        5 draws with a valid lead (rd, rs, lane_left, lane_right,
        curvature), 3 without (the scalar path skips the lead head), each
        drawn straight into the lane's row so its ``Generator`` consumes
        its bit stream exactly as the scalar path would, tick by tick.
        """
        out = np.zeros((len(key), _DRAWS_PER_STEP))
        rngs = self._rngs
        for j, (lane, valid) in enumerate(zip(key, lead_valid.tolist())):
            rngs[lane].standard_normal(out=out[j] if valid else out[j, 2:])
        return out

    def retire(self, lane: int, result=None) -> None:
        """Scatter a lane's controller state back onto its objects.

        After this the scalar objects look exactly as if the serial path
        had run the lane's steps so far (tracker/planner/AEBS/checker/
        arbitrator state and counters included).  When ``result`` is
        given, the running metric accumulators (see :meth:`accumulate`)
        are flushed into it and the follow-distance sums onto the
        platform, ready for ``_finish_episode`` or for further scalar
        steps.

        The command latches are neither written by the lockstep nor
        restored here: ``ego._accel_cmd``, ``ego._steer_cmd``,
        ``ego._driver_steering``, ``platform._ctrl`` and
        ``platform._last_commanded_brake``.  The next scalar
        ``_control_phase`` rewrites each of them before anything reads it.
        """
        p = self.platforms[lane]
        if result is not None:
            result.min_ttc = float(self._acc_min_ttc[lane])
            result.min_tfcw = float(self._acc_min_tfcw[lane])
            result.hardest_brake_fraction = float(self._acc_hardest_brake[lane])
            result.min_lane_distance = float(self._acc_min_lane[lane])
            result.max_speed = float(self._acc_max_speed[lane])
            p._follow_sum = float(self._acc_follow_sum[lane])
            p._follow_count = int(self._acc_follow_count[lane])
            for rec, activity in (
                (self._rec_aeb, result.aeb),
                (self._rec_fcw, result.fcw),
                (self._rec_drv_brake, result.driver_brake),
                (self._rec_drv_steer, result.driver_steer),
                (self._rec_ml, result.ml_recovery),
            ):
                first = float(rec.first[lane])
                activity.triggered = bool(rec.trig[lane])
                activity.first_time = None if math.isnan(first) else first
                activity.active_duration = float(rec.dur[lane])
                activity.activation_count = int(rec.count[lane])
                activity._prev_active = bool(rec.prev[lane])
        p._prev_exec = AdasCommand(
            accel=float(self._prev_accel[lane]),
            steer=float(self._prev_steer[lane]),
        )
        if self.ml is not None:
            self.ml.retire(lane)
        p.perception._ff_curvature = float(self._ff[lane])
        tracker = p.controls.tracker
        tracker._valid = bool(self._t_valid[lane])
        tracker._rd = float(self._t_rd[lane])
        tracker._rs = float(self._t_rs[lane])
        tracker._time_since_seen = float(self._t_tss[lane])
        p.controls.long_planner._braking = bool(self._braking[lane])
        p.controls.lat_planner._curvature = float(self._lat_curv[lane])
        p.controls.last_lead = TrackedLead(
            valid=bool(self._t_valid[lane]),
            rd=float(self._t_rd[lane]),
            rs=float(self._t_rs[lane]),
        )
        p.controls.last_command = AdasCommand(
            accel=float(self._last_adas_accel[lane]),
            steer=float(self._last_adas_steer[lane]),
        )
        aebs = p.aebs
        aebs._phase = int(self._aeb_phase[lane])
        hold = float(self._aeb_hold[lane])
        aebs._hold_until = None if math.isnan(hold) else hold
        rec = float(self._aeb_rec[lane])
        aebs._recovered_since = None if math.isnan(rec) else rec
        aebs._time = float(self._aeb_time[lane])
        arb = p.arbitrator
        frozen = float(self._frozen[lane])
        arb._frozen_steer = None if math.isnan(frozen) else frozen
        arb.stats.aeb_blocked_driver_steps = int(self._stat_blocked[lane])
        arb.stats.driver_brake_frozen_steer_steps = int(self._stat_frozen[lane])
        if arb.checker is not None:
            arb.checker._last_steer = float(self._chk_last_steer[lane])
            arb.checker.blocked_accel_count = int(self._chk_blocked_accel[lane])
            arb.checker.blocked_steer_count = int(self._chk_blocked_steer[lane])
