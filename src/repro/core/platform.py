"""The closed-loop simulation platform (the paper's Fig. 3).

One :class:`SimulationPlatform` owns a single episode: the MetaDrive
substitute world, the OpenPilot-substitute control stack, the fault
injection engine, the safety interventions and the arbitration logic.
Per 100 Hz step, in order:

1. perception surrogate produces the DNN-output frame from ground truth;
2. the FI engine rewrites it according to the active attack;
3. the ADAS control loop computes the nominal command from the (possibly
   attacked) frame;
4. the ML mitigation layer (if enabled) predicts its own command from
   *fault-free* inputs and updates its CUSUM detector (Algorithm 1);
5. the AEBS evaluates TTC from its configured input source (perceived or
   independent) and raises FCW;
6. LDW evaluates, the driver model reacts to the world and the alarms;
7. the arbitrator resolves the authority hierarchy into one actuator
   command;
8. the world steps; hazards/accidents are detected; metrics accumulate.

An accident terminates the episode (the paper's accidents are terminal
outcomes); otherwise it runs ``max_steps`` (paper: 10,000 steps of ~10 ms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

from repro.adas.controlsd import AdasCommand, ControlsD
from repro.adas.perception import PerceptionModel, PerceptionParams
from repro.attacks.campaign import EpisodeSpec
from repro.attacks.fi import FaultInjectionEngine, FaultType
from repro.attacks.patches import build_attack
from repro.core.hazards import HazardMonitor
from repro.core.metrics import EpisodeResult
from repro.safety.aebs import Aebs, AebsConfig, AebsParams, AebsState
from repro.safety.arbitration import Arbitrator, InterventionConfig
from repro.safety.driver import DriverModel, DriverParams, DriverView
from repro.safety.ldw import LaneDepartureWarning
from repro.sim.scenarios import EGO_SPEED, ScenarioConfig, build_scenario
from repro.sim.sensors import GroundTruthSensor
from repro.utils.rng import RngStreams
from repro.utils.units import G


class MlController(Protocol):
    """Interface the platform expects from the ML mitigation baseline."""

    def reset(self) -> None:
        """Clear all internal state (start of an episode)."""
        ...  # pragma: no cover - protocol definition

    def step(
        self, features: List[float], y_op: AdasCommand, dt: float
    ) -> Tuple[AdasCommand, bool]:
        """One control cycle: returns ``(ml_command, recovery_mode)``."""
        ...  # pragma: no cover - protocol definition


@dataclass
class EpisodeTrace:
    """Down-sampled time series for figures (Fig. 5 / Fig. 6).

    All lists share the same length; one entry per ``trace_every`` steps.
    """

    time: List[float] = field(default_factory=list)
    ego_speed: List[float] = field(default_factory=list)
    true_gap: List[float] = field(default_factory=list)
    perceived_rd: List[float] = field(default_factory=list)
    accel: List[float] = field(default_factory=list)
    steer: List[float] = field(default_factory=list)
    lane_distance: List[float] = field(default_factory=list)
    lateral_offset: List[float] = field(default_factory=list)
    aeb_phase: List[int] = field(default_factory=list)
    fcw: List[bool] = field(default_factory=list)
    driver_brake: List[bool] = field(default_factory=list)
    driver_steer: List[bool] = field(default_factory=list)
    attack_active: List[bool] = field(default_factory=list)


class SimulationPlatform:
    """One closed-loop episode.

    Args:
        spec: the episode (scenario, gap, fault, seed, friction).
        interventions: which safety mechanisms are enabled.
        ml_controller: required when ``interventions.ml`` is True.
        dt: control/physics period [s] (paper: ~10 ms).
        max_steps: episode length (paper: 10,000).
        record_trace: keep a down-sampled :class:`EpisodeTrace`.
        trace_every: trace decimation factor.
        perception_params: optional perception overrides (ablations).
    """

    def __init__(
        self,
        spec: EpisodeSpec,
        interventions: InterventionConfig,
        ml_controller: Optional[MlController] = None,
        dt: float = 0.01,
        max_steps: int = 10_000,
        record_trace: bool = False,
        trace_every: int = 5,
        perception_params: Optional[PerceptionParams] = None,
    ) -> None:
        if interventions.ml and ml_controller is None:
            raise ValueError("interventions.ml=True requires an ml_controller")
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.spec = spec
        self.interventions = interventions
        self.dt = dt
        self.max_steps = max_steps
        self.record_trace = record_trace
        self.trace_every = max(1, trace_every)

        self.streams = RngStreams(spec.seed)
        # Episode setup goes through the scenario-family registry: the
        # ScenarioConfig resolves/validates the family parameters and
        # build_scenario dispatches to the registered family's builder.
        self.world = build_scenario(
            ScenarioConfig(
                scenario_id=spec.scenario_id,
                initial_gap=spec.initial_gap,
                seed=spec.seed,
                friction=spec.friction,
                params=spec.params,
            )
        )
        self.sensor = GroundTruthSensor(self.world)
        self.perception = PerceptionModel(self.sensor, self.streams, perception_params)
        self.controls = ControlsD(set_speed=EGO_SPEED)

        attack = build_attack(spec.fault_type.value, self.streams)
        self.fi = FaultInjectionEngine(attack, self.sensor)
        if self.fi.enabled and spec.fault_type in (
            FaultType.DESIRED_CURVATURE,
            FaultType.MIXED,
        ):
            sign = 1.0 if self.streams.get("attack").random() < 0.5 else -1.0
            self.fi.set_curvature_sign(sign)

        # AEBS always exists: with config DISABLED it actuates nothing but
        # still computes FCW (Table IV reports min t_fcw without any
        # intervention, and the driver model consumes FCW alerts).
        self.aebs = Aebs(interventions.aeb, AebsParams())
        self.ldw = LaneDepartureWarning()

        self.driver: Optional[DriverModel] = None
        if interventions.driver:
            params = DriverParams()
            if interventions.driver_reaction_time is not None:
                params = DriverParams(
                    reaction_time=interventions.driver_reaction_time
                )
            self.driver = DriverModel(params, self.streams)

        self.ml_controller = ml_controller if interventions.ml else None
        self.arbitrator = Arbitrator(interventions)
        self.hazards = HazardMonitor()
        self.trace = EpisodeTrace() if record_trace else None
        self._prev_exec = AdasCommand(0.0, 0.0)
        self._last_commanded_brake = 0.0
        self._follow_sum = 0.0
        self._follow_count = 0

    # ------------------------------------------------------------------ #
    # Episode execution
    # ------------------------------------------------------------------ #

    def run(self) -> EpisodeResult:
        """Execute the episode and return its measurements.

        The steps go through the executors' one scalar step loop,
        :func:`repro.core.executor.run_steps`.
        """
        from repro.core.executor import run_steps  # executor imports us

        return run_steps(self, self._begin_episode())

    def _begin_episode(self) -> EpisodeResult:
        """Reset per-episode state and return a fresh result record."""
        result = EpisodeResult(
            scenario_id=self.spec.scenario_id,
            initial_gap=self.spec.initial_gap,
            fault_type=self.spec.fault_type.value,
            seed=self.spec.seed,
            intervention=self.interventions.label(),
        )
        if self.ml_controller is not None:
            self.ml_controller.reset()
        self._follow_sum, self._follow_count = 0.0, 0
        return result

    def _after_dynamics(self, step_index: int, result: EpisodeResult) -> bool:
        """Post-physics bookkeeping; returns True when the episode ends."""
        aebs_state = self._post_step(step_index, result)
        self._accumulate(result, aebs_state)

        lead = self.sensor.lead()
        if (
            lead is not None
            and lead.gap < 60.0
            and abs(lead.relative_speed) < 0.75
        ):
            self._follow_sum += lead.gap
            self._follow_count += 1

        return self._close_step(step_index, result)

    def _close_step(self, step_index: int, result: EpisodeResult) -> bool:
        """Hazard detection + step count; returns True when the episode ends.

        The tail of :meth:`_after_dynamics`, split out so the vectorized
        batch path (which accumulates the running metrics on arrays) can
        run it per lane without re-running the scalar accumulation.  The
        batch engine's hazard screen
        (:class:`repro.sim.batch_hazards.BatchHazardMonitor`) proves on
        quiet steps that it could mark nothing, so there it runs only on
        mask-flagged lanes.
        """
        finished = self.hazards.update(self.world) is not None
        result.steps = step_index + 1
        return finished

    def _finish_episode(self, result: EpisodeResult) -> None:
        result.duration = result.steps * self.dt
        result.accident = self.hazards.accident
        result.accident_time = self.hazards.accident_time
        result.h1 = self.hazards.h1.occurred
        result.h2 = self.hazards.h2.occurred
        result.attack_first_activation = self.fi.first_activation
        result.attack_activated = self.fi.first_activation is not None
        if self._follow_count > 0:
            result.following_distance = self._follow_sum / self._follow_count

    # ------------------------------------------------------------------ #
    # One control step
    # ------------------------------------------------------------------ #

    def _control_phase(self, step_index: int, result: EpisodeResult) -> None:
        """Pipeline steps 1-7: sense, inject, decide, actuate (pre-physics)."""
        dt = self.dt
        world = self.world
        ego = world.ego
        now = world.time

        # 1-2. Perception + fault injection.
        raw = self.perception.run(dt)
        perceived = self.fi.apply(raw, now)

        # 3. ADAS control loop on the (possibly attacked) frame.
        adas_cmd = self.controls.update(perceived, ego.speed, dt)

        # 4. ML mitigation from fault-free inputs (Algorithm 1).
        ml_cmd: Optional[AdasCommand] = None
        ml_recovery = False
        if self.ml_controller is not None:
            features = self._ml_features()
            ml_cmd, ml_recovery = self.ml_controller.step(features, adas_cmd, dt)

        # 5. AEBS from its configured input source.
        lead_valid, rd, rs = self._aebs_input(perceived)
        aebs_state = self.aebs.update(ego.speed, lead_valid, rd, rs, dt)

        # 6. LDW + driver.
        dist_right, dist_left = world.lane_line_distances()
        ldw_active = self.ldw.update(
            dist_right, dist_left, ego.lateral_speed(), ego.speed
        )
        driver_action = None
        if self.driver is not None:
            driver_action = self.driver.update(
                self._driver_view(
                    now,
                    aebs_state.fcw,
                    ldw_active,
                    dist_right,
                    dist_left,
                    aeb_active=aebs_state.phase > 0,
                )
            )

        # 7. Arbitration.
        final = self.arbitrator.resolve(
            adas_cmd=adas_cmd,
            ml_cmd=ml_cmd,
            ml_recovery=ml_recovery,
            aebs_state=aebs_state,
            driver_action=driver_action,
            current_steer=ego.steer,
            dt=dt,
        )
        # The ACC brake interface has limited authority; only the AEB path
        # and the driver's pedal command the full hydraulic range.
        applied_accel = final.accel
        if final.long_authority in ("adas", "ml"):
            authority = ego.powertrain.params.adas_brake_authority
            applied_accel = max(applied_accel, -authority)
        self._last_commanded_brake = max(0.0, -final.accel)
        ego.apply_controls(
            applied_accel, final.steer, driver_steering=final.driver_steering
        )
        # Staged for _post_step, after the physics.
        self._ctrl = (now, perceived, aebs_state, driver_action, ml_recovery, final)

    def _post_step(self, step_index: int, result: EpisodeResult) -> AebsState:
        """Post-physics bookkeeping for the step staged by ``_control_phase``."""
        now, perceived, aebs_state, driver_action, ml_recovery, final = self._ctrl
        dt = self.dt

        self._prev_exec = AdasCommand(final.accel, final.steer)
        result.aeb.record(aebs_state.phase > 0, now, dt)
        result.fcw.record(aebs_state.fcw, now, dt)
        if driver_action is not None:
            result.driver_brake.record(driver_action.brake_active, now, dt)
            result.driver_steer.record(driver_action.steer_active, now, dt)
        result.ml_recovery.record(ml_recovery, now, dt)

        if self.trace is not None and step_index % self.trace_every == 0:
            self._record_trace(perceived, aebs_state, driver_action)
        return aebs_state

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _aebs_input(self, perceived) -> Tuple[bool, float, float]:
        """Select the AEBS input per its configuration.

        INDEPENDENT reads the secure radar (which keeps tracking its locked
        threat object during lateral drifts); COMPROMISED (and DISABLED,
        which only computes FCW) read the ADAS lead track built from the
        post-FI perception stream.
        """
        if self.interventions.aeb is AebsConfig.INDEPENDENT:
            truth = self.sensor.radar_lead()
            if truth is None:
                return False, 0.0, 0.0
            return True, truth.gap, truth.relative_speed
        track = self.controls.last_lead
        return track.valid, track.rd, track.rs

    def _driver_view(
        self,
        now: float,
        fcw: bool,
        ldw_active: bool,
        dist_right: float,
        dist_left: float,
        aeb_active: bool = False,
    ) -> DriverView:
        ego = self.world.ego
        lead = self.sensor.lead_human()
        cut_in = self.sensor.cut_in() is not None
        return DriverView(
            time=now,
            ego_speed=ego.speed,
            ego_accel=ego.accel,
            gap=lead.gap if lead is not None else None,
            closing=lead.relative_speed if lead is not None else 0.0,
            cut_in=cut_in,
            dist_right=dist_right,
            dist_left=dist_left,
            lateral_offset=ego.d - self.world.road.lane_center(0),
            rel_heading=ego.psi,
            fcw=fcw,
            ldw=ldw_active,
            aeb_active=aeb_active,
        )

    def _ml_features(self) -> List[float]:
        """Fault-free input vector for the ML baseline.

        The paper assumes "the ML model has access to fault-free input data
        from an independent or redundant sensor measurement".
        """
        ego = self.world.ego
        lead = self.sensor.lead()
        rd = lead.gap if lead is not None else 120.0
        dist_right, dist_left = self.world.lane_line_distances()
        return [
            ego.speed,
            min(rd, 120.0),
            dist_left,
            dist_right,
            self._prev_exec.accel,
            self._prev_exec.steer,
        ]

    def _accumulate(self, result: EpisodeResult, aebs_state: AebsState) -> None:
        ego = self.world.ego
        lead = self.sensor.lead()
        if lead is not None and lead.relative_speed > 0.3:
            result.min_ttc = min(result.min_ttc, lead.gap / lead.relative_speed)
        t_fcw = self.aebs.params.reaction_time + ego.speed / self.aebs.params.driver_decel
        result.min_tfcw = min(result.min_tfcw, t_fcw)
        # Hardest brake value = peak *commanded* brake as a fraction of a
        # full-brake command (what the paper's "Hardest Brake Value"
        # percentage reports), not the friction-limited achieved decel.
        brake_fraction = self._last_commanded_brake / G
        result.hardest_brake_fraction = max(result.hardest_brake_fraction, brake_fraction)
        dist_right, dist_left = self.world.lane_line_distances()
        result.min_lane_distance = min(result.min_lane_distance, dist_right, dist_left)
        result.max_speed = max(result.max_speed, ego.speed)

    def _record_trace(self, perceived, aebs_state: AebsState, driver_action) -> None:
        assert self.trace is not None
        ego = self.world.ego
        lead = self.sensor.lead()
        dist_right, dist_left = self.world.lane_line_distances()
        self.trace.time.append(self.world.time)
        self.trace.ego_speed.append(ego.speed)
        self.trace.true_gap.append(lead.gap if lead is not None else float("nan"))
        self.trace.perceived_rd.append(
            perceived.lead_rd if perceived.lead_valid else float("nan")
        )
        self.trace.accel.append(ego.accel)
        self.trace.steer.append(ego.steer)
        self.trace.lane_distance.append(min(dist_right, dist_left))
        self.trace.lateral_offset.append(ego.d)
        self.trace.aeb_phase.append(aebs_state.phase)
        self.trace.fcw.append(aebs_state.fcw)
        self.trace.driver_brake.append(
            driver_action.brake_active if driver_action is not None else False
        )
        self.trace.driver_steer.append(
            driver_action.steer_active if driver_action is not None else False
        )
        self.trace.attack_active.append(self.fi.rd_active or self.fi.curvature_active)
