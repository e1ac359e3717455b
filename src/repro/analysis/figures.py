"""Figure data extraction — Fig. 5 and Fig. 6 of the paper.

* **Fig. 5** — "Speed and Distance to Lane Lines when Approaching LV":
  fault-free episodes per scenario; shows the aggressive approach braking
  (S1: ~21.7 -> ~9.6 m/s) and the lane-centring quality.
* **Fig. 6** — "Speed and Relative Distance under Fault Injection": an RD
  attack episode; shows the perceived-vs-true gap divergence, the lead
  dropping out of perception at close range, the re-acceleration, and the
  collision.

Each helper runs the episode with trace recording and returns the series
plus CSV export; the benches print compact ASCII plots of the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.attacks.campaign import EpisodeSpec
from repro.attacks.fi import FaultType
from repro.core.platform import EpisodeTrace, SimulationPlatform
from repro.core.metrics import EpisodeResult
from repro.safety.arbitration import InterventionConfig


@dataclass
class FigureSeries:
    """One figure panel: a trace plus the episode's outcome."""

    scenario_id: str
    trace: EpisodeTrace
    result: EpisodeResult

    def to_csv(self) -> str:
        """Export the trace as CSV text."""
        header = (
            "time,ego_speed,true_gap,perceived_rd,accel,steer,"
            "lane_distance,lateral_offset,aeb_phase,fcw,attack_active"
        )
        lines = [header]
        t = self.trace
        for i in range(len(t.time)):
            lines.append(
                f"{t.time[i]:.2f},{t.ego_speed[i]:.3f},{t.true_gap[i]:.3f},"
                f"{t.perceived_rd[i]:.3f},{t.accel[i]:.3f},{t.steer[i]:.4f},"
                f"{t.lane_distance[i]:.3f},{t.lateral_offset[i]:.3f},"
                f"{t.aeb_phase[i]},{int(t.fcw[i])},{int(t.attack_active[i])}"
            )
        return "\n".join(lines)


def _run_traced(
    scenario_id: str,
    fault_type: FaultType,
    seed: int,
    initial_gap: float,
    interventions: Optional[InterventionConfig] = None,
    max_steps: int = 10_000,
) -> FigureSeries:
    spec = EpisodeSpec(
        scenario_id=scenario_id,
        initial_gap=initial_gap,
        fault_type=fault_type,
        repetition=0,
        seed=seed,
    )
    platform = SimulationPlatform(
        spec,
        interventions or InterventionConfig(),
        record_trace=True,
        max_steps=max_steps,
    )
    result = platform.run()
    assert platform.trace is not None
    return FigureSeries(scenario_id=scenario_id, trace=platform.trace, result=result)


def fig5_series(
    seed: int = 2025, initial_gap: float = 60.0, max_steps: int = 10_000
) -> Dict[str, FigureSeries]:
    """Fig. 5: fault-free approach traces for every scenario."""
    return {
        sid: _run_traced(sid, FaultType.NONE, seed, initial_gap, max_steps=max_steps)
        for sid in ("S1", "S2", "S3", "S4", "S5", "S6")
    }


def fig6_series(
    scenario_id: str = "S1",
    seed: int = 2025,
    initial_gap: float = 60.0,
    max_steps: int = 10_000,
) -> FigureSeries:
    """Fig. 6: speed and relative distance under an RD attack."""
    return _run_traced(
        scenario_id, FaultType.RELATIVE_DISTANCE, seed, initial_gap, max_steps=max_steps
    )


def render_fig5_summary(drops: Dict[str, float]) -> str:
    """One-line Fig. 5 summary: per-scenario approach speed drops.

    Pure formatting (no simulation), so the report pipeline and the
    golden-file suite can exercise the exact report layout from
    precomputed data.
    """
    return ", ".join(f"{sid}: {drop:.1f}" for sid, drop in sorted(drops.items()))


def render_fig6_summary(result: EpisodeResult) -> str:
    """One-line Fig. 6 summary: attack-trace outcome and timing."""
    outcome = result.accident.value if result.accident else "none"
    return (
        f"outcome: {outcome} at t={result.accident_time}; "
        f"attack from t={result.attack_first_activation}"
    )


def speed_drop(series: FigureSeries) -> float:
    """Largest sustained speed drop in a trace [m/s].

    Used to verify the Fig. 5 shape (the paper quotes a 21.7 -> 9.6 m/s
    drop when approaching the lead in S1).
    """
    speeds: List[float] = series.trace.ego_speed
    if not speeds:
        return 0.0
    peak = speeds[0]
    drop = 0.0
    for v in speeds:
        peak = max(peak, v)
        drop = max(drop, peak - v)
    return drop
