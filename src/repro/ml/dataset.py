"""Training data: fault-free traces and 20-cycle windows.

The paper trains "on fault-free data spanning 20 control cycles (0.2
seconds at a 100 Hz control frequency)".  :func:`collect_fault_free_traces`
runs attack-free episodes across the scenario grid recording, per step, the
model inputs (ego speed, RD, lane-line positions, previous gas/steering)
and the OpenPilot outputs; :class:`TraceDataset` slices them into windows
and normalises features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.attacks.campaign import EpisodeSpec
from repro.attacks.fi import FaultType
from repro.core.metrics import EpisodeResult
from repro.core.platform import SimulationPlatform
from repro.safety.arbitration import InterventionConfig

#: Per-step feature vector layout (must match the platform's _ml_features).
FEATURE_NAMES = (
    "ego_speed",
    "relative_distance",
    "lane_left",
    "lane_right",
    "prev_accel",
    "prev_steer",
)

#: The paper's window length: 20 control cycles.
WINDOW = 20


@dataclass
class Trace:
    """One episode's recorded stream.

    Attributes:
        features: ``(steps, len(FEATURE_NAMES))``.
        targets: ``(steps, 2)`` — the OpenPilot (accel, steer) outputs.
    """

    features: np.ndarray
    targets: np.ndarray


def collect_fault_free_traces(
    scenario_ids: Sequence[str] = ("S1", "S2", "S3", "S5", "S6"),
    initial_gaps: Sequence[float] = (60.0, 230.0),
    seeds: Sequence[int] = (11, 12),
    max_steps: int = 6000,
) -> List[Trace]:
    """Run fault-free episodes and record (features, OP outputs) streams.

    S4 is excluded by default: it ends in a collision half the time, and
    the baseline should learn *nominal* behaviour.
    """
    traces: List[Trace] = []
    for sid in scenario_ids:
        for gap in initial_gaps:
            for seed in seeds:
                spec = EpisodeSpec(
                    scenario_id=sid,
                    initial_gap=gap,
                    fault_type=FaultType.NONE,
                    repetition=0,
                    seed=seed,
                )
                platform = SimulationPlatform(
                    spec, InterventionConfig(), max_steps=max_steps
                )
                feats: List[List[float]] = []
                targets: List[List[float]] = []
                result = EpisodeResult()
                for step in range(max_steps):
                    feats.append(platform._ml_features())
                    platform._control_phase(step, result)
                    platform.world.step(platform.DT)
                    cmd = platform.controls.last_command
                    targets.append([cmd.accel, cmd.steer])
                    if platform.hazards.update(platform.world) is not None:
                        break
                traces.append(
                    Trace(
                        features=np.asarray(feats, dtype=np.float64),
                        targets=np.asarray(targets, dtype=np.float64),
                    )
                )
    return traces


class TraceDataset:
    """Windows + normalisation over a set of traces.

    Args:
        traces: recorded episodes.
        window: window length in control cycles (paper: 20).
        stride: sampling stride between window starts.
    """

    def __init__(
        self, traces: Sequence[Trace], window: int = WINDOW, stride: int = 5
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.window = window
        xs: List[np.ndarray] = []
        ys: List[np.ndarray] = []
        for trace in traces:
            steps = trace.features.shape[0]
            for start in range(0, steps - window, stride):
                xs.append(trace.features[start : start + window])
                ys.append(trace.targets[start + window - 1])
        if not xs:
            raise ValueError("no windows could be extracted")
        self.x = np.stack(xs)
        self.y = np.stack(ys)
        self.feature_mean = self.x.reshape(-1, self.x.shape[-1]).mean(axis=0)
        self.feature_std = self.x.reshape(-1, self.x.shape[-1]).std(axis=0) + 1e-6
        self.target_mean = self.y.mean(axis=0)
        self.target_std = self.y.std(axis=0) + 1e-6

    def __len__(self) -> int:
        return self.x.shape[0]

    def normalise_x(self, x: np.ndarray) -> np.ndarray:
        """Apply the feature scaler."""
        return (x - self.feature_mean) / self.feature_std

    def normalise_y(self, y: np.ndarray) -> np.ndarray:
        """Apply the target scaler."""
        return (y - self.target_mean) / self.target_std

    def denormalise_y(self, y: np.ndarray) -> np.ndarray:
        """Invert the target scaler."""
        return y * self.target_std + self.target_mean

    def batches(
        self, batch_size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Yield shuffled normalised mini-batches."""
        order = rng.permutation(len(self))
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            yield self.normalise_x(self.x[idx]), self.normalise_y(self.y[idx])
