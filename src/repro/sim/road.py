"""Road geometry in arc-length (Frenet) coordinates.

A road is a sequence of constant-curvature segments.  The reference line is
the centre of the ego lane (lane 0); lateral offset ``d`` is measured from
it, positive to the left.  Lane ``i`` is centred at ``d = i * lane_width``
(so lane 1 is the adjacent lane to the left used by cut-in traffic).

Working directly in Frenet coordinates keeps the 100 Hz loop cheap and
exact: vehicles never need to be projected back onto the road.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class RoadSegment:
    """A constant-curvature stretch of road.

    Attributes:
        length: arc length of the segment [m]; must be positive.
        curvature: signed curvature [1/m]; positive curves left.
    """

    length: float
    curvature: float

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ValueError(f"segment length must be positive, got {self.length}")
        if abs(self.curvature) > 0.1:
            # radius < 10 m is not a highway geometry and breaks the
            # small-angle assumptions of the Frenet stepper.
            raise ValueError(f"curvature {self.curvature} out of highway range")


class Road:
    """A piecewise constant-curvature road with parallel lanes.

    Args:
        segments: ordered road segments.
        num_lanes: number of lanes, counted from the reference lane 0
            upward (lane indices ``0 .. num_lanes-1`` going left).
        lane_width: lane width [m]; US interstate standard 3.7 m.
    """

    def __init__(
        self,
        segments: Sequence[RoadSegment],
        num_lanes: int = 2,
        lane_width: float = 3.7,
    ) -> None:
        if not segments:
            raise ValueError("road needs at least one segment")
        if num_lanes < 1:
            raise ValueError(f"num_lanes must be >= 1, got {num_lanes}")
        if lane_width <= 0.0:
            raise ValueError(f"lane_width must be positive, got {lane_width}")
        self.segments: List[RoadSegment] = list(segments)
        self.num_lanes = num_lanes
        self.lane_width = lane_width
        # Cumulative arc length at the *start* of each segment.
        self._starts: List[float] = []
        total = 0.0
        for seg in self.segments:
            self._starts.append(total)
            total += seg.length
        self.length = total

    def segment_index_at(self, s: float) -> int:
        """Index of the segment containing arc length ``s`` (clamped)."""
        if s <= 0.0:
            return 0
        if s >= self.length:
            return len(self.segments) - 1
        return bisect.bisect_right(self._starts, s) - 1

    def curvature_at(self, s: float) -> float:
        """Signed road curvature [1/m] at arc length ``s``."""
        return self.segments[self.segment_index_at(s)].curvature

    def curvature_ahead(self, s: float, lookahead: float) -> float:
        """Mean curvature over ``[s, s + lookahead]``.

        This is what a camera-based perception model effectively reports:
        the curvature of the visible road ahead, not the curvature under
        the front axle.  Averaging across segment boundaries produces the
        gradual curvature ramp a real planner sees when entering a curve.
        """
        if lookahead <= 0.0:
            return self.curvature_at(s)
        steps = 5
        acc = 0.0
        for i in range(steps):
            acc += self.curvature_at(s + lookahead * (i + 0.5) / steps)
        return acc / steps

    def lane_center(self, lane: int) -> float:
        """Lateral offset ``d`` of the centre of ``lane``."""
        if not 0 <= lane < self.num_lanes:
            raise ValueError(f"lane {lane} outside [0, {self.num_lanes})")
        return lane * self.lane_width

    def nearest_lane(self, d: float) -> int:
        """Index of the lane whose centre is closest to offset ``d``.

        Clamped to the existing lanes — a vehicle beyond the road edge is
        assigned the outermost lane.  Lane-detection stacks behave this
        way: once a drifting vehicle is mostly inside the adjacent lane,
        the detected "own lane" becomes that lane.
        """
        idx = round(d / self.lane_width)
        return max(0, min(self.num_lanes - 1, int(idx)))

    def lane_bounds(self, lane: int) -> Tuple[float, float]:
        """``(right, left)`` lane-line offsets ``d`` of ``lane``."""
        center = self.lane_center(lane)
        half = 0.5 * self.lane_width
        return center - half, center + half

    def road_bounds(self) -> Tuple[float, float]:
        """``(right, left)`` lateral offsets of the road edges."""
        return -0.5 * self.lane_width, (self.num_lanes - 0.5) * self.lane_width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Road(length={self.length:.0f}m, segments={len(self.segments)}, "
            f"lanes={self.num_lanes})"
        )

