"""Lane-wide hazard/accident screening for the batch engine.

:class:`BatchHazardMonitor` evaluates the H1 TTC/headway rules, the H2
lane-line rule and the A1/A2 accident latches of
:class:`repro.core.hazards.HazardMonitor` as float64 expressions over the
already-batched kinematic state, producing a per-lane **masked screen**:
"no lane can possibly mark or latch anything this step".  On quiet steps
(the overwhelming majority) the executor skips the per-lane scalar
``HazardMonitor.update`` entirely; only mask-flagged lanes run it, so the
scalar :class:`~repro.core.hazards.HazardRecord` latches — what episode
retirement reads — are written by exactly the same code as on the serial
path, bit-identically.

The screen is *exact*, not an over-approximation:

* the sensor-corridor lead view in ``BatchDynamics.control_view`` holds
  precisely the gap/speed the scalar ``world.lead_actor()`` +
  ``max(0.0, lead.rear_s - ego.front_s)`` computation produces (same
  operand association, same signed-zero ``max`` replication);
* the TTC division is evaluated everywhere but consulted only where
  ``closing > 0.3`` — exactly the scalar short-circuit;
* already-latched hazards are masked out with per-lane done bits (a
  ``mark`` on a latched record is a no-op), refreshed from the scalar
  records whenever a flagged lane runs;
* a latched *accident* retires the lane on the same step, so active lanes
  never exercise the monitor's accident short-circuit.

Every lane of a lockstep is screened: a lane the batch engine cannot
vectorize never joins one (see
:func:`repro.sim.batch_control.lockstep_refusal`).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Sequence

import numpy as np

from repro.core.hazards import HazardMonitor
from repro.sim.batch_state import BatchDynamics


class BatchHazardMonitor:
    """Masked hazard screen over the lanes of one batch.

    Args:
        monitors: per-lane hazard monitors, in batch-lane order.
        dynamics: the batch integrator whose state and ``control_view``
            the screen reads (call :meth:`screen` only right after
            ``dynamics.step``); the screen's lane-axis arrays go into its
            registry.
    """

    def __init__(
        self, monitors: Sequence[HazardMonitor], dynamics: BatchDynamics
    ) -> None:
        self.monitors: List[HazardMonitor] = list(monitors)
        self.dynamics = dynamics
        #: This class's lane-axis arrays: the rules' thresholds and the
        #: per-lane done bits.
        self.arrays = dynamics.registry.add(
            SimpleNamespace(
                ttc_thr=np.array([m.ttc_hazard_threshold for m in self.monitors]),
                headway=np.array([m.headway_fraction for m in self.monitors]),
                lane_thr=np.array([m.lane_distance_hazard for m in self.monitors]),
                h1_done=np.array([m.h1.occurred for m in self.monitors]),
                h2_done=np.array([m.h2.occurred for m in self.monitors]),
            )
        )

    def screen(self, lanes: Sequence[int]) -> np.ndarray:
        """Per-row "the scalar update could mark or latch something" bits.

        ``lanes`` lists the global ids of the packed rows, in row order;
        the dynamics' state and control view of its last step are reused,
        not recomputed.  A flagged row's objects are stale until
        ``BatchDynamics.sync`` writes them.
        """
        d = self.dynamics.arrays
        view = d.view
        if view is None or len(view.dist_right) != len(lanes):
            raise RuntimeError(
                "hazard screen requires a control view for the active set; "
                "call BatchDynamics.step/prime first"
            )
        a = self.arrays

        # H1: TTC below threshold, or gap below the headway-seconds rule.
        lead = view.leads["sensor"]  # world.lead_actor()'s corridor
        speed = d.speed
        closing = speed - lead.speed
        with np.errstate(divide="ignore", invalid="ignore"):
            ttc_fire = (closing > 0.3) & (lead.gap / closing < a.ttc_thr)
        h1 = lead.valid & (ttc_fire | (lead.gap < a.headway * speed))

        # H2: a body side within the lane-line hazard distance.
        h2 = np.minimum(view.dist_right, view.dist_left) < a.lane_thr

        # A1/A2: the world latches the batch detectors already maintain.
        accident = ~d.coll_open | d.off_road_latch

        return (h1 & ~a.h1_done) | (h2 & ~a.h2_done) | accident

    def refresh(self, row: int, lane: int) -> None:
        """Re-read lane ``lane``'s scalar records into packed row ``row``
        after its monitor ran."""
        monitor = self.monitors[lane]
        self.arrays.h1_done[row] = monitor.h1.occurred
        self.arrays.h2_done[row] = monitor.h2.occurred
