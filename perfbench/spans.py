"""Span tracing for the benchmark's traced run.

The tracer wraps the program's public stage functions where each is looked
up (a module attribute or a class attribute), records one span per call —
name, start, end, parent — and accumulates per-stage self time online: a
span's self time is its duration minus its children's.  Serial methods and
their lane-wide twins share one stage name, so the serial and batch columns
line up row by row.

Spans live in memory (capped, so a 10^6-call run stays small) and are
written out when the run ends.  The totals are exact whatever the cap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (module where the name is looked up, attribute path)
Site = Tuple[str, str]

#: The step stages, timed in every column.  A stage's serial method and
#: its batch twin sit in one entry.
STEP_STAGES: Dict[str, Tuple[Site, ...]] = {
    "adas.perception": (
        ("repro.adas.perception", "PerceptionModel.run"),
        ("repro.sim.batch_control", "perception_head_arrays"),
    ),
    "adas.planners": (
        ("repro.adas.controlsd", "ControlsD.update"),
        ("repro.sim.batch_control", "tracker_step_arrays"),
        ("repro.sim.batch_control", "long_plan_arrays"),
        ("repro.sim.batch_control", "lat_plan_arrays"),
    ),
    "attacks.fault_injection": (
        ("repro.attacks.fi", "FaultInjectionEngine.apply"),
        ("repro.attacks.fi", "FaultInjectionEngine.apply_values"),
    ),
    "safety.aebs": (
        ("repro.safety.aebs", "Aebs.update"),
        ("repro.sim.batch_control", "aebs_step_arrays"),
    ),
    "safety.ldw": (
        ("repro.safety.ldw", "LaneDepartureWarning.update"),
        ("repro.sim.batch_control", "ldw_arrays"),
    ),
    "safety.driver": (("repro.safety.driver", "DriverModel.update"),),
    "safety.arbitration": (
        ("repro.safety.arbitration", "Arbitrator.resolve"),
        ("repro.sim.batch_control", "checker_arrays"),
    ),
    "ml.algorithm1": (
        ("repro.ml.mitigation", "MitigationController.step"),
        ("repro.sim.batch_ml", "BatchMitigation.step"),
    ),
    "ml.lstm_forward": (("repro.ml.lstm", "LstmNetwork.forward"),),
    "sim.dynamics": (
        ("repro.sim.world", "World.step"),
        ("repro.sim.batch_state", "BatchDynamics.step"),
        ("repro.sim.batch_state", "BatchDynamics.prime"),
    ),
    "sim.agents": (
        ("repro.sim.agents", "AgentBinding.update"),
        ("repro.sim.batch_agents", "BehaviorBatch.update"),
    ),
    "core.hazards": (
        ("repro.core.hazards", "HazardMonitor.update"),
        ("repro.sim.batch_hazards", "BatchHazardMonitor.screen"),
    ),
    "batch.control_other": (
        ("repro.sim.batch_control", "BatchControlStack.step_control"),
        ("repro.sim.batch_control", "BatchControlStack.accumulate"),
        ("repro.sim.batch_control", "BatchControlStack.retire"),
    ),
    "batch.setup": (
        ("repro.sim.batch_state", "BatchDynamics.__init__"),
        ("repro.sim.batch_control", "BatchControlStack.__init__"),
        ("repro.sim.batch_hazards", "BatchHazardMonitor.__init__"),
    ),
    "core.platform_init": (("repro.core.platform", "SimulationPlatform.__init__"),),
    "core.executor": (
        ("repro.core.executor", "SerialExecutor.run"),
        ("repro.core.executor", "BatchExecutor.run"),
    ),
    "core.campaign_overhead": (("repro.core.experiment", "run_campaign"),),
}

#: Stages of the render phase (``report-arms``), timed without the step
#: stages so the Fig. 5/6 traced episodes stay one opaque row.
RENDER_STAGES: Dict[str, Tuple[Site, ...]] = {
    "analysis.render": (("workloads", "render_tables"),),
    "analysis.fig_trace": (
        ("repro.analysis.report", "fig5_series"),
        ("repro.analysis.report", "fig6_series"),
    ),
}

#: Parent-side stage of the batch x jobs pool.
POOL_STAGES: Dict[str, Tuple[Site, ...]] = {
    "executor.pool_run": (("repro.core.executor", "BatchParallelExecutor.run"),),
}

#: Self time outside every stage span (the root span's own time).
ROOT = "other"

#: Lockstep widths under this run slower batched than serial (ROADMAP's
#: measured break-even).
BREAK_EVEN_LANES = 16


#: Spans kept in memory for :meth:`Tracer.write`; the per-stage totals
#: count every span regardless.
SPAN_CAP = 100_000


class Tracer:
    """Span recorder with online self-time accumulation."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._installed: List[Tuple[object, str, object]] = []

    def _close(self, stage: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[stage] += duration - frame[1]
        self.total_s[stage] += duration
        self.calls[stage] += 1
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((stage, start, end, parent))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        """Time a block as one span of ``stage``."""
        frame = [stage, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stage, frame, start, time.perf_counter())

    def wrap(
        self,
        stage: str,
        fn: Callable,
        observe: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span of ``stage``.

        ``observe(args, result)`` runs after the span closes, to count work
        (lanes, rows) at the boundary where it happens.
        """
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [stage, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stage, frame, start, clock())
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", stage)
        return traced

    def install(
        self,
        stages: Dict[str, Tuple[Site, ...]],
        observers: Optional[Dict[Site, Callable[[tuple, object], None]]] = None,
    ) -> None:
        """Wrap every site of ``stages`` in place (undo with :meth:`uninstall`).

        Raises:
            LookupError: a site no longer exists, or a class attribute is
                inherited rather than defined there — the layer map is
                stale and must be updated, not silently skipped.
        """
        observers = observers or {}
        for stage, sites in stages.items():
            for site in sites:
                owner, attr = _resolve(site)
                original = _own_attribute(owner, attr, site)
                wrapped = self.wrap(stage, original, observers.get(site))
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(
        self,
        stages: Dict[str, Tuple[Site, ...]],
        observers: Optional[Dict[Site, Callable[[tuple, object], None]]] = None,
    ) -> Iterator["Tracer"]:
        """:meth:`install` for the duration of a block."""
        self.install(stages, observers)
        try:
            yield self
        finally:
            self.uninstall()

    def stage_metrics(
        self, stages: Sequence[str], prefix: str = ""
    ) -> Dict[str, float]:
        """``<stage>_s`` (self seconds) and ``<stage>_calls`` per stage."""
        out: Dict[str, float] = {}
        for stage in stages:
            out[f"{prefix}{stage}_s"] = self.self_s.get(stage, 0.0)
            out[f"{prefix}{stage}_calls"] = float(self.calls.get(stage, 0))
        return out

    def write(self, path: str) -> None:
        """Write the kept spans and the per-stage totals as JSON."""
        record = {
            "spans": [list(s) for s in self.spans],
            "dropped_spans": self.dropped,
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def batch_observers(tracer: Tracer) -> Dict[Site, Callable[[tuple, object], None]]:
    """Counters taken at the batch engine's own boundaries."""
    counters = tracer.counters

    def on_dynamics(args: tuple, _result: object) -> None:
        width = len(args[1])
        counters["batch.ticks"] += 1
        counters["batch.lane_steps"] += width
        if width < BREAK_EVEN_LANES:
            counters["batch.narrow_ticks"] += 1

    def on_control(args: tuple, _result: object) -> None:
        counters["batch.vector_lane_steps"] += len(args[1])

    def on_screen(args: tuple, flags: object) -> None:
        counters["batch.screened"] += len(args[1])
        counters["batch.flagged"] += sum(flags)  # type: ignore[arg-type]

    def on_forward(args: tuple, _result: object) -> None:
        counters["ml.forwards"] += 1
        counters["ml.rows"] += args[1].shape[0]

    return {
        ("repro.sim.batch_state", "BatchDynamics.step"): on_dynamics,
        ("repro.sim.batch_control", "BatchControlStack.step_control"): on_control,
        ("repro.sim.batch_hazards", "BatchHazardMonitor.screen"): on_screen,
        ("repro.ml.lstm", "LstmNetwork.forward"): on_forward,
    }


def batch_metrics(tracer: Tracer) -> Dict[str, float]:
    """Lockstep-engine per-layer metrics from the counters and spans."""
    c = tracer.counters
    ticks = c.get("batch.ticks", 0.0)
    lane_steps = c.get("batch.lane_steps", 0.0)
    loop_s = (
        tracer.total_s.get("core.executor", 0.0)
        - tracer.total_s.get("core.platform_init", 0.0)
        - tracer.total_s.get("batch.setup", 0.0)
    )
    screened = c.get("batch.screened", 0.0)
    forwards = c.get("ml.forwards", 0.0)
    return {
        "batch.ticks": ticks,
        "batch.lane_steps": lane_steps,
        "batch.mean_width": lane_steps / ticks if ticks else 0.0,
        "batch.narrow_tick_frac": c.get("batch.narrow_ticks", 0.0) / ticks if ticks else 0.0,
        "batch.tick_us": 1e6 * loop_s / ticks if ticks else 0.0,
        "batch.scalar_lane_frac": (
            1.0 - c.get("batch.vector_lane_steps", 0.0) / lane_steps if lane_steps else 0.0
        ),
        "batch.setup_s": tracer.total_s.get("batch.setup", 0.0),
        "batch.hazard_flag_frac": c.get("batch.flagged", 0.0) / screened if screened else 0.0,
        "ml.rows_per_forward": c.get("ml.rows", 0.0) / forwards if forwards else 0.0,
    }


def _resolve(site: Site) -> Tuple[object, str]:
    module_name, path = site
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _own_attribute(owner: object, attr: str, site: Site) -> object:
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise LookupError(f"{site[0]}.{site[1]}: not defined on {owner.__name__}")
        return vars(owner)[attr]
    if not hasattr(owner, attr):
        raise LookupError(f"{site[0]}.{site[1]}: no such attribute")
    return getattr(owner, attr)
