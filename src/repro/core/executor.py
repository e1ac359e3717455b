"""Pluggable campaign execution engine.

Campaign episodes are embarrassingly parallel *by construction*: every
episode seed is derived order-independently from the campaign seed (see
:func:`repro.attacks.campaign.enumerate_campaign`) and a
:class:`~repro.core.platform.SimulationPlatform` owns all of its state, so
episodes share nothing at run time.  This module exploits that with four
interchangeable executors behind one abstraction,
:class:`CampaignExecutor`:

* :class:`SerialExecutor` — runs episodes in-process, in order.  Zero
  overhead; the reference executor.
* :class:`BatchExecutor` — steps all episodes in lockstep through the
  vectorized batch engine in one process.
* :class:`ParallelExecutor` and :class:`BatchParallelExecutor` — one
  process pool (:func:`_run_pool`) running one of the two in-process
  executors inside each worker: contiguous chunks go out, and each
  chunk's results land at their task positions as it returns.
  ``ParallelExecutor`` runs :class:`SerialExecutor` in many small chunks
  for load balancing;
  ``BatchParallelExecutor`` (``--executor batch --jobs N``) runs
  :class:`BatchExecutor` in one wide chunk per worker, composing the
  vectorization speedup with multi-core scaling.

All four return results **bit-identical** to the serial executor's for
the same episode list, in task order, and hand each episode back as it
finishes through an ``on_result(index, result)`` callback, called once
per task on the calling thread (see :meth:`CampaignExecutor.run`).

Episode payloads cross process boundaries, which is why
:class:`~repro.core.metrics.EpisodeResult` is fully picklable and carries
``to_dict``/``from_dict`` serialization.  When a payload is *not*
picklable (e.g. a lambda ``ml_factory``), the pool degrades to
in-process execution with a ``RuntimeWarning`` rather than failing
mid-campaign — use the picklable
:class:`repro.ml.mitigation.MitigationFactory` (which carries the trained
weights) instead of a lambda so ML campaigns dispatch like the rest.

:class:`ExecutionPolicy` carries the execution knobs (an
:data:`EXECUTOR_NAMES` name, ``jobs``, ``lanes``) from a CLI flag or a
library call down to a fleet worker's command line: validated once when
it is built (by :func:`check_knobs`, the one validation of those
knobs), resolved to an executor by :meth:`ExecutionPolicy.resolve`, and
turned back into ``repro worker`` flags by
:meth:`ExecutionPolicy.worker_args`.  ``resolve`` is the one place the
environment defaults apply: ``jobs`` falls back to ``REPRO_JOBS`` (see
:func:`default_jobs`), so campaigns parallelise without touching call
sites (``REPRO_JOBS=8 python -m repro table6``), and the batch lane cap
to ``REPRO_BATCH_LANES``.
"""

from __future__ import annotations

import abc
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import as_completed
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.campaign import EpisodeSpec
from repro.core.metrics import EpisodeResult
from repro.safety.arbitration import InterventionConfig

if TYPE_CHECKING:
    from repro.core.platform import SimulationPlatform

ResultCallback = Callable[[int, EpisodeResult], None]


@dataclass(frozen=True)
class EpisodeTask:
    """One unit of campaign work: an episode plus everything to run it.

    Attributes:
        spec: the episode to simulate.
        interventions: the safety configuration under test.
        ml_factory: builds a fresh ML controller for this episode (None
            when ``interventions.ml`` is False).  A factory rather than an
            instance so controller state can never leak across episodes —
            and so each worker process builds its own controller.
        max_steps: the episode's horizon; None runs the paper horizon,
            :attr:`SimulationPlatform.MAX_STEPS`.
    """

    spec: EpisodeSpec
    interventions: InterventionConfig
    ml_factory: Optional[Callable[[], object]] = None
    max_steps: Optional[int] = None


@dataclass
class PhaseProfile:
    """Accumulated wall-clock per simulation pipeline phase.

    The three phases partition one step of the platform loop: ``control``
    (perception → arbitration → actuation), ``dynamics`` (the physics
    integrate), and ``post`` (the post-step tail: metric accumulation,
    hazard detection, episode retirement).  ``steps`` counts lane-steps,
    so ``total_s / steps`` is the mean wall-clock per episode-step under
    either executor.  Profiling only reads the clock around existing
    calls — it never changes the call sequence, so profiled runs stay
    bit-identical to unprofiled ones.
    """

    control_s: float = 0.0
    dynamics_s: float = 0.0
    post_s: float = 0.0
    steps: int = 0

    @property
    def total_s(self) -> float:
        """Wall-clock across all three phases [s]."""
        return self.control_s + self.dynamics_s + self.post_s

    def as_dict(self) -> Dict[str, float]:
        """JSON-safe record (bench JSON / CLI reporting)."""
        return {
            "control_s": self.control_s,
            "dynamics_s": self.dynamics_s,
            "post_s": self.post_s,
            "steps": self.steps,
        }


def _build_platform(task: EpisodeTask) -> "SimulationPlatform":
    """A fresh platform for ``task``, with its own ML controller.

    Imports the platform lazily to keep worker start-up cheap under
    spawn-based start methods.
    """
    from repro.core.platform import SimulationPlatform

    controller = task.ml_factory() if task.ml_factory is not None else None
    return SimulationPlatform(
        task.spec,
        task.interventions,
        ml_controller=controller,
        max_steps=task.max_steps,
    )


def run_steps(
    platform: "SimulationPlatform",
    result: EpisodeResult,
    start: int = 0,
    profile: Optional[PhaseProfile] = None,
) -> EpisodeResult:
    """Step ``platform`` from step ``start`` to the end of its episode.

    The one scalar step loop: ``SimulationPlatform.run`` and
    :class:`SerialExecutor` run every episode through it from step 0, and
    :class:`BatchExecutor` runs the lanes its lockstep refuses through it
    from step 0 and finishes the lanes of a narrow lockstep through it
    from the step they reached.  With a ``profile`` the clock is read
    between the phases, which changes no result.
    """
    dt = platform.DT
    for step_index in range(start, platform.max_steps):
        t0 = perf_counter() if profile is not None else 0.0
        platform._control_phase(step_index, result)
        t1 = perf_counter() if profile is not None else 0.0
        platform.world.step(dt)
        t2 = perf_counter() if profile is not None else 0.0
        finished = platform._after_dynamics(step_index, result)
        if profile is not None:
            profile.control_s += t1 - t0
            profile.dynamics_s += t2 - t1
            profile.post_s += perf_counter() - t2
            profile.steps += 1
        if finished:
            break
    platform._finish_episode(result)
    return result


class CampaignExecutor(abc.ABC):
    """Maps :class:`EpisodeTask`s to :class:`EpisodeResult`s, in order.

    Implementations must return results in task order and must be
    deterministic: the same task list always yields the same result list,
    regardless of scheduling.
    """

    @abc.abstractmethod
    def run(
        self,
        tasks: Sequence[EpisodeTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EpisodeResult]:
        """Execute every task and return results in task order.

        ``on_result(i, result)`` is called once per task, on the calling
        thread, as soon as task ``i`` finishes; tasks may finish in any
        order.  The shard primitive persists and reports progress through
        it (:func:`repro.core.scheduler.execute_shard`).
        """


class SerialExecutor(CampaignExecutor):
    """In-process, in-order execution (the reference backend).

    Args:
        profile: optional :class:`PhaseProfile` to accumulate per-phase
            step timing into (``repro campaign --profile``); results are
            unaffected.
    """

    def __init__(self, profile: Optional[PhaseProfile] = None) -> None:
        self.profile = profile

    def run(
        self,
        tasks: Sequence[EpisodeTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EpisodeResult]:
        results: List[EpisodeResult] = []
        for index, task in enumerate(tasks):
            platform = _build_platform(task)
            result = run_steps(
                platform, platform._begin_episode(), profile=self.profile
            )
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


def _run_chunk(
    inner: CampaignExecutor, tasks: Sequence[EpisodeTask]
) -> List[EpisodeResult]:
    """Worker-side: run one chunk of tasks through the in-process executor."""
    return inner.run(tasks)


def _dispatchable(tasks: Sequence[EpisodeTask]) -> bool:
    """True when every payload survives the process boundary.

    Probing only ``tasks[0]`` is not enough: campaigns mix arms, and a
    non-picklable payload (e.g. a lambda ``ml_factory`` on the ML arm)
    can sit anywhere in the list.  The expensive part of a task pickle
    is the ``ml_factory`` payload, so one representative per distinct
    factory object is probed instead of all N tasks.
    """
    seen: set = set()
    for task in tasks:
        marker = id(task.ml_factory) if task.ml_factory is not None else None
        if marker in seen:
            continue
        seen.add(marker)
        try:
            pickle.dumps(task)
        except Exception:
            return False
    return True


def _run_pool(
    inner: CampaignExecutor,
    jobs: int,
    chunk_size: int,
    tasks: Sequence[EpisodeTask],
    on_result: Optional[ResultCallback],
) -> List[EpisodeResult]:
    """Run ``tasks`` on ``jobs`` worker processes, ``inner`` inside each.

    The one process-pool loop: tasks go out in contiguous chunks of
    ``chunk_size``, and each returned chunk's results land at their task
    positions (and go to ``on_result``), so the result list is
    bit-identical to ``inner.run(tasks)`` whatever the chunk boundaries.
    One worker, one task or a payload that does not pickle runs ``inner``
    in this process instead.
    """
    if not tasks:
        return []
    if jobs == 1 or len(tasks) == 1:
        # One worker or one task: a pool adds spawn + pickling overhead
        # with zero parallelism to gain.
        return inner.run(tasks, on_result)
    if not _dispatchable(tasks):
        warnings.warn(
            "campaign payload is not picklable (e.g. a lambda ml_factory); "
            "falling back to in-process execution — use a module-level "
            "factory such as repro.ml.MitigationFactory to enable "
            "parallel dispatch",
            RuntimeWarning,
            stacklevel=3,
        )
        return inner.run(tasks, on_result)

    starts = range(0, len(tasks), chunk_size)
    results: List[Optional[EpisodeResult]] = [None] * len(tasks)
    with _ProcessPool(max_workers=min(jobs, len(starts))) as pool:
        futures = {
            pool.submit(_run_chunk, inner, tasks[start : start + chunk_size]): start
            for start in starts
        }
        for future in as_completed(futures):
            start = futures[future]
            for index, result in enumerate(future.result(), start):
                results[index] = result
                if on_result is not None:
                    on_result(index, result)
    return results  # type: ignore[return-value]


class ParallelExecutor(CampaignExecutor):
    """Process-pool execution with chunked dispatch and ordered reassembly.

    Args:
        jobs: worker process count (>= 1).  ``jobs=1`` short-circuits to
            in-process execution — no pool overhead, identical results.
        chunk_size: episodes per dispatched chunk.  ``None`` picks a size
            that yields ~4 chunks per worker, balancing dispatch overhead
            against load-balancing granularity.

    Results are reassembled in submission order, so ``run`` is
    bit-identical to :class:`SerialExecutor` on the same task list.
    """

    #: Upper bound on the auto-chosen chunk size: chunks larger than this
    #: starve the pool tail even on very large campaigns.
    MAX_AUTO_CHUNK = 16

    def __init__(self, jobs: int, chunk_size: Optional[int] = None) -> None:
        check_knobs(jobs=jobs, chunk_size=chunk_size)
        self.jobs = jobs
        self.chunk_size = chunk_size

    def run(
        self,
        tasks: Sequence[EpisodeTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EpisodeResult]:
        size = self.chunk_size or min(
            max(1, len(tasks) // (self.jobs * 4)), self.MAX_AUTO_CHUNK
        )
        return _run_pool(SerialExecutor(), self.jobs, size, tasks, on_result)


#: Lockstep width below which a batch tick costs more than stepping each
#: lane on its own.  From a width sweep of the report's attacked Table VI
#: arms (forced lockstep, 4,400 steps, seed 2025) on a 2-vCPU host: a
#: tick cost 48 us per lane-step at 12 lanes, 43-47 at 14, 34-39 at 16
#: and 25-35 at 18-22, where serial costs 41-46.  A lockstep this narrow
#: with no batched ML lane finishes on :func:`run_steps`; 0 never hands
#: off.
BREAK_EVEN_LANES = 16


class BatchExecutor(CampaignExecutor):
    """Lockstep vectorized execution: N episodes advance together.

    One process owns all episodes and steps them in lockstep, with the
    control phase (:class:`repro.sim.batch_control.BatchControlStack`),
    the physics (:class:`repro.sim.batch_state.BatchDynamics`) and the
    hazard screen (:class:`repro.sim.batch_hazards.BatchHazardMonitor`)
    each vectorized over every lane.  Results are **bit-identical** to
    :class:`SerialExecutor` (see those modules' docstrings), so the two
    backends are interchangeable — batch trades per-episode Python
    interpreter overhead for array dispatch, which pays off on
    campaign-sized episode counts.

    Episodes finish independently (accident or ``max_steps``) and drop
    out of the lockstep as they do.  A lane joins the lockstep only when
    every stage of its step has a lane-wide twin
    (:func:`repro.sim.batch_control.lockstep_refusal`); a refused lane (a
    non-stock ML controller, a third-party agent behaviour) runs on the
    scalar loop from step 0.
    Once fewer than :data:`BREAK_EVEN_LANES` lanes remain and none runs
    a batched ML controller (whose stacked LSTM forward wins at any
    width), the lockstep hands off: every lane's state is synced back to
    its objects and each finishes on the scalar loop, so a narrow tail,
    or a lane cap below the constant, costs what serial costs.

    Args:
        lanes: cap on episodes stepped together (``None`` = one batch of
            every task).  Smaller caps bound memory; larger caps amortise
            NumPy dispatch overhead better.
        profile: optional :class:`PhaseProfile` to accumulate per-phase
            step timing into (``steps`` counts lane-steps); results are
            unaffected.
    """

    def __init__(
        self,
        lanes: Optional[int] = None,
        profile: Optional[PhaseProfile] = None,
    ) -> None:
        check_knobs(lanes=lanes)
        self.lanes = lanes
        self.profile = profile

    def run(
        self,
        tasks: Sequence[EpisodeTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EpisodeResult]:
        if not tasks:
            return []
        results: List[Optional[EpisodeResult]] = [None] * len(tasks)

        def finish(index: int, result: EpisodeResult) -> None:
            results[index] = result
            if on_result is not None:
                on_result(index, result)

        indices = range(len(tasks))
        width = self.lanes or len(tasks)
        for i in range(0, len(tasks), width):
            self._run_batch(tasks, indices[i : i + width], finish)
        return results  # type: ignore[return-value]

    def _run_batch(
        self,
        tasks: Sequence[EpisodeTask],
        indices: Sequence[int],
        finish: ResultCallback,
    ) -> None:
        """Run the episodes at ``indices`` in lockstep, handing each
        result to ``finish`` as its lane retires."""
        from repro.sim.batch_control import BatchControlStack, lockstep_refusal
        from repro.sim.batch_hazards import BatchHazardMonitor

        profile = self.profile
        platforms = []
        admitted = []
        for index in indices:
            platform = _build_platform(tasks[index])
            if lockstep_refusal(platform) is None:
                platforms.append(platform)
                admitted.append(index)
            else:
                result = run_steps(platform, platform._begin_episode(), profile=profile)
                finish(index, result)
        if not platforms:
            return
        indices = admitted
        stack = BatchControlStack(platforms)
        dynamics = stack.dynamics
        hazards = BatchHazardMonitor(
            [platform.hazards for platform in platforms], dynamics
        )
        dt = platforms[0].DT
        episodes = [platform._begin_episode() for platform in platforms]
        # The stack's arrays hold one row per active lane, in this order;
        # every active lane has run ``tick`` steps.
        active = list(range(len(platforms)))
        horizon = dynamics.registry.add(
            SimpleNamespace(steps=np.array([p.max_steps for p in platforms]))
        )
        tick = 0
        # The control phase runs before the first physics step, so its
        # step-0 world queries come from the initial state.
        dynamics.prime()

        def retire(row: int, lane: int) -> None:
            # A lane's state lives in the lockstep's arrays until retire()
            # syncs it to its objects; quiet steps skip the per-step
            # counter write, so the step count is stamped first.
            episodes[lane].steps = tick
            stack.retire(row, lane, episodes[lane])

        while active:
            if len(active) < BREAK_EVEN_LANES and stack.ml_set.isdisjoint(active):
                # Hand off: once retired, a lane's objects, hazard records
                # and perception stream stand where serial's would at
                # this tick boundary.
                for row, lane in enumerate(active):
                    retire(row, lane)
                    result = run_steps(platforms[lane], episodes[lane], tick, profile)
                    finish(indices[lane], result)
                return
            t0 = perf_counter() if profile is not None else 0.0
            stack.step_control(active)
            if profile is not None:
                t1 = perf_counter()
                profile.control_s += t1 - t0
            dynamics.step(active, dt)
            if profile is not None:
                t2 = perf_counter()
                profile.dynamics_s += t2 - t1
                profile.steps += len(active)
            stack.accumulate()
            # Masked hazard screen: only lanes where the scalar monitor
            # could mark or latch something this step run it; the mask is
            # exact, so quiet lanes skip the per-lane update entirely.  The
            # intervention recorders already ran in step_control.
            flagged = hazards.screen(active)
            tick += 1
            ended = horizon.steps <= tick
            retired = []
            for row in np.flatnonzero(flagged | ended).tolist():
                lane = active[row]
                finished = False
                if flagged[row]:
                    dynamics.sync(row, lane)
                    finished = platforms[lane]._close_step(tick - 1, episodes[lane])
                    hazards.refresh(row, lane)
                if finished or ended[row]:
                    retire(row, lane)
                    platforms[lane]._finish_episode(episodes[lane])
                    finish(indices[lane], episodes[lane])
                    retired.append(row)
            if retired:
                # One compaction drops every retired lane's rows.
                survivors = [row for row in range(len(active)) if row not in retired]
                dynamics.registry.compact(survivors)
                active = [active[row] for row in survivors]
            if profile is not None:
                profile.post_s += perf_counter() - t2


class BatchParallelExecutor(CampaignExecutor):
    """Batch × jobs hybrid: lane shards across workers, batch inside each.

    Composes the two previously mutually-exclusive speedups: tasks are
    split into ``jobs`` contiguous chunks, each worker process runs the
    vectorized :class:`BatchExecutor` on its chunk, and results are
    reassembled in submission order.  Episodes are independent and the
    batch engine is bit-identical to serial on *any* task subset, so the
    chunking rule — contiguous chunks, ordered reassembly — keeps the
    returned list byte-identical to :class:`SerialExecutor` regardless of
    worker count or chunk boundaries.

    Unlike :class:`ParallelExecutor` (many small chunks for load
    balancing), chunks here default to one *wide* chunk per worker: the
    batch engine's per-step array dispatch amortises better the more
    lanes it steps together, and a campaign's episodes are near-uniform
    in cost.

    Args:
        jobs: worker process count (>= 1).  ``jobs=1`` short-circuits to
            an in-process :class:`BatchExecutor` — no pool overhead,
            identical results.
        lanes: per-worker lockstep lane cap, forwarded to each worker's
            :class:`BatchExecutor` (``None`` = uncapped).
        chunk_size: episodes per dispatched chunk (``None`` = one chunk
            per worker).  Exposed for tests and tail-latency tuning;
            results do not depend on it.
    """

    def __init__(
        self,
        jobs: int,
        lanes: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        check_knobs(jobs=jobs, lanes=lanes, chunk_size=chunk_size)
        self.jobs = jobs
        self.lanes = lanes
        self.chunk_size = chunk_size

    def run(
        self,
        tasks: Sequence[EpisodeTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EpisodeResult]:
        # ceil: one chunk per worker
        size = self.chunk_size or max(1, -(-len(tasks) // self.jobs))
        inner = BatchExecutor(lanes=self.lanes)
        return _run_pool(inner, self.jobs, size, tasks, on_result)


def available_cores() -> int:
    """CPUs actually usable by this process (affinity/cgroup aware).

    The sizing input for worker fleets and parallel benchmarks:
    ``os.cpu_count()`` reports the machine, not what a container or
    ``taskset`` actually grants this process.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _env_count(name: str, meaning: str) -> Optional[int]:
    """A positive integer from environment variable ``name`` (None if unset).

    Raises:
        ValueError: on a malformed or non-positive value.
    """
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive integer ({meaning}), got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"{name} must be a positive integer ({meaning}), got {value}"
        )
    return value


def default_jobs() -> int:
    """Worker-count default: the ``REPRO_JOBS`` environment variable, or 1.

    Raises:
        ValueError: on a malformed or non-positive ``REPRO_JOBS``.
    """
    return _env_count("REPRO_JOBS", "worker process count") or 1


def default_batch_lanes() -> Optional[int]:
    """Batch-lane default: the ``REPRO_BATCH_LANES`` environment variable.

    ``None`` (unset) means no cap.

    Raises:
        ValueError: on a malformed or non-positive ``REPRO_BATCH_LANES``.
    """
    return _env_count("REPRO_BATCH_LANES", "lockstep lane cap")


#: Executor names accepted wherever an executor can be chosen by string
#: (``run_campaign(..., executor="batch")``, ``--executor`` on the CLI,
#: fleet worker command lines).
EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "parallel", "batch")


def check_knobs(executor: Optional[str] = None, **counts: Optional[int]) -> None:
    """The one validation of execution knobs, wherever they are accepted.

    ``executor`` must be ``None`` or an :data:`EXECUTOR_NAMES` name (a
    ready :class:`CampaignExecutor` instance is refused: only
    ``run_campaign(executor=...)`` takes one); each ``counts`` knob
    (``jobs``, ``lanes``, ``workers``, ``chunk_size``) must be ``None``
    (its default) or >= 1.

    Raises:
        ValueError: naming the offending argument.
    """
    if executor is not None and executor not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of "
            f"{', '.join(EXECUTOR_NAMES)}"
        )
    for name, value in counts.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign's episodes execute: executor name, workers, lane cap.

    Built once (a CLI command builds it from ``--executor``/``--jobs``/
    ``--lanes``) and validated when built; backends, the report config
    and fleet worker command lines carry it whole.  ``None`` fields defer
    to the environment, read only by :meth:`resolve`.

    Attributes:
        executor: an :data:`EXECUTOR_NAMES` name, or ``None``: serial for
            one worker, parallel for more.
        jobs: worker process count; ``None`` defers to ``REPRO_JOBS``
            (then 1).  ``"serial"`` ignores it; ``"batch"`` with more
            than one worker is the :class:`BatchParallelExecutor` hybrid.
        lanes: lockstep lane cap of the batch engine (per worker under
            the hybrid); ``None`` defers to ``REPRO_BATCH_LANES`` (then
            uncapped).  The other executors ignore it.
    """

    executor: Optional[str] = None
    jobs: Optional[int] = None
    lanes: Optional[int] = None

    def __post_init__(self) -> None:
        check_knobs(self.executor, jobs=self.jobs, lanes=self.lanes)

    def resolve(self, profile: Optional[PhaseProfile] = None) -> CampaignExecutor:
        """The executor this policy selects, environment defaults applied.

        Args:
            profile: a :class:`PhaseProfile` to accumulate per-phase
                timing into; only an in-process executor can time steps.

        Raises:
            ValueError: a malformed environment default, or ``profile``
                with an executor that runs episodes in worker processes.
        """
        jobs = self.jobs
        if jobs is None and self.executor != "serial":
            jobs = default_jobs()
        name = self.executor or ("parallel" if jobs > 1 else "serial")
        pooled = name == "parallel" or (name == "batch" and jobs > 1)
        if profile is not None and pooled:
            raise ValueError(
                f"--profile times the step loop in one process, but the "
                f"{name} executor at --jobs {jobs} runs episodes in worker "
                "processes — drop --profile, or run the serial or batch "
                "executor with --jobs 1"
            )
        if name == "serial":
            return SerialExecutor(profile=profile)
        if name == "parallel":
            return ParallelExecutor(jobs=jobs)
        lanes = self.lanes if self.lanes is not None else default_batch_lanes()
        if jobs == 1:
            return BatchExecutor(lanes=lanes, profile=profile)
        return BatchParallelExecutor(jobs=jobs, lanes=lanes)

    def worker_args(self) -> List[str]:
        """This policy as ``repro worker`` flags; unset fields stay unset,
        so the worker applies its own environment defaults."""
        flags = (("--jobs", self.jobs), ("--executor", self.executor),
                 ("--lanes", self.lanes))
        return [arg for flag, value in flags if value is not None
                for arg in (flag, str(value))]
