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
  executors inside each worker: contiguous chunks go out, results come
  back in submission order.  ``ParallelExecutor`` runs
  :class:`SerialExecutor` in many small chunks for load balancing;
  ``BatchParallelExecutor`` (``--executor batch --jobs N``) runs
  :class:`BatchExecutor` in one wide chunk per worker, composing the
  vectorization speedup with multi-core scaling.

All four return results **bit-identical** to the serial executor's for
the same episode list, and report progress through a thread-safe
``(done, total)`` callback (see :class:`ProgressTracker`), counted per
*episode* even when dispatch happens per chunk.

Episode payloads cross process boundaries, which is why
:class:`~repro.core.metrics.EpisodeResult` is fully picklable and carries
``to_dict``/``from_dict`` serialization.  When a payload is *not*
picklable (e.g. a lambda ``ml_factory``), the pool degrades to
in-process execution with a ``RuntimeWarning`` rather than failing
mid-campaign — use the picklable
:class:`repro.ml.mitigation.MitigationFactory` (which carries the trained
weights) instead of a lambda so ML campaigns dispatch like the rest.

:func:`resolve_executor` is the one way from knobs (an
:data:`EXECUTOR_NAMES` name, ``jobs``, ``lanes``) to an executor, and
:func:`check_knobs` the one validation of those knobs.  ``jobs``
defaults to the ``REPRO_JOBS`` environment variable (see
:func:`default_jobs`), so campaigns parallelise without touching call
sites: ``REPRO_JOBS=8 python -m repro table6``.
"""

from __future__ import annotations

import abc
import os
import pickle
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import as_completed
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.campaign import EpisodeSpec
from repro.core.metrics import EpisodeResult
from repro.safety.arbitration import InterventionConfig

if TYPE_CHECKING:
    from repro.core.platform import SimulationPlatform

ProgressCallback = Callable[[int, int], None]


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
        platform_kwargs: extra :class:`SimulationPlatform` keyword
            arguments (``max_steps``, ``dt``, ...).
    """

    spec: EpisodeSpec
    interventions: InterventionConfig
    ml_factory: Optional[Callable[[], object]] = None
    platform_kwargs: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def make(
        spec: EpisodeSpec,
        interventions: InterventionConfig,
        ml_factory: Optional[Callable[[], object]] = None,
        **platform_kwargs,
    ) -> "EpisodeTask":
        """Build a task, normalising kwargs into a hashable/picklable form."""
        return EpisodeTask(
            spec=spec,
            interventions=interventions,
            ml_factory=ml_factory,
            platform_kwargs=tuple(sorted(platform_kwargs.items())),
        )


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
        **dict(task.platform_kwargs),
    )


def execute_task(task: EpisodeTask) -> EpisodeResult:
    """Run one :class:`EpisodeTask` to completion."""
    return _build_platform(task).run()


def execute_task_profiled(task: EpisodeTask, profile: PhaseProfile) -> EpisodeResult:
    """:func:`execute_task` with per-phase wall-clock accumulation.

    Replays ``SimulationPlatform.run`` phase by phase with a counter read
    between phases; the call sequence (and therefore the result) is
    identical to the unprofiled path.
    """
    platform = _build_platform(task)
    result = platform._begin_episode()
    for step_index in range(platform.max_steps):
        t0 = perf_counter()
        platform._control_phase(step_index, result)
        t1 = perf_counter()
        platform.world.step(platform.dt)
        t2 = perf_counter()
        finished = platform._after_dynamics(step_index, result)
        t3 = perf_counter()
        profile.control_s += t1 - t0
        profile.dynamics_s += t2 - t1
        profile.post_s += t3 - t2
        profile.steps += 1
        if finished:
            break
    platform._finish_episode(result)
    return result


class ProgressTracker:
    """Thread-safe ``(done, total)`` progress fan-in.

    Chunked parallel dispatch completes out of order and (depending on the
    executor implementation) may report from multiple threads; this
    serialises the counter updates and the user callback behind one lock so
    ``done`` is strictly monotonic.  ``done`` counts *episodes* but advances
    by whole chunks under parallel dispatch, so consumers must not assume
    unit increments — only that each reported value exceeds the last and
    the final call reports ``(total, total)``.
    """

    def __init__(self, total: int, callback: Optional[ProgressCallback]) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.total = total
        self.done = 0
        self._callback = callback
        self._lock = threading.Lock()

    def advance(self, count: int = 1) -> None:
        """Record ``count`` finished episodes and notify the callback.

        Raises:
            ValueError: if ``count`` is not positive — a zero or negative
                advance is always a caller bug (an empty chunk result
                would silently stall the ``(done, total)`` contract).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            self.done += count
            if self._callback is not None:
                self._callback(self.done, self.total)


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
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        """Execute every task and return results in task order."""

    def stream_width(self, remaining: int) -> int:
        """Tasks per :meth:`run` call when results stream to a resume file.

        A resumed run hands the executor its ``remaining`` tasks in
        slices of this width and persists each slice's results before the
        next starts, so the width is both the executor's unit of work and
        the most a crash can lose.  The default is 8 episodes.
        """
        return 8


class SerialExecutor(CampaignExecutor):
    """In-process, in-order execution (the reference backend).

    Args:
        profile: optional :class:`PhaseProfile` to accumulate per-phase
            step timing into (``repro campaign --profile``); results are
            unaffected.
    """

    #: Class-level default so subclasses with bare ``__init__``
    #: overrides (test doubles predating profiling) stay unprofiled.
    profile: Optional[PhaseProfile] = None

    def __init__(self, profile: Optional[PhaseProfile] = None) -> None:
        self.profile = profile

    def run(
        self,
        tasks: Sequence[EpisodeTask],
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        tracker = ProgressTracker(len(tasks), progress)
        results: List[EpisodeResult] = []
        for task in tasks:
            if self.profile is not None:
                results.append(execute_task_profiled(task, self.profile))
            else:
                results.append(execute_task(task))
            tracker.advance()
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
    progress: Optional[ProgressCallback],
) -> List[EpisodeResult]:
    """Run ``tasks`` on ``jobs`` worker processes, ``inner`` inside each.

    The one process-pool loop: tasks go out in contiguous chunks of
    ``chunk_size`` and are reassembled in submission order, so the result
    list is bit-identical to ``inner.run(tasks)`` whatever the chunk
    boundaries.  One worker, one task or a payload that does not pickle
    runs ``inner`` in this process instead.
    """
    if not tasks:
        return []
    if jobs == 1 or len(tasks) == 1:
        # One worker or one task: a pool adds spawn + pickling overhead
        # with zero parallelism to gain.
        return inner.run(tasks, progress)
    if not _dispatchable(tasks):
        warnings.warn(
            "campaign payload is not picklable (e.g. a lambda ml_factory); "
            "falling back to in-process execution — use a module-level "
            "factory such as repro.ml.MitigationFactory to enable "
            "parallel dispatch",
            RuntimeWarning,
            stacklevel=3,
        )
        return inner.run(tasks, progress)

    tracker = ProgressTracker(len(tasks), progress)
    chunks = [
        list(tasks[i : i + chunk_size]) for i in range(0, len(tasks), chunk_size)
    ]
    ordered: Dict[int, List[EpisodeResult]] = {}
    with _ProcessPool(max_workers=min(jobs, len(chunks))) as pool:
        futures = {
            pool.submit(_run_chunk, inner, chunk): index
            for index, chunk in enumerate(chunks)
        }
        for future in as_completed(futures):
            chunk_results = future.result()
            ordered[futures[future]] = chunk_results
            tracker.advance(len(chunk_results))
    return [result for index in range(len(chunks)) for result in ordered[index]]


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
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        size = self.chunk_size or min(
            max(1, len(tasks) // (self.jobs * 4)), self.MAX_AUTO_CHUNK
        )
        return _run_pool(SerialExecutor(), self.jobs, size, tasks, progress)

    def stream_width(self, remaining: int) -> int:
        # A few dispatch rounds per slice, so streaming costs little
        # parallel efficiency.
        return max(8, 4 * self.jobs)


class BatchExecutor(CampaignExecutor):
    """Lockstep vectorized execution: N episodes advance together.

    One process owns all episodes and steps them in lockstep through
    :class:`repro.sim.batch_state.BatchDynamics`, which integrates every
    lane's world with NumPy-vectorized float64 math while the
    perception/control/safety stacks keep running per lane.  Results are
    **bit-identical** to :class:`SerialExecutor` (the vectorized dynamics
    replicate the scalar arithmetic exactly; see the batch_state module
    docstring), so the two backends are interchangeable — batch trades
    per-episode Python interpreter overhead for array dispatch, which pays
    off on campaign-sized episode counts.

    Episodes can only share an integrate when they share a physics period,
    so tasks are grouped by their ``dt``; episodes finish independently
    (accident or ``max_steps``) and drop out of the lockstep as they do.

    Args:
        lanes: cap on episodes stepped together (``None`` = one batch per
            ``dt`` group).  Smaller caps bound memory; larger caps
            amortise NumPy dispatch overhead better.
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
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        if not tasks:
            return []
        tracker = ProgressTracker(len(tasks), progress)
        results: List[Optional[EpisodeResult]] = [None] * len(tasks)
        groups: Dict[object, List[int]] = {}
        for index, task in enumerate(tasks):
            dt = dict(task.platform_kwargs).get("dt", 0.01)
            groups.setdefault(dt, []).append(index)
        for indices in groups.values():
            width = self.lanes or len(indices)
            for i in range(0, len(indices), width):
                self._run_batch(tasks, indices[i : i + width], results, tracker)
        return results  # type: ignore[return-value]

    def stream_width(self, remaining: int) -> int:
        # One lockstep batch per slice: the lane cap, or uncapped the
        # whole remainder, which persists only once it completes.
        return self.lanes or max(1, remaining)

    def _run_batch(
        self,
        tasks: Sequence[EpisodeTask],
        indices: Sequence[int],
        results: List[Optional[EpisodeResult]],
        tracker: ProgressTracker,
    ) -> None:
        """Run one same-``dt`` group of episodes in lockstep."""
        from repro.sim.batch_control import BatchControlStack
        from repro.sim.batch_hazards import BatchHazardMonitor
        from repro.sim.batch_state import BatchDynamics

        platforms = [_build_platform(tasks[index]) for index in indices]
        from repro.safety.aebs import AebsConfig

        dynamics = BatchDynamics(
            [platform.world for platform in platforms],
            curvature_lookaheads=[
                platform.perception.params.curvature_lookahead
                for platform in platforms
            ],
            lead_max_ranges=[platform.sensor.max_range for platform in platforms],
            radar_leads=any(
                platform.interventions.aeb is AebsConfig.INDEPENDENT
                for platform in platforms
            ),
            human_leads=any(platform.driver is not None for platform in platforms),
        )
        stack = BatchControlStack(platforms, dynamics)
        hazards = BatchHazardMonitor(
            [platform.hazards for platform in platforms], dynamics
        )
        profile = self.profile
        dt = platforms[0].dt
        episodes = [platform._begin_episode() for platform in platforms]
        steps = [0] * len(platforms)
        active = list(range(len(platforms)))
        # The control phase runs before the first physics step, so the
        # step-0 world-query caches must be primed from the initial state.
        dynamics.prime(active)
        while active:
            t0 = perf_counter() if profile is not None else 0.0
            vector_lanes = [lane for lane in active if lane in stack.vector_set]
            stack.step_control(vector_lanes)
            for lane in active:
                if lane not in stack.vector_set:
                    platforms[lane]._control_phase(steps[lane], episodes[lane])
            if profile is not None:
                t1 = perf_counter()
                profile.control_s += t1 - t0
            dynamics.step(active, dt)
            if profile is not None:
                t2 = perf_counter()
                profile.dynamics_s += t2 - t1
                profile.steps += len(active)
            stack.accumulate(vector_lanes)
            # Masked hazard screen: only lanes where the scalar monitor
            # could mark or latch something this step run it; the mask is
            # exact, so quiet lanes skip the per-lane update entirely.
            haz_flags = hazards.screen(active)
            remaining = []
            for pos, lane in enumerate(active):
                platform = platforms[lane]
                if lane in stack.vector_set:
                    # The intervention recorders already ran vectorized in
                    # step_control; only mask-flagged hazard detection
                    # remains per lane.
                    if haz_flags[pos]:
                        finished = platform._close_step(
                            steps[lane], episodes[lane]
                        )
                        hazards.refresh(lane)
                    else:
                        finished = False
                else:
                    finished = platform._after_dynamics(steps[lane], episodes[lane])
                steps[lane] += 1
                if finished or steps[lane] >= platform.max_steps:
                    if lane in stack.vector_set:
                        # Quiet steps skip the per-step counter write, so
                        # stamp the final step count before retirement.
                        episodes[lane].steps = steps[lane]
                        stack.retire(lane, episodes[lane])
                    platform._finish_episode(episodes[lane])
                    results[indices[lane]] = episodes[lane]
                    tracker.advance()
                else:
                    remaining.append(lane)
            active = remaining
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
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        # ceil: one chunk per worker
        size = self.chunk_size or max(1, -(-len(tasks) // self.jobs))
        inner = BatchExecutor(lanes=self.lanes)
        return _run_pool(inner, self.jobs, size, tasks, progress)

    def stream_width(self, remaining: int) -> int:
        # One lane-capped batch per worker, or uncapped the whole remainder.
        return self.jobs * self.lanes if self.lanes else max(1, remaining)


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

    ``None`` (unset) means "one batch per ``dt`` group" — no cap.

    Raises:
        ValueError: on a malformed or non-positive ``REPRO_BATCH_LANES``.
    """
    return _env_count("REPRO_BATCH_LANES", "lockstep lane cap")


#: Executor names accepted wherever an executor can be chosen by string
#: (``run_campaign(..., executor="batch")``, ``--executor`` on the CLI,
#: fleet worker command lines).
EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "parallel", "batch")


def check_knobs(
    executor: "str | CampaignExecutor | None" = None, **counts: Optional[int]
) -> None:
    """The one validation of execution knobs, wherever they are accepted.

    A name ``executor`` must be in :data:`EXECUTOR_NAMES` (an instance or
    ``None`` passes); each ``counts`` knob (``jobs``, ``lanes``,
    ``workers``, ``chunk_size``) must be ``None`` (its default) or >= 1.

    Raises:
        ValueError: naming the offending argument.
    """
    if isinstance(executor, str) and executor not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of "
            f"{', '.join(EXECUTOR_NAMES)}"
        )
    for name, value in counts.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def resolve_executor(
    executor: "str | CampaignExecutor | None",
    jobs: Optional[int] = None,
    lanes: Optional[int] = None,
    profile: Optional[PhaseProfile] = None,
) -> CampaignExecutor:
    """Resolve an executor argument (name, instance or ``None``).

    Args:
        executor: a :data:`EXECUTOR_NAMES` name, a ready
            :class:`CampaignExecutor` instance (returned unchanged), or
            ``None``: serial for one worker, parallel for more.
        jobs: worker count for every name but ``"serial"``; ``None``
            defers to :func:`default_jobs` (the ``REPRO_JOBS``
            environment variable, then 1).  ``executor="batch"`` with
            more than one worker resolves to the
            :class:`BatchParallelExecutor` hybrid (lane shards across
            workers, batch engine inside each, bit-identical results).
        lanes: lockstep lane cap for the ``"batch"`` case (per worker
            under the hybrid); ``None`` defers to
            :func:`default_batch_lanes` (the ``REPRO_BATCH_LANES``
            environment variable, then uncapped).
        profile: a :class:`PhaseProfile` to accumulate per-phase timing
            into.  Only the in-process backends can time the step loop:
            resolving to the parallel executor or the batch×jobs hybrid
            with a profile raises.

    Raises:
        ValueError: from :func:`check_knobs` — an unknown executor name,
            or ``jobs``/``lanes`` below 1, whatever the name — or on
            ``profile`` with a multi-process backend.
    """
    check_knobs(executor, jobs=jobs, lanes=lanes)
    if executor is not None and not isinstance(executor, str):
        return executor
    if jobs is None and executor != "serial":
        jobs = default_jobs()
    if executor is None:
        executor = "parallel" if jobs > 1 else "serial"
    if executor == "serial":
        return SerialExecutor(profile=profile)
    if executor == "parallel":
        if profile is not None:
            raise ValueError(
                "per-phase profiling times the step loop in-process; "
                "the parallel executor runs episodes in worker "
                "processes — use the serial or batch executor"
            )
        return ParallelExecutor(jobs=jobs)
    if lanes is None:
        lanes = default_batch_lanes()
    if jobs == 1:
        return BatchExecutor(lanes=lanes, profile=profile)
    if profile is not None:
        raise ValueError(
            "--profile times the step loop in one process, but "
            "--jobs > 1 shards the batch executor across worker "
            "processes — drop --profile or run with --jobs 1"
        )
    return BatchParallelExecutor(jobs=jobs, lanes=lanes)
