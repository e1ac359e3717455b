"""The closed-loop evaluation platform (the paper's Fig. 3).

* :mod:`repro.core.hazards` — hazard (H1/H2) and accident (A1/A2)
  detection.
* :mod:`repro.core.metrics` — per-episode measurement record and campaign
  aggregation (prevention rates, mitigation times, trigger rates, hardest
  brake, min TTC, following distance, lane-line distance).
* :mod:`repro.core.platform` — the 100 Hz loop wiring simulator,
  perception, fault injection, ADAS, safety interventions and arbitration.
* :mod:`repro.core.executor` — pluggable campaign executors (serial /
  batch, each alone or inside one process pool) with deterministic,
  ordered results.
* :mod:`repro.core.cache` — digest-keyed campaign result cache behind
  pluggable storage backends (``REPRO_CACHE_DIR``).
* :mod:`repro.core.experiment` — campaign execution (sharding, resume,
  caching) and aggregation.
* :mod:`repro.core.scheduler` — the distributed campaign scheduler
  (plan → dispatch → collect over a registry of worker backends).
"""

from repro.core.hazards import AccidentType, HazardMonitor
from repro.core.metrics import EpisodeResult, aggregate, load_results, save_results
from repro.core.platform import EpisodeTrace, SimulationPlatform
from repro.core.executor import (
    CampaignExecutor,
    ExecutionPolicy,
    ParallelExecutor,
    SerialExecutor,
    available_cores,
)
from repro.core.cache import (
    CacheBackend,
    CampaignCache,
    DirectoryCacheBackend,
    MemoryCacheBackend,
    TieredCache,
    campaign_digest,
    default_cache,
)
from repro.core.experiment import (
    CampaignResult,
    merge_shards,
    run_campaign,
    run_episode,
)
from repro.core.scheduler import (
    CampaignPlan,
    InProcessBackend,
    SSHBackend,
    SchedulerError,
    ShardJob,
    SubprocessFleetBackend,
    UnknownBackendError,
    WorkerBackend,
    dispatch_campaign,
    make_backend,
    register_backend,
    registered_backends,
)

__all__ = [
    "AccidentType",
    "HazardMonitor",
    "EpisodeResult",
    "aggregate",
    "load_results",
    "save_results",
    "EpisodeTrace",
    "SimulationPlatform",
    "CampaignExecutor",
    "ExecutionPolicy",
    "ParallelExecutor",
    "SerialExecutor",
    "available_cores",
    "CacheBackend",
    "CampaignCache",
    "DirectoryCacheBackend",
    "MemoryCacheBackend",
    "TieredCache",
    "campaign_digest",
    "default_cache",
    "CampaignResult",
    "merge_shards",
    "run_campaign",
    "run_episode",
    "CampaignPlan",
    "InProcessBackend",
    "SSHBackend",
    "SchedulerError",
    "ShardJob",
    "SubprocessFleetBackend",
    "UnknownBackendError",
    "WorkerBackend",
    "dispatch_campaign",
    "make_backend",
    "register_backend",
    "registered_backends",
]
