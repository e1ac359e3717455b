"""repro — reproduction of "Safety Interventions against Adversarial Patches
in an Open-Source Driver Assistance System" (DSN 2025).

A from-scratch closed-loop ADAS evaluation platform: an OpenPilot-substitute
control stack in the loop with a MetaDrive-substitute highway simulator, a
source-level fault-injection engine emulating adversarial-patch perception
attacks, layered safety interventions (AEBS/FCW, firmware safety checks,
simulated human driver), and an LSTM+CUSUM ML mitigation baseline.

Quickstart::

    from repro import (
        EpisodeSpec, FaultType, InterventionConfig, AebsConfig, run_episode,
    )

    spec = EpisodeSpec(
        scenario_id="S1", initial_gap=60.0,
        fault_type=FaultType.RELATIVE_DISTANCE, repetition=0, seed=7,
    )
    safety = InterventionConfig(driver=True, aeb=AebsConfig.INDEPENDENT)
    result = run_episode(spec, safety)
    print(result.accident, result.prevented)
"""

from repro.attacks import (
    CampaignSpec,
    EpisodeSpec,
    FaultInjectionEngine,
    FaultType,
    ShardSpec,
    enumerate_campaign,
)
from repro.core import (
    AccidentType,
    CampaignCache,
    CampaignExecutor,
    CampaignPlan,
    CampaignResult,
    EpisodeResult,
    ParallelExecutor,
    SerialExecutor,
    SimulationPlatform,
    WorkerBackend,
    aggregate,
    campaign_digest,
    default_cache,
    dispatch_campaign,
    load_results,
    make_backend,
    merge_shards,
    registered_backends,
    run_campaign,
    run_episode,
    save_results,
)
from repro.safety import AebsConfig, InterventionConfig
from repro.sim import (
    SCENARIO_IDS,
    FRICTION_CONDITIONS,
    ParamSpec,
    ScenarioConfig,
    ScenarioFamily,
    UnknownScenarioError,
    build_scenario,
    family_catalog,
    get_family,
    register_family,
    registered_families,
)

__version__ = "1.0.0"

__all__ = [
    "CampaignSpec",
    "EpisodeSpec",
    "FaultInjectionEngine",
    "FaultType",
    "ShardSpec",
    "enumerate_campaign",
    "AccidentType",
    "CampaignCache",
    "CampaignPlan",
    "WorkerBackend",
    "dispatch_campaign",
    "make_backend",
    "registered_backends",
    "CampaignExecutor",
    "CampaignResult",
    "EpisodeResult",
    "ParallelExecutor",
    "SerialExecutor",
    "SimulationPlatform",
    "aggregate",
    "campaign_digest",
    "default_cache",
    "load_results",
    "merge_shards",
    "run_campaign",
    "run_episode",
    "save_results",
    "AebsConfig",
    "InterventionConfig",
    "SCENARIO_IDS",
    "FRICTION_CONDITIONS",
    "ParamSpec",
    "ScenarioConfig",
    "ScenarioFamily",
    "UnknownScenarioError",
    "build_scenario",
    "family_catalog",
    "get_family",
    "register_family",
    "registered_families",
    "__version__",
]
