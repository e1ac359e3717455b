"""Full experiment report: the paper's evaluation as an artifact DAG.

``python -m repro report`` (see :mod:`repro.cli`) uses this to regenerate
the complete evaluation — Tables IV-VIII plus the Fig. 5/6 trace
summaries — into a single self-contained markdown document, mirroring the
paper's evaluation section layout.

The report is declared as a DAG of
:class:`~repro.analysis.incremental.ReportArtifact`\\ s (see
:func:`build_report_artifacts`): each table/figure names the campaign arms
it consumes, and the
:class:`~repro.analysis.incremental.IncrementalReportEngine` resolves
those arms against the campaign cache and resume directory.  Two modes
fall out:

* **blocking** (:func:`generate_report`, the default) — execute every
  missing campaign, render everything; a failed arm raises
  :class:`~repro.analysis.incremental.ReportError` naming its digest.
* **incremental** (``repro report --incremental``) — render every
  artifact whose inputs are already complete, emit placeholders with
  per-arm episode counts for the rest, and return in seconds.  Once the
  cache is complete the incremental report is byte-identical to the
  blocking one.

The report body is deterministic in its inputs (no timestamps), which is
what makes the manifest sidecar's byte-level reuse — and the golden-file
regression suite — possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.analysis.figures import (
    fig5_series,
    fig6_series,
    render_fig5_summary,
    render_fig6_summary,
    speed_drop,
)
from repro.analysis.incremental import (
    CampaignArm,
    IncrementalReportEngine,
    ReportArtifact,
    ReportError,
)
from repro.analysis.tables import (
    family_sweep_rows,
    render_family_sweep,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    table4_driving_performance,
    table5_lane_distance,
    table6_rows,
    table7_reaction_sweep,
    table8_friction_sweep,
)
from repro.attacks.campaign import CampaignSpec, EpisodeSpec
from repro.attacks.fi import FaultType
from repro.sim.families import get_family, param_token
from repro.core.cache import (
    CampaignCache,
    campaign_digest,
    default_cache,
    resume_file_for,
)
from repro.core.executor import ExecutionPolicy
from repro.core.experiment import CampaignResult, run_campaign
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig
from repro.sim.weather import FRICTION_CONDITIONS

__all__ = [
    "ReportConfig",
    "ReportError",
    "TABLE6_CONFIGS",
    "build_family_artifact",
    "build_report_artifacts",
    "generate_report",
]


@dataclass
class ReportConfig:
    """What to include and at which scale.

    Attributes:
        repetitions: campaign repetitions per grid cell (paper: 10).
        seed: master campaign seed.
        include_ml: include the ML baseline row (requires/uses the cached
            LSTM; training is triggered if no cache exists).
        reaction_times: Table VII sweep points.
        execution: how every report campaign executes (``repro report
            --executor/--jobs/--lanes``), in-process or on each fleet
            worker; results are bit-identical under every policy.
        cache_dir: campaign result cache directory (None defers to the
            ``REPRO_CACHE_DIR`` environment variable, then no caching).
            Cached campaigns — including the ML arm, keyed by its trainer
            configuration — are returned without executing any episodes.
        resume_dir: directory of per-campaign JSONL files keyed by content
            digest; an interrupted report re-run skips completed campaigns
            and resumes the partially-written one.
        extra_families: registered scenario-family ids to append as sweep
            artifacts after the paper tables (``repro report --family``);
            each family contributes one campaign arm per point of its
            declared ``report_axes`` sweep.
        backend: registered worker-backend name (``repro report
            --backend``); when set, every report campaign routes through
            the distributed scheduler (:mod:`repro.core.scheduler`), so
            shards execute on the worker fleet, land in the shared cache,
            and the incremental report fills in as they arrive.  ``None``
            keeps the historical direct ``run_campaign`` path (itself a
            single-shard plan).
        workers: worker count for the scheduler backend.
        workdir: shard work directory for the scheduler backend (reused
            across runs, it makes crashed report campaigns resume).
        log: progress sink (e.g. ``print``).
    """

    repetitions: int = 2
    seed: int = 2025
    include_ml: bool = False
    reaction_times: tuple = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
    execution: ExecutionPolicy = ExecutionPolicy()
    cache_dir: Optional[str] = None
    resume_dir: Optional[str] = None
    extra_families: tuple = ()
    backend: Optional[str] = None
    workers: Optional[int] = None
    workdir: Optional[str] = None
    log: Optional[Callable[[str], None]] = None

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def cache(self, create: bool = True) -> Optional[CampaignCache]:
        """The effective result cache (explicit dir, then environment).

        ``create=False`` yields a read-only handle that never materialises
        the directory — what status probes must use.
        """
        if self.cache_dir:
            return CampaignCache(self.cache_dir, create=create)
        return default_cache(create=create)

    def resume_path_for(self, digest: str) -> Optional[str]:
        """Resume file for a campaign digest under ``resume_dir`` (or None)."""
        if not self.resume_dir:
            return None
        return resume_file_for(self.resume_dir, digest)


#: The Table VI intervention rows, in paper order.
TABLE6_CONFIGS = (
    InterventionConfig(name="none"),
    InterventionConfig(driver=True, safety_check=True, name="driver+check"),
    InterventionConfig(
        driver=True, safety_check=True, aeb=AebsConfig.COMPROMISED,
        name="driver+check+aeb_comp",
    ),
    InterventionConfig(
        driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT,
        name="driver+check+aeb_indep",
    ),
    InterventionConfig(aeb=AebsConfig.COMPROMISED, name="aeb_comp"),
    InterventionConfig(aeb=AebsConfig.INDEPENDENT, name="aeb_indep"),
    InterventionConfig(driver=True, name="driver"),
)


def _run_report_campaign(
    config: ReportConfig,
    campaign: Union[CampaignSpec, Sequence[EpisodeSpec]],
    interventions: InterventionConfig,
    ml_factory: Optional[Callable[[], object]] = None,
    ml_token: Optional[str] = None,
) -> CampaignResult:
    """One report campaign through the persistence layer (cache + resume).

    With ``config.backend`` set, the campaign instead goes through the
    distributed scheduler's plan → dispatch → collect pipeline: shards
    execute on the configured worker fleet and the collected campaign is
    written through the shared cache under the same digest the report DAG
    resolves, so the incremental report sees it exactly as if it had run
    locally.
    """
    cache = config.cache()
    if config.backend:
        from repro.core.scheduler import dispatch_campaign, make_backend

        return dispatch_campaign(
            campaign,
            interventions,
            backend=make_backend(
                config.backend, workers=config.workers, execution=config.execution
            ),
            workdir=config.workdir,
            ml_factory=ml_factory,
            cache=cache if cache is not None else False,
            log=config._say,
        )
    resume_path = None
    if config.resume_dir:
        resume_path = config.resume_path_for(
            campaign_digest(campaign, interventions, ml_token=ml_token)
        )
    return run_campaign(
        campaign,
        interventions,
        ml_factory=ml_factory,
        executor=config.execution.resolve(),
        cache=cache if cache is not None else False,
        resume_path=resume_path,
    )


def _fenced(table: str) -> str:
    """A plain-text table wrapped in a markdown code fence."""
    return "\n".join(["```", table, "```"])


def build_report_artifacts(config: ReportConfig) -> List[ReportArtifact]:
    """The paper's report layout as an artifact DAG, in section order.

    Tables IV and V share the fault-free campaign arm; Table VI consumes
    one arm per intervention configuration (plus the ML arm when enabled);
    Tables VII/VIII consume one arm per sweep point.  The Fig. 5/6
    summaries trace single episodes directly (no campaign arms), so their
    freshness is tracked by the traced seed instead.
    """
    artifacts: List[ReportArtifact] = []

    # ---- Tables IV & V (one shared fault-free arm) ----------------------
    benign = CampaignArm(
        name="fault-free",
        campaign=CampaignSpec(
            fault_types=[FaultType.NONE],
            repetitions=config.repetitions,
            seed=config.seed,
        ),
        interventions=InterventionConfig(),
    )
    artifacts.append(
        ReportArtifact(
            "table4",
            "Table IV: Driving performance without attacks",
            (benign,),
            lambda results: _fenced(
                render_table4(table4_driving_performance(results["fault-free"]))
            ),
        )
    )
    artifacts.append(
        ReportArtifact(
            "table5",
            "Table V: Minimal distance to lane lines",
            (benign,),
            lambda results: _fenced(
                render_table5(table5_lane_distance(results["fault-free"]))
            ),
        )
    )

    # ---- Fig. 5 / Fig. 6 summaries (traced episodes, no campaign arms) --
    seed_input = f"traced-seed:{config.seed}"

    def render_fig5_artifact(results) -> str:
        config._say("tracing Fig. 5 episodes ...")
        series = fig5_series(seed=config.seed)
        drops = {sid: speed_drop(s) for sid, s in series.items()}
        return "\n".join(
            ["## Fig. 5 — approach speed drops [m/s]", "", render_fig5_summary(drops)]
        )

    artifacts.append(
        ReportArtifact(
            "fig5",
            "Fig. 5 — approach speed drops [m/s]",
            (),
            render_fig5_artifact,
            extra_inputs=(seed_input,),
        )
    )

    def render_fig6_artifact(results) -> str:
        config._say("tracing the Fig. 6 episode ...")
        series = fig6_series(seed=config.seed)
        return "\n".join(
            ["## Fig. 6 — RD-attack trace", "", render_fig6_summary(series.result)]
        )

    artifacts.append(
        ReportArtifact(
            "fig6",
            "Fig. 6 — RD-attack trace",
            (),
            render_fig6_artifact,
            extra_inputs=(seed_input,),
        )
    )

    # ---- Table VI (one arm per intervention configuration) --------------
    spec = CampaignSpec(repetitions=config.repetitions, seed=config.seed)
    table6_arms = [
        CampaignArm(name=f"table6:{cfg.label()}", campaign=spec, interventions=cfg)
        for cfg in TABLE6_CONFIGS
    ]
    if config.include_ml:
        from repro.ml import TrainerConfig

        # Key the ML campaign by its trainer configuration so a cache hit
        # short-circuits *before* weights are loaded or trained at all.
        table6_arms.append(
            CampaignArm(
                name="table6:ml",
                campaign=spec,
                interventions=InterventionConfig(ml=True, name="ml"),
                ml_token=f"trainer:{TrainerConfig()!r}",
            )
        )

    def render_table6_artifact(results) -> str:
        pairs = [
            (cfg.label(), results[f"table6:{cfg.label()}"]) for cfg in TABLE6_CONFIGS
        ]
        if config.include_ml:
            pairs.append(("ml", results["table6:ml"]))
        return _fenced(render_table6(table6_rows(pairs)))

    artifacts.append(
        ReportArtifact(
            "table6",
            "Table VI: Fault injection with/without safety interventions",
            tuple(table6_arms),
            render_table6_artifact,
        )
    )

    # ---- Table VII (one arm per reaction time) --------------------------
    table7_arms = tuple(
        CampaignArm(
            name=f"table7:rt={rt:g}",
            campaign=spec,
            interventions=InterventionConfig(driver=True, driver_reaction_time=rt),
        )
        for rt in config.reaction_times
    )

    def render_table7_artifact(results) -> str:
        sweeps = {
            rt: results[f"table7:rt={rt:g}"] for rt in config.reaction_times
        }
        return _fenced(render_table7(table7_reaction_sweep(sweeps)))

    artifacts.append(
        ReportArtifact(
            "table7",
            "Table VII: Prevention rate vs driver reaction time",
            table7_arms,
            render_table7_artifact,
        )
    )

    # ---- Table VIII (one arm per friction condition) --------------------
    cfg8 = InterventionConfig(
        driver=True, safety_check=True, aeb=AebsConfig.COMPROMISED
    )
    table8_arms = tuple(
        CampaignArm(
            name=f"table8:{label}",
            campaign=CampaignSpec(
                fault_types=[FaultType.RELATIVE_DISTANCE, FaultType.DESIRED_CURVATURE],
                repetitions=config.repetitions,
                seed=config.seed,
                friction=condition,
            ),
            interventions=cfg8,
        )
        for label, condition in FRICTION_CONDITIONS.items()
    )

    def render_table8_artifact(results) -> str:
        sweeps = {
            label: results[f"table8:{label}"] for label in FRICTION_CONDITIONS
        }
        return _fenced(render_table8(table8_friction_sweep(sweeps)))

    artifacts.append(
        ReportArtifact(
            "table8",
            "Table VIII: Hazard prevention rate vs road friction",
            table8_arms,
            render_table8_artifact,
        )
    )

    # ---- extra scenario-family sweeps (registry workloads) --------------
    for family_id in config.extra_families:
        artifacts.append(build_family_artifact(config, family_id))
    return artifacts


def build_family_artifact(config: ReportConfig, family_id: str) -> ReportArtifact:
    """A sweep artifact for one registered scenario family.

    One campaign arm per point of the family's declared ``report_axes``
    sweep (a single default-parameter arm when the family declares no
    sweep), each named ``<family>:<point>`` so incremental placeholders
    and ``report-status`` label the exact sweep point they await.  The
    campaign runs the paper's strongest non-ML intervention stack
    (driver + safety check + compromised AEB) under the relative-distance
    attack, over the family's default initial gaps.

    Raises:
        UnknownScenarioError: ``family_id`` names no registered family.
    """
    family = get_family(family_id)
    interventions = InterventionConfig(
        driver=True, safety_check=True, aeb=AebsConfig.COMPROMISED
    )
    points: List[tuple] = [()]
    if family.report_axes:
        names = [name for name, _ in family.report_axes]
        points = [
            tuple(zip(names, combo))
            for combo in itertools.product(
                *(values for _, values in family.report_axes)
            )
        ]
    labelled_arms = []
    for point in points:
        label = param_token(point) if point else "default"
        labelled_arms.append(
            (
                label,
                CampaignArm(
                    name=f"{family_id}:{label}",
                    campaign=CampaignSpec(
                        fault_types=(FaultType.RELATIVE_DISTANCE,),
                        scenario_ids=(family_id,),
                        initial_gaps=family.default_initial_gaps,
                        repetitions=config.repetitions,
                        seed=config.seed,
                        param_axes=tuple(
                            (name, (value,)) for name, value in point
                        ),
                    ),
                    interventions=interventions,
                ),
            )
        )

    def render_family_artifact(results) -> str:
        pairs = [
            (label, results[arm.name]) for label, arm in labelled_arms
        ]
        return _fenced(render_family_sweep(family_id, family_sweep_rows(pairs)))

    return ReportArtifact(
        f"family-{family_id}",
        f"Scenario family sweep: {family_id} — {family.title}",
        tuple(arm for _, arm in labelled_arms),
        render_family_artifact,
    )


def generate_report(
    config: ReportConfig = ReportConfig(),
    incremental: bool = False,
    manifest_path: Optional[str] = None,
) -> str:
    """Render the report markdown (blocking by default).

    Args:
        config: grid scale and persistence locations.
        incremental: render only artifacts whose campaign inputs are
            already complete and emit placeholders for the rest, instead
            of blocking on every campaign.
        manifest_path: freshness sidecar path; when given, artifacts whose
            input digest set is unchanged since the last run are reused
            from the manifest without re-rendering, and newly rendered
            bodies are recorded for the next run.

    Raises:
        ReportError: (blocking mode only) a campaign arm or renderer
            failed; the message names the arm and its campaign digest.
    """
    engine = IncrementalReportEngine(config, manifest_path=manifest_path)
    return engine.run(incremental=incremental).text
