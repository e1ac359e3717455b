"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``episode``   — run one episode and print its measurements.
* ``campaign``  — run one campaign (optionally a shard) and write JSONL.
* ``dispatch``  — plan → dispatch → collect one campaign over a worker
  backend (``--backend in-process|subprocess|ssh --workers N``).
* ``worker``    — execute one shard-spec file (the fleet worker entry
  point; normally spawned by ``dispatch``, not by hand).
* ``cache``     — campaign-cache maintenance (``list`` / ``verify`` /
  ``gc --keep-days N``).
* ``scenarios`` — inspect the scenario-family registry (``scenarios
  list [--json]``).
* ``merge``     — validate and concatenate shard JSONL files.
* ``table4``    — fault-free driving performance (Tables IV + V).
* ``table6``    — the full intervention comparison.
* ``table7``    — driver reaction-time sweep.
* ``table8``    — road-friction sweep.
  Each table command runs the report's own campaign arms and prints the
  report's fenced section(s) for that table, verbatim.
* ``fig5`` / ``fig6`` — trace an episode and print ASCII plots (optionally
  export CSV).
* ``report``    — run everything and write a markdown report; with
  ``--incremental``, render only what the cache/resume directory already
  covers and emit placeholders for the rest.
* ``report-status`` — per-artifact staleness (cached / resumable-partial /
  missing, with episode counts) without executing anything; ``--json``
  emits the machine-readable form.
* ``train-ml``  — train (and cache) the LSTM baseline.
* ``lint``      — determinism/digest-safety static analysis over Python
  sources (``repro lint [PATH ...] [--json] [--baseline FILE]
  [--write-baseline] [--rule R] [--disable R] [--list]``; see
  :mod:`repro.lint`).  Exit 0 clean, 1 findings, 2 usage errors.

Incremental reports
-------------------

The report is an artifact DAG (one node per table/figure) resolved against
the campaign cache: ``repro report-status`` shows which artifacts are
complete, ``repro report --incremental`` renders those and placeholders
for the rest, and a ``<output>.manifest.json`` sidecar records the digest
set each rendered artifact was built from, so re-runs skip artifacts whose
inputs are unchanged.  Filling the cache (e.g. ``repro table6 --cache-dir
...`` or remote shards landing in a shared cache directory) and re-running
``repro report --incremental`` fills the report in as results arrive.
The table commands are views of the same DAG: ``repro table6`` resolves
the ``table6`` artifact through the report engine, so it fills exactly
the cache entries the report reads and prints a slice of ``report.md``.

Parallel execution
------------------

Every campaign command (``episode``, ``campaign``, ``table4``, ``table6``,
``table7``, ``table8``, ``report``) accepts ``--jobs N`` to fan episodes out
over ``N`` worker processes (see :mod:`repro.core.executor`).  Results are
bit-identical to a serial run — episode seeds are order-independent and
results are reassembled in enumeration order — so ``--jobs`` only changes
wall-clock time.  When the flag is omitted the ``REPRO_JOBS`` environment
variable supplies the default (then 1).

Distributed campaigns
---------------------

``repro campaign --shard I/N`` runs the I-th contiguous slice of the
enumerated grid and writes a shard JSONL; ``repro merge`` validates the
shards (same intervention, no overlap, no truncation) and concatenates them
into the unsharded campaign file.  ``--resume`` picks an interrupted run
back up from the valid JSONL prefix, and ``--cache-dir`` (or the
``REPRO_CACHE_DIR`` environment variable) keys completed campaigns by
content digest so a repeated campaign executes zero episodes.  The grid
commands (``table4`` .. ``table8``, ``report``, ``episode``) take
``--resume DIR`` instead: each constituent campaign resumes from a
digest-named file in that directory.

``repro dispatch`` (and ``repro campaign --backend B``) drives the full
scheduler pipeline (:mod:`repro.core.scheduler`): the grid is planned
into digest-keyed shard jobs, a worker backend executes them — the
``subprocess`` backend spawns ``--workers N`` ``repro worker`` processes,
each consuming a shard-spec file from ``--workdir`` — and the collector
validates the shard JSONLs under the ``repro merge`` invariants before
writing the merged campaign (and the shared cache) byte-identically to a
serial run.  Killed workers are relaunched and resume their shard from
its valid JSONL prefix; a repeat dispatch against a warm cache executes
zero episodes.  ``repro report --backend B --workers N`` routes every
report grid through the same scheduler, so remote shards land in the
shared cache and ``report --incremental`` fills in as they arrive.

Scenario families
-----------------

Scenarios are resolved through the pluggable family registry
(:mod:`repro.sim.families`): ``repro scenarios list`` shows every
registered family and its typed parameter schema, ``repro campaign
--scenario FAMILY`` selects families (default: the paper's S1-S6), and
``--scenario-param name=v1,v2,...`` sweeps a family parameter axis the
same way the grid sweeps gaps (``--scenario-param initial_gap=...``
addresses the gap axis itself).  ``repro report --family FAMILY`` appends
a sweep artifact for a family to the report DAG.  Unknown scenario ids
fail with an error naming the registered families instead of a traceback.

Environment variables:

* ``REPRO_JOBS`` — default worker process count for campaigns.
* ``REPRO_CACHE_DIR`` — default campaign result cache directory.
* ``REPRO_REPS`` / ``REPRO_FULL`` — repetitions per grid cell for the
  benchmark suite (see :mod:`benchmarks._bench_utils`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import List, Optional

from repro.analysis.figures import fig5_series, fig6_series
from repro.analysis.incremental import (
    IncrementalReportEngine,
    ReportError,
    manifest_path_for,
    status_document,
)
from repro.analysis.render import ascii_plot
from repro.analysis.report import (
    ReportConfig,
    _run_report_campaign,
    build_report_artifacts,
)
from repro.attacks.campaign import (
    ATTACK_FAULT_TYPES,
    CampaignSpec,
    EpisodeSpec,
    ShardSpec,
    enumerate_campaign,
)
from repro.attacks.fi import FaultType
from repro.core.cache import (
    CampaignCache,
    cache_entries,
    campaign_digest,
    default_cache,
    gc_cache,
    verify_cache,
    write_digest_sidecar,
)
from repro.core.executor import (
    EXECUTOR_NAMES,
    ExecutionPolicy,
    PhaseProfile,
    default_batch_lanes,
    default_jobs,
)
from repro.core.experiment import merge_shards, run_campaign
from repro.core.scheduler import (
    SchedulerError,
    dispatch_campaign,
    load_job_spec,
    make_backend,
    registered_backends,
)
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig
from repro.sim.families import ScenarioFamily, family_catalog, get_family


def _interventions_from_args(args) -> InterventionConfig:
    return InterventionConfig(
        driver=args.driver,
        safety_check=args.check,
        aeb=AebsConfig(args.aeb),
        driver_reaction_time=args.reaction_time,
    )


def _add_intervention_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--driver", action="store_true", help="enable the driver model")
    parser.add_argument("--check", action="store_true", help="enable firmware checks")
    parser.add_argument(
        "--aeb",
        choices=[c.value for c in AebsConfig],
        default="disabled",
        help="AEBS configuration",
    )
    parser.add_argument(
        "--reaction-time", type=float, default=None, help="driver reaction time [s]"
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--executor`` / ``--lanes``: one ExecutionPolicy."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes for campaign execution "
        "(default: REPRO_JOBS env var, then serial)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=None,
        metavar="NAME",
        help="episode execution backend: 'serial', 'parallel' (--jobs "
        "pool), or 'batch' (vectorized lockstep, bit-identical results; "
        "with --jobs > 1 shards lanes across a worker pool, batch engine "
        "inside each; default: serial, or parallel when --jobs > 1)",
    )
    parser.add_argument(
        "--lanes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="peak lockstep lane count for '--executor batch' "
        "(default: REPRO_BATCH_LANES env var, then uncapped)",
    )


def _execution_from_args(args) -> ExecutionPolicy:
    """The ``--executor``/``--jobs``/``--lanes`` flags as one policy.

    Commands without the flags (``report-status``) get the default.
    """
    return ExecutionPolicy(
        executor=getattr(args, "executor", None),
        jobs=getattr(args, "jobs", None),
        lanes=getattr(args, "lanes", None),
    )


def _reaction_times(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated reaction times in seconds, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("expected at least one reaction time")
    return values


def _parse_shard(text: str) -> ShardSpec:
    try:
        return ShardSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_param_flag(text: str) -> tuple:
    """Split a ``--scenario-param`` value into ``(name, raw value list)``.

    Typed validation happens later against the selected family's schema
    (the flag parses before the family is known).
    """
    name, sep, values = text.partition("=")
    name = name.strip()
    if not sep or not name or not values.strip():
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE[,VALUE...], got {text!r}"
        )
    parts = tuple(p.strip() for p in values.split(",") if p.strip())
    if not parts:
        raise argparse.ArgumentTypeError(
            f"expected at least one value in {text!r}"
        )
    return name, parts


def _add_scenario_param_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario-param",
        action="append",
        type=_parse_param_flag,
        default=None,
        metavar="NAME=V1[,V2...]",
        help="sweep a scenario-family parameter axis (repeatable; values "
        "are validated against the family's declared schema — see "
        "'repro scenarios list'); NAME=initial_gap addresses the "
        "initial-gap axis",
    )


def _scenario_axes(
    family: ScenarioFamily, flags
) -> tuple:
    """Typed ``(param_axes, initial_gaps)`` from ``--scenario-param`` flags.

    Raises:
        ValueError: an axis is undeclared or a value fails validation.
    """
    param_axes = {}
    initial_gaps = None
    for name, raw_values in flags or ():
        if name == "initial_gap":
            if initial_gaps is not None:
                raise ValueError("--scenario-param initial_gap given twice")
            try:
                initial_gaps = tuple(float(v) for v in raw_values)
            except ValueError:
                raise ValueError(
                    f"initial_gap values must be numbers, got {list(raw_values)}"
                ) from None
            continue
        if name in param_axes:
            raise ValueError(f"--scenario-param {name} given twice")
        spec = family.param_spec(name)  # raises on undeclared axes
        param_axes[name] = tuple(spec.parse(v) for v in raw_values)
    return param_axes, initial_gaps


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="campaign result cache directory "
        "(default: REPRO_CACHE_DIR env var, then no caching)",
    )


def _add_report_scale_flags(parser: argparse.ArgumentParser) -> None:
    """The grid-scale flags ``report`` and ``report-status`` share.

    Both commands must build the *same* artifact DAG from the same flags,
    or status would report on different campaigns than the report runs.
    """
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--ml", action="store_true", help="include the ML baseline")
    parser.add_argument(
        "--reaction-times",
        type=_reaction_times,
        default=None,
        metavar="CSV",
        help="comma-separated Table VII sweep points in seconds "
        "(default: 1.0,1.5,2.0,2.5,3.0,3.5)",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="FAMILY",
        help="append a sweep artifact for this registered scenario family "
        "(repeatable; see 'repro scenarios list')",
    )


def _report_config_from_args(args, log=None) -> ReportConfig:
    """A ReportConfig from the flags of ``report``, ``report-status`` or a
    table command.

    The table commands lack the report-only ``--ml``, ``--reaction-times``
    and ``--family`` flags and get their defaults, so each table command
    resolves the same arms as its namesake section of a default report.

    Raises:
        UnknownScenarioError: a ``--family`` flag names no registered
            scenario family.
    """
    kwargs = {}
    if getattr(args, "reaction_times", None) is not None:
        kwargs["reaction_times"] = args.reaction_times
    # Deduplicate while preserving order: a repeated --family would emit
    # the same artifact (and manifest id) twice.
    families = tuple(dict.fromkeys(getattr(args, "family", None) or ()))
    for family_id in families:
        get_family(family_id)  # fail before any campaign executes
    return ReportConfig(
        repetitions=args.reps,
        seed=args.seed,
        include_ml=getattr(args, "ml", False),
        execution=_execution_from_args(args),
        cache_dir=getattr(args, "cache_dir", None),
        resume_dir=getattr(args, "resume", None),
        extra_families=families,
        backend=getattr(args, "backend", None),
        workers=getattr(args, "workers", None),
        workdir=getattr(args, "workdir", None),
        log=log,
        **kwargs,
    )


#: The report artifacts each table command prints, in report order.
_TABLE_ARTIFACTS = {
    "table4": ("table4", "table5"),
    "table6": ("table6",),
    "table7": ("table7",),
    "table8": ("table8",),
}


def _add_grid_persistence_flags(parser: argparse.ArgumentParser) -> None:
    """Execution flags, ``--cache-dir`` and ``--resume DIR`` for grid commands.

    Every grid command persists through the report engine's campaign entry
    (:func:`repro.analysis.report._run_report_campaign`), so a campaign
    has one cache key and one resume file whichever command runs it.
    """
    _add_execution_flags(parser)
    _add_cache_flag(parser)
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume each constituent campaign from a digest-named JSONL "
        "file in DIR (files are created on first run)",
    )


def _human_size(size: float) -> str:
    """Bytes as a compact human-readable figure (``12.3 KiB``)."""
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    raise AssertionError("unreachable")  # pragma: no cover


def _human_age(seconds: float) -> str:
    """Seconds as a compact age (``45s``, ``3.2h``, ``9.1d``)."""
    if seconds < 60:
        return f"{int(seconds)}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


_SHARD_NAME_RE = re.compile(r"shard-(\d+)-of-(\d+)")


def _nonneg_days(text: str) -> float:
    """``--keep-days`` parser: a finite number of days >= 0.

    Rejecting negatives at parse time (exit 2, message naming the flag)
    beats the deep :func:`repro.core.cache.gc_cache` ValueError — the
    operator sees which *flag* is wrong before any cache is opened.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--keep-days expects a number of days, got {text!r}"
        ) from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"--keep-days must be a finite number >= 0, got {text} "
            "(0 deletes everything; there is no negative age)"
        )
    return value


def _run_lint(args) -> int:
    """``repro lint``: scan, apply the baseline, report, set the exit code."""
    from repro.lint import (
        apply_baseline,
        lint_paths,
        load_baseline,
        render_json,
        render_text,
        select_rules,
        write_baseline,
    )
    from repro.lint.rules import rule_catalog

    if args.list:
        if args.json:
            print(json.dumps({"rules": rule_catalog()}, indent=2))
        else:
            for entry in rule_catalog():
                role = f" [{entry['role']}]" if entry["role"] else ""
                print(
                    f"{entry['id']:<26} {entry['severity']}{role}  "
                    f"{entry['title']}"
                )
        return 0

    paths = args.paths or (
        ["src/repro"] if os.path.isdir("src/repro") else ["."]
    )
    rules = select_rules(enable=args.rule, disable=args.disable)
    report = lint_paths(paths, rules=rules)
    findings = list(report.findings)

    if args.write_baseline:
        target = args.baseline or "lint-baseline.json"
        write_baseline(target, findings)
        print(
            f"wrote baseline with {len(findings)} "
            f"finding{'s' if len(findings) != 1 else ''} -> {target}"
        )
        return 0

    grandfathered: List = []
    if args.baseline is not None:
        baseline = load_baseline(args.baseline)
        findings, grandfathered = apply_baseline(findings, baseline)

    if args.json:
        print(
            render_json(
                findings, report.files, grandfathered, rules=report.rules
            )
        )
    else:
        print(render_text(findings, report.files, grandfathered))
    return 1 if findings else 0


def _check_shard_name_order(paths) -> Optional[str]:
    """Catch default-named shard files passed out of order, incompletely,
    or from different shard counts before merging concatenates them wrongly.

    Only applies when *every* basename matches the
    ``...shard-I-of-N...`` pattern the ``campaign`` command emits;
    custom names mean the caller owns the ordering.  Returns an error
    message, or None when the set is fine / unknowable.
    """
    parsed = [_SHARD_NAME_RE.search(str(os.path.basename(p))) for p in paths]
    if not all(parsed):
        return None
    indices = [int(m.group(1)) for m in parsed]
    counts = sorted({int(m.group(2)) for m in parsed})
    if len(counts) > 1:
        return (
            f"shard files come from different shard counts {counts}; "
            "merge shards of one campaign split one way"
        )
    count = counts[0]
    if indices != sorted(indices):
        return (
            f"shard files passed in order {indices}; pass them in shard-index "
            "order (1/N first) so the merged file matches the serial run"
        )
    missing = sorted(set(range(1, count + 1)) - set(indices))
    if missing:
        return (
            f"shard set is incomplete: missing shard(s) "
            f"{'/'.join(f'{i}/{count}' for i in missing)} — merging would "
            "silently drop those episodes from every downstream aggregate"
        )
    if len(indices) != len(set(indices)):
        return f"shard files repeat indices {indices}; pass each shard once"
    return None


def _print_profile(profile: PhaseProfile) -> None:
    """Per-phase wall-clock breakdown of a profiled campaign run."""
    total = profile.total_s
    print(f"per-phase wall-clock over {profile.steps} steps:")
    for name, secs in (
        ("control", profile.control_s),
        ("dynamics", profile.dynamics_s),
        ("post-step tail", profile.post_s),
    ):
        share = 100.0 * secs / total if total > 0.0 else 0.0
        print(f"  {name:<15s}{secs:9.3f} s  ({share:5.1f}%)")
    print(f"  {'total':<15s}{total:9.3f} s")


def _add_campaign_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The grid-selection flags ``campaign`` and ``dispatch`` share.

    Both commands must enumerate the *same* campaign from the same flags,
    or a dispatched grid would not byte-compare against its serial run.
    """
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="FAMILY",
        help="scenario family to sweep (repeatable; default: the paper's "
        "S1-S6 — see 'repro scenarios list')",
    )
    _add_scenario_param_flag(parser)
    parser.add_argument(
        "--fault",
        action="append",
        choices=[f.value for f in FaultType],
        default=None,
        metavar="FAULT",
        help="fault type to sweep (repeatable; default: the three attacked "
        "fault types)",
    )
    parser.add_argument("--reps", type=int, default=2, help="repetitions per cell")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--max-steps",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap episode length in simulation steps (smoke tests / CI)",
    )
    _add_intervention_flags(parser)


def _campaign_spec_from_args(args) -> CampaignSpec:
    """A :class:`CampaignSpec` from the shared grid flags.

    Raises:
        ValueError: unknown scenario family, invalid sweep values, or an
            otherwise inconsistent grid (the messages name the flag).
    """
    fault_values = args.fault or [f.value for f in ATTACK_FAULT_TYPES]
    scenario_ids = tuple(args.scenario) if args.scenario else None
    param_axes = {}
    initial_gaps = None
    if args.scenario_param:
        if scenario_ids is None or len(scenario_ids) != 1:
            raise ValueError(
                "--scenario-param sweeps are per-family: select "
                "exactly one family with --scenario"
            )
        family = get_family(scenario_ids[0])
        param_axes, initial_gaps = _scenario_axes(family, args.scenario_param)
    elif scenario_ids is not None:
        for sid in scenario_ids:
            get_family(sid)  # fail with the named-family error
    if initial_gaps is None and scenario_ids is not None and len(scenario_ids) == 1:
        # A single selected family supplies its own gap axis — one of the
        # inputs the report's family-sweep arms are keyed on (matching
        # their digests additionally requires the arm's fault type and
        # intervention flags; see the README's family workflow).  The
        # paper default (60, 230) still applies to multi-family and
        # default-grid campaigns.
        initial_gaps = get_family(scenario_ids[0]).default_initial_gaps
    spec_kwargs = {}
    if scenario_ids is not None:
        spec_kwargs["scenario_ids"] = scenario_ids
    if initial_gaps is not None:
        spec_kwargs["initial_gaps"] = initial_gaps
    return CampaignSpec(
        fault_types=[FaultType(v) for v in fault_values],
        repetitions=args.reps,
        seed=args.seed,
        param_axes=tuple(param_axes.items()),
        **spec_kwargs,
    )


def _add_backend_flags(
    parser: argparse.ArgumentParser, default_backend: Optional[str] = None
) -> None:
    """``--backend`` / ``--workers`` / ``--workdir`` scheduler flags."""
    parser.add_argument(
        "--backend",
        default=default_backend,
        metavar="NAME",
        help="worker backend for scheduled dispatch "
        f"({', '.join(registered_backends())})"
        + ("" if default_backend is None else f"; default {default_backend}"),
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker count for the backend (fleet backends default to one "
        "shard per worker)",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="work directory for shard JSONLs, spec files and worker logs "
        "(reuse it to resume a crashed dispatch; default: a private "
        "temporary directory)",
    )


def _add_dispatch_tuning_flags(parser: argparse.ArgumentParser) -> None:
    """Dispatch-only scheduler flags (``campaign``/``dispatch``).

    Kept off ``report``, which does not forward them — a silently dropped
    flag is worse than an unrecognised one.
    """
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shard jobs to plan (default: one per worker)",
    )
    parser.add_argument(
        "--ssh-command",
        default=None,
        metavar="TEMPLATE",
        help="command template for --backend ssh, with a {command} "
        "placeholder (e.g. 'ssh build-host {command}'; default: the "
        "REPRO_SSH_COMMAND environment variable)",
    )


def _backend_kwargs(args) -> dict:
    """``dispatch_campaign`` backend arguments from the shared flags.

    Raises:
        ValueError: ``--ssh-command`` with a non-ssh backend.
    """
    if args.ssh_command and args.backend != "ssh":
        raise ValueError(
            f"--ssh-command only applies to '--backend ssh', got "
            f"--backend {args.backend}"
        )
    backend = make_backend(
        args.backend,
        workers=args.workers,
        execution=_execution_from_args(args),
        command_template=args.ssh_command,
    )
    return {"backend": backend, "shards": args.shards, "workdir": args.workdir}


def _check_backend_flags(args) -> None:
    """Refuse a ``campaign``/``report`` flag its execution path would drop.

    Without ``--backend`` nothing reads the scheduler flags; with it, the
    scheduler plans, resumes and runs shards itself.  (``dispatch`` is
    always scheduled and reads every flag.)

    Raises:
        ValueError: naming the flag that would be ignored.
    """
    if args.backend is None:
        for flag in ("--workers", "--workdir", "--shards", "--ssh-command"):
            if getattr(args, flag[2:].replace("-", "_"), None) is not None:
                raise ValueError(
                    f"{flag} only applies to scheduled dispatch: add "
                    f"--backend or drop {flag}"
                )
    elif getattr(args, "shard", None) is not None:
        raise ValueError(
            "--backend plans its own shards; --shard selects one slice by "
            "hand — use one or the other"
        )
    elif args.resume:
        raise ValueError(
            "--backend resumes shards from --workdir automatically; drop "
            "--resume (or run without --backend)"
        )
    elif getattr(args, "profile", False):
        raise ValueError(
            "--profile times the step loop in-process; --backend dispatches "
            "episodes to worker processes — drop one of them"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ADAS safety-intervention reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ep = sub.add_parser("episode", help="run one episode")
    ep.add_argument(
        "--scenario",
        default="S1",
        help="a registered scenario family (see 'repro scenarios list')",
    )
    ep.add_argument("--gap", type=float, default=60.0, help="initial gap [m]")
    _add_scenario_param_flag(ep)
    ep.add_argument(
        "--fault",
        choices=[f.value for f in FaultType],
        default="relative_distance",
    )
    ep.add_argument("--seed", type=int, default=2025)
    _add_intervention_flags(ep)
    _add_grid_persistence_flags(ep)

    sc = sub.add_parser(
        "scenarios", help="inspect the scenario-family registry"
    )
    sc.add_argument("action", choices=["list"], help="what to do")
    sc.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    camp = sub.add_parser(
        "campaign",
        help="run one campaign (optionally a shard of it) and write JSONL",
    )
    _add_campaign_grid_flags(camp)
    camp.add_argument(
        "--shard",
        type=_parse_shard,
        default=None,
        metavar="I/N",
        help="run only the I-th of N contiguous slices of the grid "
        "(1-based, e.g. 2/4); merge shard files with 'repro merge'",
    )
    camp.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="FILE",
        help="campaign JSONL path (default: campaign.jsonl, or "
        "campaign-shard-I-of-N.jsonl for shards)",
    )
    camp.add_argument(
        "--resume",
        action="store_true",
        help="resume into --output: skip the episodes its valid JSONL "
        "prefix already records and run only the remainder",
    )
    _add_execution_flags(camp)
    camp.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall-clock breakdown (control / dynamics / "
        "post-step tail) after the run; serial and batch executors only "
        "(parallel steps episodes in worker processes)",
    )
    _add_cache_flag(camp)
    _add_backend_flags(camp)
    _add_dispatch_tuning_flags(camp)

    dis = sub.add_parser(
        "dispatch",
        help="plan, dispatch and collect one campaign over a worker backend",
    )
    _add_campaign_grid_flags(dis)
    dis.add_argument(
        "--output",
        "-o",
        default="dispatch.jsonl",
        metavar="FILE",
        help="merged campaign JSONL path (default: dispatch.jsonl)",
    )
    _add_execution_flags(dis)
    _add_cache_flag(dis)
    _add_backend_flags(dis, default_backend="subprocess")
    _add_dispatch_tuning_flags(dis)

    wk = sub.add_parser(
        "worker",
        help="execute one shard-spec file (the fleet worker entry point)",
    )
    wk.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="shard-spec JSON written by the scheduler "
        "(repro.core.scheduler.write_job_spec)",
    )
    _add_execution_flags(wk)

    ca = sub.add_parser(
        "cache",
        help="campaign-cache maintenance (read-only except 'gc')",
    )
    ca.add_argument(
        "action",
        choices=["list", "verify", "gc"],
        help="list entries, strict-verify every entry, or delete old ones",
    )
    _add_cache_flag(ca)
    ca.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    ca.add_argument(
        "--keep-days",
        type=_nonneg_days,
        default=None,
        metavar="N",
        help="gc only: delete entries last written more than N days ago "
        "(0 deletes everything; N must be >= 0)",
    )

    mg = sub.add_parser(
        "merge",
        help="validate shard JSONL files and concatenate them into one campaign",
    )
    mg.add_argument(
        "shards",
        nargs="+",
        metavar="SHARD",
        help="shard files in shard-index order (1/N .. N/N)",
    )
    mg.add_argument("--output", "-o", required=True, metavar="FILE")

    for name in _TABLE_ARTIFACTS:
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--reps", type=int, default=2, help="repetitions per cell")
        p.add_argument("--seed", type=int, default=2025)
        _add_grid_persistence_flags(p)

    for name in ("fig5", "fig6"):
        p = sub.add_parser(name, help=f"trace {name}")
        p.add_argument("--seed", type=int, default=2025)
        p.add_argument("--csv", default=None, help="write the trace CSV here")

    rep = sub.add_parser("report", help="full markdown report")
    _add_report_scale_flags(rep)
    rep.add_argument("--output", default="report.md")
    rep.add_argument(
        "--incremental",
        action="store_true",
        help="render only artifacts whose campaign inputs are already "
        "complete (cache/resume) and emit placeholders for the rest, "
        "instead of blocking on every campaign",
    )
    _add_grid_persistence_flags(rep)
    _add_backend_flags(rep)

    st = sub.add_parser(
        "report-status",
        help="per-artifact report staleness (no episodes are executed)",
    )
    _add_report_scale_flags(st)
    st.add_argument(
        "--output",
        default="report.md",
        help="report path whose manifest sidecar is consulted "
        "(default: report.md)",
    )
    st.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_cache_flag(st)
    st.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume directory of digest-named campaign JSONL files",
    )

    ml = sub.add_parser("train-ml", help="train and cache the LSTM baseline")
    ml.add_argument("--epochs", type=int, default=4)

    li = sub.add_parser(
        "lint",
        help="determinism/digest-safety static analysis (see repro.lint)",
    )
    li.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to scan "
        "(default: src/repro when present, else .)",
    )
    li.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    li.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="grandfather the findings recorded in FILE; only new "
        "findings fail the run",
    )
    li.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings into the baseline file "
        "(the --baseline path, default lint-baseline.json) and exit 0",
    )
    li.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule (repeatable; see --list)",
    )
    li.add_argument(
        "--disable",
        action="append",
        default=None,
        metavar="RULE",
        help="skip this rule (repeatable)",
    )
    li.add_argument(
        "--list",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    # The one error exit: configuration errors every command can hit (a
    # malformed REPRO_CACHE_DIR consulted deep inside run_campaign, an
    # unwritable output directory, a failed report arm) print their message
    # and exit 2, never a traceback.  BrokenPipeError must keep propagating
    # — __main__ turns it into the conventional 141 for `repro ... | head`.
    try:
        return _run(args)
    except BrokenPipeError:
        raise
    except (ValueError, OSError, SchedulerError, ReportError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    # Campaign commands fall back to REPRO_JOBS / REPRO_BATCH_LANES when
    # --jobs / --lanes is omitted; surface a malformed env var before any
    # work.  (Commands without the flag never read the env var.)
    for flag, env_default in (("jobs", default_jobs), ("lanes", default_batch_lanes)):
        if flag in vars(args) and getattr(args, flag) is None:
            env_default()

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "episode":
        family = get_family(args.scenario)
        overrides = {}
        for name, values in args.scenario_param or ():
            if len(values) != 1:
                raise ValueError(
                    f"episode takes a single value per parameter, got "
                    f"{name}={','.join(values)} (sweeps are for "
                    "'repro campaign')"
                )
            if name == "initial_gap":
                raise ValueError("use --gap to set the episode's initial gap")
            overrides[name] = family.param_spec(name).parse(values[0])
        spec = EpisodeSpec(
            scenario_id=args.scenario,
            initial_gap=args.gap,
            fault_type=FaultType(args.fault),
            repetition=0,
            seed=args.seed,
            params=family.resolve_params(overrides),
        )
        # A one-episode campaign through the report's persistence entry, so
        # --jobs, --resume and --cache-dir are honoured as for every grid
        # command (with one episode execution degenerates to serial).
        cfg = _interventions_from_args(args)
        config = ReportConfig(
            execution=_execution_from_args(args),
            cache_dir=args.cache_dir,
            resume_dir=args.resume,
        )
        result = _run_report_campaign(config, [spec], cfg).results[0]
        outcome = result.accident.value if result.accident else "no accident"
        min_ttc = f"{result.min_ttc:.2f} s" if math.isfinite(result.min_ttc) else "-"
        print(f"outcome:    {outcome}")
        print(f"duration:   {result.duration:.2f} s ({result.steps} steps)")
        print(f"min TTC:    {min_ttc}")
        print(f"hard brake: {100 * result.hardest_brake_fraction:.1f} %")
        print(f"prevented:  {result.prevented}")
        return 0

    if args.command == "scenarios":
        # args.action is constrained to "list" by argparse.
        catalog = family_catalog()
        if args.json:
            print(json.dumps({"format": 1, "families": catalog}, indent=2))
            return 0
        for entry in catalog:
            gaps = ", ".join(f"{g:g}" for g in entry["default_initial_gaps"])
            print(f"{entry['id']}")
            print(f"    {entry['title']}")
            print(f"    default initial gaps [m]: {gaps}")
            if not entry["params"]:
                print("    parameters: (none)")
            for param in entry["params"]:
                bounds = ""
                if "choices" in param:
                    bounds = " one of " + "/".join(str(c) for c in param["choices"])
                elif "minimum" in param or "maximum" in param:
                    bounds = (
                        f" in [{param.get('minimum', '-inf')}"
                        f"..{param.get('maximum', 'inf')}]"
                    )
                line = (
                    f"    --scenario-param {param['name']}=... "
                    f"({param['kind']}, default {param['default']}{bounds})"
                )
                if param.get("help"):
                    line += f" — {param['help']}"
                print(line)
        return 0

    if args.command in ("campaign", "dispatch"):
        if args.command == "campaign":
            _check_backend_flags(args)
        scheduled = args.command == "dispatch" or args.backend is not None
        # ValueError (including UnknownScenarioError) propagates to main()'s
        # umbrella handler: one "repro: error" formatter, one exit code.
        spec = _campaign_spec_from_args(args)
        cfg = _interventions_from_args(args)
        shard = getattr(args, "shard", None)
        episodes = enumerate_campaign(spec, shard=shard)
        output = args.output
        if output is None:
            output = (
                f"campaign-shard-{shard.index}-of-{shard.count}.jsonl"
                if shard
                else "campaign.jsonl"
            )
        cache = CampaignCache(args.cache_dir) if args.cache_dir else None

        def progress(done, total):
            print(f"\r  {done}/{total} episodes", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)

        if scheduled:
            backend_kwargs = _backend_kwargs(args)
            print(
                f"dispatching {len(episodes)} episodes under {cfg.label()} "
                f"via backend {args.backend!r} ...",
                file=sys.stderr,
            )
            campaign = dispatch_campaign(
                episodes,
                cfg,
                cache=cache,
                progress=progress if episodes else None,
                log=lambda line: print(f"  {line}", file=sys.stderr),
                max_steps=args.max_steps,
                **backend_kwargs,
            )
            campaign.save(output)
            write_digest_sidecar(
                output, campaign_digest(episodes, cfg, max_steps=args.max_steps)
            )
            print(f"wrote {len(campaign.results)} episodes -> {output}")
            return 0

        shard_note = f" (shard {shard})" if shard else ""
        print(
            f"running {len(episodes)} episodes under {cfg.label()}{shard_note} ...",
            file=sys.stderr,
        )
        profile = PhaseProfile() if args.profile else None
        campaign = run_campaign(
            episodes,
            cfg,
            executor=_execution_from_args(args).resolve(profile),
            cache=cache,
            resume_path=output if args.resume else None,
            progress=progress if episodes else None,
            max_steps=args.max_steps,
        )
        if not args.resume:
            campaign.save(output)
            # Record the content digest next to the file so a later
            # --resume with different inputs (e.g. another --max-steps) is
            # refused instead of absorbing mismatched episodes.
            write_digest_sidecar(
                output, campaign_digest(episodes, cfg, max_steps=args.max_steps)
            )
        print(f"wrote {len(campaign.results)} episodes -> {output}")
        if profile is not None:
            _print_profile(profile)
        return 0

    if args.command == "worker":
        # The fleet worker entry point: reconstruct the shard from its
        # spec file (digest-verified), resume into the shard JSONL, and
        # report the resumed/executed split so schedulers (and the crash-
        # recovery tests) can prove completed episodes never re-execute.
        from repro.core.metrics import count_records

        job = load_job_spec(args.spec)
        ml_factory = None
        if job.ml_pickle is not None:
            import pickle

            with open(job.ml_pickle, "rb") as handle:
                ml_factory = pickle.load(handle)
        prior = count_records(job.output)
        total = len(job.episodes)
        print(
            f"worker: shard {job.shard}: {prior} episodes already recorded; "
            f"executing {max(0, total - prior)} of {total}",
            file=sys.stderr,
        )
        campaign = run_campaign(
            job.episodes,
            job.interventions,
            ml_factory=ml_factory,
            executor=_execution_from_args(args).resolve(),
            resume_path=job.output,
            # Cache policy belongs to the scheduler, which resolved it (env
            # included) at dispatch time: a null cache_dir means caching is
            # off for this plan, so the worker must not fall back to its
            # own REPRO_CACHE_DIR environment.
            cache=CampaignCache(job.cache_dir) if job.cache_dir else False,
            max_steps=job.max_steps,
        )
        print(
            f"worker: shard {job.shard}: wrote {len(campaign.results)} "
            f"episodes -> {job.output}",
            file=sys.stderr,
        )
        return 0

    if args.command == "cache":
        # Maintenance must never materialise the directory ('list' and
        # 'verify' are documented read-only); a missing directory is just
        # an empty cache.
        if args.cache_dir:
            try:
                cache = CampaignCache(args.cache_dir, create=False)
            except NotADirectoryError as exc:
                raise ValueError(
                    f"--cache-dir must name a usable cache directory, got "
                    f"{args.cache_dir!r} ({exc})"
                ) from None
        else:
            cache = default_cache(create=False)
        if cache is None:
            raise ValueError(
                "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR"
            )
        if args.action == "list":
            entries = cache_entries(cache)
            if args.json:
                print(
                    json.dumps(
                        {
                            "format": 1,
                            "root": cache.root,
                            "entries": [
                                {
                                    "digest": e.key,
                                    "episodes": e.episodes,
                                    "size_bytes": e.size_bytes,
                                    "age_seconds": round(e.age_seconds, 3),
                                }
                                for e in entries
                            ],
                        },
                        indent=2,
                    )
                )
                return 0
            print(f"{'digest':<16} {'episodes':>8} {'size':>10} {'age':>8}")
            for e in entries:
                print(
                    f"{e.key[:16]:<16} {e.episodes:>8} "
                    f"{_human_size(e.size_bytes):>10} {_human_age(e.age_seconds):>8}"
                )
            total_bytes = sum(e.size_bytes for e in entries)
            print(
                f"{len(entries)} entries, {_human_size(total_bytes)} in "
                f"{cache.root}"
            )
            return 0
        if args.action == "verify":
            report = verify_cache(cache)
            corrupt = {k: err for k, err in report.items() if err is not None}
            for key in sorted(report):
                state = "ok" if report[key] is None else f"CORRUPT: {report[key]}"
                print(f"{key[:16]}  {state}")
            print(
                f"verified {len(report)} entries: {len(report) - len(corrupt)} "
                f"ok, {len(corrupt)} corrupt"
            )
            return 1 if corrupt else 0
        # gc
        if args.keep_days is None:
            raise ValueError("cache gc requires --keep-days N")
        removed, reclaimed = gc_cache(cache, keep_days=args.keep_days)
        for key in removed:
            print(f"removed {key[:16]}")
        print(
            f"gc: removed {len(removed)} entries, reclaimed "
            f"{_human_size(reclaimed)}"
        )
        return 0

    if args.command == "merge":
        order_error = _check_shard_name_order(args.shards)
        if order_error is not None:
            raise ValueError(order_error)
        merged = merge_shards(args.shards, output=args.output)
        print(
            f"merged {len(args.shards)} shards "
            f"({len(merged.results)} episodes, intervention "
            f"{merged.intervention!r}) -> {args.output}"
        )
        return 0

    if args.command in _TABLE_ARTIFACTS:
        # A view of the report DAG: the report's own arms (same cache keys
        # and resume files), printed as the report's fenced sections.
        config = _report_config_from_args(
            args, log=lambda line: print(line, file=sys.stderr)
        )
        wanted = _TABLE_ARTIFACTS[args.command]
        artifacts = [
            a for a in build_report_artifacts(config) if a.artifact_id in wanted
        ]
        outcome = IncrementalReportEngine(config, artifacts).run(incremental=False)
        print("\n\n".join(o.body for o in outcome.artifacts))
        return 0

    if args.command == "fig5":
        series = fig5_series(seed=args.seed)
        s1 = series["S1"]
        print(ascii_plot(s1.trace.time, s1.trace.ego_speed, label="S1 ego speed [m/s]"))
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(s1.to_csv())
            print(f"wrote {args.csv}")
        return 0

    if args.command == "fig6":
        series = fig6_series(seed=args.seed)
        print(ascii_plot(series.trace.time, series.trace.ego_speed, label="ego speed [m/s]"))
        print(ascii_plot(series.trace.time, series.trace.true_gap, label="true RD [m]"))
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(series.to_csv())
            print(f"wrote {args.csv}")
        return 0

    if args.command == "report":
        _check_backend_flags(args)
        config = _report_config_from_args(args, log=print)
        manifest = manifest_path_for(args.output)
        # Fail on an unwritable destination *before* potentially hours of
        # campaign execution, not at the final write.
        output_dir = os.path.dirname(args.output) or "."
        if not os.path.isdir(output_dir):
            raise ValueError(f"output directory {output_dir!r} does not exist")
        engine = IncrementalReportEngine(config, manifest_path=manifest)
        outcome = engine.run(incremental=args.incremental)
        with open(args.output, "w") as handle:
            handle.write(outcome.text)
        done = len(outcome.rendered_ids) + len(outcome.reused_ids)
        incomplete = outcome.pending_ids + outcome.failed_ids
        if incomplete:
            print(
                f"wrote {args.output} ({done}/{len(outcome.artifacts)} "
                f"artifacts; awaiting: {', '.join(incomplete)} — see "
                f"'repro report-status')"
            )
        else:
            print(f"wrote {args.output}")
        return 0

    if args.command == "report-status":
        config = _report_config_from_args(args)
        manifest = manifest_path_for(args.output)
        statuses = IncrementalReportEngine(config, manifest_path=manifest).status()
        if args.json:
            print(json.dumps(status_document(statuses, manifest), indent=2))
            return 0
        for status in statuses:
            complete_arms = sum(1 for a in status.arms if a.complete)
            note = ""
            if status.arms:
                note = f"  ({complete_arms}/{len(status.arms)} arms complete)"
            if status.stale:
                note += "  [manifest stale]"
            print(f"{status.artifact_id:<8} {status.state:<8}{note}")
            for arm in status.arms:
                print(
                    f"    {arm.name:<28} {arm.state:<19} "
                    f"{arm.done}/{arm.total} episodes"
                )
        return 0

    if args.command == "train-ml":
        from repro.ml import TrainerConfig, load_or_train_cached

        baseline = load_or_train_cached(TrainerConfig(epochs=args.epochs), log=print)
        print(f"final loss: {baseline.final_loss:.5f}")
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
