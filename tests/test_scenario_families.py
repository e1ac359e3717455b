"""Scenario-family registry tests.

Covers the registry itself (registration, lookup, schemas), the golden
campaign digests that pin cache compatibility with the pre-registry code,
parameter validation at every layer (ParamSpec, ScenarioConfig,
CampaignSpec, CLI), the three extra workload families, and the report
integration (family sweep artifacts, labelled placeholders).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.incremental import IncrementalReportEngine
from repro.analysis.report import ReportConfig, build_family_artifact
from repro.attacks.campaign import CampaignSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.cli import main
from repro.core.cache import CampaignCache, campaign_digest, canonical_episode
from repro.core.experiment import run_campaign
from repro.core.scheduler import CampaignPlan
from repro.safety.arbitration import InterventionConfig
from repro.sim.families import (
    ParamSpec,
    ScenarioFamily,
    UnknownScenarioError,
    family_catalog,
    get_family,
    param_token,
    register_family,
    registered_families,
    unregister_family,
)
from repro.sim.scenarios import SCENARIO_IDS, ScenarioConfig, build_scenario
from repro.sim.weather import FRICTION_CONDITIONS, FrictionCondition
from repro.sim.workloads import WORKLOAD_FAMILIES
from tests.conftest import episode


# --------------------------------------------------------------------- #
# Golden digests: the paper grid must stay byte-compatible
# --------------------------------------------------------------------- #

#: Campaign digests computed *before* the family-registry refactor
#: (fault-free, 10 repetitions, seed 2025, default interventions).  These
#: values key every user's existing result cache: a refactor that changes
#: any of them silently invalidates all cached campaigns.  Regenerate
#: only for an *intentional* identity change (and bump DIGEST_FORMAT).
GOLDEN_CELL_DIGESTS = {
    ("S1", 60): "580a5f88d6239f0c58d9b4668f8a3cd4675c3305834c6ff3f02bc52e35d10b00",
    ("S1", 230): "37604fa3eb3805b22568fac56047e2d35981078d38ae2e96aa3d42c2afcb1bc2",
    ("S2", 60): "44c28c976a6ac9f01d8dbf6afb5c5b8a3a91a753b253bea5fa26b4e527e4aeb9",
    ("S2", 230): "359a3a3033c12155d9d8539fc9c26daf3194676c99f54fbc00c922cecdb732fb",
    ("S3", 60): "788e8b216e7da684564bba5621b933607514a09652b280721f2f00e326badcba",
    ("S3", 230): "d850ff6b5d9ddb2043dc42bd3f1f4b807d008acd5e5de52e92f5c36019294669",
    ("S4", 60): "810ee1fcce5e0d0477383d33ff67f88f052deca41bb7ec9a0f5e6acedac1f15c",
    ("S4", 230): "999e5c3dc5d12b3e5dbc5043d54fa1367ced76aa3ce24db84e61dfc9461062d3",
    ("S5", 60): "15212621f5330bbab302c380e87159252c4932ae7067526886b425d86db9a1e4",
    ("S5", 230): "416e785d5f1dcb6d40568e938b410961c4768a3ff354c16ae8636d0e9795a82d",
    ("S6", 60): "dffcce1371db853a403bad5dc2bec702dd9b194e39a767b4d2fd0a9465a8a44e",
    ("S6", 230): "9b5e5337e79d3d23b462ed2080ba8e3ac8adb0a184efa0c80617f8a80c3a8b2e",
}

#: The two canonical full grids (same provenance as above).
GOLDEN_ATTACK_GRID = (
    "bb68eec72beeb3ca7a0cd168a2363fc83e365dee313e64545c840785e2eab587"
)
GOLDEN_FAULT_FREE_GRID = (
    "26323945134472bdf4768697ad11feb3b937867a78aa9a1cee6b65dbd0c7400f"
)

#: First episode seed of the attack grid (seed derivation pin).
GOLDEN_FIRST_SEED = 12594071752222980532

#: The one-repetition attack grid (seed 2025, default interventions) at
#: the paper horizon and at 4,400 steps, and the two shard digests of the
#: 4,400-step grid cut in two: the keys of campaigns run with a horizon
#: (``--max-steps``, perfbench's arms).
GOLDEN_PAPER_HORIZON = (
    "ce2f94c4242a69c45eb78e11c74185fb2d3aacaec7085d4323cde324e31a2215"
)
GOLDEN_4400_STEPS = (
    "71a495e41f41b06bec7ddc53aaad5a7ab579cc071c6f5cfef02b26f7a3b93075"
)
GOLDEN_4400_STEP_SHARDS = (
    "8640c03586269536c7092ab164734aa0ea6dbae35b7e1ca3b2c4275cb3398841",
    "44c134c2aae92e2bf3b81fe33c639c43a0a802ef6721739b020f1b962ef232a9",
)


class TestGoldenDigests:
    def test_per_cell_digests_unchanged(self):
        cfg = InterventionConfig()
        for (sid, gap), expected in GOLDEN_CELL_DIGESTS.items():
            spec = CampaignSpec(
                fault_types=[FaultType.NONE],
                scenario_ids=[sid],
                initial_gaps=[float(gap)],
                repetitions=10,
                seed=2025,
            )
            assert campaign_digest(spec, cfg) == expected, (sid, gap)

    def test_full_grid_digests_unchanged(self):
        cfg = InterventionConfig()
        attack = CampaignSpec(repetitions=10, seed=2025)
        assert campaign_digest(attack, cfg) == GOLDEN_ATTACK_GRID
        benign = CampaignSpec(
            fault_types=[FaultType.NONE], repetitions=10, seed=2025
        )
        assert campaign_digest(benign, cfg) == GOLDEN_FAULT_FREE_GRID

    def test_horizon_digests_unchanged(self):
        cfg = InterventionConfig()
        spec = CampaignSpec(repetitions=1, seed=2025)
        assert campaign_digest(spec, cfg) == GOLDEN_PAPER_HORIZON
        assert campaign_digest(spec, cfg, max_steps=4400) == GOLDEN_4400_STEPS
        plan = CampaignPlan.build(spec, cfg, shards=2, max_steps=4400)
        assert plan.digest() == GOLDEN_4400_STEPS
        assert tuple(job.digest() for job in plan.jobs) == GOLDEN_4400_STEP_SHARDS

    def test_seed_derivation_unchanged(self):
        episodes = enumerate_campaign(CampaignSpec(repetitions=10, seed=2025))
        assert len(episodes) == 360
        assert episodes[0].seed == GOLDEN_FIRST_SEED

    def test_paper_episode_canonical_form_has_no_params_key(self):
        # Pre-registry cache payloads had exactly these six keys; a new
        # key on paper episodes would change every digest above.
        form = canonical_episode(episode())
        assert set(form) == {
            "scenario_id",
            "initial_gap",
            "fault_type",
            "repetition",
            "seed",
            "friction",
        }

    def test_paper_labels_unchanged(self):
        spec = enumerate_campaign(CampaignSpec(repetitions=1, seed=2025))[0]
        assert spec.label() == "S1/gap=60/relative_distance/rep=0"


# --------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_paper_families_registered(self):
        assert set(SCENARIO_IDS) <= set(registered_families())

    def test_workload_families_registered(self):
        ids = registered_families()
        for family in WORKLOAD_FAMILIES:
            assert family.family_id in ids

    def test_unknown_family_error_names_registered(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            get_family("S99")
        message = str(excinfo.value)
        assert "S99" in message
        for fid in ("S1", "friction-sweep", "curved-road", "dense-traffic"):
            assert fid in message

    def test_unknown_scenario_error_is_value_error(self):
        with pytest.raises(ValueError):
            get_family("nope")

    def test_duplicate_registration_rejected(self):
        family = get_family("S1")
        with pytest.raises(ValueError, match="already registered"):
            register_family(family)

    def test_register_and_unregister_custom_family(self):
        class MiniFamily(ScenarioFamily):
            family_id = "mini-test"
            title = "registry round-trip probe"
            params = (ParamSpec("x", kind="float", default=1.0),)

            def build(self, config):  # pragma: no cover - never built
                raise AssertionError

        register_family(MiniFamily())
        try:
            assert get_family("mini-test").title == "registry round-trip probe"
            assert "mini-test" in registered_families()
        finally:
            unregister_family("mini-test")
        assert "mini-test" not in registered_families()

    def test_catalog_schema_round_trips_through_json(self):
        catalog = json.loads(json.dumps(family_catalog()))
        ids = [entry["id"] for entry in catalog]
        assert ids == list(registered_families())
        for entry in catalog:
            family = get_family(entry["id"])
            assert [p["name"] for p in entry["params"]] == [
                p.name for p in family.params
            ]

    def test_family_id_validation(self):
        with pytest.raises(ValueError, match="family_id"):
            ScenarioFamily(family_id="bad/id")
        with pytest.raises(ValueError, match="family_id"):
            ScenarioFamily(family_id="")


class TestParamSpec:
    def test_float_coerces_int(self):
        spec = ParamSpec("x", kind="float", default=1.0)
        assert spec.validate(2) == 2.0
        assert isinstance(spec.validate(2), float)

    def test_bounds_enforced(self):
        spec = ParamSpec("x", kind="float", default=0.5, minimum=0.1, maximum=1.0)
        with pytest.raises(ValueError, match=">= 0.1"):
            spec.validate(0.01)
        with pytest.raises(ValueError, match="<= 1.0"):
            spec.validate(1.5)

    def test_int_rejects_float_and_bool(self):
        spec = ParamSpec("n", kind="int", default=2)
        with pytest.raises(ValueError):
            spec.validate(2.5)
        with pytest.raises(ValueError):
            spec.validate(True)

    def test_choices_enforced(self):
        spec = ParamSpec("d", kind="str", default="left", choices=("left", "right"))
        assert spec.validate("right") == "right"
        with pytest.raises(ValueError, match="one of"):
            spec.validate("up")

    def test_parse_from_cli_text(self):
        assert ParamSpec("x", kind="float", default=1.0).parse("0.25") == 0.25
        assert ParamSpec("n", kind="int", default=1).parse("4") == 4
        with pytest.raises(ValueError):
            ParamSpec("n", kind="int", default=1).parse("4.5")

    def test_invalid_default_rejected(self):
        with pytest.raises(ValueError):
            ParamSpec("x", kind="float", default=5.0, maximum=1.0)

    def test_nan_and_inf_rejected_for_float_axes(self):
        spec = ParamSpec("x", kind="float", default=0.5, minimum=0.1, maximum=1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                spec.validate(bad)
        with pytest.raises(ValueError, match="finite"):
            spec.parse("nan")

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ParamSpec("x", kind="complex", default=1.0)


# --------------------------------------------------------------------- #
# ScenarioConfig validation (incl. the friction bugfix)
# --------------------------------------------------------------------- #


class TestScenarioConfigValidation:
    def test_friction_preset_accepted(self):
        cfg = ScenarioConfig(friction=FRICTION_CONDITIONS["75% off"])
        assert cfg.friction.mu == 0.25

    def test_arbitrary_friction_object_rejected(self):
        with pytest.raises(ValueError, match="FrictionCondition"):
            ScenarioConfig(friction=0.5)
        with pytest.raises(ValueError, match="FrictionCondition"):
            ScenarioConfig(friction={"name": "icy", "mu": 0.25})
        with pytest.raises(ValueError, match="FrictionCondition"):
            ScenarioConfig(friction="icy")

    def test_out_of_range_mu_rejected(self):
        # Bypass FrictionCondition's own validation the way a stale pickle
        # or a crafted subclass could.
        bad = FrictionCondition.__new__(FrictionCondition)
        object.__setattr__(bad, "name", "impossible")
        object.__setattr__(bad, "mu", 3.0)
        with pytest.raises(ValueError, match="mu"):
            ScenarioConfig(friction=bad)

    def test_unknown_scenario_rejected_with_families_named(self):
        with pytest.raises(UnknownScenarioError, match="registered scenario families"):
            ScenarioConfig(scenario_id="S7")

    def test_params_resolved_to_full_canonical_tuple(self):
        cfg = ScenarioConfig(scenario_id="friction-sweep", params={"mu": 0.25})
        assert cfg.params == (("mu", 0.25), ("lead_mph", 30.0))

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="declares no parameter"):
            ScenarioConfig(scenario_id="friction-sweep", params={"grip": 0.5})

    def test_params_rejected_for_parameter_free_family(self):
        with pytest.raises(ValueError, match="declares no parameter"):
            ScenarioConfig(scenario_id="S1", params={"mu": 0.5})

    def test_nan_initial_gap_rejected(self):
        with pytest.raises(ValueError, match="initial_gap"):
            ScenarioConfig(initial_gap=float("nan"))
        with pytest.raises(ValueError, match="initial_gaps"):
            CampaignSpec(initial_gaps=[float("nan")])


# --------------------------------------------------------------------- #
# Campaign enumeration with parameter sweeps
# --------------------------------------------------------------------- #


class TestCampaignSweeps:
    def _spec(self, **kwargs):
        defaults = dict(
            fault_types=[FaultType.RELATIVE_DISTANCE],
            scenario_ids=["friction-sweep"],
            initial_gaps=[60.0],
            repetitions=2,
            seed=7,
        )
        defaults.update(kwargs)
        return CampaignSpec(**defaults)

    def test_sweep_enumerates_cartesian_product(self):
        spec = self._spec(param_axes={"mu": (0.75, 0.25), "lead_mph": (30.0, 40.0)})
        episodes = enumerate_campaign(spec)
        assert len(episodes) == 2 * 2 * 2  # mu x lead_mph x reps
        points = {e.params for e in episodes}
        assert points == {
            (("mu", 0.75), ("lead_mph", 30.0)),
            (("mu", 0.75), ("lead_mph", 40.0)),
            (("mu", 0.25), ("lead_mph", 30.0)),
            (("mu", 0.25), ("lead_mph", 40.0)),
        }

    def test_sweep_seeds_distinct_per_point(self):
        episodes = enumerate_campaign(self._spec(param_axes={"mu": (0.75, 0.25)}))
        assert len({e.seed for e in episodes}) == len(episodes)

    def test_label_carries_sweep_point(self):
        spec = self._spec(param_axes={"mu": (0.25,)}, repetitions=1)
        (ep,) = enumerate_campaign(spec)
        assert ep.label() == (
            "friction-sweep/gap=60/mu=0.25,lead_mph=30.0/relative_distance/rep=0"
        )

    def test_default_params_materialised_without_axes(self):
        (ep,) = enumerate_campaign(self._spec(repetitions=1))
        assert ep.params == (("mu", 0.5), ("lead_mph", 30.0))

    def test_axis_order_normalised_to_declaration_order(self):
        a = self._spec(param_axes={"lead_mph": (30.0,), "mu": (0.25,)})
        b = self._spec(param_axes={"mu": (0.25,), "lead_mph": (30.0,)})
        assert a.param_axes == b.param_axes
        assert campaign_digest(a, InterventionConfig()) == campaign_digest(
            b, InterventionConfig()
        )

    def test_sweep_points_digest_distinctly(self):
        cfg = InterventionConfig()
        a = campaign_digest(self._spec(param_axes={"mu": (0.75,)}), cfg)
        b = campaign_digest(self._spec(param_axes={"mu": (0.5,)}), cfg)
        assert a != b

    def test_axes_require_single_family(self):
        with pytest.raises(ValueError, match="exactly one"):
            self._spec(
                scenario_ids=["friction-sweep", "S1"], param_axes={"mu": (0.5,)}
            )

    def test_undeclared_axis_rejected(self):
        with pytest.raises(ValueError, match="declares no parameter"):
            self._spec(param_axes={"grip": (0.5,)})

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self._spec(param_axes={"mu": (0.5, 0.5)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self._spec(param_axes={"mu": ()})

    def test_unknown_scenario_in_campaign_names_families(self):
        with pytest.raises(UnknownScenarioError, match="registered scenario families"):
            CampaignSpec(scenario_ids=["S1", "bogus"])

    def test_sharding_covers_sweeps(self):
        from repro.attacks.campaign import ShardSpec

        spec = self._spec(param_axes={"mu": (0.75, 0.5, 0.25)})
        full = enumerate_campaign(spec)
        pieces = [
            enumerate_campaign(spec, shard=ShardSpec(i, 3)) for i in (1, 2, 3)
        ]
        assert [e for piece in pieces for e in piece] == full


# --------------------------------------------------------------------- #
# The workload families build correctly and deterministically
# --------------------------------------------------------------------- #


def world_fingerprint(world):
    """Everything construction determines: road, friction, actors."""
    return (
        world.road.length,
        tuple((s.length, s.curvature) for s in world.road.segments),
        world.friction.name,
        world.friction.mu,
        tuple(
            (
                b.actor.name,
                b.actor.s,
                b.actor.d,
                b.actor.speed,
                type(b.behavior).__name__,
            )
            for b in world.agents
        ),
    )


class TestWorkloadFamilies:
    def test_friction_sweep_applies_mu(self):
        world = build_scenario(
            ScenarioConfig(scenario_id="friction-sweep", seed=1, params={"mu": 0.25})
        )
        assert world.friction.mu == 0.25
        assert [a.name for a in world.actors] == ["LV"]

    def test_friction_sweep_campaign_friction_overrides_mu_param(self):
        world = build_scenario(
            ScenarioConfig(
                scenario_id="friction-sweep",
                seed=1,
                params={"mu": 0.25},
                friction=FRICTION_CONDITIONS["default"],
            )
        )
        assert world.friction.mu == 1.0

    def test_curved_road_geometry(self):
        world = build_scenario(
            ScenarioConfig(
                scenario_id="curved-road",
                seed=1,
                params={"curve_radius": 100.0, "direction": "right"},
            )
        )
        curvatures = [s.curvature for s in world.road.segments]
        assert curvatures[0] == 0.0
        assert curvatures[1] == pytest.approx(-1.0 / 100.0)
        # Long enough that a full episode never runs off the end.
        assert world.road.length > 3000.0

    def test_curved_road_left_is_positive_curvature(self):
        world = build_scenario(
            ScenarioConfig(scenario_id="curved-road", seed=1)
        )
        assert world.road.segments[1].curvature > 0.0

    def test_dense_traffic_actor_count(self):
        for n in (2, 5):
            world = build_scenario(
                ScenarioConfig(
                    scenario_id="dense-traffic", seed=1, params={"n_vehicles": n}
                )
            )
            in_lane = [a for a in world.actors if a.name.startswith("T")]
            assert len(in_lane) == n
            cut_ins = [a for a in world.actors if a.name == "CutIn"]
            assert len(cut_ins) == (1 if n >= 3 else 0)

    def test_dense_traffic_mixed_behaviors(self):
        world = build_scenario(
            ScenarioConfig(
                scenario_id="dense-traffic", seed=1, params={"n_vehicles": 4}
            )
        )
        behaviors = {type(b.behavior).__name__ for b in world.agents}
        assert {"SuddenStopBehavior", "SpeedChangeBehavior", "CruiseBehavior",
                "CutInBehavior"} <= behaviors

    def test_initial_gap_respected_without_jitter(self):
        for fid in ("friction-sweep", "curved-road", "dense-traffic"):
            world = build_scenario(
                ScenarioConfig(
                    scenario_id=fid, initial_gap=80.0, seed=1, jitter=False
                )
            )
            assert world.lead_gap() == pytest.approx(80.0, abs=0.5)

    def test_jitter_varies_and_is_seeded(self):
        for fid in ("friction-sweep", "curved-road", "dense-traffic"):
            gap = lambda seed: build_scenario(
                ScenarioConfig(scenario_id=fid, seed=seed)
            ).lead_gap()
            assert gap(1) != gap(2)
            assert gap(5) == gap(5)


def _family_params_strategy(family):
    """Draw a valid parameter assignment for ``family`` from its schema."""
    parts = {}
    for spec in family.params:
        if spec.choices is not None:
            parts[spec.name] = st.sampled_from(spec.choices)
        elif spec.kind == "float":
            parts[spec.name] = st.floats(
                min_value=spec.minimum,
                max_value=spec.maximum,
                allow_nan=False,
                allow_infinity=False,
            )
        elif spec.kind == "int":
            parts[spec.name] = st.integers(
                min_value=int(spec.minimum), max_value=int(spec.maximum)
            )
        else:  # pragma: no cover - no unconstrained str axes declared
            parts[spec.name] = st.text(max_size=8)
    return st.fixed_dictionaries(parts)


@st.composite
def _family_and_params(draw):
    fid = draw(st.sampled_from(sorted(registered_families())))
    family = get_family(fid)
    params = draw(_family_params_strategy(family))
    return fid, params


class TestBuildDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(_family_and_params(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_registered_family_builds_deterministically(self, fam, seed):
        fid, params = fam
        config = ScenarioConfig(scenario_id=fid, seed=seed, params=params)
        assert world_fingerprint(build_scenario(config)) == world_fingerprint(
            build_scenario(config)
        )

    @settings(max_examples=15, deadline=None)
    @given(_family_and_params())
    def test_resolve_params_is_idempotent(self, fam):
        fid, params = fam
        family = get_family(fid)
        once = family.resolve_params(params)
        assert family.resolve_params(once) == once
        assert family.resolve_params(dict(once)) == once


# --------------------------------------------------------------------- #
# Execution-layer integration (cache, resume) for a workload family
# --------------------------------------------------------------------- #


class TestWorkloadExecution:
    def test_family_campaign_caches_and_resumes(self, tmp_path):
        spec = CampaignSpec(
            fault_types=[FaultType.RELATIVE_DISTANCE],
            scenario_ids=["dense-traffic"],
            initial_gaps=[60.0],
            repetitions=1,
            seed=7,
            param_axes={"n_vehicles": (2, 3)},
        )
        cfg = InterventionConfig(driver=True)
        cache = CampaignCache(tmp_path / "cache")
        first = run_campaign(spec, cfg, cache=cache, max_steps=300)
        assert len(first.results) == 2
        # Cache hit: identical results without re-execution.
        again = run_campaign(spec, cfg, cache=cache, max_steps=300)
        assert [r.to_dict() for r in again.results] == [
            r.to_dict() for r in first.results
        ]
        # Resume from scratch reproduces the same records.
        resumed = run_campaign(
            spec,
            cfg,
            cache=False,
            resume_path=tmp_path / "resume.jsonl",
            max_steps=300,
        )
        assert [r.to_dict() for r in resumed.results] == [
            r.to_dict() for r in first.results
        ]


# --------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------- #


class TestCli:
    def test_scenarios_list_json_round_trips(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == 1
        ids = [f["id"] for f in doc["families"]]
        assert ids == list(registered_families())
        for entry in doc["families"]:
            family = get_family(entry["id"])
            for param in entry["params"]:
                spec = family.param_spec(param["name"])
                assert spec.kind == param["kind"]
                assert spec.default == param["default"]

    def test_scenarios_list_text_mentions_params(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "friction-sweep" in out
        assert "--scenario-param mu=" in out

    def test_campaign_unknown_scenario_exits_cleanly(self, capsys):
        assert main(["campaign", "--scenario", "S9", "--reps", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'S9'" in err
        assert "registered scenario families" in err

    def test_episode_unknown_scenario_exits_cleanly(self, capsys):
        assert main(["episode", "--scenario", "S9"]) == 2
        assert "registered scenario families" in capsys.readouterr().err

    def test_report_status_unknown_family_exits_cleanly(self, capsys):
        assert main(["report-status", "--family", "bogus"]) == 2
        assert "registered scenario families" in capsys.readouterr().err

    def test_campaign_param_sweep_runs(self, tmp_path, capsys):
        out = tmp_path / "fam.jsonl"
        code = main(
            [
                "campaign",
                "--scenario", "friction-sweep",
                "--scenario-param", "mu=0.5,0.25",
                "--fault", "relative_distance",
                "--reps", "1",
                "--seed", "7",
                "--max-steps", "200",
                "-o", str(out),
            ]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l.strip()]
        assert len(lines) == 2  # two mu points x 1 gap x 1 rep

    def test_campaign_param_requires_single_family(self, capsys):
        code = main(
            ["campaign", "--scenario-param", "mu=0.5", "--reps", "1"]
        )
        assert code == 2
        assert "exactly one family" in capsys.readouterr().err

    def test_campaign_undeclared_param_exits_cleanly(self, capsys):
        code = main(
            [
                "campaign",
                "--scenario", "S1",
                "--scenario-param", "mu=0.5",
                "--reps", "1",
            ]
        )
        assert code == 2
        assert "declares no parameter" in capsys.readouterr().err

    def test_campaign_nan_param_exits_cleanly(self, capsys):
        code = main(
            [
                "campaign",
                "--scenario", "curved-road",
                "--scenario-param", "curve_radius=nan",
                "--reps", "1",
            ]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_repeated_family_flag_deduplicated(self, capsys):
        code = main(
            [
                "report-status",
                "--family", "friction-sweep",
                "--family", "friction-sweep",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("family-friction-sweep") == 1


# --------------------------------------------------------------------- #
# Report integration: family sweep artifacts
# --------------------------------------------------------------------- #


class TestReportFamilies:
    def test_family_artifact_declares_one_arm_per_sweep_point(self):
        config = ReportConfig(repetitions=1, seed=7)
        artifact = build_family_artifact(config, "friction-sweep")
        assert artifact.artifact_id == "family-friction-sweep"
        assert [arm.name for arm in artifact.arms] == [
            "friction-sweep:mu=0.75",
            "friction-sweep:mu=0.5",
            "friction-sweep:mu=0.25",
        ]

    def test_family_placeholders_label_sweep_points(self, tmp_path):
        config = ReportConfig(
            repetitions=1,
            seed=7,
            extra_families=("dense-traffic",),
            cache_dir=str(tmp_path / "cache"),
        )
        engine = IncrementalReportEngine(config)
        outcome = engine.run(incremental=True)
        (family_outcome,) = [
            o
            for o in outcome.artifacts
            if o.artifact.artifact_id == "family-dense-traffic"
        ]
        assert family_outcome.state == "pending"
        assert "dense-traffic:n_vehicles=2" in family_outcome.body

    def test_param_token_formatting(self):
        assert param_token((("mu", 0.5), ("lead_mph", 30.0))) == "mu=0.5,lead_mph=30.0"
        assert param_token(()) == ""
