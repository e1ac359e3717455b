"""Table VI — fault injection with and without safety interventions.

The paper's central table: for each fault type (relative distance, desired
curvature, mixed) and each intervention configuration, the A1/A2 split,
the prevention rate, average mitigation times and trigger rates.

Configurations (paper rows):
    none | driver+check | driver+check+AEB-comp | driver+check+AEB-indep |
    AEB-comp | AEB-indep | driver | ML

Paper shapes asserted:
1. without interventions every attack ends in an accident: RD attacks are
   A1-dominated, curvature attacks are 100 % A2, mixed attacks are
   A2-dominated;
2. AEB with the independent sensor prevents ~100 % of RD-attack
   collisions, AEB on compromised data collapses;
3. the driver prevents a substantial share across fault types;
4. the ML baseline trades A1 accidents for new A2 accidents on RD attacks
   (Observation 6) and does not beat AEB-independent.
"""

import os

from _bench_utils import repetitions, run_once

from repro import CampaignSpec, InterventionConfig, run_campaign
from repro.analysis.tables import render_table6, table6_row
from repro.core.metrics import group_by
from repro.safety.aebs import AebsConfig

CONFIGS = [
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
    InterventionConfig(ml=True, name="ml"),
]


def _ml_factory():
    from repro.ml import MitigationController, TrainerConfig, load_or_train_cached

    baseline = load_or_train_cached(TrainerConfig())
    return lambda: MitigationController(baseline)


def test_table6_interventions(benchmark):
    spec = CampaignSpec(repetitions=repetitions(1), seed=2025)
    include_ml = os.environ.get("REPRO_SKIP_ML") != "1"

    def run():
        rows = []
        by_config = {}
        for cfg in CONFIGS:
            if cfg.ml and not include_ml:
                continue
            ml_factory = _ml_factory() if cfg.ml else None
            campaign = run_campaign(spec, cfg, ml_factory=ml_factory)
            groups = group_by(campaign.results, "fault_type")
            for fault in sorted(groups):
                rows.append(table6_row(groups[fault], cfg.label()))
            by_config[cfg.label()] = campaign
        return rows, by_config

    rows, by_config = run_once(benchmark, run)
    rows.sort(key=lambda r: (r.fault_type, r.intervention))
    print()
    print(render_table6(rows))

    cell = {(r.fault_type, r.intervention): r for r in rows}

    # --- Shape 1: no interventions -> universal accidents ----------------
    none_rd = cell[("relative_distance", "none")]
    assert none_rd.prevented_pct == 0.0
    assert none_rd.a1_pct >= 80.0  # paper: 82.5 % A1
    none_curv = cell[("desired_curvature", "none")]
    assert none_curv.a1_pct + none_curv.a2_pct >= 95.0  # all runs crash
    assert none_curv.a2_pct >= 85.0  # paper: 100 % A2
    none_mixed = cell[("mixed", "none")]
    assert none_mixed.a2_pct >= 80.0  # paper: 95.8 % A2

    # --- Shape 2: independent AEB sensing is decisive ---------------------
    assert cell[("relative_distance", "aeb_indep")].prevented_pct >= 90.0
    assert (
        cell[("relative_distance", "aeb_comp")].prevented_pct
        <= cell[("relative_distance", "aeb_indep")].prevented_pct - 50.0
    )
    assert cell[("relative_distance", "driver+check+aeb_indep")].prevented_pct >= 90.0

    # --- Shape 3: the driver prevents a substantial share -----------------
    assert cell[("relative_distance", "driver")].prevented_pct >= 25.0
    assert cell[("desired_curvature", "driver")].prevented_pct >= 25.0
    assert cell[("mixed", "driver")].prevented_pct >= 25.0

    # --- Shape 4: ML converts A1 into A2 on RD attacks (Obs. 6) -----------
    if include_ml:
        ml_rd = cell[("relative_distance", "ml")]
        assert ml_rd.a1_pct < none_rd.a1_pct  # fewer forward collisions
        assert ml_rd.a2_pct > none_rd.a2_pct  # new lateral accidents
        assert (
            ml_rd.prevented_pct
            <= cell[("relative_distance", "aeb_indep")].prevented_pct
        )
