"""Self-tests of the benchmark at toy sizes.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check the runner's contract (metric names and units, refused
environment, refusal without program source, the pass count, what
``peak_rss_mb`` counts), the correctness gate, and that tracing changes
no result.  Workload-sized runs are ``run.py``'s job.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)


def _toy() -> workloads.Workload:
    """Two short attacked episodes under the full non-ML stack."""
    from repro.analysis.report import TABLE6_CONFIGS
    from repro.attacks.campaign import CampaignSpec
    from repro.attacks.fi import FaultType

    spec = CampaignSpec(
        fault_types=[FaultType.RELATIVE_DISTANCE],
        scenario_ids=("S1", "S4"),
        initial_gaps=(60.0,),
        repetitions=1,
        seed=2025,
    )
    stack = TABLE6_CONFIGS[3]
    return workloads.Workload("toy", 60, [workloads.Arm(stack.label(), spec, stack)])


def _reference(outcome: workloads.Outcome) -> dict:
    ref = workloads.digests(outcome)
    ref.update(
        episodes=outcome.episodes,
        lane_steps=outcome.lane_steps,
        horizon=outcome.horizon,
    )
    return ref


@pytest.fixture(scope="module")
def toy_outcome():
    return workloads.run_pass(_toy())


def _bench_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_lists_the_runner_metrics():
    bench = _bench_json()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_metric_prints_with_its_unit(capsys):
    for table in (run.END_TO_END, run.PER_LAYER):
        units = {name: unit for name, unit, _ in table}
        run.print_result(True, 3, 0, {name: 1.5 for name in units}, units)
        line = capsys.readouterr().out.strip().split("\n")[-1]
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        assert all(m["value"] == 1.5 for m in result["metrics"].values())


def test_gate_passes_on_its_own_reference(toy_outcome):
    verdict = workloads.compare("toy", toy_outcome, _reference(toy_outcome))
    assert verdict.correct
    assert (verdict.attempted, verdict.failed) == (2, 0)


def test_gate_trips_on_a_perturbed_digest(toy_outcome):
    reference = _reference(toy_outcome)
    arm = next(iter(reference["arms"]))
    reference["arms"][arm][1] = "0" * 16
    verdict = workloads.compare("toy", toy_outcome, reference)
    assert not verdict.correct
    assert verdict.failed == 1
    assert f"workload=toy arm={arm} episode=1" in verdict.mismatches[0]


@pytest.mark.parametrize("key", ["episodes", "lane_steps", "horizon"])
def test_gate_trips_on_different_work(toy_outcome, key):
    reference = _reference(toy_outcome)
    reference[key] += 1
    verdict = workloads.compare("toy", toy_outcome, reference)
    assert not verdict.correct
    assert f"work size {key}" in verdict.mismatches[-1]


def test_gate_counts_a_raising_arm_as_failed(toy_outcome):
    broken = workloads.Outcome({"x": None}, {}, {"x": "Traceback"})
    reference = {"arms": {"x": ["a", "b"]}, "episodes": 2, "lane_steps": 0}
    verdict = workloads.compare("toy", broken, reference)
    assert (verdict.attempted, verdict.failed) == (2, 2)
    assert "raised" in verdict.mismatches[0]


@pytest.mark.parametrize("executor", ["batch", "serial"])
def test_tracing_changes_no_digest(toy_outcome, executor):
    tracer = spans.Tracer()
    with tracer.span(spans.ROOT):
        with tracer.installed(spans.STEP_STAGES, spans.batch_observers(tracer)):
            traced = workloads.run_pass(_toy(), executor=executor)
    assert workloads.digests(traced) == workloads.digests(toy_outcome)
    assert tracer.calls["adas.perception"] > 0
    assert tracer.calls["sim.dynamics"] > 0
    own = sum(tracer.self_s.values())
    assert own == pytest.approx(tracer.total_s[spans.ROOT], rel=1e-6)


def test_uninstall_restores_every_site():
    from repro.sim import batch_control

    before = batch_control.perception_head_arrays
    tracer = spans.Tracer()
    tracer.install(spans.STEP_STAGES)
    tracer.install(spans.RENDER_STAGES)
    tracer.install(spans.POOL_STAGES)
    assert batch_control.perception_head_arrays is not before
    tracer.uninstall()
    assert batch_control.perception_head_arrays is before


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    assert tracer.total_s["outer"] >= tracer.total_s["inner"]
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"]
    )
    assert tracer.spans[0][3] == "outer"


def test_pass_count_follows_seconds_only():
    assert run.pass_count("report-arms", 50) == 1
    assert run.pass_count("ml-lstm", 50) == 2
    for name in run.WORKLOADS:
        assert run.pass_count(name, 1) == 1
        assert run.pass_count(name, 500) > run.pass_count(name, 50)


def test_campaign_seed_mapping_is_deterministic():
    pinned = (2025, 1, 2, 5)
    assert workloads.campaign_seed(2025, pinned, 5) == 2025
    assert workloads.campaign_seed(2, pinned, 5) == 2
    assert workloads.campaign_seed(5, pinned, 5) == 5
    assert workloads.campaign_seed(7, pinned, 5) == (2025, 1, 2)[7 % 3]
    assert workloads.campaign_seed(7, pinned, 5) == workloads.campaign_seed(7, pinned, 5)
    assert {workloads.campaign_seed(n, pinned, 5) for n in range(6, 100)} == {2025, 1, 2}


def test_peak_rss_leaves_out_the_launchers_children():
    probe = (
        "import resource, run; "
        "own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0; "
        "assert run.CHILD_RSS_AT_START > 0; "
        "assert run.peak_rss_mb() == own, (run.peak_rss_mb(), own)"
    )
    proc = subprocess.run(
        ["sh", "-c", 'ls / > /dev/null; exec "$0" -c "$1"', sys.executable, probe],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _run(args, cwd, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k not in run.REFUSED_ENV}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_refuses_knob_environment(var):
    proc = _run(["--workload", "report-arms"], run.ROOT, {var: "3"})
    assert proc.returncode == 2
    assert var in proc.stderr
    assert proc.stdout == ""


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "report-arms", "--seed", "1"], tmp_path)
    assert proc.returncode != 0
    assert "no program source" in proc.stderr
    assert proc.stdout == ""
