#!/usr/bin/env python3
"""Pin the benchmark's serial reference: ``perfbench/reference.json``.

Runs every workload for every pinned campaign seed under
``SerialExecutor`` (the reference backend) and records per-episode
digests, each rendered ``report-arms`` table, and the work size (episodes,
lane-steps, horizon).  For the horizon-truncated workloads it also proves
that every attacked episode that has not activated its attack by the
horizon still has not at the full 10,000 steps, so the activated set is the
paper's.

Usage, from the repository root (about 5 minutes on 2 cores)::

    python3 perfbench/pin.py

Re-pin only when a workload definition changes: the references are what
every run is checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run

#: Pinned campaign seeds: the paper's first, then five more.
SEEDS = (2025, 1, 2, 3, 4, 5)

#: The seed kept for confirming a claimed gain on unseen inputs.
HELD_OUT = 5

#: Pinning processes run at once.
JOBS = 2


def pin_one(name: str, seed: int) -> dict:
    """Serial reference of one workload at one campaign seed."""
    import workloads
    from repro.attacks.campaign import enumerate_campaign
    from repro.core.experiment import run_campaign

    workload, _ = run.setup(name, seed)
    outcome = workloads.run_pass(workload, executor="serial", jobs=1)
    if outcome.errors:
        raise RuntimeError(f"{name} seed {seed}: {outcome.errors}")
    entry = workloads.digests(outcome)
    entry.update(
        episodes=outcome.episodes,
        lane_steps=outcome.lane_steps,
        horizon=workload.max_steps,
    )
    if workload.max_steps != workloads.HORIZON:
        return entry
    # Attacked episodes cut by the horizon before their attack fired must
    # not fire before the full horizon either.
    checked = 0
    for arm in workload.arms:
        episodes = enumerate_campaign(arm.campaign)
        for spec, r in zip(episodes, outcome.results[arm.name]):
            if r.fault_type == "none" or r.attack_activated or r.steps < workload.max_steps:
                continue
            (full,) = run_campaign(
                [spec], arm.interventions, executor="serial", jobs=1,
                lanes=None, cache=False, max_steps=workloads.FULL_HORIZON,
            ).results
            if full.attack_activated:
                raise RuntimeError(
                    f"{name} seed {seed} arm {arm.name}: {workloads.episode_label(r)} "
                    f"activates at t={full.attack_first_activation} s, after the "
                    f"{workload.max_steps}-step horizon"
                )
            checked += 1
    entry["late_activation_checked"] = checked
    return entry


def pin_in_fresh_process(task: tuple) -> dict:
    """:func:`pin_one` in its own interpreter, like every benchmark run."""
    name, seed = task
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", name, str(seed)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    entry = json.loads(proc.stdout.strip().split("\n")[-1])
    print(f"pinned {name} seed {seed}: {entry['episodes']} episodes, "
          f"{entry['lane_steps']} lane-steps", flush=True)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    status = run.prepare_environment()
    if status:
        return status
    if args.one:
        print(json.dumps(pin_one(args.one[0], int(args.one[1]))))
        return 0

    tasks = [(name, seed) for seed in SEEDS for name in run.WORKLOADS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        done = dict(zip(tasks, pool.map(pin_in_fresh_process, tasks)))
    info = run.manifest(SEEDS[0], SEEDS[0])
    reference = {
        "format": 1,
        "held_out_seed": HELD_OUT,
        "made_with": {
            "executor": "serial",
            "blas_core": info["blas_core"],
            "numpy": info["numpy"],
            "python": info["python"],
        },
        "seeds": {
            str(seed): {name: done[(name, seed)] for name in run.WORKLOADS}
            for seed in SEEDS
        },
    }
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(run.REFERENCE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
