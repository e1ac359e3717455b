#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-arms      # one workload
    python3 perfbench/run.py --workload all              # every workload
    python3 perfbench/run.py --workload ml-lstm --trace 1  # per-layer run

Options: ``--seed N`` (default 2025; mapped onto the pinned campaign
seeds, see ``workloads.campaign_seed``), ``--seconds S`` (the nominal run
length: a run times ``pass_count`` back-to-back fixed-work passes, a count
set by ``S`` alone and never by the host's speed) and ``--trace 0|1``.
The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; exit status is 0
when every episode matches the pinned serial reference, 1 when one does
not, 2 when the environment or the checkout is refused.

Load is a closed loop with one client: an arm starts when the previous one
returns.  Each run is a fresh process; see README.md for the metrics, the
workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

#: Runner start, for ``setup.import_s`` (every import happens after it).
STARTED = time.perf_counter()

#: Peak RSS [KiB] of children reaped before the runner started: helpers of
#: whatever launched it (a Python version manager's shim adds about 3 MB).
#: They are not the runner's, so ``peak_rss_mb`` leaves them out.
CHILD_RSS_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

#: Environment that would change what the program runs; refused, not
#: scrubbed, so a run never silently differs from the one asked for.
REFUSED_ENV = ("REPRO_BATCH_LANES", "REPRO_JOBS", "REPRO_CACHE_DIR")

#: One BLAS thread, set before NumPy loads; pool workers inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Iterations of the fixed pure-Python loop timed around each timed pass.
HOST_LOOP_ITERATIONS = 2_000_000

WORKLOADS = ("report-arms", "ml-lstm")

#: Nominal seconds of one pass of each workload on the reference host;
#: ``--seconds`` divided by it, rounded, is the number of timed passes
#: (at 50 s: one ``report-arms`` pass, two ``ml-lstm`` passes).
PASS_SECONDS = {"report-arms": 35.0, "ml-lstm": 22.0}

#: Worker processes of the traced run's batch x jobs pool pass.
POOL_JOBS = 2

#: (name, unit, better) of the end-to-end metrics, tracing off.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("lane_steps_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Step stages reported per column (``<stage>_s`` self time and
#: ``<stage>_calls``), in pipeline order.
STAGE_ROWS = (
    "adas.perception",
    "attacks.fault_injection",
    "adas.planners",
    "ml.algorithm1",
    "ml.lstm_forward",
    "safety.aebs",
    "safety.ldw",
    "safety.driver",
    "safety.arbitration",
    "batch.control_other",
    "sim.dynamics",
    "sim.agents",
    "core.hazards",
    "core.platform_init",
    "core.executor",
    "core.campaign_overhead",
)

_UNITS = {"_s": ("s", "lower"), "_calls": ("count", "lower")}


def _stage_layer(prefix: str):
    rows = []
    for stage in STAGE_ROWS:
        for suffix, (unit, better) in _UNITS.items():
            rows.append((f"{prefix}{stage}{suffix}", unit, better))
    rows.append((f"{prefix}other_s", "s", "lower"))
    return rows


#: (name, unit, better) of the per-layer metrics, traced run.
PER_LAYER = tuple(
    _stage_layer("")
    + [
        ("analysis.render_s", "s", "lower"),
        ("analysis.render_calls", "count", "lower"),
        ("analysis.fig_trace_s", "s", "lower"),
        ("analysis.fig_trace_calls", "count", "lower"),
        ("batch.ticks", "count", "lower"),
        ("batch.lane_steps", "count", "higher"),
        ("batch.mean_width", "lanes", "higher"),
        ("batch.narrow_tick_frac", "1", "lower"),
        ("batch.tick_us", "us", "lower"),
        ("batch.scalar_lane_frac", "1", "lower"),
        ("batch.setup_s", "s", "lower"),
        ("batch.hazard_flag_frac", "1", "lower"),
        ("executor.chunks", "count", "lower"),
        ("executor.pickled_bytes", "B", "lower"),
        ("executor.pool_run_s", "s", "lower"),
        ("executor.worker_cpu_s", "s", "lower"),
        ("executor.parallel_eff", "1", "higher"),
        ("ml.rows_per_forward", "rows", "higher"),
        ("ml.train_s", "s", "lower"),
        ("setup.import_s", "s", "lower"),
        ("trace.overhead_frac", "1", "lower"),
    ]
    + _stage_layer("serial.")
)


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def prepare_environment() -> int:
    """Refuse knob variables, pin BLAS threads, put ``src/`` first.

    Returns 0, or the exit status to refuse with.
    """
    for var in REFUSED_ENV:
        if var in os.environ:
            return refuse(
                f"refusing to run with {var} set (it changes what the program "
                f"executes); unset {var} and run again"
            )
    if "numpy" in sys.modules:
        return refuse("NumPy loaded before the BLAS thread pin")
    os.environ.update(BLAS_ENV)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return refuse(f"no program source at {os.path.relpath(SRC)}/repro")
    sys.path.insert(0, SRC)
    import repro

    where = os.path.realpath(os.path.dirname(repro.__file__))
    if where != os.path.realpath(os.path.join(SRC, "repro")):
        return refuse(f"imported repro from {where}, not from this checkout")
    return 0


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def cpu_seconds(children_only: bool = False) -> float:
    """User+sys CPU of this process and its reaped children."""
    usages = [resource.getrusage(resource.RUSAGE_CHILDREN)]
    if not children_only:
        usages.append(resource.getrusage(resource.RUSAGE_SELF))
    return sum(u.ru_utime + u.ru_stime for u in usages)


def peak_rss_mb() -> float:
    """Peak RSS of the runner plus that of its largest child [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if child <= CHILD_RSS_AT_START:
        child = 0
    return (own + child) / 1024.0


def blas_info() -> dict:
    """OpenBLAS build, runtime core and thread count, via its C API.

    Reads the library NumPy has loaded, so call it after importing NumPy.
    """
    import ctypes

    info = {"blas_core": "unknown", "blas_config": "unknown", "blas_threads": -1}
    path = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                if "openblas" in line.lower():
                    path = line.split()[-1]
                    break
    except OSError:
        return info
    if path is None:
        return info
    lib = ctypes.CDLL(path)
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
        corename = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
        if corename is None:
            continue
        corename.restype = ctypes.c_char_p
        corename.argtypes = []
        config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
        config.restype = ctypes.c_char_p
        config.argtypes = []
        threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
        threads.restype = ctypes.c_int
        threads.argtypes = []
        info = {
            "blas_core": corename().decode(),
            "blas_config": config().decode().strip(),
            "blas_threads": threads(),
        }
        break
    return info


def host_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    Recorded in the manifest before each timed pass and after the last,
    and never used to correct a metric, so that a set of runs on a slower
    host can be told apart from a slower program.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(HOST_LOOP_ITERATIONS):
        total += i
    return time.perf_counter() - t0


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def manifest(seed: int, campaign_seed: int) -> dict:
    """Host and config of a record; never part of any digest."""
    import platform

    import numpy

    from repro.core.executor import available_cores

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    record = {
        "available_cores": available_cores(),
        "cpu_model": model,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "campaign_seed": campaign_seed,
    }
    record.update(blas_info())
    return record


def setup(name: str, campaign_seed: int):
    """Everything a run does before its timed phase."""
    import workloads

    workloads.import_program()
    import_s = time.perf_counter() - STARTED
    t1 = time.perf_counter()
    factory = workloads.train_ml_factory() if name == "ml-lstm" else None
    train_s = time.perf_counter() - t1 if factory is not None else 0.0
    workload = workloads.build(name, campaign_seed, factory)
    return workload, {"setup.import_s": import_s, "ml.train_s": train_s}


def probe_setup(name: str, seed: int) -> list:
    """Time ``SETUP_PROBES`` fresh processes from spawn to end of set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err}")
        samples.append(elapsed)
    return samples


def reference_for(reference: dict, name: str, campaign_seed: int, workload,
                  host_core: str) -> tuple:
    """The pinned reference for this run, or an in-run serial one.

    The ML arm's digests depend on the OpenBLAS kernel that trained and ran
    the LSTM.  On a host whose kernel differs from the pinning host's, the
    pinned ML digests do not apply, so the run builds its reference with
    ``SerialExecutor`` instead (after the timed phase) and says so.
    """
    import workloads

    pinned = reference["seeds"][str(campaign_seed)][name]
    made_on = reference["made_with"]["blas_core"]
    if name != "ml-lstm" or host_core == made_on:
        return pinned, f"pinned ({made_on})"
    serial = workloads.run_pass(workload, executor="serial", jobs=1)
    own = workloads.digests(serial)
    own.update(episodes=serial.episodes, lane_steps=serial.lane_steps,
               horizon=serial.horizon)
    return own, f"in-run SerialExecutor (host {host_core}, pinned {made_on})"


def report_mismatches(verdict, name: str, source: str, info: dict) -> None:
    if verdict.correct:
        return
    print(f"perfbench: {name}: {len(verdict.mismatches)} mismatch(es) against "
          f"the {source} reference; host BLAS core {info['blas_core']}",
          file=sys.stderr)
    for line in verdict.mismatches[:20]:
        print(f"  {line}", file=sys.stderr)


def record(path_name: str, payload: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, path_name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def print_result(correct: bool, attempted: int, failed: int, metrics: dict,
                 units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def pass_count(name: str, seconds: int) -> int:
    """Timed passes of workload ``name`` in a run of nominal ``seconds``."""
    return max(1, int(seconds / PASS_SECONDS[name] + 0.5))


def run_timed(args, reference: dict, campaign_seed: int) -> int:
    """``--trace 0``: the end-to-end metrics, means over the timed passes."""
    import workloads

    workload, _ = setup(args.workload, campaign_seed)
    info = manifest(args.seed, campaign_seed)
    outcomes, walls, cpus, loops = [], [], [], []
    for _ in range(pass_count(args.workload, args.seconds)):
        loops.append(host_loop_s())
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        outcomes.append(workloads.run_pass(workload))
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
    loops.append(host_loop_s())
    info["host_loop_s"] = statistics.median(loops)
    info["host_loop_samples_s"] = loops
    rss = peak_rss_mb()

    want, source = reference_for(reference, args.workload, campaign_seed,
                                 workload, info["blas_core"])
    verdicts = [workloads.compare(args.workload, o, want) for o in outcomes]
    for verdict in verdicts:
        report_mismatches(verdict, args.workload, source, info)
    setup_samples = probe_setup(args.workload, args.seed)

    lane_steps = sum(o.lane_steps for o in outcomes)
    metrics = {
        "wall_s": statistics.fmean(walls),
        "lane_steps_per_s": lane_steps / sum(walls),
        "cpu_s": statistics.fmean(cpus),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    correct = all(v.correct for v in verdicts)
    print(f"perfbench {args.workload}: seed {args.seed} -> campaign seed "
          f"{campaign_seed}, {len(outcomes)} pass(es) of "
          f"{outcomes[0].lane_steps} lane-steps, reference {source}")
    for name, value in metrics.items():
        print(f"  {name:<18} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<18} {failed / attempted:>14.6g} 1")
    print("manifest " + json.dumps(info, sort_keys=True))
    record(f"{args.workload}-seed{args.seed}.json", {
        "manifest": info, "metrics": metrics, "failed_frac": failed / attempted,
        "pass_wall_s": walls, "setup_samples_s": setup_samples,
        "seconds": args.seconds,
    })
    print_result(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


def run_traced(args, reference: dict, campaign_seed: int) -> int:
    """``--trace 1``: one untraced pass, then the traced column(s)."""
    import spans
    import workloads

    workload, metrics = setup(args.workload, campaign_seed)
    info = manifest(args.seed, campaign_seed)
    want, source = reference_for(reference, args.workload, campaign_seed,
                                 workload, info["blas_core"])
    verdicts = []

    def check(outcome, tables: bool = True) -> None:
        verdict = workloads.compare(args.workload, outcome, want, tables)
        report_mismatches(verdict, args.workload, source, info)
        verdicts.append(verdict)

    info["host_loop_s"] = host_loop_s()
    t0 = time.perf_counter()
    check(workloads.run_pass(workload))
    untraced_wall = time.perf_counter() - t0

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = spans.Tracer()
    with tracer.span(spans.ROOT):
        with tracer.installed(spans.STEP_STAGES, spans.batch_observers(tracer)):
            outcome = workloads.run_pass(workload, render=False)
        if workload.artifacts:
            with tracer.installed(spans.RENDER_STAGES):
                outcome.tables = workloads.render_tables(workload, outcome.campaigns)
    check(outcome)
    metrics.update(tracer.stage_metrics(
        STAGE_ROWS + (spans.ROOT,) + tuple(spans.RENDER_STAGES)
    ))
    metrics.update(spans.batch_metrics(tracer))
    metrics["trace.overhead_frac"] = tracer.total_s[spans.ROOT] / untraced_wall - 1.0
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-batch.json"))

    if args.workload == "ml-lstm":
        metrics.update(_trace_pool(workload, check))

    if args.workload == "report-arms":
        serial = spans.Tracer()
        with serial.span(spans.ROOT), serial.installed(spans.STEP_STAGES):
            outcome = workloads.run_pass(workload, executor="serial", jobs=1,
                                         render=False)
        check(outcome, tables=False)
        metrics.update(serial.stage_metrics(STAGE_ROWS + (spans.ROOT,), prefix="serial."))
        serial.write(os.path.join(OUT_DIR, f"spans-{args.workload}-serial.json"))

    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: float(metrics.get(name, 0.0)) for name in units}
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    correct = all(v.correct for v in verdicts)
    print(f"perfbench {args.workload} (traced): seed {args.seed} -> campaign "
          f"seed {campaign_seed}, reference {source}")
    for name, value in metrics.items():
        if value:
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print("manifest " + json.dumps(info, sort_keys=True))
    record(f"{args.workload}-seed{args.seed}-trace.json",
           {"manifest": info, "metrics": metrics})
    print_result(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


def _trace_pool(workload, check) -> dict:
    """The batch x jobs pool, timed parent-side, on ``ml-lstm``'s arm.

    Spans inside pool workers are out of reach from outside the program;
    the parent sees the pool run, its chunks and what crosses the process
    boundary (the trained weights included).
    """
    import pickle

    import spans
    import workloads

    seen = {}

    def on_pool(call_args: tuple, result: object) -> None:
        seen["executor"], seen["tasks"] = call_args[:2]
        seen["results"] = result

    site = ("repro.core.executor", "BatchParallelExecutor.run")
    tracer = spans.Tracer()
    cpu0 = cpu_seconds(children_only=True)
    with tracer.installed(spans.POOL_STAGES, {site: on_pool}):
        check(workloads.run_pass(workload, jobs=POOL_JOBS))
    worker_cpu = cpu_seconds(children_only=True) - cpu0
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-pool.json"))

    pool, tasks, results = seen["executor"], seen["tasks"], seen["results"]
    size = pool.chunk_size or math.ceil(len(tasks) / pool.jobs)
    bounds = range(0, len(tasks), size)
    pool_s = tracer.total_s["executor.pool_run"]
    return {
        "executor.chunks": float(len(bounds)),
        "executor.pickled_bytes": float(sum(
            len(pickle.dumps(tasks[i:i + size])) + len(pickle.dumps(results[i:i + size]))
            for i in bounds
        )),
        "executor.pool_run_s": pool_s,
        "executor.worker_cpu_s": worker_cpu,
        "executor.parallel_eff": worker_cpu / (min(pool.jobs, len(bounds)) * pool_s),
    }


def run_all(args) -> int:
    """Every workload, each in a fresh process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    status = prepare_environment()
    if status:
        return status
    if args.workload == "all":
        return run_all(args)
    import workloads

    if not os.path.isfile(REFERENCE):
        return refuse(f"missing pinned reference {os.path.relpath(REFERENCE)}")
    reference = load_reference()
    pinned = tuple(int(seed) for seed in reference["seeds"])
    campaign_seed = workloads.campaign_seed(args.seed, pinned,
                                            reference["held_out_seed"])
    if args.setup_probe:
        setup(args.workload, campaign_seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        return run_traced(args, reference, campaign_seed)
    return run_timed(args, reference, campaign_seed)


if __name__ == "__main__":
    sys.exit(main())
