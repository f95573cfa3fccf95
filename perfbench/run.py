"""The repository benchmark: ``python3 perfbench/run.py``.

    python3 perfbench/run.py --workload figures-cold --seed 1 \\
        --seconds 30 --trace 0

runs one workload (see ``suite.py``) from the root of a checkout,
prints every metric by name and unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with no tracing.  With ``--trace 1`` they
are its per-layer metrics, from a separate traced run (``spans.py``).
Output checks that fail count in ``failed`` and make the command exit
with status 1; a checkout without the ``repro`` sources exits with
status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups timed together as one ``setup_s`` sample, so that a sample
#: lasts about a second; ``setup_s`` is the median sample divided by
#: its set-ups.  A sample is taken before every timed pass, and at least
#: MIN_SETUP_SAMPLES per run: the host's speed changes in phases of a few
#: seconds, and samples spread over the run let the median find the
#: phase that rules it.  None: set up once per run (figures-warm's set-up
#: computes the whole plan, about 7 s).
SETUP_FILLS = {"figures-cold": 2, "figures-warm": None, "campaign-serve": 8}
MIN_SETUP_SAMPLES = 5
#: Traced runs measure at least this many untraced/traced pass pairs.
MIN_PAIRS = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("figures-cold", "figures-warm",
                                 "campaign-serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The benchmark measures the default configuration: no engine knob
    # inherited from the caller's environment.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(src))
    import suite

    nproc = len(os.sched_getaffinity(0))
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = suite.WORKLOADS[args.workload](work, args.seed, nproc)
    try:
        if args.trace:
            metrics, notes = traced(workload, args.seconds)
        else:
            metrics, notes = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in wanted) != sorted(metrics):
        raise SystemExit(f"perfbench: measured metrics "
                         f"{sorted(metrics)} do not match BENCHMARK.json")
    failed = workload.failed_runs + len(workload.errors)
    host = {"nproc": nproc, "python": platform.python_version(),
            "platform": platform.platform()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "notes": notes, "errors": workload.errors,
        "correct": not failed, "attempted": workload.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  nproc {nproc}  python "
          f"{host['python']}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for m in wanted:
        print(f"  {m['name']:<30} {metrics[m['name']]:>18.6g} {m['unit']}")
    print(f"  {'error_rate':<30} "
          f"{failed / max(1, workload.attempted):>18.6g} ratio "
          f"({failed} failed of {workload.attempted})")
    for error in workload.errors:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 1 if failed else 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def untraced(workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: medians over the timed passes of one run."""
    fills = SETUP_FILLS[workload.name]
    setups = []

    def set_up() -> None:
        gc.collect()
        start = time.perf_counter()
        for _ in range(fills or 1):
            workload.fill_store()
            workload.prepare()
        setups.append((time.perf_counter() - start) / (fills or 1))

    walls, cycles, latencies, run_rates, instr_rates = [], [], [], [], []
    # Passes continue while the next one is expected to end within half
    # a pass of the measuring time (at least one pass); set-up time is
    # not counted in it.
    while not cycles or (sum(cycles) + statistics.median(cycles) / 2
                         <= seconds):
        if fills or not setups:
            set_up()
        cycle = time.perf_counter()
        result = workload.run_pass(workload.pass_jobs)
        walls.append(result.seconds)
        run_rates.append(len(result.results) / result.engine_seconds)
        instr_rates.append(workload.instr_rate(result))
        latencies.extend(workload.latencies(result))
        last, result = result, None
        cycles.append(time.perf_counter() - cycle)
    workload.final_checks(last)
    while fills and len(setups) < MIN_SETUP_SAMPLES:
        set_up()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "sim_instr_per_s": statistics.median(instr_rates),
        "runs_per_s": statistics.median(run_rates),
        "latency_ms_p50": 1000 * percentile(latencies, 50),
        "latency_ms_p90": 1000 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"passes": len(walls), "latency_samples": len(latencies),
             "setup_samples": len(setups),
             "setups_per_sample": fills or 1,
             "results_digest": workload.reference_digest()}
    return metrics, notes


def percentile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile of ``samples`` (inclusive method)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def traced(workload, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from traced passes at one worker."""
    import spans
    import suite

    fill = spans.SpanRecorder()
    spans.install(fill)
    try:
        with fill.span("bench.setup"):
            setup_engine = workload.fill_store()
    finally:
        fill.remove()
    workload.prepare()

    overheads, folds, coverage, reports = [], [], [], []
    begin = time.perf_counter()
    while (len(overheads) < MIN_PAIRS
           or time.perf_counter() - begin < seconds):
        untraced_first = len(overheads) % 2 == 0
        if untraced_first:
            plain = workload.run_pass(1).seconds
        recorder = spans.SpanRecorder()
        spans.install(recorder)
        workload.recorder = recorder
        try:
            result = workload.run_pass(1)
        finally:
            workload.recorder = None
            recorder.remove()
        if not untraced_first:
            plain = workload.run_pass(1).seconds
        wall = spans.root_seconds(recorder)
        overheads.append(wall - plain)
        folded = spans.fold(recorder)
        folds.append(folded)
        coverage.append(1 - folded["bench.pass"][0] / wall)
        reports.append(recorder.batch_reports)
        last, last_recorder = result, recorder
    counts = [{name: count for name, (_s, count) in f.items()}
              for f in folds]
    if any(c != counts[0] for c in counts):
        workload.errors.append("span counts differ between traced passes")

    def self_s(name: str, passes=folds) -> float:
        return statistics.median(f.get(name, (0.0, 0))[0] for f in passes)

    parent_side = folds
    if workload.pass_jobs > 1:
        # Service and engine self time at the workload's own pool size;
        # only parent-side layers are wrapped (workers are other
        # processes).
        pool = spans.SpanRecorder()
        spans.install(pool, kernel=False)
        workload.recorder = pool
        try:
            workload.run_pass(workload.pass_jobs)
        finally:
            workload.recorder = None
            pool.remove()
        parent_side = [spans.fold(pool)]
        pool.save(HERE / ".out" / f"spans-{workload.name}-pool.json")
    fill.save(HERE / ".out" / f"spans-{workload.name}-setup.json")
    last_recorder.save(HERE / ".out" / f"spans-{workload.name}-pass.json")
    workload.final_checks(last)

    setup_fold = spans.fold(fill)
    model = suite.model_counts(last.results)
    model.update(workload.overheads(last.results))
    engine = last.engine
    store = engine.store_counters()
    builds = setup_engine.store_counters()["builds"] + store["builds"]
    lookups = store["hits"] + store["misses"]
    batch = reports[-1]
    width = sum(r.width for r in batch)
    computed = list(engine.profile)
    metrics = {
        "experiments.plan_s": self_s("experiments.plan"),
        "experiments.render_s": self_s("experiments.render"),
        # At jobs > 1 the parent's time in the pool wait is a span of
        # its own (engine.wait), so this is dispatch, IPC and landing.
        "engine.self_s": self_s("engine", parent_side),
        "engine.disk_hits": engine.disk_hits,
        "engine.computed": len(computed),
        "engine.batch_width_mean": (
            statistics.mean(engine.batch_width.get(key, 1)
                            for key in computed) if computed else 0.0),
        "store.self_s": (setup_fold.get("store", (0.0, 0))[0]
                         + self_s("store")),
        "store.builds": builds,
        "store.lru_hit_rate": store["lru_hits"] / lookups if lookups else 0.0,
        "workloads.build_s": (setup_fold.get("workloads.build", (0.0, 0))[0]
                              + self_s("workloads.build")),
        "service.self_s": self_s("service", parent_side),
        "service.journal_records": last.journal[0],
        "service.journal_bytes": last.journal[1],
        "machine.self_s": self_s("machine"),
        "machine.construct_s": self_s("machine.construct"),
        "machine.fork_s": self_s("machine.fork"),
        "machine.forks": counts[0].get("machine.fork", 0),
        "vector.self_s": self_s("vector"),
        "vector.leader_served_frac": (sum(r.leader_served for r in batch)
                                      / width if width else 0.0),
        "vector.spilled": sum(r.spilled for r in batch),
        "sync.self_s": self_s("sync"),
        "sync.calls": counts[0].get("sync", 0),
        "coherence.self_s": self_s("coherence"),
        "coherence.calls": counts[0].get("coherence", 0),
        "coherence.entries_per_access": (
            counts[0].get("coherence", 0) / model["model.mem_accesses"]
            if model["model.mem_accesses"] else 0.0),
        "mem.channels_self_s": self_s("mem.channels"),
        "mem.log_self_s": self_s("mem.log"),
        "core.self_s": self_s("core"),
        "trace.overhead_s": statistics.median(overheads),
        "trace.coverage_frac": statistics.median(coverage),
    }
    metrics.update(model)
    notes = {"pairs": len(overheads), "spans_per_pass": len(last_recorder),
             "results_digest": workload.reference_digest()}
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
