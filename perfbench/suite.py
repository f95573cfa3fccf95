"""The benchmark's workloads: what each sets up, times and checks.

Every workload is built in one process from the ``--seed`` argument,
which becomes ``Runner.seed``: the seed of every generated workload
trace.  Fault plans keep the planners' default base seed (100), because
runs whose plans draw no fault are the same ``RunKey`` and collapse into
one run: with the base seed following ``--seed``, the campaign's unique
runs per pass were 96, 156, 132, 132 and 132 for seeds 1 to 5, so its
wall time measured the draw rather than the code.  Only public entry
points of the ``repro`` package are driven: ``plan_experiment``,
``Runner.prefetch``, ``run_experiment``, ``ExperimentEngine``,
``CampaignService`` and ``execute_run``.

* ``figures-cold`` — the ``--quick`` figure plan (all 11 experiments,
  8 cores, scale 100, 2 intervals; 112 unique runs) at one worker with
  an empty result cache.  A pass prefetches the union plan and renders
  every figure; the kernel does nearly all the work and every result
  is written to the cache.
* ``figures-warm`` — the same plan; set-up computes it, so a pass is a
  fresh engine replaying every key from the disk cache and rendering
  every figure.  No kernel work: result-cache reads, planning and
  rendering.
* ``campaign-serve`` — a fig6_9-style fault campaign (blackscholes and
  ocean at 4 and 8 cores; global, rebound, rebound@4; 8 fault seeds)
  submitted as a sparse job (MTTF 8 intervals, served first) and a
  dense job (MTTF 1 interval) to a ``CampaignService`` on a fresh
  spool with an empty result cache, served with ``drain=True`` on a
  pool of one worker per CPU and summarised from the journal.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from repro.harness import experiments
from repro.harness.engine import ExperimentEngine, execute_run, resolve_config
from repro.harness.runner import Runner
from repro.harness.service import CampaignService
from repro.params import Scheme
from repro.sim.stats import summarize_campaign
from repro.workloads import ALL_APPS, PARSEC_APACHE, SPLASH2

SCALE = 100
INTERVALS = 2.0

#: The kwargs ``python -m repro.harness --quick`` passes each experiment
#: (8 cores for both suites).
QUICK_KWARGS = {
    "fig6_1": {"n_cores": 8, "apps": PARSEC_APACHE[:2]},
    "fig6_2": {"sizes": (8, 8), "apps": SPLASH2[:3]},
    "fig6_3": {"n_cores": 8, "apps": SPLASH2[:3]},
    "fig6_4": {"n_cores": 8},
    "fig6_5": {"splash_cores": 8, "parsec_cores": 8, "apps": ALL_APPS[:3]},
    "fig6_6": {"sizes": (4, 8), "apps": SPLASH2[:3]},
    "fig6_7": {"n_cores": 8, "apps": ["blackscholes"]},
    "fig6_8": {"n_cores": 8, "apps": SPLASH2[:3]},
    "fig6_9": {"sizes": (4, 8), "apps": ["blackscholes"], "n_seeds": 2},
    "fig_l_sensitivity": {"n_cores": 4, "apps": ["blackscholes"]},
    "table6_1": {"splash_cores": 8, "parsec_cores": 8, "apps": ALL_APPS[:4]},
}

CAMPAIGN = {"apps": ["blackscholes", "ocean"], "sizes": (4, 8),
            "n_seeds": 8}
#: Campaign jobs in submission order: (label, MTTF in intervals, priority).
CAMPAIGN_JOBS = (("sparse", 8.0, 1), ("dense", 1.0, 0))

#: Untimed checks: replica-batch results compared with scalar runs.
SCALAR_CHECKS = 3


@dataclass
class Pass:
    """One timed phase and what it produced."""

    seconds: float
    results: dict            # RunKey -> SimStats, one per unique key
    engine: ExperimentEngine
    output: object           # rendered figures / job summaries
    failed: int = 0
    journal: tuple = (0, 0)  # service journal (records, bytes)
    #: Seconds of the engine phase: ``Runner.prefetch`` of the plan,
    #: or ``CampaignService.serve`` (no planning or rendering).
    engine_seconds: float = 0.0


def digest(results: dict) -> str:
    """Content digest of a result set (key order independent)."""
    h = hashlib.sha256()
    for text in sorted(f"{key!r}\0{stats!r}" for key, stats in
                       results.items()):
        h.update(text.encode())
    return h.hexdigest()


def canonical(summary) -> dict:
    """A campaign summary with its per-run lists sorted, so summaries
    of the same runs folded in different landing orders compare equal."""
    return {f.name: sorted(value) if isinstance(value, list) else value
            for f in fields(summary)
            for value in [getattr(summary, f.name)]}


def model_counts(results: dict) -> dict[str, float]:
    """Simulated values and counts of a result set (exact)."""
    stats = list(results.values())
    total = {name: sum(getattr(s, name) for s in stats) for name in (
        "total_instructions", "mem_accesses", "invalidations", "log_bytes",
        "l1_hits", "l1_misses", "l2_hits", "l2_misses",
        "wsig_false_positives", "wsig_tests", "busy_retries", "declines",
        "nacks")}
    faulted = [s.availability() for key, s in results.items()
               if key.fault_plan is not None]
    return {
        "model.sim_cycles": math.fsum(s.runtime for s in stats),
        "model.instructions": total["total_instructions"],
        "model.mem_accesses": total["mem_accesses"],
        "model.availability_mean": (math.fsum(faulted) / len(faulted)
                                    if faulted else 0.0),
        "coherence.invalidations": total["invalidations"],
        "mem.log_bytes": total["log_bytes"],
        "mem.l1_hit_rate": _ratio(total["l1_hits"],
                                  total["l1_hits"] + total["l1_misses"]),
        "mem.l2_hit_rate": _ratio(total["l2_hits"],
                                  total["l2_hits"] + total["l2_misses"]),
        "core.checkpoints": sum(len(s.checkpoints) for s in stats),
        "core.rollbacks": sum(len(s.rollbacks) for s in stats),
        "core.wsig_fp_rate": _ratio(total["wsig_false_positives"],
                                    total["wsig_tests"]),
        "core.retries": (total["busy_retries"] + total["declines"]
                         + total["nacks"]),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _reset(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class Workload:
    """Shared set-up, pass and check machinery of the three workloads."""

    name = ""

    def __init__(self, work: Path, seed: int, nproc: int):
        self.work = work
        self.seed = seed
        self.nproc = nproc
        #: Workers of a timed pass.
        self.pass_jobs = 1
        self.cache = work / "cache"
        self.kwargs = copy.deepcopy(QUICK_KWARGS)
        #: Failed output checks, one line each.
        self.errors: list[str] = []
        #: Runs attempted in timed passes and checks.
        self.attempted = 0
        self.failed_runs = 0
        self._reference: Optional[tuple[str, object]] = None
        #: Span recorder of a traced pass (None when untraced).
        self.recorder = None

    # -- engine plumbing ----------------------------------------------
    def engine(self, jobs: int = 1) -> ExperimentEngine:
        return ExperimentEngine(jobs=jobs, cache_dir=self.cache,
                                use_disk_cache=True)

    def runner(self, engine: ExperimentEngine) -> Runner:
        return Runner(scale=SCALE, intervals=INTERVALS, seed=self.seed,
                      engine=engine)

    def reset_results(self) -> None:
        """Empty the result cache (the workload store stays)."""
        for entry in self.cache.glob("*.pkl"):
            entry.unlink()

    def fill_store(self) -> ExperimentEngine:
        """Build every workload the plan needs into a fresh store."""
        _reset(self.cache)
        engine = self.engine()
        for key in dict.fromkeys(self.plan(self.runner(engine))):
            engine.workload_store.ensure(key.app, key.n_cores,
                                         resolve_config(key),
                                         key.intervals, key.seed)
        return engine

    # -- the workload interface ---------------------------------------
    def plan(self, runner: Runner) -> list:
        return [key for name, kwargs in self.kwargs.items()
                for key in experiments.plan_experiment(name, runner,
                                                       **kwargs)]

    def prepare(self) -> None:
        """Set-up after the store fill (none for most workloads)."""

    def phase(self):
        """Context of the timed region: a root span when traced."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span("bench.pass")

    def timed(self, jobs: int) -> Pass:
        """The timed phase on a fresh engine (``jobs`` workers)."""
        engine = self.engine(jobs)
        runner = self.runner(engine)
        with self.phase():
            start = time.perf_counter()
            plan = self.plan(runner)
            fetch = time.perf_counter()
            runner.prefetch(plan)
            fetch = time.perf_counter() - fetch
            text = [experiments.run_experiment(name, runner,
                                               **kwargs).render()
                    for name, kwargs in self.kwargs.items()]
            seconds = time.perf_counter() - start
        return Pass(seconds, {key: engine.memo[key]
                              for key in dict.fromkeys(plan)},
                    engine, text, engine_seconds=fetch)

    def run_pass(self, jobs: int = 1) -> Pass:
        """Reset, collect garbage, run the timed phase, check it."""
        self.reset_results()
        gc.collect()
        result = self.timed(jobs)
        self.attempted += len(result.results)
        self.failed_runs += result.failed
        self.check_accounting(result.engine)
        self.expect_same(result, "timed pass")
        return result

    def check_accounting(self, engine: ExperimentEngine) -> None:
        """Every run computed by ``engine`` passes the cycle audit."""
        for key in engine.profile:
            try:
                engine.memo[key].verify_cycle_accounting()
            except AssertionError as exc:
                self.errors.append(f"cycle accounting: {exc}")

    def instr_rate(self, result: Pass) -> float:
        """Simulated instructions of the runs a pass computed per second
        the engine profiled computing them (kernel time only)."""
        engine = result.engine
        return (sum(engine.memo[key].total_instructions
                    for key in engine.profile)
                / math.fsum(engine.profile.values()))

    def latencies(self, result: Pass) -> list[float]:
        """Latency samples of a pass: the seconds of each run it
        computed (a replica batch's time split evenly over its runs,
        as the engine profiles it)."""
        return list(result.engine.profile.values())

    def expect_same(self, result: Pass, what: str) -> None:
        """Every pass of one seed must produce the same results and
        output as the first (determinism and cache round trip)."""
        observed = (digest(result.results), result.output)
        if self._reference is None:
            self._reference = observed
        elif observed[0] != self._reference[0]:
            self.errors.append(f"{what}: results differ from the first "
                               f"pass")
        elif observed[1] != self._reference[1]:
            self.errors.append(f"{what}: rendered output differs from "
                               f"the first pass")

    def reference_digest(self) -> str:
        """Digest of the first pass's results (same seed, same digest)."""
        return self._reference[0] if self._reference else ""

    def final_checks(self, last: Pass) -> None:
        """Untimed checks after the last pass."""

    def overheads(self, results: dict) -> dict[str, float]:
        """Figure 6.3's mean error-free overhead per scheme, in %."""
        runner = self.runner(ExperimentEngine(jobs=1, use_disk_cache=False))
        runner.engine.memo.update(results)
        kwargs = self.kwargs["fig6_3"]
        out = {}
        for scheme, name in ((Scheme.REBOUND, "model.rebound_overhead_pct"),
                             (Scheme.GLOBAL, "model.global_overhead_pct")):
            values = [runner.overhead(app, kwargs["n_cores"], scheme)
                      for app in kwargs["apps"]]
            out[name] = 100 * math.fsum(values) / len(values)
        return out


class FiguresCold(Workload):
    name = "figures-cold"


class FiguresWarm(Workload):
    name = "figures-warm"

    def prepare(self) -> None:
        """Compute the plan once, filling the result cache that every
        pass replays; the passes must reproduce these results."""
        result = self.timed(self.nproc)
        self.check_accounting(result.engine)
        self.expect_same(result, "set-up")

    def reset_results(self) -> None:
        """The result cache filled in set-up is what a pass replays."""

    def latencies(self, result: Pass) -> list[float]:
        """One sample per pass: the whole replay."""
        return [result.seconds]

    def instr_rate(self, result: Pass) -> float:
        """A pass computes nothing: simulated instructions of the runs
        it replayed per second of ``Runner.prefetch``, i.e. ``runs_per_s``
        times the mean instructions per run."""
        return (sum(stats.total_instructions
                    for stats in result.results.values())
                / result.engine_seconds)

    def run_pass(self, jobs: int = 1) -> Pass:
        result = super().run_pass(jobs)
        if result.engine.profile:
            self.errors.append(f"warm pass recomputed "
                               f"{len(result.engine.profile)} runs")
        return result


class CampaignServe(Workload):
    name = "campaign-serve"

    def __init__(self, work: Path, seed: int, nproc: int):
        super().__init__(work, seed, nproc)
        self.pass_jobs = nproc
        self.spool = work / "spool"
        self.jobs: dict[str, str] = {}

    def campaign_plans(self, runner: Runner) -> dict[str, list]:
        return {label: experiments.plan_experiment(
                    "fig6_9", runner, mttf_intervals=mttf, **CAMPAIGN)
                for label, mttf, _priority in CAMPAIGN_JOBS}

    def plan(self, runner: Runner) -> list:
        return [key for keys in self.campaign_plans(runner).values()
                for key in keys]

    def reset_results(self) -> None:
        super().reset_results()
        _reset(self.spool)

    def timed(self, jobs: int) -> Pass:
        engine = self.engine(jobs)
        runner = self.runner(engine)
        with self.phase():
            start = time.perf_counter()
            plans = self.campaign_plans(runner)
            service = CampaignService(spool_dir=self.spool, engine=engine)
            self.jobs = {label: service.submit(plans[label],
                                               priority=priority,
                                               label=label)
                         for label, _mttf, priority in CAMPAIGN_JOBS}
            serve = time.perf_counter()
            service.serve(drain=True)
            serve = time.perf_counter() - serve
            summaries = {label: service.summarize(job)
                         for label, job in self.jobs.items()}
            seconds = time.perf_counter() - start
        journal = service.journal_path
        with journal.open("rb") as fh:
            records = sum(1 for _line in fh)
        failed = sum(service.status(job).get("failed", 0)
                     for job in self.jobs.values())
        for label, keys in plans.items():
            expected = summarize_campaign(engine.memo[key] for key in
                                          dict.fromkeys(keys))
            if canonical(summaries[label]) != canonical(expected):
                self.errors.append(f"{label} job: journal summary differs "
                                   f"from summarize_campaign")
        results = {key: engine.memo[key] for keys in plans.values()
                   for key in keys}
        return Pass(seconds, results, engine,
                    {label: canonical(s) for label, s in summaries.items()},
                    failed, (records, journal.stat().st_size), serve)

    def overheads(self, results: dict) -> dict[str, float]:
        """A campaign has no error-free baseline runs: reported as 0."""
        return {"model.rebound_overhead_pct": 0.0,
                "model.global_overhead_pct": 0.0}

    def final_checks(self, last: Pass) -> None:
        """Replica-batch results must equal scalar runs of their keys:
        a faulted replica of the dense job, one of the sparse job and a
        fault-free replica served by the leader."""
        engine = last.engine
        plans = self.campaign_plans(self.runner(engine))
        batched = [key for key, width in engine.batch_width.items()
                   if width > 1]
        dense_only = set(plans["dense"]) - set(plans["sparse"])
        picks = []
        for wanted in (lambda k: k in dense_only and k.fault_plan.faults,
                       lambda k: k not in dense_only and k.fault_plan.faults,
                       lambda k: not k.fault_plan.faults):
            picks.extend([key for key in batched if wanted(key)][:1])
        if len(picks) < SCALAR_CHECKS:
            self.errors.append(f"only {len(picks)} replica-batch keys to "
                               f"check against scalar runs")
        for key in picks:
            self.attempted += 1
            if execute_run(key, engine.workload_store) != engine.memo[key]:
                self.errors.append(f"replica batch differs from scalar "
                                   f"run: {key!r}")


WORKLOADS = {cls.name: cls for cls in (FiguresCold, FiguresWarm,
                                       CampaignServe)}
