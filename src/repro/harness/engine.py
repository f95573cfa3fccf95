"""Experiment execution engine: planned, parallel, disk-cached runs.

Every figure of the evaluation chapter is a set of independent
simulations identified by a :class:`RunKey`.  The engine lets the
experiment drivers *plan* those key sets up front, deduplicates them
(many figures share runs, e.g. an app's no-checkpointing baseline),
executes the unique missing runs concurrently on a
``ProcessPoolExecutor``, and persists every completed :class:`SimStats`
to an on-disk cache so later sessions and CI replay results instead of
recomputing them.

Cache invalidation: each entry's file name hashes the :class:`RunKey`
together with a *code fingerprint* — a SHA-256 over every ``*.py`` file
of the ``repro`` package, the interpreter's (major, minor) version and
the pickle protocol — so any change to the simulator (or a cache dir
shared across Python versions) silently invalidates all previous
results.  Stale files are never read; delete the cache directory to
reclaim the space.

Workload store: generated workloads are shared across runs through a
content-addressed store under ``<cache_dir>/workloads`` (see
:mod:`repro.harness.workload_store`): ``run_many`` prebuilds each
unique workload once and the pool workers mmap the entry and run over
read-only views of the compiled-trace IR instead of re-running
``SyntheticWorkload`` per run.  ``--no-cache`` (``REPRO_NO_CACHE=1``)
disables it along with the result cache.

Cost-guided chunked dispatch: ``_dispatch`` does not submit one pool
future per task — per-future overhead (pickling a RunKey, a result
round-trip, an executor wakeup) would dominate sub-second simulations.
Each task gets a cost estimate (its workload-store entry size times its
width), the plan is submitted most expensive first, and each chunk
takes a shrinking share of the remaining estimated cost (guided
self-scheduling): the heavy tasks start while every worker is busy, and
the last chunks are single cheap tasks that fill the tail evenly.
``REPRO_CHUNK`` / the ``chunk_size`` argument pins a fixed number of
tasks per chunk instead.  Equal-cost tasks sharing a workload digest
stay adjacent — together with the store's per-process spec LRU
(``REPRO_WORKER_LRU``) a worker maps and parses each workload once for
its whole chunk.  Workers write completed results into the disk cache
themselves, so a chunk's finished siblings are persisted even when a
later task in the chunk raises; every failing task still reports its
own :class:`RunKey`.  Submission keeps a bounded in-flight window (2
chunks per worker) so thousand-run campaigns don't hold every pending
future alive at once.  A plan of one task runs in-process: a pool would
only add start-up and a pickled result round-trip.

Vectorized campaign batches: ``run_many`` groups the missing keys by
everything except their faults — (workload, cores, scheme, intervals,
seed, scale, io_every, cluster, overrides) — and dispatches any group
with two or more members to the replica-batch executor
(:mod:`repro.sim.vector`): one fault-free leader machine walks the
shared workload once and each replica forks off it at its first
fault-detection time, producing bit-identical per-replica ``SimStats``.
Results are memoized and disk-cached *per key*, exactly like scalar
runs, so the cache format, the invariant harness and the campaign
summaries see no difference.  ``REPRO_VECTOR=0`` (or ``--vector=off``
mapped through the CLI's ``--no-vector``) forces the scalar path.
Every planned task is a tuple of keys: a 1-tuple runs through
``execute_run``, a longer one through ``execute_batch``.

Knobs (CLI flags on ``python -m repro.harness`` map onto the same
settings)::

    REPRO_JOBS        worker processes (default: os.cpu_count())
    REPRO_CACHE_DIR   result cache location (default: benchmarks/.cache)
    REPRO_NO_CACHE    set to 1 to bypass the disk cache entirely
    REPRO_VECTOR      0 forces scalar campaign runs; unset/1 = batches
    REPRO_CHUNK       tasks per dispatch chunk (default: cost-guided)
    REPRO_WORKER_LRU  per-process loaded-workload LRU size (default 16)
    REPRO_MMAP        0 forces copying workload loads; unset/1 = mmap
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import pickle
import statistics
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.core.factory import fault_free_invariant_overrides
from repro.harness.scenario import EMPTY_OVERRIDES, Overrides
from repro.harness.workload_store import WorkloadStore
from repro.params import MachineConfig, Scheme, env_flag
from repro.sim import SimStats
from repro.sim.faults import FaultPlan
from repro.sim.machine import Machine
from repro.workloads import (
    get_workload,
    inject_output_io,
    workload_fingerprint,
    workload_name,
)
from repro.workloads.registry import is_builtin_workload

#: Bump when the pickled payload layout changes incompatibly.
#: 2: useful-work accounting — SimStats/CoreStats grew the cycle-bucket
#:    counters (ckpt_backoff, stall_overhang, rollback_waste), so
#:    entries pickled before them would deserialize without the fields
#:    the campaign tables now read.
#: 3: memory-system fast path — SimStats grew the memsys counters
#:    (l1/l2 hits+misses, fastpath loads/stores, invalidations,
#:    mem_accesses) that ``--profile`` and the bench memsys section read.
CACHE_FORMAT = 3

_PACKAGE_DIR = Path(__file__).resolve().parents[1]
_REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclass(frozen=True, repr=False)
class RunKey:
    """Identity of one simulation (also the memoization/cache key).

    ``overrides`` makes *any* :class:`MachineConfig` axis sweepable:
    a frozen, canonically-ordered mapping of config-field overrides
    (see :mod:`repro.harness.scenario`) that ``execute_run`` applies on
    top of ``MachineConfig.scaled``.  Field names are validated here at
    construction — a malformed key fails at plan time, never inside a
    pool worker.  Keys without overrides repr (and therefore cache)
    byte-identically to the pre-scenario layout.

    ``app`` is a built-in workload name (plain ``str``, the pre-registry
    cache identity) or the picklable
    :class:`~repro.workloads.registry.WorkloadTag` of an out-of-tree
    generator registered via ``register_workload``.
    """

    app: str  # or WorkloadTag (duck-typed via its ``value`` attribute)
    n_cores: int
    scheme: Scheme
    intervals: float
    seed: int
    scale: int
    io_every: Optional[int] = None       # output-I/O injection period
    fault_at: Optional[float] = None     # compat shim: one core-0 fault
    fault_plan: Optional[FaultPlan] = None   # seeded multi-fault campaign
    cluster: int = 1                     # Dep-register cluster size (Ch. 8)
    overrides: Overrides = EMPTY_OVERRIDES   # MachineConfig field overrides

    def __post_init__(self):
        if self.fault_plan is not None and self.fault_at is not None:
            raise ValueError(
                "RunKey.fault_at and RunKey.fault_plan are mutually "
                "exclusive; encode the single fault in the plan")
        if not isinstance(self.overrides, Overrides):
            # Accept plain mappings (and None) for convenience; the
            # Overrides constructor validates the field names.
            object.__setattr__(self, "overrides",
                               Overrides(self.overrides or {}))

    def __repr__(self) -> str:
        # Matches the auto-generated dataclass repr of the pre-override
        # layout exactly, appending ``overrides`` only when present: the
        # repr is the key-layout half of the disk-cache identity (the
        # other half, the source fingerprint, already invalidates
        # entries on any code change), so the key layout itself must
        # never become a second, accidental invalidation axis —
        # tests/test_scenario.py pins both layouts as golden values so
        # future layout changes are intentional.
        text = (f"RunKey(app={self.app!r}, n_cores={self.n_cores!r}, "
                f"scheme={self.scheme!r}, intervals={self.intervals!r}, "
                f"seed={self.seed!r}, scale={self.scale!r}, "
                f"io_every={self.io_every!r}, fault_at={self.fault_at!r}, "
                f"fault_plan={self.fault_plan!r}, cluster={self.cluster!r}")
        if self.overrides:
            text += f", overrides={self.overrides!r}"
        return text + ")"

    def fault_list(self) -> Optional[list[tuple[float, int]]]:
        """The faults this key injects (``fault_at`` is the legacy
        single-fault shim; a ``fault_plan`` supersedes it — the two are
        mutually exclusive, enforced at construction)."""
        if self.fault_plan is not None:
            return list(self.fault_plan.faults)
        if self.fault_at is not None:
            return [(self.fault_at, 0)]
        return None


def resolve_config(key: RunKey) -> MachineConfig:
    """The fully resolved :class:`MachineConfig` of a run (scaled base
    plus the key's overrides) — the workload-store address depends on
    it, so planning and execution share one derivation."""
    return _resolve_config(key.n_cores, key.scheme, key.scale, key.cluster,
                           key.overrides)


@functools.lru_cache(maxsize=256)
def _resolve_config(n_cores: int, scheme: Scheme, scale: int, cluster: int,
                    overrides: Overrides) -> MachineConfig:
    # Memoized: the parent derives every key's config to address the
    # workload store (prebuild, dispatch cost) and every worker again to
    # run it, and keys of one plan share a handful of configs.  The
    # result is a frozen dataclass, so runs may share the instance.
    config = MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                  scale=scale, dep_cluster_size=cluster)
    return overrides.apply(config)


def execute_run(key: RunKey,
                store: Optional[WorkloadStore] = None) -> SimStats:
    """Build and run the simulation ``key`` describes (pure function).

    With a ``store``, the base workload comes from the content-addressed
    workload store (deserialized compiled-trace IR) instead of being
    regenerated; the result is identical either way — the store is
    purely a build cache.
    """
    config = resolve_config(key)
    if store is not None:
        workload = store.get_or_build(key.app, key.n_cores, config,
                                      key.intervals, key.seed)
    else:
        workload = get_workload(key.app, key.n_cores, config,
                                intervals=key.intervals, seed=key.seed)
    if key.io_every is not None:
        workload = inject_output_io(spec=workload, pid=0,
                                    every_instructions=key.io_every)
    return Machine(config, workload, faults=key.fault_list()).run()


def execute_batch(keys: tuple[RunKey, ...],
                  store: Optional[WorkloadStore] = None,
                  ) -> list[SimStats]:
    """Run a same-workload replica group through the vector executor.

    ``keys`` must agree on every :class:`RunKey` field except their
    faults — and, for built-in workloads, except overrides of config
    fields the scheme declared fault-free invariant
    (:func:`~repro.core.factory.fault_free_invariant_overrides`);
    ``ExperimentEngine._batch_key`` groups them exactly that way.  The
    shared workload is built (and io-injected) once, each key's fault
    list becomes one replica of the batch, and keys whose overrides
    differ in invariant fields ride the same leader with their own
    resolved config (``replica_configs``) — a detection-latency sweep
    under Global is served from one trace pass.  Returns the per-key
    stats in input order, bit-identical to what ``execute_run`` gives
    each key.
    """
    # Looked up per call, so a wrapper installed on the module (the
    # perfbench span recorder) sees every batch.
    from repro.sim.vector import run_replica_batch

    config = resolve_config(keys[0])
    if store is not None:
        workload = store.get_or_build(keys[0].app, keys[0].n_cores, config,
                                      keys[0].intervals, keys[0].seed)
    else:
        workload = get_workload(keys[0].app, keys[0].n_cores, config,
                                intervals=keys[0].intervals,
                                seed=keys[0].seed)
    if keys[0].io_every is not None:
        workload = inject_output_io(spec=workload, pid=0,
                                    every_instructions=keys[0].io_every)
    fault_lists = [key.fault_list() or [] for key in keys]
    replica_configs = None
    if any(key.overrides != keys[0].overrides for key in keys):
        replica_configs = [config if key.overrides == keys[0].overrides
                           else resolve_config(key) for key in keys]
    return run_replica_batch(config, workload, fault_lists,
                             replica_configs=replica_configs).stats


def _execute_task(task: tuple[RunKey, ...],
                  store: Optional[WorkloadStore]) -> list[SimStats]:
    """Run one planned task: a 1-tuple is a scalar run, a longer tuple
    a replica batch.  Returns the stats in task order."""
    if len(task) == 1:
        return [execute_run(task[0], store)]
    return execute_batch(task, store)


#: One store instance per root per worker process: pool tasks arrive as
#: plain (key, root) calls, and a fresh store per task would reset the
#: ``disabled`` write-failure latch — an unwritable store must warn and
#: fall back once per process, not once per run.
_WORKER_STORES: dict[str, WorkloadStore] = {}


def _worker_store(store_root: Optional[str]) -> Optional[WorkloadStore]:
    if store_root is None:
        return None
    store = _WORKER_STORES.get(store_root)
    if store is None:
        store = _WORKER_STORES[store_root] = WorkloadStore(store_root)
    return store


def _cache_path_for(cache_dir: Path, key: RunKey) -> Path:
    """Entry path for ``key`` under ``cache_dir`` (workers and the
    engine derive the identical address — the cache layout has exactly
    one definition)."""
    ident = f"{code_fingerprint()}|{key!r}"
    # Out-of-tree generators live outside src/repro, so the code
    # fingerprint cannot see their changes: their registration
    # fingerprint joins the result-cache identity instead (bump it
    # and old SimStats are never served).  Built-in idents are
    # unchanged — profile changes already invalidate through the
    # code fingerprint, and the pre-registry cache layout is pinned
    # by golden tests.
    if not is_builtin_workload(key.app):
        ident += f"|workload:{workload_fingerprint(key.app)}"
    digest = hashlib.sha256(ident.encode()).hexdigest()
    return Path(cache_dir) / f"{digest}.pkl"


def _key_disk_cacheable(key: RunKey) -> bool:
    """A registered generator without a fingerprint has *no*
    invalidation signal at all (its source is invisible to the code
    fingerprint), so its results must never be served from disk —
    the registry promises such workloads are rebuilt per run."""
    return is_builtin_workload(key.app) \
        or workload_fingerprint(key.app) is not None


def _write_cache_entry(cache_dir: Path, key: RunKey,
                       stats: SimStats) -> Optional[str]:
    """Persist one result (atomic replace).  Returns None on success —
    including the nothing-to-write case — or the error text, so the
    engine can warn once per session about an unwritable cache."""
    if not _key_disk_cacheable(key):
        return None
    path = _cache_path_for(cache_dir, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(stats, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic vs. concurrent CI shards
    except OSError as exc:
        return str(exc)
    return None


def _portable_exc(exc: BaseException) -> BaseException:
    """Exceptions cross the pool boundary pickled; one that cannot
    round-trip (custom ``__init__`` signature, handle-holding payload)
    would kill the whole chunk result instead of failing its own task,
    so it degrades to a RuntimeError carrying the repr."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(repr(exc))
    return exc


def _run_chunk(chunk: list, store_root: Optional[str] = None,
               cache_dir: Optional[str] = None) -> tuple[list, Optional[dict]]:
    """Worker entry point: run a pack of planned tasks back to back.

    Each element of ``chunk`` is a task tuple exactly as ``_plan_tasks``
    emitted it.  Per task the outcome is ``("ok", stats_list, seconds,
    cached)`` — ``cached`` says every result already landed in the disk
    cache — or ``("err", exc)``; a raising task never takes its chunk
    siblings down, and completed siblings are already persisted when it
    does.
    The second return value is this call's workload-store counter
    deltas, so the engine can aggregate store behaviour across worker
    processes.
    """
    store = _worker_store(store_root)
    before = store.counters() if store is not None else None
    outcomes: list = []
    for task in chunk:
        start = time.perf_counter()
        try:
            stats_list = _execute_task(task, store)
        except BaseException as exc:  # noqa: BLE001 - reported per task
            outcomes.append(("err", _portable_exc(exc)))
            continue
        seconds = time.perf_counter() - start
        cached = False
        if cache_dir is not None:
            cached = all(_write_cache_entry(cache_dir, key, stats) is None
                         for key, stats in zip(task, stats_list))
        outcomes.append(("ok", stats_list, seconds, cached))
    deltas = None
    if store is not None:
        deltas = {name: count - before[name]
                  for name, count in store.counters().items()}
    return outcomes, deltas


_FINGERPRINT: Optional[str] = None


def fingerprint_paths() -> list[Path]:
    """The exact file set :func:`code_fingerprint` hashes, sorted.

    Exposed separately so the static analyzer (``reprolint`` RL003) can
    audit the cache contract against the *actual* hashed set: every
    module reachable from ``execute_run``/``run_replica_batch`` must
    appear here, or editing it would keep serving stale cache entries.
    """
    return sorted(_PACKAGE_DIR.rglob("*.py"))


def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources (cache invalidation).

    The interpreter's (major, minor) version and the pickle protocol are
    mixed in as well: cache directories shared across Python versions
    (CI's actions/cache, a laptop with several venvs) must never serve
    an entry pickled by a different interpreter line.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        digest = hashlib.sha256(
            f"format:{CACHE_FORMAT}"
            f"|python:{sys.version_info[0]}.{sys.version_info[1]}"
            f"|pickle:{pickle.HIGHEST_PROTOCOL}".encode())
        for path in fingerprint_paths():
            digest.update(str(path.relative_to(_PACKAGE_DIR)).encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` or the machine's CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer worker "
                             f"count, got {env!r}") from None
        return max(1, jobs)
    return os.cpu_count() or 1


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` or ``benchmarks/.cache`` under the repo root.

    The repo-root derivation only holds for a src-layout checkout; for
    an installed package (no ``benchmarks/`` next to ``src/``) fall
    back to a dot-directory under the working directory instead of
    writing into the Python environment.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    if (_REPO_ROOT / "benchmarks").is_dir():
        return _REPO_ROOT / "benchmarks" / ".cache"
    return Path.cwd() / ".repro-cache"


@dataclass
class DispatchReport:
    """What one chunked-dispatch pass did (internal to the engine).

    ``failures`` holds one ``(key, exc)`` entry per *run* — a failed
    replica batch of N keys contributes N entries, so failure counts
    always match run counts.  ``pending`` are keys whose chunks were
    never submitted because ``should_cancel`` fired; they are not
    failures — nothing about them is known.
    """

    failures: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    cancelled: bool = False


@dataclass
class PoolUsage:
    """How busy the worker pools were, summed over dispatches.

    ``busy_s`` adds up the per-task seconds the workers reported;
    ``offered_s`` adds up each dispatch's worker count times its wall
    clock (pool start-up to shut-down), so ``busy_s / offered_s`` is
    the share of worker time spent simulating — the rest is start-up,
    IPC and workers idling at the end of a plan.
    """

    busy_s: float = 0.0
    offered_s: float = 0.0
    wall_s: float = 0.0
    workers: int = 0

    def add(self, other: "PoolUsage") -> None:
        self.busy_s += other.busy_s
        self.offered_s += other.offered_s
        self.wall_s += other.wall_s
        self.workers = max(self.workers, other.workers)

    @property
    def fraction(self) -> float:
        return self.busy_s / self.offered_s if self.offered_s else 0.0

    def describe(self) -> str:
        return (f"pool busy {self.fraction:.0%} ({self.workers} workers, "
                f"{self.wall_s:.2f} s)")


@dataclass
class StreamReport:
    """Result of :meth:`ExperimentEngine.run_stream`.

    Unlike :meth:`~ExperimentEngine.run_many`, streaming execution
    never raises on per-run failures — the campaign service must keep
    serving its other jobs when one run's workload builder blows up —
    so the caller reads the partition: ``results`` landed (streamed
    through ``on_land`` as they completed), ``failures`` raised inside
    their runs, ``pending`` were dropped by cancellation.
    """

    results: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    cancelled: bool = False
    replayed: int = 0     # served from the memo or the disk cache
    computed: int = 0     # executed this call

    @property
    def landed(self) -> int:
        return len(self.results)


class ExperimentEngine:
    """Plans, deduplicates, parallelizes and caches simulation runs.

    The in-memory memo guarantees object identity within a process (two
    requests for the same key return the *same* ``SimStats``); the disk
    cache makes repeated sessions near-instant.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 use_disk_cache: Optional[bool] = None,
                 verbose: bool = False,
                 vector: Optional[bool] = None,
                 chunk_size: Optional[int] = None):
        self.jobs = max(1, jobs if jobs is not None else default_jobs())
        if chunk_size is None:
            env = os.environ.get("REPRO_CHUNK")
            if env:
                try:
                    chunk_size = int(env)
                except ValueError:
                    raise ValueError(f"REPRO_CHUNK must be an integer "
                                     f"chunk size, got {env!r}") from None
        #: Tasks packed per dispatch chunk (None = adaptive).
        self.chunk_size = max(1, chunk_size) if chunk_size is not None \
            else None
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        if use_disk_cache is None:
            use_disk_cache = not env_flag("REPRO_NO_CACHE", False)
        self.use_disk_cache = use_disk_cache
        # The workload store lives under the result cache dir and obeys
        # the same opt-out: ``--no-cache`` means no disk I/O at all.
        self.workload_store: Optional[WorkloadStore] = (
            WorkloadStore(self.cache_dir / "workloads")
            if use_disk_cache else None)
        self.verbose = verbose
        #: Whether replica batches go through the vector path.
        self.vector = vector if vector is not None \
            else env_flag("REPRO_VECTOR", True)
        self.memo: dict[RunKey, SimStats] = {}
        #: Wall-clock seconds per key *computed* this session (not cached).
        self.profile: dict[RunKey, float] = {}
        #: Replica-batch width each computed key ran at (1 = scalar).
        self.batch_width: dict[RunKey, int] = {}
        self.disk_hits = 0
        self._store_warned = False
        #: Outcome-landing callback (``hook(key, stats, seconds)``),
        #: installed by :meth:`run_stream` for the duration of a call:
        #: fires in the parent process the moment a computed result
        #: lands in the memo, on the serial and pool paths alike — the
        #: campaign service journals results through it incrementally.
        self._land_hook: Optional[Callable] = None
        #: Workload-store counter deltas shipped back by pool workers
        #: (:meth:`store_counters` folds the parent store on top).
        self._worker_counters: dict[str, int] = {}
        #: Worker-pool utilisation over this session's dispatches.
        self.pool_usage = PoolUsage()

    # ------------------------------------------------------------------
    # disk cache
    # ------------------------------------------------------------------
    def _cache_path(self, key: RunKey) -> Path:
        return _cache_path_for(self.cache_dir, key)

    def _disk_cacheable(self, key: RunKey) -> bool:
        return self.use_disk_cache and _key_disk_cacheable(key)

    def _load_cached(self, key: RunKey) -> Optional[SimStats]:
        if not self._disk_cacheable(key):
            return None
        path = self._cache_path(key)
        try:
            with path.open("rb") as fh:
                stats = pickle.load(fh)
        except Exception:
            # Best-effort cache: any unreadable/corrupt entry (truncated
            # write, garbled restore, unpicklable payload) is a miss,
            # never a crash.
            return None
        if not isinstance(stats, SimStats):
            return None
        self.disk_hits += 1
        return stats

    def _store_cached(self, key: RunKey, stats: SimStats) -> None:
        if not self._disk_cacheable(key):
            return
        error = _write_cache_entry(self.cache_dir, key, stats)
        if error is not None:
            # Best-effort cache, but say so once: a typo'd --cache-dir
            # otherwise looks identical to a working one.
            if not self._store_warned:
                self._store_warned = True
                print(f"  [engine] warning: result cache disabled "
                      f"({self.cache_dir}: {error})", flush=True)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, key: RunKey) -> SimStats:
        """Run (or recall) one simulation."""
        return self.run_many([key])[key]

    def prefetch(self, keys: Iterable[RunKey]) -> None:
        """Ensure every ``key`` is available (the planning entry point)."""
        self.run_many(keys)

    def run_many(self, keys: Iterable[RunKey]) -> dict[RunKey, SimStats]:
        """Deduplicate ``keys``, execute the missing ones, return all."""
        unique = list(dict.fromkeys(keys))
        missing = []
        for key in unique:
            if key in self.memo:
                continue
            cached = self._load_cached(key)
            if cached is not None:
                self.memo[key] = cached
            else:
                missing.append(key)
        self._prepare_workloads(missing)
        tasks = self._plan_tasks(missing)
        if len(tasks) > 1 and self.jobs > 1:
            self._run_parallel(tasks, len(missing))
        else:
            for task in tasks:
                self._run_serial(task)
        return {key: self.memo[key] for key in unique}

    def run_stream(self, keys: Iterable[RunKey],
                   on_land: Optional[Callable] = None,
                   should_cancel: Optional[Callable[[], bool]] = None
                   ) -> StreamReport:
        """Streaming execution: results land incrementally, failures
        are collected per key instead of raised, and cancellation is
        cooperative — the campaign service's execution primitive.

        ``on_land(key, stats, source, seconds)`` fires for *every* key
        as it becomes available: ``source`` is ``"memo"`` / ``"disk"``
        for replayed results (zero recomputation) and ``"run"`` for
        ones computed this call.  ``should_cancel`` is polled between
        landings; once it returns True no further work is submitted,
        in-flight chunks drain (and land), and the keys never executed
        come back in ``pending``.
        """
        report = StreamReport()
        unique = list(dict.fromkeys(keys))
        missing = []
        for key in unique:
            stats = self.memo.get(key)
            source = "memo"
            if stats is None:
                stats = self._load_cached(key)
                source = "disk"
                if stats is not None:
                    self.memo[key] = stats
            if stats is None:
                missing.append(key)
                continue
            report.results[key] = stats
            report.replayed += 1
            if on_land is not None:
                on_land(key, stats, source, 0.0)
        if should_cancel is not None and should_cancel():
            report.pending.extend(missing)
            report.cancelled = True
            return report
        if not missing:
            return report

        def hook(key: RunKey, stats: SimStats, seconds: float) -> None:
            report.results[key] = stats
            report.computed += 1
            if on_land is not None:
                on_land(key, stats, "run", seconds)

        self._prepare_workloads(missing)
        tasks = self._plan_tasks(missing)
        self._land_hook = hook
        try:
            if len(tasks) > 1 and self.jobs > 1:
                sub = self._dispatch(tasks, should_cancel=should_cancel)
                report.failures.extend(sub.failures)
                report.pending.extend(sub.pending)
                report.cancelled = sub.cancelled
            else:
                for index, task in enumerate(tasks):
                    if should_cancel is not None and should_cancel():
                        report.cancelled = True
                        for rest in tasks[index:]:
                            report.pending.extend(rest)
                        break
                    try:
                        self._run_serial(task)
                    except KeyboardInterrupt:
                        raise
                    except BaseException as exc:  # noqa: BLE001
                        exc = _portable_exc(exc)
                        for key in task:
                            report.failures.append((key, exc))
        finally:
            self._land_hook = None
        return report

    def describe_failure(self, key: RunKey, exc: BaseException) -> str:
        """One human line per failed run (the service's status files
        and the batch engine's error report share the wording)."""
        return f"{self._describe(key)}: {exc!r}"

    @staticmethod
    def _batch_key(key: RunKey) -> tuple:
        """Replica-group identity: everything but the faults.  Keys that
        agree here run the *same* machine up to their first
        fault-detection point, which is exactly what the vector executor
        shares.

        Overrides of config fields the scheme declared **fault-free
        invariant** (``FAULT_FREE_INVARIANT_OVERRIDES``, e.g.
        ``detection_latency`` under Global/NONE) cannot perturb that
        shared prefix either, so they are stripped from the identity
        and the group members carry their own configs through
        ``execute_batch`` — a detection-latency sweep batches across
        all its L values.  Only built-in workloads widen: a registered
        generator receives the full resolved config, so its *traces*
        could depend on any override.
        """
        overrides = key.overrides
        if overrides and is_builtin_workload(key.app):
            invariant = fault_free_invariant_overrides(key.scheme)
            if invariant:
                kept = {name: value for name, value in overrides.items()
                        if name not in invariant}
                if len(kept) != len(overrides):
                    overrides = Overrides(kept)
        return (key.app, key.n_cores, key.scheme, key.intervals, key.seed,
                key.scale, key.io_every, key.cluster, overrides)

    def _plan_tasks(self, missing: list[RunKey]) -> list[tuple]:
        """The execution plan: each element is a tuple of keys, a
        1-tuple for a scalar run or the whole group for a replica batch
        of two or more.  A task sits at its first member's position in
        ``missing``, so serial execution keeps the submission order and
        a failing task never masks work listed before it.  With
        vectorization off every task is a 1-tuple."""
        if not self.vector:
            return [(key,) for key in missing]
        groups: dict[tuple, list[RunKey]] = {}
        for key in missing:
            groups.setdefault(self._batch_key(key), []).append(key)
        # dicts keep insertion order: each group at its first member.
        return [tuple(group) for group in groups.values()]

    def _prepare_workloads(self, missing: list[RunKey]) -> None:
        """Prebuild each workload that several missing runs *share*.

        Many keys share one workload (every scheme/fault-plan/override
        variant at the same app x cores x seed); building those once
        here means the pool workers only deserialize compact IR bytes.
        Workloads needed by a single run are left to that run's worker
        (``get_or_build`` populates the store there), so a
        low-sharing plan keeps its build parallelism.  Shared builds do
        run serially here — the trade against letting workers race is
        that every same-wave worker would duplicate the build; with
        sharing ≥ 2 the single parent build is the cheaper side.
        Best-effort: a
        builder that raises is skipped here and fails inside its own
        run, where the error report carries the full ``RunKey`` and
        healthy siblings still complete.
        """
        store = self.workload_store
        if store is None or not missing:
            return
        # Sharing is defined by the *store address* (built-ins share one
        # entry across schemes/overrides), so count digests, not keys.
        counts: dict[str, int] = {}
        params_for: dict[str, tuple] = {}
        for key in missing:
            config = resolve_config(key)
            digest = store.digest_for(key.app, key.n_cores, config,
                                      key.intervals, key.seed)
            if digest is None:
                continue
            counts[digest] = counts.get(digest, 0) + 1
            params_for.setdefault(digest, (key.app, key.n_cores, config,
                                           key.intervals, key.seed))
        builds_before = store.builds
        shared = 0
        for digest, count in counts.items():
            if count < 2:
                continue
            shared += 1
            try:
                store.ensure(*params_for[digest])
            except Exception:  # noqa: BLE001 - deferred to the run itself
                pass
        built = store.builds - builds_before
        if self.verbose and built:  # pragma: no cover - progress printing
            print(f"  [engine] prebuilt {built} of {shared} shared "
                  f"workload(s) for {len(missing)} runs", flush=True)

    def _affinity_key(self, task):
        """What a task must share to profit from a chunk-mate: the
        workload-store digest when addressable (built-ins share one
        entry across schemes/overrides), else the build parameters."""
        key = task[0]
        store = self.workload_store
        if store is not None:
            digest = store.digest_for(key.app, key.n_cores,
                                      resolve_config(key),
                                      key.intervals, key.seed)
            if digest is not None:
                return digest
        return (workload_name(key.app), key.n_cores, key.intervals,
                key.seed)

    def _task_costs(self, tasks: list, affinity: list) -> list:
        """Estimated cost of each task: the size in bytes of its
        workload-store entry times its width.  Entry size tracks the
        total trace records, so it separates apps and core counts.  A
        task whose entry size is unknown (store bypassed, or a
        single-use workload its worker will build) costs the median
        known cost, or 1.0 when none is known.  Only ``stat`` calls:
        the estimate never loads an entry or moves a store counter."""
        sizes: dict = {}
        costs: list = []
        for task, ident in zip(tasks, affinity):
            # A str affinity is a store digest; the build-parameter
            # fallback names no entry.
            if isinstance(ident, str) and ident not in sizes:
                path = self.workload_store.path_for(ident)
                try:
                    sizes[ident] = os.stat(path).st_size
                except OSError:
                    sizes[ident] = None
            size = sizes.get(ident)
            costs.append(None if size is None else size * len(task))
        known = [cost for cost in costs if cost is not None]
        fallback = statistics.median(known) if known else 1.0
        return [fallback if cost is None else cost for cost in costs]

    def _chunk_tasks(self, tasks: list, workers: int) -> list[list]:
        """Pack the plan into dispatch chunks, most expensive first.

        Order: descending estimated cost (:meth:`_task_costs`); ties
        keep first-seen workload-affinity order, so same-workload tasks
        stay adjacent for the worker's store LRU, and submission order
        within a group.  Size: ``chunk_size`` tasks when pinned, else
        guided self-scheduling — each chunk targets the remaining
        estimated cost over four chunks per worker, holds at most 32
        tasks and never costs more than the chunk before it, so the
        heavy tasks start first and the last chunks are single cheap
        tasks that keep every worker busy to the end.
        """
        affinity = [self._affinity_key(task) for task in tasks]
        costs = self._task_costs(tasks, affinity)
        first_seen: dict = {}
        for ident in affinity:
            first_seen.setdefault(ident, len(first_seen))
        order = sorted(range(len(tasks)), key=lambda i:
                       (-costs[i], first_seen[affinity[i]]))
        if self.chunk_size is not None:
            size = self.chunk_size
            return [[tasks[i] for i in order[start:start + size]]
                    for start in range(0, len(order), size)]
        chunks: list[list] = []
        remaining = sum(costs)
        limit = remaining / (workers * 4)
        chunk: list = []
        chunk_cost = 0
        for i in order:
            if chunk and (len(chunk) == 32
                          or chunk_cost + costs[i] > limit):
                chunks.append(chunk)
                remaining -= chunk_cost
                limit = min(chunk_cost, remaining / (workers * 4))
                chunk, chunk_cost = [], 0
            chunk.append(tasks[i])
            chunk_cost += costs[i]
        if chunk:
            chunks.append(chunk)
        return chunks

    def _merge_worker_counters(self, deltas: Optional[dict]) -> None:
        if not deltas:
            return
        for name, count in deltas.items():
            self._worker_counters[name] = \
                self._worker_counters.get(name, 0) + count

    def store_counters(self) -> dict[str, int]:
        """Workload-store counters aggregated across every process:
        the parent store's own, plus the deltas each dispatch chunk
        shipped back (``--profile`` prints these)."""
        totals = {name: 0 for name in ("hits", "misses", "builds",
                                       "lru_hits", "corrupt_rebuilds",
                                       "write_failures")}
        for name, count in self._worker_counters.items():
            totals[name] = totals.get(name, 0) + count
        if self.workload_store is not None:
            for name, count in self.workload_store.counters().items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def memsys_counters(self) -> dict[str, int]:
        """Memory-system counters summed over this engine's completed
        runs (the in-process memo: every run executed or loaded this
        session).  Mode-invariant under ``REPRO_FASTPATH``; feeds the
        ``--profile`` memsys row and the bench memsys section."""
        totals = {name: 0 for name in (
            "l1_hits", "l1_misses", "l2_hits", "l2_misses",
            "fastpath_loads", "fastpath_stores", "invalidations",
            "mem_accesses")}
        for stats in self.memo.values():
            for name in totals:
                totals[name] += getattr(stats, name, 0)
        return totals

    def _run_parallel(self, tasks: list, n_runs: int) -> None:
        report = self._dispatch(tasks)
        if report.failures:
            lines = [f"  {self._describe(key)}: {exc!r}"
                     for key, exc in report.failures]
            raise RuntimeError(
                f"simulation failed for {len(report.failures)} of "
                f"{n_runs} run(s):\n" + "\n".join(lines)
                ) from report.failures[0][1]

    def _dispatch(self, tasks: list,
                  should_cancel: Optional[Callable[[], bool]] = None
                  ) -> DispatchReport:
        """Chunked pool dispatch: the engine's one parallel data plane.

        Collects per-*key* failures (a failed replica batch reports
        every member, not just its first — each key must be
        individually describable and the failure count must match the
        run count), supports cooperative cancellation
        (``should_cancel``: un-submitted chunks are dropped to
        ``pending`` while in-flight chunks drain and land), and
        survives ``KeyboardInterrupt`` in the wait loop by cancelling
        the queued futures, landing every already-completed chunk in
        the memo/cache, and re-raising with a one-line
        partial-progress note — Ctrl-C on a campaign keeps what it
        paid for, and the service's cancel path reuses the same
        machinery.  A completed dispatch adds its worker-busy seconds
        and wall clock to ``pool_usage``.
        """
        n_runs = sum(len(task) for task in tasks)
        n_batches = sum(1 for task in tasks if len(task) > 1)
        workers = min(self.jobs, len(tasks))
        chunks = self._chunk_tasks(tasks, workers)
        workers = min(workers, len(chunks))
        if self.verbose:  # pragma: no cover - progress printing
            print(f"  [engine] {n_runs} runs ({n_batches} batches, "
                  f"{len(tasks) - n_batches} singles) in {len(chunks)} "
                  f"chunk(s) on {workers} workers ...", flush=True)
        store_root = str(self.workload_store.root) \
            if self.workload_store is not None else None
        cache_root = str(self.cache_dir) if self.use_disk_cache else None
        report = DispatchReport()
        usage = PoolUsage(workers=workers)
        landed = 0

        def fail_task(task, exc: BaseException) -> None:
            # Collect *every* failing key so one bad run doesn't mask
            # its siblings (worker tracebacks don't carry arguments) —
            # including every member of a failed replica batch.
            for key in task:
                report.failures.append((key, exc))

        def land_outcomes(chunk, outcomes, deltas) -> None:
            nonlocal landed
            self._merge_worker_counters(deltas)
            for task, outcome in zip(chunk, outcomes):
                if outcome[0] == "err":
                    fail_task(task, outcome[1])
                    continue
                _tag, stats_list, seconds, cached = outcome
                self._land(task, stats_list, seconds, cached)
                usage.busy_s += seconds
                landed += len(task)

        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Bounded in-flight window: a thousand-run campaign must not
            # hold a future (and its pickled result) per task — two
            # chunks per worker keep everyone busy while results land
            # incrementally.
            chunk_iter = iter(chunks)
            futures: dict = {}
            submit_error: Optional[BaseException] = None
            leftovers: list = []

            def submit_next() -> None:
                nonlocal submit_error
                for chunk in itertools.islice(chunk_iter, 1):
                    if submit_error is not None or report.cancelled:
                        leftovers.append(chunk)
                        return
                    try:
                        futures[pool.submit(_run_chunk, chunk, store_root,
                                            cache_root)] = chunk
                    except BaseException as exc:  # noqa: BLE001
                        # A broken pool refuses new work; drain what is
                        # in flight and report the rest as failed.
                        submit_error = exc
                        leftovers.append(chunk)

            try:
                for _ in range(min(2 * workers, len(chunks))):
                    submit_next()
                while futures:
                    if (not report.cancelled and should_cancel is not None
                            and should_cancel()):
                        report.cancelled = True
                    done, _ = wait(set(futures),
                                   timeout=(0.1 if should_cancel is not None
                                            else None),
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        chunk = futures.pop(future)
                        try:
                            outcomes, deltas = future.result()
                        except BaseException as exc:  # noqa: BLE001
                            # The whole worker died (OOM kill, broken
                            # pool): every task of the chunk is lost.
                            for task in chunk:
                                fail_task(task, exc)
                            submit_next()
                            continue
                        land_outcomes(chunk, outcomes, deltas)
                        submit_next()
            except KeyboardInterrupt:
                # Drop the queued chunks, let in-flight ones finish
                # (they are small), and keep every completed result:
                # the workers already wrote their cache entries, and
                # landing them in the memo makes the partial session
                # consistent.  Then re-raise — the interrupt still
                # means stop.
                pool.shutdown(wait=True, cancel_futures=True)
                for future, chunk in list(futures.items()):
                    if future.done() and not future.cancelled():
                        try:
                            outcomes, deltas = future.result()
                        except BaseException:  # noqa: BLE001
                            continue
                        land_outcomes(chunk, outcomes, deltas)
                print(f"  [engine] interrupted: {landed} of {n_runs} "
                      f"run(s) landed in the memo/cache; queued chunks "
                      f"cancelled", flush=True)
                raise
            leftovers.extend(chunk_iter)
            for chunk in leftovers:
                for task in chunk:
                    if report.cancelled and submit_error is None:
                        report.pending.extend(task)
                    else:
                        fail_task(task, submit_error or RuntimeError(
                            "task was never submitted"))
        usage.wall_s = time.perf_counter() - start
        usage.offered_s = workers * usage.wall_s
        self.pool_usage.add(usage)
        if self.verbose:  # pragma: no cover - progress printing
            print(f"  [engine] {usage.describe()}", flush=True)
        return report

    @staticmethod
    def _describe(key: RunKey) -> str:
        scheme = getattr(key.scheme, "value", key.scheme)
        return (f"{workload_name(key.app)} x{key.n_cores} {scheme} "
                f"(io_every={key.io_every}, fault_at={key.fault_at}, "
                f"fault_plan={key.fault_plan}, cluster={key.cluster}, "
                f"seed={key.seed}, scale={key.scale}, "
                f"overrides={dict(key.overrides)})")

    def _run_serial(self, task: tuple[RunKey, ...]) -> None:
        """Execute and land one task in this process (the serial path);
        the task's own exception propagates."""
        if self.verbose:  # pragma: no cover - progress printing
            key = task[0]
            scheme = getattr(key.scheme, "value", key.scheme)
            batch = f" [batch of {len(task)}]" if len(task) > 1 else ""
            print(f"  running {workload_name(key.app)} x{key.n_cores} "
                  f"{scheme}{batch} ...", flush=True)
        start = time.perf_counter()
        stats_list = _execute_task(task, self.workload_store)
        self._land(task, stats_list, time.perf_counter() - start, False)

    def _land(self, task: tuple[RunKey, ...], stats_list: list[SimStats],
              seconds: float, cached: bool) -> None:
        """Land a task's results *per key* (no cache format change): the
        task's wall clock is attributed evenly over its keys and each
        key records the width it ran at (1 = scalar).  ``cached=True``
        means the worker already wrote the disk entries (chunked
        dispatch) — writing them again from the parent would double
        every entry's serialization cost."""
        share = seconds / len(task)
        for key, stats in zip(task, stats_list):
            self.memo[key] = stats
            self.profile[key] = share
            self.batch_width[key] = len(task)
            if not cached:
                self._store_cached(key, stats)
            if self._land_hook is not None:
                self._land_hook(key, stats, share)
            if self.verbose and self.jobs > 1:  # pragma: no cover
                scheme = getattr(key.scheme, "value", key.scheme)
                print(f"  [engine] done {workload_name(key.app)} "
                      f"x{key.n_cores} {scheme} ({share:.1f}s)",
                      flush=True)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def profile_rows(self) -> list[list]:
        """Per-run wall-clock rows (slowest first) for ``--profile``.

        ``cluster`` and ``overrides`` are part of a run's identity, so
        without them two sweep grid points are indistinguishable in the
        profile table.  ``batch`` is the replica-batch width the run was
        computed at (1 = scalar; batched runs report their share of the
        batch's wall clock).
        """
        rows = []
        for key, seconds in sorted(self.profile.items(),
                                   key=lambda kv: -kv[1]):
            if key.fault_plan is not None:
                faults = f"plan[{key.fault_plan.n_faults}]"
            elif key.fault_at is not None:
                faults = f"{key.fault_at:,.0f}"
            else:
                faults = "-"
            overrides = ",".join(f"{name}={value}" for name, value
                                 in key.overrides.items()) or "-"
            scheme = getattr(key.scheme, "value", key.scheme)
            rows.append([workload_name(key.app), key.n_cores, scheme,
                         key.io_every if key.io_every is not None else "-",
                         faults,
                         key.cluster,
                         overrides,
                         self.batch_width[key],
                         f"{seconds:.2f}"])
        return rows
