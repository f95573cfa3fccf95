"""Zero-copy engine data plane: view loads, chunked dispatch, widening.

Three compounding optimizations share one correctness bar — bit-identical
``SimStats``:

* ``CompiledTrace.from_buffer`` / ``WorkloadSpec.from_buffer`` build
  read-only memoryview columns over a serialized blob (the store mmaps
  entries instead of copying them);
* ``_dispatch`` packs tasks into per-worker chunks (most expensive
  first by workload-store entry size, shrinking chunks, same-workload
  tasks adjacent; workers persist their own cache entries);
* ``_batch_key`` widens replica batches across overrides of config
  fields the scheme declared fault-free invariant, so a
  detection-latency sweep under Global shares one leader walk.
"""

from __future__ import annotations

import pytest

import repro.harness.engine as engine_mod
from repro.harness.engine import (
    ExperimentEngine,
    RunKey,
    execute_batch,
    execute_run,
    resolve_config,
)
from repro.harness.workload_store import WorkloadStore
from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.trace import TRACE_WIRE_FORMAT, CompiledTrace
from repro.workloads import get_workload, inject_output_io
from repro.workloads.base import WorkloadSpec

SCALE = 300
INTERVALS = 1.5


def _config(scheme=Scheme.GLOBAL, n_cores=4):
    return MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                scale=SCALE)


def _spec(n_cores=4, config=None, app="blackscholes"):
    config = config if config is not None else _config(n_cores=n_cores)
    return get_workload(app, n_cores, config, intervals=INTERVALS, seed=1)


class TestTraceFromBuffer:
    def test_view_equals_copy(self):
        for trace in _spec().traces:
            blob = trace.to_bytes()
            view = CompiledTrace.from_buffer(blob)
            copy = CompiledTrace.from_bytes(blob)
            assert view == copy
            assert view == trace
            assert view.n_instructions == trace.n_instructions
            assert view.to_bytes() == blob

    def test_view_columns_are_read_only(self):
        trace = _spec().traces[0]
        view = CompiledTrace.from_buffer(trace.to_bytes())
        with pytest.raises(TypeError):
            view.ops[0] = 1  # reprolint: disable=RL005
        with pytest.raises(TypeError):
            view.args[0] = 1  # reprolint: disable=RL005

    def test_offset_addressing(self):
        traces = _spec().traces
        blobs = [trace.to_bytes() for trace in traces]
        packed = b"".join(blobs)
        offset = 0
        for trace, blob in zip(traces, blobs):
            assert CompiledTrace.from_buffer(packed, offset) == trace
            offset += len(blob)

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError, match="truncated"):
            CompiledTrace.from_buffer(b"\x01\x00")

    def test_rejects_wrong_version(self):
        blob = bytearray(_spec().traces[0].to_bytes())
        blob[0] = TRACE_WIRE_FORMAT + 1
        with pytest.raises(ValueError, match="wire format"):
            CompiledTrace.from_buffer(bytes(blob))

    def test_rejects_truncated_payload(self):
        blob = _spec().traces[0].to_bytes()
        with pytest.raises(ValueError, match="payload"):
            CompiledTrace.from_buffer(blob[:-4])

    def test_rejects_unknown_op(self):
        trace = _spec().traces[0]
        blob = bytearray(trace.to_bytes())
        blob[20] = 0x7F                      # first ops byte
        with pytest.raises(ValueError, match="unknown trace op"):
            CompiledTrace.from_buffer(bytes(blob))


class TestSpecFromBuffer:
    def test_spec_round_trip_parity(self):
        spec = _spec()
        data = spec.to_bytes()
        copied = WorkloadSpec.from_bytes(data)
        viewed = WorkloadSpec.from_buffer(data)
        assert viewed.name == copied.name == spec.name
        assert len(viewed.traces) == len(spec.traces)
        for v, c in zip(viewed.traces, copied.traces):
            assert v == c

    @pytest.mark.parametrize("scheme,io_every,fault", [
        (Scheme.NONE, None, False),
        (Scheme.GLOBAL, None, False),
        (Scheme.GLOBAL, 4000, False),
        (Scheme.GLOBAL, None, True),
        (Scheme.REBOUND, None, False),
        (Scheme.REBOUND, 4000, True),
    ])
    def test_sim_parity_view_vs_copy(self, scheme, io_every, fault):
        # The acceptance bar: a machine fed memoryview columns over the
        # serialized blob produces bit-identical SimStats to one fed
        # freshly copied array columns — across schemes, output I/O
        # injection and fault recovery.
        config = _config(scheme=scheme)
        data = _spec(config=config).to_bytes()
        faults = [(1.6 * config.checkpoint_interval, 0)] if fault else None

        def run(spec):
            if io_every is not None:
                spec = inject_output_io(spec=spec, pid=0,
                                        every_instructions=io_every)
            return Machine(config, spec, faults=faults).run()

        assert run(WorkloadSpec.from_buffer(data)) \
            == run(WorkloadSpec.from_bytes(data))

    def test_mmap_store_load_parity(self, tmp_path):
        config = _config()
        writer = WorkloadStore(tmp_path)
        built = writer.get_or_build("blackscholes", 4, config,
                                    INTERVALS, 1)
        mapped = WorkloadStore(tmp_path, use_mmap=True,
                               lru_capacity=0) \
            .get_or_build("blackscholes", 4, config, INTERVALS, 1)
        copied = WorkloadStore(tmp_path, use_mmap=False,
                               lru_capacity=0) \
            .get_or_build("blackscholes", 4, config, INTERVALS, 1)
        assert Machine(config, mapped).run() \
            == Machine(config, copied).run() \
            == Machine(config, built).run()

    def test_mmap_env_knob(self, monkeypatch, tmp_path):
        for text, expected in (("", True), ("off", False), ("YES", True)):
            monkeypatch.setenv("REPRO_MMAP", text)
            assert WorkloadStore(tmp_path)._use_mmap is expected
        monkeypatch.setenv("REPRO_MMAP", "fasle")
        with pytest.raises(ValueError, match="REPRO_MMAP.*'fasle'"):
            WorkloadStore(tmp_path)


class TestStoreLRU:
    def test_second_load_is_lru_hit(self, tmp_path):
        config = _config()
        store = WorkloadStore(tmp_path)
        first = store.get_or_build("blackscholes", 4, config,
                                   INTERVALS, 1)
        again = store.get_or_build("blackscholes", 4, config,
                                   INTERVALS, 1)
        assert again is first                # the cached spec object
        assert store.lru_hits == 1
        assert store.hits == 1               # lru_hits ⊆ hits
        assert store.misses == 1

    def test_capacity_zero_disables(self, tmp_path):
        config = _config()
        store = WorkloadStore(tmp_path, lru_capacity=0)
        store.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        store.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        assert store.lru_hits == 0
        assert store.hits == 1               # disk hit still counted

    def test_eviction_keeps_capacity(self, tmp_path):
        config = _config()
        store = WorkloadStore(tmp_path, lru_capacity=1)
        store.get_or_build("blackscholes", 2, config, INTERVALS, 1)
        store.get_or_build("water_sp", 2, config, INTERVALS, 1)
        assert len(store._lru) == 1
        # blackscholes was evicted: loading it again is a disk hit,
        # not an LRU hit.
        store.get_or_build("blackscholes", 2, config, INTERVALS, 1)
        assert store.lru_hits == 0

    def test_env_capacity_garbage_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WORKER_LRU", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKER_LRU"):
            WorkloadStore(tmp_path)

    def test_corrupt_entry_counted_and_rebuilt(self, tmp_path):
        config = _config()
        store = WorkloadStore(tmp_path)
        digest = store.digest_for("blackscholes", 4, config, INTERVALS, 1)
        store.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        store.path_for(digest).write_bytes(b"garbage")
        fresh = WorkloadStore(tmp_path)
        spec = fresh.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        assert spec is not None
        assert fresh.corrupt_rebuilds == 1
        assert fresh.misses == 1

    def test_write_failure_counted(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store root should be")
        config = _config()
        store = WorkloadStore(blocked)
        spec = store.get_or_build("blackscholes", 4, config, INTERVALS, 1)
        assert spec is not None              # build still served
        assert store.write_failures == 1
        assert store.disabled

    def test_counters_dict_complete(self, tmp_path):
        store = WorkloadStore(tmp_path)
        assert set(store.counters()) == {
            "hits", "misses", "builds", "lru_hits", "corrupt_rebuilds",
            "write_failures"}


KEY_A1 = RunKey("blackscholes", 4, Scheme.NONE, INTERVALS, 1, SCALE)
KEY_A2 = RunKey("blackscholes", 4, Scheme.GLOBAL, INTERVALS, 1, SCALE)
KEY_B1 = RunKey("water_sp", 2, Scheme.NONE, INTERVALS, 1, SCALE)
KEY_B2 = RunKey("water_sp", 2, Scheme.GLOBAL, INTERVALS, 1, SCALE)


class TestChunkedDispatch:
    def test_affinity_groups_share_a_chunk(self):
        eng = ExperimentEngine(jobs=2, use_disk_cache=False,
                               chunk_size=2)
        chunks = eng._chunk_tasks([(KEY_A1,), (KEY_B1,), (KEY_A2,),
                                   (KEY_B2,)], workers=2)
        assert chunks == [[(KEY_A1,), (KEY_A2,)], [(KEY_B1,), (KEY_B2,)]]

    def test_adaptive_size_bounds(self):
        eng = ExperimentEngine(jobs=4, use_disk_cache=False)
        tasks = [(RunKey("blackscholes", 4, Scheme.NONE, INTERVALS, seed,
                         SCALE),) for seed in range(100)]
        chunks = eng._chunk_tasks(tasks, workers=4)
        assert sorted(key.seed for chunk in chunks for task in chunk
                      for key in task) == list(range(100))
        assert all(1 <= len(chunk) <= 32 for chunk in chunks)
        assert len(chunks) >= 2 * 4          # window keeps workers fed

    def test_chunk_size_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK", "many")
        with pytest.raises(ValueError, match="REPRO_CHUNK"):
            ExperimentEngine(jobs=1, use_disk_cache=False)

    def test_chunked_parallel_matches_serial(self):
        keys = [KEY_A1, KEY_A2, KEY_B1, KEY_B2]
        serial = ExperimentEngine(jobs=1, use_disk_cache=False)
        expect = serial.run_many(keys)
        chunked = ExperimentEngine(jobs=3, use_disk_cache=False,
                                   chunk_size=2)
        got = chunked.run_many(keys)
        for key in keys:
            assert got[key] == expect[key], key

    def test_failing_task_reports_itself_siblings_cache(self, tmp_path):
        # All three tasks forced into ONE chunk: the raising run must
        # report its own RunKey while its chunk siblings complete AND
        # their results land in the disk cache (written by the worker).
        bad = RunKey("no_such_app", 4, Scheme.NONE, INTERVALS, 1, SCALE)
        eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                               use_disk_cache=True, chunk_size=10)
        with pytest.raises(RuntimeError) as excinfo:
            eng.run_many([KEY_A1, bad, KEY_A2])
        message = str(excinfo.value)
        assert "no_such_app" in message
        assert "1 of 3 run(s)" in message
        assert KEY_A1 in eng.memo and KEY_A2 in eng.memo
        assert eng._cache_path(KEY_A1).exists()
        assert eng._cache_path(KEY_A2).exists()
        # A fresh engine replays the siblings from disk.
        fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                 use_disk_cache=True)
        fresh.run_many([KEY_A1, KEY_A2])
        assert fresh.disk_hits == 2

    def test_worker_store_counters_aggregate(self, tmp_path):
        keys = [RunKey("blackscholes", 4, Scheme.NONE, INTERVALS, 1,
                       SCALE, overrides={"detection_latency": 2000 + i})
                for i in range(4)]
        eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                               use_disk_cache=True, vector=False,
                               chunk_size=2)
        eng.run_many(keys)
        counters = eng.store_counters()
        # The parent prebuilt the shared workload once; every run then
        # loaded it (in a worker or the parent).
        assert counters["builds"] == 1
        assert counters["hits"] >= 1
        assert counters["write_failures"] == 0
        assert counters["corrupt_rebuilds"] == 0

    def test_no_cache_still_writes_nothing(self, tmp_path):
        eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                               use_disk_cache=False, chunk_size=2)
        eng.run_many([KEY_A1, KEY_A2, KEY_B1])
        assert list(tmp_path.iterdir()) == []


#: Three store entries of different sizes: (app, cores), smallest first.
PLAN_WORKLOADS = (("blackscholes", 2), ("water_sp", 2), ("blackscholes", 4))
PLAN_SCHEMES = (Scheme.NONE, Scheme.GLOBAL, Scheme.REBOUND)


def _plan_keys(app, n_cores, n):
    """``n`` distinct keys sharing one workload-store entry."""
    return [RunKey(app, n_cores, PLAN_SCHEMES[i % 3], INTERVALS, 1, SCALE,
                   overrides={"detection_latency": 2_000 * (i // 3 + 1)})
            for i in range(n)]


def _store_engine(tmp_path, workloads=PLAN_WORKLOADS, **kwargs):
    """A store-backed engine with an entry built for each workload."""
    eng = ExperimentEngine(jobs=2, cache_dir=tmp_path, use_disk_cache=True,
                           **kwargs)
    for app, n_cores in workloads:
        key = _plan_keys(app, n_cores, 1)[0]
        eng.workload_store.ensure(app, n_cores, resolve_config(key),
                                  INTERVALS, 1)
    return eng


def _entry_size(eng, key):
    store = eng.workload_store
    digest = store.digest_for(key.app, key.n_cores, resolve_config(key),
                              key.intervals, key.seed)
    path = store.path_for(digest)
    return path.stat().st_size if path.exists() else None


def _mixed_tasks(n_per_workload=12):
    """Scalar tasks and replica-width tasks of every plan workload,
    submitted smallest entry first."""
    tasks = []
    for app, n_cores in PLAN_WORKLOADS:
        keys = _plan_keys(app, n_cores, n_per_workload)
        tasks.extend((key,) for key in keys[:n_per_workload // 2])
        rest = keys[n_per_workload // 2:]
        tasks.extend(tuple(rest[i:i + 3]) for i in range(0, len(rest), 3))
    return tasks


class TestCostGuidedPlan:
    def test_largest_entries_first(self, tmp_path):
        eng = _store_engine(tmp_path)
        sizes = [_entry_size(eng, _plan_keys(app, n, 1)[0])
                 for app, n in PLAN_WORKLOADS]
        assert sizes == sorted(set(sizes))    # planned smallest first
        tasks = [(key,) for app, n in PLAN_WORKLOADS
                 for key in _plan_keys(app, n, 4)]
        flat = [task for chunk in eng._chunk_tasks(tasks, workers=2)
                for task in chunk]
        sizes = [_entry_size(eng, task[0]) for task in flat]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > sizes[-1]
        # Equal costs keep submission order: same-workload tasks stay
        # adjacent in the order they were planned.
        assert [task for task in flat if task[0].app == "water_sp"] \
            == [task for task in tasks if task[0].app == "water_sp"]

    def test_every_task_exactly_once(self, tmp_path):
        eng = _store_engine(tmp_path)
        tasks = _mixed_tasks()
        chunks = eng._chunk_tasks(tasks, workers=2)
        flat = [task for chunk in chunks for task in chunk]
        assert sorted(flat, key=repr) == sorted(tasks, key=repr)
        assert len(flat) == len(set(flat)) == len(tasks)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chunk_bounds_and_shrinking_cost(self, tmp_path, workers):
        eng = _store_engine(tmp_path)
        tasks = _mixed_tasks(n_per_workload=60)
        chunks = eng._chunk_tasks(tasks, workers=workers)
        assert all(1 <= len(chunk) <= 32 for chunk in chunks)
        costs = [sum(_entry_size(eng, task[0]) * len(task)
                     for task in chunk) for chunk in chunks]
        assert all(later <= earlier
                   for earlier, later in zip(costs, costs[1:]))
        # Guided self-scheduling: the tail is single cheap tasks.
        assert all(len(chunk) == 1 for chunk in chunks[-workers:])
        assert any(len(chunk) > 1 for chunk in chunks)

    def test_chunk_cap_of_32(self, tmp_path):
        eng = _store_engine(tmp_path, workloads=PLAN_WORKLOADS[:1])
        tasks = [(key,) for key in _plan_keys(*PLAN_WORKLOADS[0], 400)]
        chunks = eng._chunk_tasks(tasks, workers=1)
        assert max(len(chunk) for chunk in chunks) == 32

    def test_pinned_chunk_size_is_fixed_in_cost_order(self, tmp_path):
        eng = _store_engine(tmp_path, chunk_size=4)
        tasks = _mixed_tasks()
        chunks = eng._chunk_tasks(tasks, workers=2)
        assert [len(chunk) for chunk in chunks[:-1]] \
            == [4] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= 4
        flat = [task for chunk in chunks for task in chunk]
        costs = [_entry_size(eng, task[0]) * len(task) for task in flat]
        assert costs == sorted(costs, reverse=True)

    def test_missing_entries_take_median_without_loading(self, tmp_path,
                                                         monkeypatch):
        eng = _store_engine(tmp_path)
        before = eng.store_counters()

        def refuse(*args, **kwargs):
            raise AssertionError("cost estimate touched the store")

        for name in ("load", "get_or_build", "ensure"):
            monkeypatch.setattr(WorkloadStore, name, refuse)
        known = [(_plan_keys(app, n, 1)[0],) for app, n in PLAN_WORKLOADS]
        unbuilt = (_plan_keys("ocean", 2, 1)[0],)
        tasks = known + [unbuilt]
        affinity = [eng._affinity_key(task) for task in tasks]
        costs = eng._task_costs(tasks, affinity)
        sizes = sorted(_entry_size(eng, task[0]) for task in known)
        assert _entry_size(eng, unbuilt[0]) is None
        assert costs[-1] == sizes[1]          # the median known cost
        assert costs[:-1] == [_entry_size(eng, task[0]) for task in known]
        eng._chunk_tasks(tasks, workers=2)
        assert eng.store_counters() == before

    def test_bypassed_store_costs_one(self):
        eng = ExperimentEngine(jobs=2, use_disk_cache=False)
        tasks = [(KEY_A1,), (KEY_B1, KEY_B2)]
        affinity = [eng._affinity_key(task) for task in tasks]
        assert eng._task_costs(tasks, affinity) == [1.0, 1.0]


class TestPoolPath:
    def test_one_task_plan_runs_in_process(self, monkeypatch):
        keys = _l_keys(Scheme.GLOBAL)
        expect = ExperimentEngine(jobs=1, use_disk_cache=False,
                                  vector=True).run_many(keys)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-task plan started a pool")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", no_pool)
        eng = ExperimentEngine(jobs=2, use_disk_cache=False, vector=True)
        assert eng._plan_tasks(list(keys)) == [tuple(keys)]
        assert eng.run_many(keys) == expect
        streamed = ExperimentEngine(jobs=2, use_disk_cache=False,
                                    vector=True).run_stream(keys)
        assert streamed.results == expect and not streamed.failures
        assert eng.pool_usage.offered_s == 0.0

    def test_pool_usage_fraction(self):
        eng = ExperimentEngine(jobs=2, use_disk_cache=False)
        eng.run_many([KEY_A1, KEY_B1, KEY_A2])
        usage = eng.pool_usage
        assert usage.workers == 2
        assert 0.0 < usage.fraction <= 1.0
        assert usage.busy_s <= usage.offered_s
        assert usage.describe().startswith("pool busy ")


def _l_keys(scheme, fault=True, n=3):
    config = MachineConfig.scaled(n_cores=4, scheme=scheme, scale=SCALE)
    fault_at = 1.6 * config.checkpoint_interval
    return [RunKey("blackscholes", 4, scheme, INTERVALS, 1, SCALE,
                   fault_at=fault_at if fault else None,
                   overrides={"detection_latency": 2_000 * (i + 1)})
            for i in range(n)]


class TestBatchWidening:
    def test_batch_key_strips_invariant_overrides(self):
        keys = _l_keys(Scheme.GLOBAL)
        idents = {ExperimentEngine._batch_key(key) for key in keys}
        assert len(idents) == 1

    def test_rebound_never_widens(self):
        # Rebound's dep-register recycling reads L during *fault-free*
        # checkpointing (can_open_interval), so it must not declare the
        # invariance — each L value stays its own replica group.
        keys = _l_keys(Scheme.REBOUND)
        idents = {ExperimentEngine._batch_key(key) for key in keys}
        assert len(idents) == len(keys)

    def test_non_invariant_override_still_splits(self):
        base = RunKey("blackscholes", 4, Scheme.GLOBAL, INTERVALS, 1,
                      SCALE, overrides={"backoff_max": 400})
        other = RunKey("blackscholes", 4, Scheme.GLOBAL, INTERVALS, 1,
                       SCALE, overrides={"backoff_max": 800})
        assert ExperimentEngine._batch_key(base) \
            != ExperimentEngine._batch_key(other)

    def test_plan_forms_one_batch_across_l(self):
        keys = _l_keys(Scheme.GLOBAL)
        eng = ExperimentEngine(jobs=1, use_disk_cache=False, vector=True)
        tasks = eng._plan_tasks(list(keys))
        assert tasks == [tuple(keys)]        # one batch spanning all L

    def test_fig_l_sensitivity_plan_batches_span_all_l(self):
        from repro.harness.experiments import plan_fig_l_sensitivity
        from repro.harness.runner import Runner
        eng = ExperimentEngine(jobs=1, use_disk_cache=False, vector=True)
        runner = Runner(scale=SCALE, intervals=INTERVALS, engine=eng)
        keys = plan_fig_l_sensitivity(runner, apps=["blackscholes"],
                                      n_cores=4, n_seeds=1)
        tasks = eng._plan_tasks(list(dict.fromkeys(keys)))
        l_values = {key.overrides["detection_latency"] for key in keys}
        assert len(l_values) == 3
        global_batches = [task for task in tasks if len(task) > 1
                          and task[0].scheme is Scheme.GLOBAL]
        assert global_batches
        widest = max(global_batches, key=len)
        assert {key.overrides["detection_latency"] for key in widest} \
            == l_values

    @pytest.mark.parametrize("fault", [True, False])
    def test_widened_batch_parity(self, fault):
        keys = _l_keys(Scheme.GLOBAL, fault=fault)
        stats_list = execute_batch(tuple(keys))
        for key, stats in zip(keys, stats_list):
            expect = execute_run(key)
            assert stats == expect, key
            assert stats.config == resolve_config(key)

    def test_replica_configs_validation(self):
        from repro.sim.vector import run_replica_batch
        config = _config()
        spec = _spec(config=config)
        with pytest.raises(ValueError, match="replica_configs"):
            run_replica_batch(config, spec, [[], []],
                              replica_configs=[config])

    def test_replica_configs_vector_parity(self):
        from repro.sim.vector import run_replica_batch
        base = _config()
        fault_at = 1.6 * base.checkpoint_interval
        configs = [base.replace(detection_latency=2_000 * (i + 1))
                   for i in range(3)]
        fault_lists = [[(fault_at, 0)], [], [(fault_at, 2)]]
        spec_bytes = _spec(config=base).to_bytes()
        result = run_replica_batch(base,
                                   WorkloadSpec.from_bytes(spec_bytes),
                                   fault_lists, replica_configs=configs)
        for rc, faults, stats in zip(configs, fault_lists, result.stats):
            scalar = Machine(rc, WorkloadSpec.from_bytes(spec_bytes),
                             faults=list(faults)).run()
            assert stats == scalar
            assert stats.config == rc
