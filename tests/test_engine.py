"""Tests for the experiment engine: dedup, parallelism, disk cache.

The determinism guard: serial, parallel (``jobs=4``) and disk-cache-
replayed executions must produce *identical* ``SimStats`` for a matrix
of (app, scheme, n_cores) — plus pickle round-trips for the payload
types the cache and the process pool move between processes.
"""

import pickle

import pytest

import repro.harness.engine as engine_mod
from repro.harness.engine import ExperimentEngine, RunKey, execute_run
from repro.harness.runner import Runner
from repro.params import Scheme
from repro.sim import SimStats

#: Small cross-scheme matrix (tiny scale keeps each run in the tens of
#: milliseconds).
MATRIX = [
    RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300),
    RunKey("blackscholes", 4, Scheme.NONE, 1.5, 1, 300),
    RunKey("water_sp", 4, Scheme.GLOBAL, 1.5, 1, 300),
    RunKey("water_sp", 2, Scheme.REBOUND, 1.5, 1, 300),
]


@pytest.fixture()
def serial_results(tmp_path):
    eng = ExperimentEngine(jobs=1, use_disk_cache=False)
    return eng.run_many(MATRIX)


class TestParity:
    def test_parallel_matches_serial(self, serial_results):
        parallel = ExperimentEngine(jobs=4, use_disk_cache=False)
        got = parallel.run_many(MATRIX)
        for key in MATRIX:
            assert got[key] == serial_results[key], key

    def test_disk_replay_matches_serial(self, serial_results, tmp_path,
                                        monkeypatch):
        writer = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                  use_disk_cache=True)
        writer.run_many(MATRIX)
        assert len(writer.profile) == len(MATRIX)
        # A fresh engine over the same cache dir must replay from disk:
        # make any recompute blow up.
        monkeypatch.setattr(engine_mod, "execute_run",
                            lambda key: pytest.fail(f"recomputed {key}"))
        reader = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                  use_disk_cache=True)
        got = reader.run_many(MATRIX)
        assert reader.disk_hits == len(MATRIX)
        assert not reader.profile
        for key in MATRIX:
            assert got[key] == serial_results[key], key


class TestEngineMechanics:
    def test_duplicate_keys_computed_once(self):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        key = MATRIX[0]
        got = eng.run_many([key, key, key])
        assert len(got) == 1
        assert len(eng.profile) == 1

    def test_memo_returns_identical_object(self):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        key = MATRIX[0]
        assert eng.run(key) is eng.run(key)

    def test_no_cache_writes_nothing(self, tmp_path):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=False)
        eng.run(MATRIX[0])
        assert list(tmp_path.iterdir()) == []

    def test_fingerprint_invalidates_cache(self, tmp_path, monkeypatch):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=True)
        eng.run(MATRIX[0])
        monkeypatch.setattr(engine_mod, "_FINGERPRINT", "different-code")
        fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                 use_disk_cache=True)
        fresh.run(MATRIX[0])
        assert fresh.disk_hits == 0          # old entry not addressed
        assert len(fresh.profile) == 1       # recomputed

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=True)
        key = MATRIX[0]
        eng.run(key)
        path = eng._cache_path(key)
        path.write_bytes(b"not a pickle")
        fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                 use_disk_cache=True)
        stats = fresh.run(key)
        assert isinstance(stats, SimStats)
        assert len(fresh.profile) == 1


class TestParallelFailures:
    def test_every_failing_key_reported(self):
        # Two keys with unknown apps fail inside the workers; the raised
        # error must name them *both* (a single-failure report makes a
        # broken sweep a whack-a-mole of reruns), while the healthy
        # sibling still lands in the memo.
        good = MATRIX[0]
        bad = [RunKey("no_such_app_a", 4, Scheme.NONE, 1.5, 1, 300),
               RunKey("no_such_app_b", 4, Scheme.NONE, 1.5, 1, 300)]
        eng = ExperimentEngine(jobs=2, use_disk_cache=False)
        with pytest.raises(RuntimeError) as excinfo:
            eng.run_many([good] + bad)
        message = str(excinfo.value)
        assert "no_such_app_a" in message
        assert "no_such_app_b" in message
        assert "2 of 3 run(s)" in message
        assert good in eng.memo

    def test_failed_batch_reports_every_replica_key(self):
        # Regression: a failed replica *batch* used to surface only its
        # first RunKey ("failed for 1 of N") — a dead chunk holding N
        # replicas masked N-1 sibling keys.  Two keys that differ only
        # in their fault plan batch together; both must be reported.
        from repro.sim.faults import FaultPlan

        good = MATRIX[0]
        bad = [RunKey("no_such_app", 4, Scheme.REBOUND, 1.5, 1, 300,
                      fault_plan=FaultPlan.single(5000.0)),
               RunKey("no_such_app", 4, Scheme.REBOUND, 1.5, 1, 300,
                      fault_plan=FaultPlan.single(9000.0))]
        eng = ExperimentEngine(jobs=2, use_disk_cache=False)
        with pytest.raises(RuntimeError) as excinfo:
            eng.run_many([good] + bad)
        message = str(excinfo.value)
        assert "2 of 3 run(s)" in message
        # Each replica is individually describable by its own plan.
        assert "5000.0" in message
        assert "9000.0" in message
        assert good in eng.memo

    def test_interrupt_lands_partial_results(self, tmp_path, capsys,
                                             monkeypatch):
        # Regression: Ctrl-C in the dispatch wait loop used to escape
        # past the epilogue and block in ProcessPoolExecutor.__exit__.
        # Now the engine cancels queued chunks, lands every completed
        # result in the memo (workers already wrote the cache entries),
        # prints a one-line partial-progress note, and re-raises.
        real_wait = engine_mod.wait
        calls = {"n": 0}

        def interrupting_wait(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "wait", interrupting_wait)
        eng = ExperimentEngine(jobs=2, cache_dir=tmp_path,
                               use_disk_cache=True, chunk_size=1)
        with pytest.raises(KeyboardInterrupt):
            eng.run_many(MATRIX)
        assert len(eng.memo) >= 1          # completed chunks landed
        assert "interrupted:" in capsys.readouterr().out
        # The landed results replay from disk: nothing was lost.
        fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                                 use_disk_cache=True)
        fresh.run_many(list(eng.memo))
        assert fresh.disk_hits == len(eng.memo)
        assert not fresh.profile


def _shape_keys():
    """Two keys that form a replica batch and two lone keys."""
    from repro.sim.faults import FaultPlan

    batch = [RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                    fault_plan=FaultPlan.single(at))
             for at in (5000.0, 9000.0)]
    return batch, [MATRIX[1], MATRIX[2]]


class TestTaskShape:
    """Every planned task is a tuple of keys; landing attributes each
    task's wall time and width to its keys (the per-key ``profile`` and
    ``batch_width`` that ``--profile`` and the benchmark read)."""

    def test_plan_is_tuples_with_one_tuples_for_lone_keys(self):
        batch, lone = _shape_keys()
        keys = [lone[0], batch[0], lone[1], batch[1]]
        eng = ExperimentEngine(jobs=1, use_disk_cache=False, vector=True)
        tasks = eng._plan_tasks(keys)
        assert all(type(task) is tuple for task in tasks)
        assert tasks == [(lone[0],), tuple(batch), (lone[1],)]
        scalar = ExperimentEngine(jobs=1, use_disk_cache=False,
                                  vector=False)
        assert scalar._plan_tasks(keys) == [(key,) for key in keys]

    def test_every_computed_key_records_its_task_width(self):
        # Serial landing is covered by the vector-kernel engine test;
        # this drives the chunked worker dispatch.
        batch, lone = _shape_keys()
        eng = ExperimentEngine(jobs=2, use_disk_cache=False,
                               vector=True)
        eng.run_many(batch + lone)
        assert set(eng.batch_width) == set(eng.profile) \
            == set(batch + lone)
        assert all(eng.batch_width[key] == 2 for key in batch)
        assert all(eng.batch_width[key] == 1 for key in lone)

    def test_shares_of_a_task_sum_to_its_wall_time(self, monkeypatch):
        from types import SimpleNamespace

        clock = [0.0]

        def costing(real, cost):
            def timed(*args):
                clock[0] += cost
                return real(*args)
            return timed

        monkeypatch.setattr(engine_mod, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(engine_mod, "execute_run",
                            costing(engine_mod.execute_run, 2.0))
        monkeypatch.setattr(engine_mod, "execute_batch",
                            costing(engine_mod.execute_batch, 3.0))
        batch, lone = _shape_keys()
        eng = ExperimentEngine(jobs=1, use_disk_cache=False, vector=True)
        eng.run_many(batch + lone)
        assert sum(eng.profile[key] for key in batch) == 3.0
        assert all(eng.profile[key] == 2.0 for key in lone)
        # The worker entry point reports one outcome per task, with the
        # stats of every key and the task's own wall time.
        outcomes, _ = engine_mod._run_chunk([tuple(batch), (lone[0],)])
        assert [(tag, len(stats), seconds, cached)
                for tag, stats, seconds, cached in outcomes] \
            == [("ok", 2, 3.0, False), ("ok", 1, 2.0, False)]


class TestProfileRows:
    def test_rows_carry_cluster_and_overrides(self):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        eng.run(RunKey("blackscholes", 4, Scheme.REBOUND, 1.5, 1, 300,
                       cluster=2, overrides={"detection_latency": 2000}))
        eng.run(MATRIX[0])
        rows = eng.profile_rows()
        assert all(len(row) == 9 for row in rows)
        by_cluster = {row[5]: row for row in rows}
        assert by_cluster[2][6] == "detection_latency=2000"
        assert by_cluster[1][6] == "-"
        # neither run was part of a replica batch: width 1
        assert all(row[7] == 1 for row in rows)


class TestRunnerFacade:
    def test_runner_routes_through_engine(self, tmp_path):
        eng = ExperimentEngine(jobs=1, cache_dir=tmp_path,
                               use_disk_cache=True)
        runner = Runner(scale=300, intervals=1.5, engine=eng)
        stats = runner.run("blackscholes", 4, Scheme.REBOUND)
        key = runner.key("blackscholes", 4, Scheme.REBOUND)
        assert eng.memo[key] is stats
        assert runner.cache is eng.memo

    def test_prefetch_then_run_hits_memo(self):
        eng = ExperimentEngine(jobs=1, use_disk_cache=False)
        runner = Runner(scale=300, intervals=1.5, engine=eng)
        keys = [runner.key("blackscholes", 4, Scheme.REBOUND),
                runner.key("blackscholes", 4, Scheme.NONE)]
        runner.prefetch(keys)
        assert len(eng.profile) == 2
        runner.overhead("blackscholes", 4, Scheme.REBOUND)
        assert len(eng.profile) == 2  # nothing recomputed


class TestPickleRoundTrips:
    def test_runkey_round_trip(self):
        key = RunKey("ocean", 64, Scheme.REBOUND_BARR, 3.0, 1, 40,
                     io_every=1000, fault_at=2.5e5)
        assert pickle.loads(pickle.dumps(key)) == key

    def test_scheme_round_trip(self):
        for scheme in Scheme:
            assert pickle.loads(pickle.dumps(scheme)) is scheme

    def test_simstats_round_trip(self):
        stats = execute_run(MATRIX[0])
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert clone.config == stats.config
        assert clone.cores == stats.cores
        assert clone.checkpoints == stats.checkpoints
        # Derived quantities survive too.
        assert clone.mean_ichk_fraction() == stats.mean_ichk_fraction()
        assert clone.breakdown() == stats.breakdown()
