"""Differential suite for the memory-system fast path.

``Machine._advance_main`` with ``REPRO_FASTPATH`` on (the default)
services provable private hits — loads of any L1/L2-resident line,
stores to lines already MODIFIED and not delayed — inline against the
caches' residency maps, without entering ``CoherenceEngine``.  Nothing
about that is allowed to be observable: **every** field of the
resulting :class:`SimStats` — runtime, the exact cycle-bucket
partition, per-core stats, checkpoint/rollback event lists, message,
log, energy and memory-system counters — must be bit-identical to a
slow-path run of the same (config, workload, faults), for every
registered scheme, with fault campaigns, output-I/O injection, cluster
mode, golden-model coherence checking and the vectorized replica
kernel in the mix.

The memsys counters themselves (``l1_hits`` ... ``mem_accesses``) are
part of the contract: eligibility is counted identically in both
modes, so they participate in the equality rather than being exempted
from it.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine, _fastpath_default
from repro.sim.stats import SimStats
from repro.sim.vector import have_numpy, run_replica_batch
from repro.workloads import get_workload, inject_output_io
from tests.invariants import assert_bucket_parity, assert_run_invariants

needs_numpy = pytest.mark.skipif(not have_numpy(),
                                 reason="numpy not installed")

SCALE = 150
INTERVALS = 1.8
APP = "blackscholes"


def _config(n_cores, scheme, cluster=1, **overrides):
    return MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                scale=SCALE, dep_cluster_size=cluster,
                                **overrides)


def _spec(n_cores, config, io_every=None, app=APP, seed=1):
    spec = get_workload(app, n_cores, config, intervals=INTERVALS,
                        seed=seed)
    if io_every is not None:
        spec = inject_output_io(spec=spec, pid=0,
                                every_instructions=io_every)
    return spec


def _run(config, spec, faults, fastpath):
    return Machine(config, spec, faults=list(faults) or None,
                   fastpath=fastpath).run()


def assert_stats_identical(slow, fast, what="fast path off vs on"):
    """Field-by-field equality over the *whole* SimStats — events,
    energy ledger and memsys counters included — plus the derived
    bucket partition both suites key their figures on."""
    for field in dataclasses.fields(SimStats):
        a, b = getattr(slow, field.name), getattr(fast, field.name)
        assert a == b, \
            f"{what}: SimStats.{field.name} diverged: {a!r} != {b!r}"
    assert slow.cycle_buckets() == fast.cycle_buckets()
    assert_bucket_parity(slow, fast, what=what)


def _campaign(config):
    """Three replicas: an early fault, a two-fault sequence, fault-free."""
    interval = config.checkpoint_interval
    return [
        [(0.9 * interval, 0)],
        [(1.1 * interval, 2), (1.45 * interval, 1)],
        [],
    ]


#: (scheme, n_cores, io_every-in-intervals, cluster, with-faults) —
#: every registered scheme appears; NONE has no recovery support, so
#: its runs must be fault-free.
MATRIX = [
    (Scheme.REBOUND, 8, None, 1, True),
    (Scheme.REBOUND, 4, 0.5, 1, True),           # output-I/O injection
    (Scheme.REBOUND, 8, None, 4, True),          # cluster mode (Ch. 8)
    (Scheme.GLOBAL, 8, None, 1, True),
    (Scheme.GLOBAL_DWB, 4, None, 1, True),
    (Scheme.REBOUND_NODWB, 4, 0.5, 1, True),
    (Scheme.REBOUND_BARR, 4, None, 1, True),
    (Scheme.REBOUND_NODWB_BARR, 4, None, 1, True),
    (Scheme.NONE, 4, None, 1, False),
]


@pytest.mark.parametrize("scheme,n_cores,io_frac,cluster,with_faults",
                         MATRIX,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_fastpath_matches_slow_path(scheme, n_cores, io_frac, cluster,
                                    with_faults):
    config = _config(n_cores, scheme, cluster)
    io_every = int(io_frac * config.checkpoint_interval) \
        if io_frac is not None else None
    spec = _spec(n_cores, config, io_every)
    fault_lists = _campaign(config) if with_faults else [[]]
    for faults in fault_lists:
        slow = _run(config, spec, faults, fastpath=False)
        fast = _run(config, spec, faults, fastpath=True)
        assert_run_invariants(fast)
        assert_stats_identical(slow, fast)
        # The fast path genuinely fires on these workloads: eligibility
        # is mode-invariant, so the slow run reports the same counts.
        assert fast.fastpath_loads > 0
        assert fast.mem_accesses > 0
        assert 0.0 < fast.fastpath_hit_rate <= 1.0


def test_fastpath_survives_golden_coherence_check():
    """With ``check_coherence`` on, every fast-path hit is validated
    against the golden memory image — a value served from a stale
    residency filter would trip the assertion inline."""
    config = _config(8, Scheme.REBOUND, check_coherence=True)
    spec = _spec(8, config)
    for faults in _campaign(config):
        slow = _run(config, spec, faults, fastpath=False)
        fast = _run(config, spec, faults, fastpath=True)
        assert_stats_identical(slow, fast, what="golden-checked")


@needs_numpy
def test_vector_batches_match_in_both_modes(monkeypatch):
    """The replica kernel (leader + forks) under REPRO_FASTPATH=0 and
    =1 produces identical stats — the batched counters are flushed on
    every exit from the advance loop, so a fork's deepcopy always
    clones a fully-folded engine."""
    config = _config(4, Scheme.REBOUND)
    spec = _spec(4, config)
    fault_lists = _campaign(config)
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    off = run_replica_batch(config, spec, fault_lists)
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    on = run_replica_batch(config, spec, fault_lists)
    for slow, fast, faults in zip(off.stats, on.stats, fault_lists):
        assert_run_invariants(fast)
        assert_stats_identical(slow, fast, what="vector off vs on")
        # ... and both agree with the scalar fast-path run.
        assert_stats_identical(_run(config, spec, faults, True), fast,
                               what="scalar vs vector")


# -- hypothesis: random geometries/traces preserve the equivalence ----------

@given(seed=st.integers(0, 2**16),
       n_cores=st.sampled_from([2, 4]),
       scheme=st.sampled_from([Scheme.REBOUND, Scheme.GLOBAL_DWB,
                               Scheme.REBOUND_NODWB]),
       app=st.sampled_from(["blackscholes", "fluidanimate"]),
       fault_frac=st.one_of(st.none(), st.floats(0.5, 1.6)))
@settings(max_examples=10, deadline=None)
def test_random_workloads_preserve_parity(seed, n_cores, scheme, app,
                                          fault_frac):
    config = _config(n_cores, scheme)
    spec = _spec(n_cores, config, app=app, seed=seed)
    faults = [] if fault_frac is None \
        else [(fault_frac * config.checkpoint_interval, seed % n_cores)]
    slow = _run(config, spec, faults, fastpath=False)
    fast = _run(config, spec, faults, fastpath=True)
    assert_stats_identical(slow, fast, what=f"seed={seed}")


# -- the REPRO_FASTPATH knob ------------------------------------------------

class TestEnvKnob:
    def test_unset_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert _fastpath_default() is True

    @pytest.mark.parametrize("text,expected", [
        ("1", True), ("on", True), ("true", True), ("YES", True),
        ("0", False), ("OFF", False), ("False", False), ("no", False),
    ])
    def test_spellings(self, monkeypatch, text, expected):
        monkeypatch.setenv("REPRO_FASTPATH", text)
        assert _fastpath_default() is expected
        config = _config(2, Scheme.NONE)
        machine = Machine(config, _spec(2, config))
        assert machine.fastpath is expected

    def test_garbage_rejected_naming_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "fasle")
        with pytest.raises(ValueError, match="REPRO_FASTPATH.*'fasle'"):
            _fastpath_default()

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        config = _config(2, Scheme.NONE)
        assert Machine(config, _spec(2, config), fastpath=True).fastpath
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        assert not Machine(config, _spec(2, config),
                           fastpath=False).fastpath


# -- memsys counter plumbing ------------------------------------------------

def test_memsys_counters_are_internally_consistent():
    config = _config(4, Scheme.REBOUND)
    stats = _run(config, _spec(4, config), [], fastpath=True)
    # The L1 is write-through presence-only: probed by loads, bypassed
    # by stores — so its totals count the loads, a strict subset of the
    # accesses (which tally one L1 energy event per load *and* store).
    loads = stats.l1_hits + stats.l1_misses
    assert 0 < loads < stats.mem_accesses
    assert stats.fastpath_loads <= loads
    assert stats.l2_hits + stats.l2_misses <= stats.mem_accesses
    assert stats.fastpath_loads + stats.fastpath_stores \
        <= stats.mem_accesses
    assert stats.energy_events.get("l1", 0) == stats.mem_accesses


def test_engine_memsys_totals_sum_runs():
    from repro.harness.engine import ExperimentEngine, RunKey
    engine = ExperimentEngine(jobs=1, use_disk_cache=False)
    keys = [RunKey(app=APP, n_cores=4, scheme=scheme,
                   intervals=INTERVALS, seed=1, scale=SCALE)
            for scheme in (Scheme.REBOUND, Scheme.GLOBAL)]
    results = engine.run_many(keys)
    totals = engine.memsys_counters()
    for name in ("l1_hits", "l2_hits", "fastpath_loads", "mem_accesses"):
        assert totals[name] == sum(getattr(results[key], name)
                                   for key in keys)
    assert totals["mem_accesses"] > 0
