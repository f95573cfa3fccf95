"""Tests for the machine's event loop and trace execution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import Scheme
from repro.sim.events import DurableCall
from repro.trace import COMPUTE, END, LOAD, OUTPUT, STORE
from tests.conftest import make_machine, make_spec, tiny_config


class TestBasicExecution:
    def test_compute_advances_time_and_instructions(self):
        machine = make_machine([[(COMPUTE, 100), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.runtime == 100
        assert machine.cores[0].instr_count == 100

    def test_memory_ops_cost_latency(self):
        machine = make_machine([[(LOAD, 5), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.runtime >= machine.config.memory_cycles

    def test_empty_trace_completes(self):
        machine = make_machine([[], [(COMPUTE, 5), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.runtime == 5

    def test_trace_without_end_terminates(self):
        machine = make_machine([[(COMPUTE, 7)]],
                               config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.runtime == 7

    def test_store_then_load_same_core(self):
        machine = make_machine(
            [[(STORE, 9), (LOAD, 9), (END,)]],
            config=tiny_config(2, Scheme.NONE, check_coherence=True))
        machine.run()  # golden model validates the load

    def test_max_cycles_guard(self):
        machine = make_machine([[(COMPUTE, 10_000), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        with pytest.raises(RuntimeError, match="exceeded"):
            machine.run(max_cycles=100)

    def test_unknown_op_rejected(self):
        # Rejected at trace-compile time (machine construction), before
        # any cycle is simulated.
        with pytest.raises(ValueError, match="unknown trace op"):
            make_machine([[(99, 0)]], config=tiny_config(2, Scheme.NONE))

    def test_max_cycles_guard_covers_post_run_drain(self):
        # The application finishes almost immediately, then a
        # self-rescheduling background callback chain keeps the heap
        # alive: the post-run drain loop must enforce the cycle limit
        # too instead of spinning past it silently.
        machine = make_machine([[(COMPUTE, 10), (END,)]],
                               config=tiny_config(2, Scheme.NONE))
        call = DurableCall("scheme", "chain", ())

        def chain(now):
            if now < 1_000_000:
                machine.schedule_call(now + 100.0, call)

        machine.scheme.chain = chain
        machine.schedule_call(50.0, call)
        with pytest.raises(RuntimeError, match="exceeded"):
            machine.run(max_cycles=5_000)

    def test_too_many_threads_rejected(self):
        spec = make_spec([[(END,)]] * 3)
        from repro.sim.machine import Machine
        with pytest.raises(ValueError, match="cores"):
            Machine(tiny_config(2, Scheme.NONE), spec)


class TestInterleaving:
    def test_cores_advance_by_local_time(self):
        machine = make_machine(
            [[(COMPUTE, 1000), (END,)], [(COMPUTE, 10), (END,)]],
            config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.cores[0].end_time == 1000
        assert stats.cores[1].end_time == 10

    def test_producer_consumer_values_flow(self):
        machine = make_machine(
            [
                [(STORE, 7), (COMPUTE, 50), (END,)],
                [(COMPUTE, 500), (LOAD, 7), (END,)],
            ],
            config=tiny_config(2, Scheme.NONE, check_coherence=True))
        machine.run()
        # Consumer's cache holds the producer's value.
        assert machine.engine.l2s[1].peek(7).value == \
            machine.engine.golden[7]

    @given(st.lists(st.tuples(st.integers(0, 2),  # which op
                              st.integers(0, 15)),  # address
                    min_size=1, max_size=60),
           st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_golden_coherence_random_traces(self, ops, n_threads):
        """Every load observes the globally last store (serialization)."""
        traces = [[] for _ in range(n_threads)]
        for i, (kind, addr) in enumerate(ops):
            thread = i % n_threads
            if kind == 0:
                traces[thread].append((COMPUTE, 1 + addr))
            elif kind == 1:
                traces[thread].append((LOAD, addr))
            else:
                traces[thread].append((STORE, addr))
        for trace in traces:
            trace.append((END,))
        machine = make_machine(
            traces, config=tiny_config(n_threads, Scheme.NONE,
                                       check_coherence=True))
        machine.run()  # raises on any coherence violation


class TestOutputOp:
    def test_output_forces_checkpoint_in_rebound(self):
        machine = make_machine(
            [[(STORE, 1), (OUTPUT, 64), (END,)]],
            config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        assert any(e.kind == "io" for e in stats.checkpoints)

    def test_output_forces_global_checkpoint(self):
        machine = make_machine(
            [[(STORE, 1), (OUTPUT, 64), (END,)], [(COMPUTE, 5000), (END,)]],
            config=tiny_config(2, Scheme.GLOBAL))
        stats = machine.run()
        io_events = [e for e in stats.checkpoints if e.kind == "io"]
        assert len(io_events) == 1
        assert io_events[0].size == 2     # global: everyone participates

    def test_output_noop_without_checkpointing(self):
        machine = make_machine(
            [[(OUTPUT, 64), (END,)]],
            config=tiny_config(2, Scheme.NONE))
        stats = machine.run()
        assert stats.checkpoints == []
        assert stats.runtime >= machine.config.io_cycles


class TestStatsAssembly:
    def test_messages_and_log_reported(self):
        machine = make_machine(
            [
                [(STORE, 1), (COMPUTE, 3000), (STORE, 2), (END,)],
                [(COMPUTE, 100), (LOAD, 1), (COMPUTE, 3000), (END,)],
            ],
            config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        assert stats.base_messages > 0
        assert stats.total_instructions > 6000
        assert len(stats.cores) == 2

    def test_checkpoint_events_have_duration(self):
        machine = make_machine(
            [[(STORE, 1), (COMPUTE, 5000), (END,)]],
            config=tiny_config(2, Scheme.REBOUND))
        stats = machine.run()
        assert stats.checkpoints, "interval expiry must checkpoint"
        for event in stats.checkpoints:
            assert event.duration >= 0
            assert 1 <= event.size <= 2
