"""Span recording for the benchmark's traced runs.

A :class:`SpanRecorder` replaces public functions and methods at each
layer boundary of the ``repro`` package with thin wrappers that record
one span per call: name, start, end, parent span and run id.  Spans are
kept in flat in-memory arrays while the traced phase runs and are
written out once, as JSON, when the benchmark ends
(:meth:`SpanRecorder.save`).  Only the standard library is used, so
the recorder and its test run where numpy is not installed.
The wrappers live here, in the benchmark's own files; ``src/`` is not
modified.  :meth:`SpanRecorder.remove` restores every original, so the
untraced passes of the same process run the unmodified code.

:func:`fold` turns the spans into per-name *self time* (a span's
duration minus the time its child spans cover) and call counts.  The
self times of all spans, root spans included, sum exactly to the
duration of the root spans; the benchmark opens one root span per
traced phase, so a root's self time is the phase's time that no layer
span covers.
"""

from __future__ import annotations

import array
import contextlib
import functools
import inspect
import json
import time
from pathlib import Path
from typing import Callable, Iterator, Optional


class SpanRecorder:
    """Wrapper installer plus the in-memory span store."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        #: Id stamped on every span; the engine-task wrappers set it to
        #: the number of the simulation task being executed (0 = none).
        self.run_id = 0
        self._tasks = 0
        self._patches: list[tuple[object, str, object]] = []
        #: ``BatchReport`` of every replica batch run in this process.
        self.batch_reports: list = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span around a block (the benchmark's root spans)."""
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, span: str,
             only: Optional[Callable[..., bool]] = None,
             after: Optional[Callable[[object], None]] = None,
             task: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``only(*args)`` limits recording to matching calls; ``after``
        receives each return value; ``task=True`` gives every call (and
        the spans below it) a fresh run id.
        """
        original = (owner.__dict__[attr] if inspect.isclass(owner)
                    else getattr(owner, attr))
        name_id = self._id(span)
        if only is None and after is None and not task:
            traced = self._plain(original, name_id)
        else:
            open_, close = self._open, self._close

            def traced(*args, **kwargs):
                if only is not None and not only(*args):
                    return original(*args, **kwargs)
                if task:
                    outer = self.run_id
                    self._tasks += 1
                    self.run_id = self._tasks
                index = open_(name_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    close(index)
                    if task:
                        self.run_id = outer
                if after is not None:
                    after(result)
                return result

        setattr(owner, attr, functools.wraps(original)(traced))
        self._patches.append((owner, attr, original))

    def _plain(self, original: Callable, name_id: int) -> Callable:
        """The wrapper for hot boundaries: ``_open``/``_close`` inlined,
        because a traced figure plan makes about a million such calls."""
        recorder = self
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        starts, ends = self.start, self.end
        add_name, add_parent = self.name.append, self.parent.append
        add_run, add_start, add_end = (self.run.append, starts.append,
                                       ends.append)

        def traced(*args, **kwargs):
            index = len(starts)
            add_name(name_id)
            add_parent(stack[-1])
            add_run(recorder.run_id)
            add_end(0.0)
            push(index)
            add_start(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()

        return traced

    def wrap_public(self, cls: type, span: str,
                    skip: frozenset = frozenset()) -> None:
        """Wrap every public plain method defined on ``cls`` itself,
        except the names in ``skip``."""
        for attr, value in list(vars(cls).items()):
            if (not attr.startswith("_") and attr not in skip
                    and inspect.isfunction(value)):
                self.wrap(cls, attr, span)

    def remove(self) -> None:
        """Restore every wrapped attribute (last wrapped, first undone)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path: Path) -> None:
        """Write the spans to ``path``: one JSON object of columns
        (``names``, then per span ``name``, ``parent``, ``run``,
        ``start``, ``end``), written a column at a time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write('{"names": ' + json.dumps(self.names))
            for column in ("name", "parent", "run", "start", "end"):
                out.write(f', "{column}": ')
                out.write(json.dumps(getattr(self, column).tolist()))
            out.write("}\n")


def fold(recorder: SpanRecorder) -> dict[str, tuple[float, int]]:
    """Per span name: ``(self seconds, number of spans)``."""
    duration = [end - start
                for start, end in zip(recorder.start, recorder.end)]
    own = list(duration)
    for parent, seconds in zip(recorder.parent, duration):
        if parent >= 0:
            own[parent] -= seconds
    self_s = [0.0] * len(recorder.names)
    counts = [0] * len(recorder.names)
    for name, seconds in zip(recorder.name, own):
        self_s[name] += seconds
        counts[name] += 1
    return {label: (self_s[i], counts[i])
            for i, label in enumerate(recorder.names) if counts[i]}


def root_seconds(recorder: SpanRecorder) -> float:
    """Total duration of the root spans (the traced wall time)."""
    return sum(end - start for parent, start, end in
               zip(recorder.parent, recorder.start, recorder.end)
               if parent < 0)


def install(recorder: SpanRecorder, kernel: bool = True) -> None:
    """Wrap the layer boundaries of the ``repro`` package.

    With ``kernel=False`` only the parent-side layers are wrapped
    (experiments, engine batch entry points, workload store, service):
    the set that a run with a worker pool records in the benchmark's own
    process.
    """
    import repro.harness.engine as engine
    import repro.harness.experiments as experiments
    import repro.harness.service as service
    import repro.harness.workload_store as store

    recorder.wrap(experiments, "plan_experiment", "experiments.plan")
    # The pool wait of a parallel run: the parent idles while workers
    # simulate, so this time is kept out of the engine's self time.
    recorder.wrap(engine, "wait", "engine.wait")
    recorder.wrap(experiments, "run_experiment", "experiments.render")
    for attr in ("run_many", "run_stream"):
        recorder.wrap(engine.ExperimentEngine, attr, "engine")
    for attr in ("get_or_build", "load", "ensure"):
        recorder.wrap(store.WorkloadStore, attr, "store")
    for module in (store, engine):
        recorder.wrap(module, "get_workload", "workloads.build")
    for attr in ("submit", "serve", "run_job", "summarize"):
        recorder.wrap(service.CampaignService, attr, "service")
    if not kernel:
        return

    import repro.coherence.protocol as protocol
    import repro.core.scheme_base as scheme_base
    import repro.mem.channels as channels
    import repro.mem.log as log
    import repro.sim.events as events
    import repro.sim.machine as machine
    import repro.sim.sync as sync
    import repro.sim.vector as vector

    for attr in ("execute_run", "execute_batch"):
        recorder.wrap(engine, attr, "engine", task=True)
    recorder.wrap(machine.Machine, "__init__", "machine.construct")
    for attr in ("start", "advance", "finalize"):
        recorder.wrap(machine.Machine, attr, "machine")
    recorder.wrap(machine.Machine, "fork", "machine.fork")
    recorder.wrap(vector, "run_replica_batch", "vector",
                  after=lambda result: recorder.batch_reports.append(
                      result.report))
    for attr in ("lock_acquire", "lock_release", "barrier_arrive",
                 "rollback_cleanup"):
        recorder.wrap(sync.SyncManager, attr, "sync")
    for attr in ("load", "store", "checkpoint_writeback", "mark_delayed",
                 "complete_delayed", "invalidate_core"):
        recorder.wrap(protocol.CoherenceEngine, attr, "coherence")
    # Helpers a layer only calls on itself (channel_of, next_seq) are
    # left unwrapped: they add spans, not attribution.
    recorder.wrap_public(channels.MemoryChannels, "mem.channels",
                         skip=frozenset({"channel_of"}))
    recorder.wrap_public(log.ReviveLog, "mem.log",
                         skip=frozenset({"next_seq"}))
    # The dependence-tracking hooks the coherence engine calls on every
    # slow-path access (the DependenceTracker interface) would add about
    # a million spans per figure plan; their time counts as coherence.
    tracker = frozenset(vars(protocol.DependenceTracker))
    for cls in _scheme_classes(scheme_base.BaseScheme):
        recorder.wrap_public(cls, "core", skip=tracker)
    recorder.wrap(events.DurableCall, "fire", "core",
                  only=lambda call, *_: call.target == "scheme")


def _scheme_classes(base: type) -> list[type]:
    """``base`` and every subclass of it, each once."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found
