"""The span recorder and fold of the benchmark's traced runs."""

import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import suite  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402


def test_fold_subtracts_child_spans():
    recorder = spans.SpanRecorder()
    for name, parent, start, end in (("bench.pass", -1, 0.0, 10.0),
                                     ("engine", 0, 1.0, 9.0),
                                     ("machine", 1, 2.0, 7.0),
                                     ("coherence", 2, 3.0, 4.0),
                                     ("coherence", 2, 5.0, 5.5)):
        recorder.name.append(recorder._id(name))
        recorder.parent.append(parent)
        recorder.run.append(0)
        recorder.start.append(start)
        recorder.end.append(end)
    folded = spans.fold(recorder)
    assert folded == {"bench.pass": (2.0, 1), "engine": (3.0, 1),
                      "machine": (3.5, 1), "coherence": (1.5, 2)}
    assert spans.root_seconds(recorder) == 10.0


def test_self_times_and_uncovered_time_sum_to_traced_wall(tmp_path):
    workload = suite.FiguresCold(tmp_path, seed=3, nproc=1)
    workload.kwargs = {"fig6_1": {"n_cores": 4, "apps": ["blackscholes"]}}
    workload.fill_store()
    untraced = workload.run_pass(1)
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    workload.recorder = recorder
    try:
        traced = workload.run_pass(1)
    finally:
        workload.recorder = None
        recorder.remove()
    assert not hasattr(Machine.start, "__wrapped__")
    assert workload.errors == []       # tracing changed no result
    assert traced.results == untraced.results

    folded = spans.fold(recorder)
    wall = spans.root_seconds(recorder)
    uncovered = folded["bench.pass"][0]
    layers = math.fsum(own for name, (own, _count) in folded.items()
                       if name != "bench.pass")
    assert math.isclose(layers + uncovered, wall, rel_tol=1e-9)
    assert abs(wall - traced.seconds) < 1e-3
    assert 0.0 <= uncovered < wall
    assert folded["bench.pass"][1] == 1   # every other span is nested
    for name in ("engine", "machine", "coherence", "mem.channels"):
        assert folded[name][1] > 0
