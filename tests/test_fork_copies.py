"""The structural copies behind ``Machine.fork``.

``Cache``, ``L1Cache`` and ``Directory`` copy themselves (set by set,
entry by entry) instead of going through generic ``copy.deepcopy``.
These tests pin what the rest of the simulator relies on: a clone is
fully independent of its parent, its direct maps point into its *own*
sets (the inline fast path binds ``_map``/``_sets`` once per advance and
trusts them to agree), and every set keeps its LRU order.
"""

from __future__ import annotations

import copy

import pytest

from repro.mem import EXCLUSIVE, MODIFIED
from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.workloads import get_workload


def _line_state(cache):
    return [[(a, ln.state, ln.value, ln.dirty, ln.delayed)
             for a, ln in cset.items()] for cset in cache._sets]


def _l1_state(l1):
    return [list(cset) for cset in l1._sets]


def _dir_state(directory):
    return [(a, e.mode, e.owner, e.sharers, e.lw_id)
            for a, e in directory._entries.items()]


def _snapshot(machine):
    engine = machine.engine
    return ([_line_state(c) for c in engine.l2s],
            [_l1_state(c) for c in engine.l1s],
            _dir_state(engine.directory))


@pytest.fixture(scope="module")
def paused():
    """A Rebound machine paused mid-run, with warm caches."""
    config = MachineConfig.scaled(n_cores=4, scheme=Scheme.REBOUND,
                                  scale=150)
    spec = get_workload("ocean", 4, config, intervals=1.8, seed=1)
    machine = Machine(config, spec)
    machine.start()
    assert machine.advance(pause_at=60_000.0)
    return machine


def test_clone_maps_point_into_its_own_sets(paused):
    clone = paused.fork()
    for mine, theirs in zip(clone.engine.l2s, paused.engine.l2s):
        assert mine._map and len(mine._map) == len(mine)
        for addr, line in mine._map.items():
            assert mine._sets[addr % mine.n_sets][addr] is line
            assert line is not theirs._map[addr]
    for mine, theirs in zip(clone.engine.l1s, paused.engine.l1s):
        assert mine._map and len(mine._map) == len(mine)
        for addr, cset in mine._map.items():
            assert cset is mine._sets[addr % mine.n_sets]
            assert all(cset is not other for other in theirs._sets)


def test_clone_preserves_lru_order_and_contents(paused):
    clone = paused.fork()
    assert _snapshot(clone) == _snapshot(paused)
    for mine, theirs in zip(clone.engine.directory._entries.values(),
                            paused.engine.directory._entries.values()):
        assert mine is not theirs


def test_mutating_clone_leaves_parent_untouched(paused):
    before = _snapshot(paused)
    clone = paused.fork()
    engine = clone.engine
    for l1, l2 in zip(engine.l1s, engine.l2s):
        resident = list(l2._map)
        # LRU touches, an in-place line update and an invalidation.
        for addr in resident[:3]:
            assert l2.lookup(addr) is not None
            l1.fill(addr)
        victim = l2._map[resident[-1]]
        victim.state, victim.value, victim.dirty = MODIFIED, -1, True
        l2.invalidate(resident[0])
        l1.invalidate(resident[1])
        # Fresh lines in sets that must evict.
        for addr in range(10_000_000, 10_000_000 + 4 * l2.assoc):
            l2.insert(addr, EXCLUSIVE, addr)
            l1.fill(addr)
    entry = next(iter(engine.directory._entries.values()))
    entry.lw_id, entry.sharers, entry.owner = 3, 0b1010, None
    engine.directory.entry(99_999_999).lw_id = 1
    engine.directory.purge_core(0)
    for l1, l2 in zip(engine.l1s[:1], engine.l2s[:1]):
        l1.invalidate_all()
        l2.invalidate_all()
    assert _snapshot(clone) != before
    assert _snapshot(paused) == before


def test_memo_maps_shared_references_to_twins(paused):
    cache = paused.engine.l2s[0]
    addr = next(iter(cache._map))
    directory = paused.engine.directory
    daddr = next(iter(directory._entries))
    cache_copy, line_copy, dir_copy, entry_copy = copy.deepcopy(
        (cache, cache._map[addr], directory, directory._entries[daddr]))
    assert line_copy is cache_copy._map[addr]
    assert entry_copy is dir_copy._entries[daddr]


def test_forks_finish_like_an_uninterrupted_run(paused):
    first, second = paused.fork(), paused.fork()
    assert not first.advance()
    assert not second.advance()
    reference = Machine(paused.config, paused.workload).run()
    assert first.finalize() == reference
    assert second.finalize() == reference
