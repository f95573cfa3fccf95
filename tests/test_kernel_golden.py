"""Golden kernel results: literal values a simulator change must keep.

The fast-path and vector differential suites run the same coherence
engine on both sides of every comparison, so a refactor that reorders a
writeback or drops a message moves both sides together and passes them
all.  This suite pins the *absolute* outcome of a small run matrix
through :func:`repro.harness.engine.execute_run` instead: runtime,
instruction and access counts, cache hits and misses, invalidations,
message counts, log volume, checkpoint/rollback counts and the energy
ledger.  A change that is meant to alter simulated behaviour updates
these values on purpose, and says so.
"""

from __future__ import annotations

import pytest

from repro.harness.engine import RunKey, execute_run
from repro.params import Scheme
from repro.sim.faults import FaultPlan

_BASE = dict(n_cores=4, intervals=2, seed=1, scale=100)

CASES = {
    f"{app}-{scheme.value}": RunKey(app=app, scheme=scheme, **_BASE)
    for app in ("ocean", "fft", "blackscholes")
    for scheme in (Scheme.NONE, Scheme.GLOBAL, Scheme.REBOUND,
                   Scheme.REBOUND_NODWB)
}
CASES["ocean-rebound-2faults"] = RunKey(
    app="ocean", scheme=Scheme.REBOUND,
    fault_plan=FaultPlan(((90_000.0, 1), (180_000.0, 2))), **_BASE)
CASES["ocean-rebound-cluster2"] = RunKey(
    app="ocean", scheme=Scheme.REBOUND, cluster=2, **_BASE)
CASES["ocean-rebound-io"] = RunKey(
    app="ocean", scheme=Scheme.REBOUND, io_every=20_000, **_BASE)


def observe(stats) -> dict:
    """The pinned values of one run."""
    return {
        "runtime": stats.runtime,
        "total_instructions": stats.total_instructions,
        "mem_accesses": stats.mem_accesses,
        "l1_hits": stats.l1_hits,
        "l1_misses": stats.l1_misses,
        "l2_hits": stats.l2_hits,
        "l2_misses": stats.l2_misses,
        "invalidations": stats.invalidations,
        "base_messages": stats.base_messages,
        "dep_messages": stats.dep_messages,
        "protocol_messages": stats.protocol_messages,
        "log_bytes": stats.log_bytes,
        "checkpoints": len(stats.checkpoints),
        "rollbacks": len(stats.rollbacks),
        "energy_events": dict(stats.energy_events),
    }


GOLDEN: dict = {
    'ocean-none': {
        'runtime': 286099.0,
        'total_instructions': 322103,
        'mem_accesses': 7649,
        'l1_hits': 945,
        'l1_misses': 3294,
        'l2_hits': 3556,
        'l2_misses': 3148,
        'invalidations': 1299,
        'base_messages': 14505,
        'dep_messages': 0,
        'protocol_messages': 0,
        'log_bytes': 27000,
        'checkpoints': 0,
        'rollbacks': 0,
        'energy_events': {
            'l1': 7649, 'l2': 7891, 'dir': 5487, 'dram': 5967, 'log': 2003
        },
    },
    'ocean-global': {
        'runtime': 287804.0,
        'total_instructions': 322103,
        'mem_accesses': 7649,
        'l1_hits': 945,
        'l1_misses': 3294,
        'l2_hits': 3556,
        'l2_misses': 3148,
        'invalidations': 1299,
        'base_messages': 14505,
        'dep_messages': 0,
        'protocol_messages': 32,
        'log_bytes': 41040,
        'checkpoints': 2,
        'rollbacks': 0,
        'energy_events': {
            'l1': 7649, 'l2': 7891, 'dir': 5487, 'dram': 6363, 'log': 2201
        },
    },
    'ocean-rebound': {
        'runtime': 286672.0,
        'total_instructions': 322103,
        'mem_accesses': 7649,
        'l1_hits': 945,
        'l1_misses': 3294,
        'l2_hits': 3556,
        'l2_misses': 3148,
        'invalidations': 1299,
        'base_messages': 14505,
        'dep_messages': 2266,
        'protocol_messages': 40,
        'log_bytes': 41040,
        'checkpoints': 2,
        'rollbacks': 0,
        'energy_events': {
            'l1': 7649, 'l2': 7891, 'dir': 5487, 'dram': 6359, 'log': 2199,
            'wsig': 5388, 'depreg': 4640
        },
    },
    'ocean-rebound_nodwb': {
        'runtime': 287968.0,
        'total_instructions': 322103,
        'mem_accesses': 7649,
        'l1_hits': 945,
        'l1_misses': 3294,
        'l2_hits': 3556,
        'l2_misses': 3148,
        'invalidations': 1299,
        'base_messages': 14505,
        'dep_messages': 2266,
        'protocol_messages': 56,
        'log_bytes': 41040,
        'checkpoints': 2,
        'rollbacks': 0,
        'energy_events': {
            'l1': 7649, 'l2': 7891, 'dir': 5487, 'dram': 6363, 'log': 2201,
            'wsig': 5394, 'depreg': 4640
        },
    },
    'fft-none': {
        'runtime': 274311.0,
        'total_instructions': 321375,
        'mem_accesses': 6956,
        'l1_hits': 1009,
        'l1_misses': 3456,
        'l2_hits': 2843,
        'l2_misses': 3104,
        'invalidations': 1005,
        'base_messages': 12935,
        'dep_messages': 0,
        'protocol_messages': 0,
        'log_bytes': 23560,
        'checkpoints': 0,
        'rollbacks': 0,
        'energy_events': {
            'l1': 6956, 'l2': 6886, 'dir': 5375, 'dram': 5293, 'log': 1564
        },
    },
    'fft-global': {
        'runtime': 275811.0,
        'total_instructions': 321375,
        'mem_accesses': 6956,
        'l1_hits': 1009,
        'l1_misses': 3456,
        'l2_hits': 2843,
        'l2_misses': 3104,
        'invalidations': 1005,
        'base_messages': 12935,
        'dep_messages': 0,
        'protocol_messages': 32,
        'log_bytes': 36080,
        'checkpoints': 2,
        'rollbacks': 0,
        'energy_events': {
            'l1': 6956, 'l2': 6886, 'dir': 5375, 'dram': 5623, 'log': 1729
        },
    },
    'fft-rebound': {
        'runtime': 274834.0,
        'total_instructions': 321375,
        'mem_accesses': 6956,
        'l1_hits': 1009,
        'l1_misses': 3456,
        'l2_hits': 2843,
        'l2_misses': 3104,
        'invalidations': 1005,
        'base_messages': 12935,
        'dep_messages': 2200,
        'protocol_messages': 40,
        'log_bytes': 36080,
        'checkpoints': 2,
        'rollbacks': 0,
        'energy_events': {
            'l1': 6956, 'l2': 6886, 'dir': 5375, 'dram': 5619, 'log': 1727,
            'wsig': 4848, 'depreg': 4078
        },
    },
    'fft-rebound_nodwb': {
        'runtime': 275875.0,
        'total_instructions': 321375,
        'mem_accesses': 6956,
        'l1_hits': 1009,
        'l1_misses': 3456,
        'l2_hits': 2843,
        'l2_misses': 3104,
        'invalidations': 1005,
        'base_messages': 12935,
        'dep_messages': 2200,
        'protocol_messages': 56,
        'log_bytes': 36080,
        'checkpoints': 2,
        'rollbacks': 0,
        'energy_events': {
            'l1': 6956, 'l2': 6886, 'dir': 5375, 'dram': 5623, 'log': 1729,
            'wsig': 4852, 'depreg': 4078
        },
    },
    'blackscholes-none': {
        'runtime': 100610.0,
        'total_instructions': 320070,
        'mem_accesses': 5739,
        'l1_hits': 2457,
        'l1_misses': 1873,
        'l2_hits': 2962,
        'l2_misses': 320,
        'invalidations': 66,
        'base_messages': 1112,
        'dep_messages': 0,
        'protocol_messages': 0,
        'log_bytes': 960,
        'checkpoints': 0,
        'rollbacks': 0,
        'energy_events': {
            'l1': 5739, 'l2': 3386, 'dir': 386, 'dram': 386, 'log': 85
        },
    },
    'blackscholes-global': {
        'runtime': 102266.0,
        'total_instructions': 320070,
        'mem_accesses': 5739,
        'l1_hits': 2456,
        'l1_misses': 1874,
        'l2_hits': 2963,
        'l2_misses': 320,
        'invalidations': 66,
        'base_messages': 1112,
        'dep_messages': 0,
        'protocol_messages': 32,
        'log_bytes': 15800,
        'checkpoints': 2,
        'rollbacks': 0,
        'energy_events': {
            'l1': 5739, 'l2': 3387, 'dir': 386, 'dram': 1096, 'log': 440
        },
    },
    'blackscholes-rebound': {
        'runtime': 101209.0,
        'total_instructions': 320070,
        'mem_accesses': 5739,
        'l1_hits': 2456,
        'l1_misses': 1874,
        'l2_hits': 2963,
        'l2_misses': 320,
        'invalidations': 66,
        'base_messages': 1112,
        'dep_messages': 0,
        'protocol_messages': 40,
        'log_bytes': 15800,
        'checkpoints': 4,
        'rollbacks': 0,
        'energy_events': {
            'l1': 5739, 'l2': 3387, 'dir': 386, 'dram': 1092, 'log': 438,
            'wsig': 706, 'depreg': 208
        },
    },
    'blackscholes-rebound_nodwb': {
        'runtime': 102081.0,
        'total_instructions': 320070,
        'mem_accesses': 5739,
        'l1_hits': 2456,
        'l1_misses': 1874,
        'l2_hits': 2963,
        'l2_misses': 320,
        'invalidations': 66,
        'base_messages': 1112,
        'dep_messages': 0,
        'protocol_messages': 56,
        'log_bytes': 15800,
        'checkpoints': 4,
        'rollbacks': 0,
        'energy_events': {
            'l1': 5739, 'l2': 3387, 'dir': 386, 'dram': 1096, 'log': 440,
            'wsig': 719, 'depreg': 208
        },
    },
    'ocean-rebound-2faults': {
        'runtime': 472614.0,
        'total_instructions': 322103,
        'mem_accesses': 12001,
        'l1_hits': 1458,
        'l1_misses': 5156,
        'l2_hits': 5447,
        'l2_misses': 5096,
        'invalidations': 2072,
        'base_messages': 23011,
        'dep_messages': 3652,
        'protocol_messages': 56,
        'log_bytes': 57800,
        'checkpoints': 2,
        'rollbacks': 2,
        'energy_events': {
            'l1': 12001, 'l2': 13097, 'dir': 8459, 'dram': 9440, 'log': 3138,
            'wsig': 8652, 'depreg': 7516
        },
    },
    'ocean-rebound-cluster2': {
        'runtime': 286672.0,
        'total_instructions': 322103,
        'mem_accesses': 7649,
        'l1_hits': 945,
        'l1_misses': 3294,
        'l2_hits': 3556,
        'l2_misses': 3148,
        'invalidations': 1299,
        'base_messages': 14505,
        'dep_messages': 2266,
        'protocol_messages': 40,
        'log_bytes': 41040,
        'checkpoints': 2,
        'rollbacks': 0,
        'energy_events': {
            'l1': 7649, 'l2': 7891, 'dir': 5487, 'dram': 6359, 'log': 2199,
            'wsig': 5388, 'depreg': 4640
        },
    },
    'ocean-rebound-io': {
        'runtime': 288353.0,
        'total_instructions': 322107,
        'mem_accesses': 7649,
        'l1_hits': 947,
        'l1_misses': 3292,
        'l2_hits': 3555,
        'l2_misses': 3147,
        'invalidations': 1298,
        'base_messages': 14497,
        'dep_messages': 2264,
        'protocol_messages': 80,
        'log_bytes': 53720,
        'checkpoints': 4,
        'rollbacks': 0,
        'energy_events': {
            'l1': 7649, 'l2': 7888, 'dir': 5485, 'dram': 6519, 'log': 2279,
            'wsig': 5455, 'depreg': 4632
        },
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_result_matches_golden(name):
    assert observe(execute_run(CASES[name])) == GOLDEN[name]
