"""Machine and checkpointing configuration for the Rebound reproduction.

The defaults mirror Figure 4.3(a) of the paper: single-issue 1 GHz cores,
private write-through L1 and write-back L2 caches, a full-map directory,
two DDR2-667 memory channels, 4M-instruction checkpoint intervals and up
to four sets of Dep registers.

Because a pure-Python simulator cannot execute 64 x 4M instructions per
data point, :meth:`MachineConfig.scaled` shrinks the checkpoint interval
and the cache capacities *together* (default factor 40), which preserves
the ratio of checkpoint writeback volume to interval length -- the
quantity that determines every overhead percentage in Chapter 6.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace
from typing import Optional

#: Cache line size used throughout the paper (bytes).
LINE_BYTES = 32

#: Bytes of a log entry: PID + physical address + old line data (Sec 3.3.3).
LOG_ENTRY_BYTES = 8 + LINE_BYTES


def env_flag(name: str, default: Optional[bool]) -> Optional[bool]:
    """Read the on/off environment variable ``name``.

    Unset or empty gives ``default``.  Anything other than
    1/0/on/off/true/false/yes/no (any case) is rejected with a one-line
    error naming the variable: a typo like ``REPRO_VECTOR=fasle`` must
    not silently pick either behaviour.  Lives here because both the
    simulator and the harness import this module.
    """
    text = os.environ.get(name)
    if not text:
        return default
    lower = text.strip().lower()
    if lower in ("1", "on", "true", "yes"):
        return True
    if lower in ("0", "off", "false", "no"):
        return False
    raise ValueError(f"{name} must be one of 1/0/on/off/true/false/"
                     f"yes/no, got {text!r}")


class Scheme(enum.Enum):
    """Checkpointing schemes evaluated in the paper (Figure 4.3a)."""

    NONE = "none"                     # no checkpointing (overhead baseline)
    GLOBAL = "global"                 # ReVive-style global checkpointing
    GLOBAL_DWB = "global_dwb"         # Global + delayed writebacks
    REBOUND = "rebound"               # proposed scheme (with delayed WBs)
    REBOUND_NODWB = "rebound_nodwb"   # Rebound without delayed writebacks
    REBOUND_BARR = "rebound_barr"     # Rebound + barrier optimization
    REBOUND_NODWB_BARR = "rebound_nodwb_barr"

    @property
    def is_local(self) -> bool:
        """True for coordinated-local (Rebound) schemes."""
        return self.value.startswith("rebound")

    @property
    def delayed_writebacks(self) -> bool:
        """True when dirty lines drain in the background at checkpoints."""
        return self in (Scheme.GLOBAL_DWB, Scheme.REBOUND, Scheme.REBOUND_BARR)

    @property
    def barrier_optimization(self) -> bool:
        """True when the proactive BarCK checkpoint of Sec 4.2.1 is used."""
        return self in (Scheme.REBOUND_BARR, Scheme.REBOUND_NODWB_BARR)

    @property
    def tracks_dependences(self) -> bool:
        """True when LW-ID / Dep registers are maintained (local schemes)."""
        return self.is_local


@dataclass(frozen=True)
class SchemeTag:
    """Scheme identity for out-of-tree checkpointing schemes.

    The built-in schemes are :class:`Scheme` enum members; experimental
    schemes registered through :func:`repro.core.factory.register_scheme`
    get a ``SchemeTag`` instead — a frozen, picklable value exposing the
    same policy properties the simulator reads off ``config.scheme``
    (``value``, ``is_local``, ``delayed_writebacks``,
    ``barrier_optimization``, ``tracks_dependences``), so it can sit in
    a :class:`MachineConfig` or a ``RunKey`` like any enum member.
    """

    value: str
    is_local: bool = False
    delayed_writebacks: bool = False
    barrier_optimization: bool = False

    @property
    def tracks_dependences(self) -> bool:
        return self.is_local


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = LINE_BYTES
    hit_cycles: int = 2

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return max(1, self.size_bytes // (self.assoc * self.line_bytes))


@dataclass(frozen=True)
class MachineConfig:
    """Full manycore configuration (Figure 4.3a plus Rebound parameters)."""

    n_cores: int = 64

    # --- memory hierarchy -------------------------------------------------
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024, 4, hit_cycles=2))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, hit_cycles=8))
    remote_l2_cycles: int = 60        # round trip to another tile's L2 (avg)
    memory_cycles: int = 200          # round trip to main memory
    n_mem_channels: int = 2

    # Channel occupancies (cycles a 32B transfer keeps a channel busy).
    # DDR2-667 x2 channels ~ 10.6 GB/s aggregate at 1 GHz -> ~3 cycles per
    # 32B line per channel-pair; a *logged* writeback additionally reads the
    # old value and appends a log entry (ReVive, Sec 3.3.3).
    dram_occupancy: int = 3
    logged_wb_occupancy: int = 6
    restore_occupancy: int = 6        # per log entry undone during rollback

    # --- checkpointing ----------------------------------------------------
    scheme: Scheme = Scheme.REBOUND
    checkpoint_interval: int = 4_000_000   # instructions (Fig 4.3a)
    detection_latency: int = 500_000       # L, cycles (upper bound; Sec 3.2)
    n_dep_sets: int = 4                    # maximum Dep register sets
    wsig_bits: int = 1024                  # Write Signature size (Fig 4.3a)
    wsig_hashes: int = 4

    # Software-protocol costs (cross-processor interrupts + memory flags are
    # costed as interconnect round trips, Sec 3.3.4).
    msg_cycles: int = 60
    sync_cycles: int = 120                 # one coordination sync
    backoff_max: int = 2_000               # random back-off after Busy
    io_cycles: int = 500                   # device-visible output operation

    # Delayed-writeback drain: cycles between successive background line
    # writebacks from one L2 controller (Sec 4.1), and the accelerated
    # period used after a Nack forces the drain to hurry up.
    dwb_drain_period: int = 12
    dwb_fast_period: int = 4
    # Extra queueing suffered by a demand memory access per active
    # background-writeback stream sharing its channel (IPCDelay source).
    dwb_demand_penalty: int = 2

    # A processor is "interested" in a barrier checkpoint when it has run
    # at least this fraction of its checkpoint interval (Sec 4.2.1) — i.e.
    # it would soon checkpoint anyway, so it proactively does it at the
    # barrier where the writebacks hide behind the imbalance time.
    barrier_interest_fraction: float = 0.85

    # Cluster-granular dependence tracking (Chapter 8, future work):
    # with a value k > 1 each MyProducers/MyConsumers bit names a cluster
    # of k consecutive processors rather than one processor, shrinking
    # the Dep registers; inside a cluster checkpointing is effectively
    # global.  1 = the paper's per-processor tracking.
    dep_cluster_size: int = 1

    # --- misc ---------------------------------------------------------------
    seed: int = 1                      # protocol back-off randomness
    track_values: bool = True          # architectural value tracking
    check_coherence: bool = False      # golden-model assertion on every load

    # ------------------------------------------------------------------
    @staticmethod
    def paper(n_cores: int = 64, scheme: Scheme = Scheme.REBOUND) -> "MachineConfig":
        """The configuration of Figure 4.3(a), unscaled."""
        return MachineConfig(n_cores=n_cores, scheme=scheme)

    @staticmethod
    def scaled(n_cores: int = 64, scheme: Scheme = Scheme.REBOUND,
               scale: int = 40, **overrides) -> "MachineConfig":
        """Paper configuration shrunk by ``scale`` for tractable simulation.

        The checkpoint interval, cache capacities, detection latency and
        back-off window all shrink together so overhead *percentages* are
        preserved (see DESIGN.md section 3).
        """
        base = MachineConfig(
            n_cores=n_cores,
            scheme=scheme,
            l1=CacheConfig(max(512, 16 * 1024 // scale), 4, hit_cycles=2),
            l2=CacheConfig(max(2048, 256 * 1024 // scale), 8, hit_cycles=8),
            checkpoint_interval=max(5_000, 4_000_000 // scale),
            detection_latency=max(2_000, 500_000 // scale),
            backoff_max=max(200, 2_000),
            wsig_bits=256,
        )
        return replace(base, **overrides) if overrides else base

    def with_scheme(self, scheme: Scheme) -> "MachineConfig":
        """A copy of this configuration running a different scheme."""
        return replace(self, scheme=scheme)

    def replace(self, **overrides) -> "MachineConfig":
        """A copy of this configuration with ``overrides`` applied."""
        return replace(self, **overrides)
