"""RL006 fixture: scheme code mutating cache/directory state directly."""


def poke(self, machine, pid, addr):
    machine.engine.l2s[pid].invalidate(addr)
    machine.engine.l1s[pid].invalidate_all()
    machine.engine.l2s[pid].peek(addr).delayed = False
    machine.engine.directory.entry(addr).lw_id = None
    # Legal: a line the engine handed out is mutated through a bare
    # local — the engine-side call is the audited entry point; residency
    # itself changes only through the CoherenceEngine services.
    line = machine.engine.l2s[pid].peek(addr)
    line.delayed = False
    machine.engine.l2s[pid].invalidate(addr)  # reprolint: disable=RL006
