"""``reprolint``: contract-enforcing static analysis for the repro tree.

The codebase rests on three contracts that break silently at runtime —
a cache serves poisoned entries, a forked closure fires into the wrong
machine:
bit-determinism (the content-addressed result/workload caches),
fork-safety (every scheduled callback a ``DurableCall``), and
fingerprint coverage (every module that can affect a ``SimStats``
hashed by ``code_fingerprint()``).  ``reprolint`` proves them
statically.  Production rules:

========  ==================  ===========================================
code      name                contract
========  ==================  ===========================================
RL001     fork-safety         no closure callbacks through ``schedule``/
                              ``schedule_call``/heap pushes in
                              ``repro.sim``/``repro.core``
RL002     determinism         no wall clocks, OS entropy, global random
                              state, ``id()`` ordering or unordered-set
                              iteration in sim/core/workloads
RL003     fingerprint-        import closure of ``execute_run``/
          coverage            ``run_replica_batch`` ⊆ the
                              ``code_fingerprint()`` file set;
                              ``register_workload`` outside
                              ``repro/workloads`` passes ``fingerprint=``
RL004     cache-identity      types riding in ``RunKey``/``Overrides``/
                              store idents are frozen dataclasses,
                              Enums, or define ``__hash__``+``__repr__``
RL005     trace-              no in-place mutation of ``CompiledTrace``
          immutability        ``.ops``/``.args`` columns outside
                              ``trace.py`` — specs are shared across
                              runs (store LRU, mmap views, leaders)
RL006     fastpath-           no direct cache-line/directory mutation
          invalidation        outside ``coherence``/``mem`` — residency
                              changes funnel through the engine so the
                              fast-path filters stay coherent
========  ==================  ===========================================

Run it with ``python -m repro.harness lint [--json] [--rules RL001,...]``;
suppress a line with ``# reprolint: disable=CODE``.  Out-of-tree rules
register through :func:`register_rule`, mirroring the scheme/workload
registries.
"""

from repro.analysis.framework import (
    Finding,
    LintError,
    LintReport,
    ModuleContext,
    Project,
    ProjectContext,
    Rule,
    default_project,
    register_rule,
    registered_rules,
    resolve_rules,
    run_lint,
    unregister_rule,
)
from repro.analysis.rules_cache import CacheIdentityRule
from repro.analysis.rules_determinism import DeterminismRule
from repro.analysis.rules_fingerprint import FingerprintCoverageRule
from repro.analysis.rules_fork import ForkSafetyRule
from repro.analysis.rules_memsys import FastpathInvalidationRule
from repro.analysis.rules_trace import TraceImmutabilityRule

__all__ = [
    "Finding",
    "LintError",
    "LintReport",
    "ModuleContext",
    "Project",
    "ProjectContext",
    "Rule",
    "default_project",
    "register_rule",
    "registered_rules",
    "resolve_rules",
    "run_lint",
    "unregister_rule",
    "ForkSafetyRule",
    "DeterminismRule",
    "FingerprintCoverageRule",
    "CacheIdentityRule",
    "TraceImmutabilityRule",
    "FastpathInvalidationRule",
]


def _register_builtins() -> None:
    """The six production rules register themselves at import time,
    exactly like the built-in schemes and workloads do."""
    for rule_cls in (ForkSafetyRule, DeterminismRule,
                     FingerprintCoverageRule, CacheIdentityRule,
                     TraceImmutabilityRule, FastpathInvalidationRule):
        register_rule(rule_cls())


_register_builtins()
