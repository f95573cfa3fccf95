"""RL001 — fork-safety: scheduled callbacks must be ``DurableCall``\\ s.

``Machine.fork`` (the vectorized campaign executor's replica spill)
deep-copies the event heap; ``copy.deepcopy`` treats functions as
atomic, so a scheduled closure would keep firing into the *parent*
machine.  The machine therefore has one callback kind,
:class:`~repro.sim.events.DurableCall`, and no runtime guard: this rule
keeps closures out at the source, inside ``repro.sim`` and
``repro.core``:

* any ``<obj>.schedule(...)`` call — the removed closure-scheduling
  entry point must not come back;
* a ``lambda`` argument to ``schedule_call`` or a heap push;
* a locally-defined function (a closure by construction) passed by
  name to ``schedule_call`` or a heap push.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.framework import Finding, ModuleContext, Rule

#: Callables whose arguments must stay closure-free: the DurableCall
#: scheduling entry point and raw event-heap pushes.
_SINKS = ("schedule_call", "heappush")


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class _ForkSafetyVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: List[Finding] = []
        #: Names of functions defined inside an enclosing function —
        #: closures by construction, one scope set per nesting level.
        self._local_fns: list[set[str]] = []

    # -- scope tracking ----------------------------------------------------
    def _visit_function(self, node) -> None:
        if self._local_fns:
            self._local_fns[-1].add(node.name)
        self._local_fns.append(set())
        self.generic_visit(node)
        self._local_fns.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _is_local_fn(self, name: str) -> bool:
        return any(name in scope for scope in self._local_fns)

    # -- the checks --------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name == "schedule" and isinstance(node.func, ast.Attribute):
            self.findings.append(Finding(
                self.ctx.relpath, node.lineno, "RL001",
                "legacy closure scheduling (Machine.schedule); use "
                "schedule_call with a DurableCall so forks stay sound"))
        elif name in _SINKS:
            for arg in ast.walk(node):
                if isinstance(arg, ast.Lambda):
                    self.findings.append(Finding(
                        self.ctx.relpath, arg.lineno, "RL001",
                        f"lambda passed to {name}; scheduled callbacks "
                        f"must be DurableCalls (deepcopy treats "
                        f"functions as atomic, breaking Machine.fork)"))
                elif isinstance(arg, ast.Name) \
                        and self._is_local_fn(arg.id):
                    self.findings.append(Finding(
                        self.ctx.relpath, arg.lineno, "RL001",
                        f"local function {arg.id!r} passed to {name}; "
                        f"scheduled callbacks must be DurableCalls "
                        f"(a closure would fire into the pre-fork "
                        f"machine)"))
        self.generic_visit(node)


class ForkSafetyRule(Rule):
    code = "RL001"
    name = "fork-safety"
    description = ("no lambda/closure/local-function callbacks through "
                   "Machine.schedule, schedule_call or heap pushes in "
                   "repro.sim / repro.core — only DurableCall")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_packages("sim", "core"):
            return iter(())
        visitor = _ForkSafetyVisitor(ctx)
        visitor.visit(ctx.tree)
        return iter(visitor.findings)
