"""The ``reprolint`` rule framework: findings, registry, runner, output.

The repository rests on three contracts that, before this module, were
enforced only *dynamically* — after the damage was done:

* **Determinism** — the content-addressed result/workload caches
  (:mod:`repro.harness.engine`, :mod:`repro.harness.workload_store`)
  silently serve wrong entries if two runs of the same key can differ.
* **Fork-safety** — every scheduled callback must be a
  :class:`~repro.sim.events.DurableCall`; ``Machine.fork`` deep-copies
  the event heap, so a closure pushed onto it would fire into the
  parent machine instead of the replica.
* **Fingerprint coverage** — every module that can affect a
  ``SimStats`` must be hashed by ``code_fingerprint()``, or a code
  change keeps serving stale cache entries.

``reprolint`` proves these statically, before a poisoned cache or a
degraded batch exists.  The framework mirrors the scheme/workload
registries: every rule is a named entry (``RL001`` ...) in a
string-keyed registry; :func:`run_lint` parses the tree once and
dispatches each module (and the whole project) to the selected rules.

Suppressions are line-scoped comments::

    machine.schedule_call(when, cb)  # reprolint: disable=RL001
    x = hazard()                     # reprolint: disable=RL002,RL004
    y = hazard()                     # reprolint: disable=all

Output is human text (``path:line: CODE message``) or JSON
(``--json``); the run exits non-zero iff unsuppressed findings remain.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

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
]


class LintError(RuntimeError):
    """The lint run itself is invalid (unknown rule, unparseable file)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source line."""

    path: str          # project-relative posix path
    line: int
    code: str          # rule code, e.g. "RL001"
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_json(self) -> dict:
        return {"path": self.path, "line": self.line,
                "code": self.code, "message": self.message}


@dataclass(frozen=True)
class Project:
    """What to lint: a package directory plus its cache contracts.

    ``root`` is the *package* directory (the one holding the top-level
    ``__init__.py``); module paths are read relative to it, so rule
    scoping (``sim/``, ``core/``, ...) works the same for the shipped
    tree and for fixture trees.  ``fingerprint_paths`` is the exact
    file set the result cache's code fingerprint hashes (``None``
    means every file under ``root``); ``entrypoints`` are the function
    names whose import closure that set must cover.
    """

    root: Path
    package: str = "repro"
    fingerprint_paths: Optional[frozenset[Path]] = None
    entrypoints: tuple[str, ...] = ("execute_run", "run_replica_batch")


def default_project() -> Project:
    """The shipped ``repro`` tree, with the fingerprint file set taken
    from the engine itself — the linter audits the contract the result
    cache actually enforces, not a copy of it."""
    from repro.harness.engine import fingerprint_paths

    root = Path(__file__).resolve().parents[1]
    return Project(root=root, package="repro",
                   fingerprint_paths=frozenset(
                       path.resolve() for path in fingerprint_paths()))


#: ``# reprolint: disable=RL001`` / ``disable=RL001,RL002`` / ``disable=all``
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Line number -> codes suppressed on that line (``all`` wildcard
    included verbatim)."""
    table: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            codes = frozenset(token.strip()
                              for token in match.group(1).split(","))
            table[lineno] = codes
    return table


@dataclass
class ModuleContext:
    """One parsed source module, as the per-module rule hook sees it."""

    path: Path                 # absolute
    relpath: str               # posix path relative to the project root
    module: str                # dotted module name ("repro.sim.machine")
    tree: ast.Module
    source: str
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    def in_packages(self, *prefixes: str) -> bool:
        """True when the module lives under one of the given top-level
        subpackage prefixes (``"sim"``, ``"core"``, ...)."""
        return any(self.relpath.startswith(prefix + "/")
                   or self.relpath == prefix + ".py"
                   for prefix in prefixes)


@dataclass
class ProjectContext:
    """The whole parsed project, as the project-wide rule hook sees it."""

    project: Project
    modules: list[ModuleContext]

    def module_by_name(self, name: str) -> Optional[ModuleContext]:
        for ctx in self.modules:
            if ctx.module == name:
                return ctx
        return None


class Rule:
    """One named contract check.

    Subclasses set ``code``/``name``/``description`` and override
    :meth:`check_module` (called once per parsed file) and/or
    :meth:`check_project` (called once with the whole tree — import
    graphs, cross-module type lookups).  Both return findings; the
    runner handles selection, suppression and ordering.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        return iter(())


#: code -> rule instance (mirrors the scheme/workload registries).
_RULES: dict[str, Rule] = {}


def register_rule(rule: Rule, *, replace: bool = False) -> Rule:
    """Register ``rule`` under its code; out-of-tree checks plug in the
    same way the production rules do."""
    if not rule.code or not isinstance(rule.code, str):
        raise ValueError(f"rule code must be a non-empty string, "
                         f"got {rule.code!r}")
    if rule.code in _RULES and not replace:
        raise ValueError(f"rule {rule.code!r} is already registered; "
                         f"pass replace=True to override it")
    _RULES[rule.code] = rule
    return rule


def unregister_rule(code: str) -> None:
    """Remove a registered rule (test hygiene)."""
    if code not in _RULES:
        raise KeyError(f"rule {code!r} is not registered")
    del _RULES[code]


def registered_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(_RULES[code] for code in sorted(_RULES))


def resolve_rules(codes: Optional[Iterable[str]]) -> tuple[Rule, ...]:
    """The rules selected by ``codes`` (None = all), rejecting unknown
    codes with the known set in the message."""
    if codes is None:
        return registered_rules()
    selected = []
    for code in codes:
        try:
            selected.append(_RULES[code])
        except KeyError:
            raise LintError(
                f"unknown rule {code!r}; known: {sorted(_RULES)}"
                ) from None
    return tuple(selected)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding]
    suppressed: int
    checked_files: int
    rules: tuple[str, ...]
    root: str

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        status = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        lines.append(
            f"reprolint: {status} across {self.checked_files} file(s), "
            f"{self.suppressed} suppressed "
            f"[{','.join(self.rules)}]")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "root": self.root,
            "rules": list(self.rules),
            "checked_files": self.checked_files,
            "suppressed": self.suppressed,
            "ok": self.ok,
            "findings": [finding.to_json() for finding in self.findings],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _parse_modules(project: Project) -> list[ModuleContext]:
    modules = []
    for path in sorted(project.root.rglob("*.py")):
        relpath = path.relative_to(project.root).as_posix()
        parts = [project.package] + relpath[:-3].split("/")
        if parts[-1] == "__init__":
            parts.pop()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"{relpath}:{exc.lineno}: "
                            f"cannot parse: {exc.msg}") from None
        modules.append(ModuleContext(
            path=path, relpath=relpath, module=".".join(parts),
            tree=tree, source=source,
            suppressions=parse_suppressions(source)))
    return modules


def run_lint(project: Optional[Project] = None,
             rules: Optional[Sequence[str]] = None) -> LintReport:
    """Lint ``project`` (default: the shipped tree) with the selected
    ``rules`` (default: all registered), returning a :class:`LintReport`
    with suppressions already applied."""
    if project is None:
        project = default_project()
    selected = resolve_rules(rules)
    modules = _parse_modules(project)
    ctx = ProjectContext(project=project, modules=modules)
    raw: list[Finding] = []
    for rule in selected:
        for module in modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(ctx))
    suppressions = {module.relpath: module.suppressions
                    for module in modules}
    findings: list[Finding] = []
    suppressed = 0
    for finding in sorted(set(raw)):
        codes = suppressions.get(finding.path, {}).get(finding.line)
        if codes and (finding.code in codes or "all" in codes):
            suppressed += 1
        else:
            findings.append(finding)
    return LintReport(findings=findings, suppressed=suppressed,
                      checked_files=len(modules),
                      rules=tuple(rule.code for rule in selected),
                      root=str(project.root))
