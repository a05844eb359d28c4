"""Whole-program lint driver: ProjectContext and project rules.

``lint_paths`` runs each file's rules in isolation.  ``lint_project``
layers two things on top:

* :class:`ProjectContext` — every file parsed once, wired into the
  import graph / symbol tables / approximate call graph from
  :mod:`repro.lint.graph`;
* :class:`ProjectRule` — rules that see the whole project instead of a
  single :class:`FileContext` (the REP03x/REP04x/REP05x families).

Pragma suppression applies to project findings exactly as it does to
per-file findings: a ``# reprolint: disable=REP030`` on the flagged
statement's lines suppresses the cross-module finding too.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import (META_RULE, FileContext, Finding, LintResult, Rule,
                     apply_baseline, dotted_name, iter_python_files,
                     lint_source)
from .graph import CallGraph, CallSite, FunctionInfo, ModuleInfo

class ProjectRule(Rule):
    """Base class for whole-program rules.

    Subclasses implement :meth:`check_project`; the per-file
    :meth:`check` is a no-op so a ProjectRule can sit in a plain rule
    list without firing twice.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError

    def at_ctx(self, ctx: FileContext, node: ast.AST,
               message: Optional[str] = None,
               hint: Optional[str] = None) -> Finding:
        return self.at(ctx, node, message, hint)


class ProjectContext:
    """Every file parsed once: modules, constants, and the call graph."""

    def __init__(self, entries: Sequence[Tuple[str, str]],
                 known_ids: Set[str]) -> None:
        """``entries`` is a sequence of (path, source) pairs."""
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        #: files that failed to parse: (path, message); they contribute
        #: nothing to the graph but are not fatal to the project pass.
        self.broken: List[Tuple[str, str]] = []
        self.functions_by_id: Dict[str, FunctionInfo] = {}
        self.call_graph = CallGraph()
        #: last path segment of every call target, per caller package root
        #: ("repro", "tests", ...) — the conservative "is it ever called"
        #: signal behind REP050.
        self.called_names: Dict[str, Set[str]] = {}
        for path, source in entries:
            try:
                ctx = FileContext(path, source, known_ids)
            except SyntaxError as exc:
                self.broken.append((path, exc.msg or "syntax error"))
                continue
            is_package = path.endswith("__init__.py")
            info = ModuleInfo(ctx, is_package)
            self.modules[info.module] = info
            self.by_path[ctx.path] = info
        for info in self.modules.values():
            self.functions_by_id.update(
                {fn.node_id: fn for fn in info.functions.values()})
        for info in self.modules.values():
            self._index_calls(info)

    # -- resolution --------------------------------------------------------

    def split_module(self, dotted: str) -> Tuple[Optional[str], str]:
        """Longest known-module prefix of ``dotted`` plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, ".".join(parts[cut:])
        return None, dotted

    def resolve_function(self, info: ModuleInfo, dotted: str,
                         depth: int = 0) -> Optional[FunctionInfo]:
        """Resolve a (local) dotted callee name to its definition."""
        if depth > 8 or not dotted:
            return None
        expanded = info.expand(dotted)
        if expanded in info.functions:
            return info.functions[expanded]
        if expanded in info.classes:
            return info.functions.get(f"{expanded}.__init__")
        owner, rest = self.split_module(expanded)
        if owner is None or not rest:
            return None
        target = self.modules[owner]
        if rest in target.functions:
            return target.functions[rest]
        if rest in target.classes:
            return target.functions.get(f"{rest}.__init__")
        if target is not info and rest in target.imports:
            return self.resolve_function(target, rest, depth + 1)
        return None

    def resolve_constant(self, info: ModuleInfo, dotted: str,
                         depth: int = 0) -> Optional[ast.expr]:
        """Chase a dotted name to the module-level expression it binds.

        Follows import aliases and re-exports across modules, and chases
        constant-to-constant chains (``A = B`` where ``B = "literal"``).
        Returns None when the chain leaves the analyzed project.
        """
        if depth > 8 or not dotted:
            return None
        expanded = info.expand(dotted)
        if "." not in expanded and expanded in info.constants:
            return self._chase(info, info.constants[expanded], depth)
        owner, rest = self.split_module(expanded)
        if owner is None or not rest or "." in rest:
            return None
        target = self.modules[owner]
        if rest in target.constants:
            return self._chase(target, target.constants[rest], depth)
        if target is not info and rest in target.imports:
            return self.resolve_constant(target, rest, depth + 1)
        return None

    def _chase(self, info: ModuleInfo, expr: ast.expr,
               depth: int) -> Optional[ast.expr]:
        name = dotted_name(expr)
        if name:
            resolved = self.resolve_constant(info, name, depth + 1)
            if resolved is not None:
                return resolved
        return expr

    # -- call graph --------------------------------------------------------

    def _index_calls(self, info: ModuleInfo) -> None:
        root = info.module.split(".")[0]
        names = self.called_names.setdefault(root, set())
        for node in info.ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if not dotted:
                continue
            names.add(dotted.split(".")[-1])
            enclosing = info.ctx.enclosing_function(node)
            if enclosing is not None:
                caller_qual = info.qualname_of_node.get(id(enclosing), "?")
                caller = f"{info.module}:{caller_qual}"
            else:
                caller = f"{info.module}:<module>"
            callee = self._resolve_callee(info, dotted, caller)
            if callee is not None:
                self.call_graph.add(CallSite(caller, callee.node_id, node))

    def _resolve_callee(self, info: ModuleInfo, dotted: str,
                        caller: str) -> Optional[FunctionInfo]:
        if dotted.startswith("self."):
            # Method call on the caller's own class: resolvable whenever
            # the attribute chain is a direct method of that class.
            caller_qual = caller.split(":", 1)[1]
            if "." in caller_qual:
                class_name = caller_qual.rsplit(".", 1)[0]
                candidate = f"{class_name}.{dotted[len('self.'):]}"
                if candidate in info.functions:
                    return info.functions[candidate]
            return None
        return self.resolve_function(info, dotted)

    # -- convenience -------------------------------------------------------

    def repro_modules(self) -> Iterator[ModuleInfo]:
        for name in sorted(self.modules):
            if name == "repro" or name.startswith("repro."):
                yield self.modules[name]

    def suppresses(self, finding: Finding) -> bool:
        info = self.by_path.get(finding.path)
        if info is None:
            return False
        return info.ctx.pragmas.suppresses(finding)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lint_project(paths: Sequence[str], rules: Sequence[Rule],
                 project_rules: Sequence[ProjectRule],
                 baseline_path: Optional[str] = None,
                 known_ids: Optional[Set[str]] = None) -> LintResult:
    """Run per-file rules plus whole-program rules over ``paths``."""
    if known_ids is None:
        known_ids = ({rule.id for rule in rules}
                     | {rule.id for rule in project_rules})

    sources: Dict[str, str] = {}
    findings: List[Finding] = []
    file_count = 0
    for file_path in iter_python_files(paths):
        file_count += 1
        key = file_path.as_posix()
        try:
            sources[key] = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(Finding(META_RULE, key, 1, 0,
                                    f"cannot read file: {exc}", ""))
    entries = sorted(sources.items())
    for key, source in entries:
        findings.extend(lint_source(source, key, rules, known_ids=known_ids))

    project = ProjectContext(entries, known_ids)
    project_findings = [finding
                        for rule in project_rules
                        for finding in rule.check_project(project)
                        if not project.suppresses(finding)]
    project_findings.sort(key=lambda f: f.sort_key)
    findings.extend(project_findings)

    result = apply_baseline(findings, baseline_path, known_ids, file_count)
    result.module_count = len(project.modules)
    result.call_edges = len(project.call_graph.edges)
    return result
