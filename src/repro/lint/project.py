"""Whole-program lint driver: ProjectContext, project rules, and caching.

``lint_paths`` runs each file's rules in isolation.  ``lint_project``
layers three things on top:

* :class:`ProjectContext` — every file parsed once, wired into the
  import graph / symbol tables / approximate call graph from
  :mod:`repro.lint.graph`;
* :class:`ProjectRule` — rules that see the whole project instead of a
  single :class:`FileContext` (the REP03x/REP04x/REP05x families);
* an incremental cache — per-file findings keyed by a blake2b hash of
  the source (plus the rule-id signature), and project-level findings
  keyed by a tree hash over *all* file hashes, so a warm run re-parses
  nothing.  Any single file change invalidates the project graph but
  leaves every other file's per-file findings warm.

Pragma suppression applies to project findings exactly as it does to
per-file findings: a ``# reprolint: disable=REP030`` on the flagged
statement's lines suppresses the cross-module finding too.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import (META_RULE, FileContext, Finding, LintResult, Rule,
                     apply_baseline, dotted_name, iter_python_files,
                     lint_source)
from .graph import CallGraph, CallSite, FunctionInfo, ModuleInfo

#: Bump when the cache payload layout or analysis semantics change.
CACHE_VERSION = 1

CACHE_FILENAME = "reprolint-cache.json"


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
# Incremental cache
# ---------------------------------------------------------------------------


def _source_hash(source: str) -> str:
    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).hexdigest()


def _rules_signature(rules: Sequence[Rule],
                     project_rules: Sequence[ProjectRule]) -> str:
    payload = json.dumps({
        "version": CACHE_VERSION,
        "rules": sorted(r.id for r in rules),
        "project_rules": sorted(r.id for r in project_rules),
    }, sort_keys=True)
    return hashlib.blake2b(payload.encode("utf-8"),
                           digest_size=16).hexdigest()


def _tree_hash(file_hashes: Dict[str, str]) -> str:
    payload = "\n".join(f"{path}:{digest}"
                        for path, digest in sorted(file_hashes.items()))
    return hashlib.blake2b(payload.encode("utf-8"),
                           digest_size=16).hexdigest()


def _findings_to_json(findings: Sequence[Finding]) -> List[Dict[str, object]]:
    return [finding.to_dict() for finding in findings]


def _findings_from_json(raw: object) -> Optional[List[Finding]]:
    if not isinstance(raw, list):
        return None
    findings: List[Finding] = []
    for item in raw:
        if not isinstance(item, dict):
            return None
        try:
            findings.append(Finding(
                rule=str(item["rule"]), path=str(item["path"]),
                line=int(item["line"]), col=int(item["col"]),
                message=str(item["message"]),
                hint=str(item.get("hint", ""))))
        except (KeyError, TypeError, ValueError):
            return None
    return findings


class _Cache:
    """JSON cache: per-file findings plus the project-level result."""

    def __init__(self, cache_dir: Optional[str], signature: str) -> None:
        self.path = Path(cache_dir) / CACHE_FILENAME if cache_dir else None
        self.signature = signature
        self.files: Dict[str, Dict[str, object]] = {}
        self.project: Dict[str, object] = {}
        if self.path is not None and self.path.exists():
            try:
                payload = json.loads(self.path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = {}
            if isinstance(payload, dict) \
                    and payload.get("signature") == signature:
                files = payload.get("files")
                project = payload.get("project")
                if isinstance(files, dict):
                    self.files = files
                if isinstance(project, dict):
                    self.project = project

    def file_findings(self, path: str,
                      digest: str) -> Optional[List[Finding]]:
        entry = self.files.get(path)
        if not isinstance(entry, dict) or entry.get("hash") != digest:
            return None
        return _findings_from_json(entry.get("findings"))

    def project_findings(self, tree_digest: str,
                         ) -> Optional[Tuple[List[Finding], int, int]]:
        if self.project.get("tree_hash") != tree_digest:
            return None
        findings = _findings_from_json(self.project.get("findings"))
        if findings is None:
            return None
        try:
            modules = int(self.project.get("module_count", 0))  # type: ignore[arg-type]
            edges = int(self.project.get("call_edges", 0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        return findings, modules, edges

    def store(self, file_hashes: Dict[str, str],
              file_findings: Dict[str, List[Finding]], tree_digest: str,
              project_findings: Sequence[Finding], module_count: int,
              call_edges: int) -> None:
        if self.path is None:
            return
        payload = {
            "signature": self.signature,
            "files": {
                path: {"hash": file_hashes[path],
                       "findings": _findings_to_json(file_findings[path])}
                for path in file_hashes
            },
            "project": {
                "tree_hash": tree_digest,
                "findings": _findings_to_json(project_findings),
                "module_count": module_count,
                "call_edges": call_edges,
            },
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(payload, sort_keys=True),
                                 encoding="utf-8")
        except OSError:
            pass  # a cache that cannot be written is just a cold cache


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lint_project(paths: Sequence[str], rules: Sequence[Rule],
                 project_rules: Sequence[ProjectRule],
                 baseline_path: Optional[str] = None,
                 cache_dir: Optional[str] = None,
                 known_ids: Optional[Set[str]] = None) -> LintResult:
    """Run per-file rules plus whole-program rules over ``paths``.

    Per-file findings are cached by source hash; project findings by the
    tree hash over every file hash, so any single change rebuilds the
    graph but leaves unchanged files' per-file analysis warm.
    """
    if known_ids is None:
        known_ids = ({rule.id for rule in rules}
                     | {rule.id for rule in project_rules})
    signature = _rules_signature(rules, project_rules)
    cache = _Cache(cache_dir, signature)

    sources: Dict[str, str] = {}
    file_hashes: Dict[str, str] = {}
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
            continue
        file_hashes[key] = _source_hash(sources[key])

    per_file: Dict[str, List[Finding]] = {}
    cache_hits = 0
    cold: List[str] = []
    for key in sorted(file_hashes):
        cached = cache.file_findings(key, file_hashes[key])
        if cached is not None:
            per_file[key] = cached
            cache_hits += 1
        else:
            cold.append(key)

    for key in cold:
        per_file[key] = lint_source(sources[key], key, rules,
                                    known_ids=known_ids)
    for key in sorted(per_file):
        findings.extend(per_file[key])

    tree_digest = _tree_hash(file_hashes)
    cached_project = cache.project_findings(tree_digest)
    if cached_project is not None:
        project_findings, module_count, call_edges = cached_project
        cache_hits += 1
    else:
        project = ProjectContext(sorted(sources.items()), known_ids)
        project_findings = []
        for rule in project_rules:
            for finding in rule.check_project(project):
                if not project.suppresses(finding):
                    project_findings.append(finding)
        project_findings.sort(key=lambda f: f.sort_key)
        module_count = len(project.modules)
        call_edges = len(project.call_graph.edges)
    findings.extend(project_findings)

    cache.store(file_hashes, per_file, tree_digest, project_findings,
                module_count, call_edges)

    result = apply_baseline(findings, baseline_path, known_ids, file_count)
    result.module_count = module_count
    result.call_edges = call_edges
    result.cache_hits = cache_hits
    return result
