"""Module symbol tables and the import/call graph for reprolint v2.

The per-file rules (REP001–REP022) see one AST at a time, so a wall-clock
value laundered through a helper in another module, or a span kind
assembled from a constant defined elsewhere, is invisible to them.  This
module builds the *project-level* picture those gaps require:

* :class:`ModuleInfo` — one module's import bindings (absolute and
  relative, aliases resolved), module-level constants, and every function
  and method keyed by qualified name;
* an approximate call graph — call sites resolved through the import
  table to ``module:qualname`` node ids.

The approximation is deliberately conservative and its false-negative
edges are documented in DESIGN.md: calls through variables, containers,
``getattr``, and method calls on values whose class we cannot name are
not resolved, and function parameters are never treated as taint
carriers.  The analysis only ever *misses* edges; it never invents them,
so every cross-module finding is backed by a resolvable chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import FileContext, dotted_name


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    module: str
    qualname: str          # "helper" or "ClassName.method"
    node: ast.AST          # FunctionDef | AsyncFunctionDef

    @property
    def node_id(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


class ModuleInfo:
    """Symbol table for one parsed module."""

    def __init__(self, ctx: FileContext, is_package: bool) -> None:
        self.ctx = ctx
        self.module = ctx.module
        self.path = ctx.path
        self.is_package = is_package
        #: local binding -> dotted target; "pkg.mod" for module imports,
        #: "pkg.mod.symbol" for from-imports.
        self.imports: Dict[str, str] = {}
        #: module-level NAME = <expr> bindings (last write wins).
        self.constants: Dict[str, ast.expr] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: id(FunctionDef node) -> qualname, for call-site attribution.
        self.qualname_of_node: Dict[int, str] = {}
        self.classes: Set[str] = set()
        self._collect()

    # -- construction ------------------------------------------------------

    def _collect(self) -> None:
        for node in self.ctx.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a`` to package ``a``.
                        root = alias.name.split(".")[0]
                        self.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{base}.{alias.name}" \
                        if base else alias.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = self._qualname(node)
                self.functions[qualname] = FunctionInfo(
                    self.module, qualname, node)
                self.qualname_of_node[id(node)] = qualname
            elif isinstance(node, ast.ClassDef) \
                    and self.ctx.enclosing_function(node) is None:
                self.classes.add(node.name)
            elif isinstance(node, ast.Assign) \
                    and self._is_module_level(node):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.constants[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) \
                    and self._is_module_level(node) \
                    and isinstance(node.target, ast.Name) \
                    and node.value is not None:
                self.constants[node.target.id] = node.value

    def _is_module_level(self, node: ast.AST) -> bool:
        parent = self.ctx.parent(node)
        return parent is self.ctx.tree

    def _qualname(self, node: ast.AST) -> str:
        parts: List[str] = [getattr(node, "name", "<lambda>")]
        for ancestor in self.ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                parts.append(ancestor.name)
        return ".".join(reversed(parts))

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted base for a (possibly relative) from-import."""
        if node.level == 0:
            return node.module or ""
        package = self.module.split(".") if self.is_package \
            else self.module.split(".")[:-1]
        # level=1 is the package itself; each extra dot strips a segment.
        strip = node.level - 1
        if strip > len(package):
            return None
        base_parts = package[:len(package) - strip] if strip else package
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    # -- queries -----------------------------------------------------------

    def expand(self, dotted: str) -> str:
        """Rewrite a local dotted name through the import table.

        ``connection.Pipe`` becomes ``multiprocessing.connection.Pipe``
        when the module did ``from multiprocessing import connection``.
        Names with no
        import binding are returned unchanged (they are locals, builtins,
        or module-level definitions of this module).
        """
        if not dotted:
            return dotted
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


@dataclass
class CallSite:
    """One resolved call edge: caller function -> callee node id."""

    caller: str            # "module:qualname" or "module:<module>"
    callee: str            # "module:qualname"
    node: ast.Call


@dataclass
class CallGraph:
    """Approximate project call graph over resolved ``module:qualname``."""

    edges: List[CallSite] = field(default_factory=list)
    by_caller: Dict[str, List[CallSite]] = field(default_factory=dict)
    by_callee: Dict[str, List[CallSite]] = field(default_factory=dict)

    def add(self, site: CallSite) -> None:
        self.edges.append(site)
        self.by_caller.setdefault(site.caller, []).append(site)
        self.by_callee.setdefault(site.callee, []).append(site)

    def callees_of(self, caller: str) -> Iterator[str]:
        for site in self.by_caller.get(caller, ()):
            yield site.callee

    def reaches(self, start: str, targets: Set[str],
                limit: int = 10000) -> Optional[List[str]]:
        """BFS path from ``start`` to any node in ``targets``, or None."""
        if start in targets:
            return [start]
        seen = {start}
        frontier: List[Tuple[str, List[str]]] = [(start, [start])]
        steps = 0
        while frontier and steps < limit:
            node, path = frontier.pop(0)
            for callee in self.callees_of(node):
                steps += 1
                if callee in targets:
                    return path + [callee]
                if callee not in seen:
                    seen.add(callee)
                    frontier.append((callee, path + [callee]))
        return None
