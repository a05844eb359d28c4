"""reprolint: AST-based enforcement of the repo's coding invariants.

The determinism, byte-conservation, and observability guarantees (byte
identical parallel replay, traced-vs-untraced equality, the six
conservation invariants) all rest on *coding* conventions — seeded
per-record RNG streams, integer-only byte accounting, meter mutation
through the single Channel path — that the runtime auditor can only catch
after a violation has already corrupted a run.  This engine checks them
statically, at review time.

Architecture:

* :class:`FileContext` — one parsed file: AST with parent links, the
  dotted module name (derived from the path, overridable with a
  ``# reprolint: module=...`` pragma so fixtures can impersonate any
  module), set-binding scope tracking, and pragma suppression state;
* :class:`Rule` — base class; each rule walks one context (``check``) or
  every context of the run at once (``check_tree``) and yields
  :class:`Finding` objects with ``file:line``, rule id, and a fix hint;
* one pass — every file is parsed once, its per-file rules run, and the
  same contexts then feed the tree-wide checks;
* pragmas — the one suppression path: ``# reprolint: disable=REP001 why``
  suppresses the named rules on its own physical line and nowhere else; a
  pragma naming an unknown rule id, or any other directive, is itself a
  lint error (``REP000``), never silently ignored.

``REP000`` is reserved for meta errors (syntax errors, malformed pragmas,
unreadable files); no pragma can name it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Reserved id for engine-level problems; never suppressible.
META_RULE = "REP000"

_PRAGMA_PREFIX = "reprolint:"


@dataclass(frozen=True)
class Finding:
    """One invariant violation, pinned to ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


class Rule:
    """Base class for reprolint rules.

    Subclasses set ``id``/``summary``/``hint`` and implement
    :meth:`check` (findings within one :class:`FileContext`) or
    :meth:`check_tree` (findings that need every file of the run, such as
    "is this function called anywhere").
    """

    id: str = META_RULE
    summary: str = ""
    hint: str = ""

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        return iter(())

    def check_tree(self, contexts: Sequence["FileContext"],
                   ) -> Iterator[Finding]:
        return iter(())

    def at(self, ctx: "FileContext", node: ast.AST,
           message: Optional[str] = None) -> Finding:
        return Finding(
            rule=self.id, path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message if message is not None else self.summary,
            hint=self.hint)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain; "" when the chain is broken
    by a call, subscript, or any non-name expression."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def derive_module(path: str) -> str:
    """Dotted module for a file path: anchored at the last ``repro`` or
    ``tests`` path segment, falling back to the bare stem."""
    parts = list(PurePath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    for anchor in ("repro", "tests"):
        if anchor in parts:
            start = len(parts) - 1 - parts[::-1].index(anchor)
            dotted = [p for p in parts[start:] if p != "__init__"]
            return ".".join(dotted)
    return parts[-1] if parts else ""


@dataclass
class _Pragmas:
    """Parsed ``# reprolint:`` directives for one file."""

    module: Optional[str] = None
    line_disables: Dict[int, Set[str]] = field(default_factory=dict)
    errors: List[Tuple[int, str]] = field(default_factory=list)

    def suppresses(self, finding: Finding) -> bool:
        # Meta findings never come here: they are kept unconditionally,
        # and REP000 is no rule id a pragma can name.
        return finding.rule in self.line_disables.get(finding.line, ())


def _parse_pragmas(source: str, known_ids: Set[str]) -> _Pragmas:
    pragmas = _Pragmas()
    if _PRAGMA_PREFIX not in source:
        return pragmas  # most files carry none; skip the tokenizer
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return pragmas  # the AST parse reports the syntax error
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        text = token.string.lstrip("#").strip()
        if not text.startswith(_PRAGMA_PREFIX):
            continue
        line = token.start[0]
        words = text[len(_PRAGMA_PREFIX):].split()
        if not words:
            pragmas.errors.append((line, "empty reprolint pragma"))
        for index, word in enumerate(words):
            key, equals, value = word.partition("=")
            if key in ("module", "disable") and not value:
                pragmas.errors.append(
                    (line, f"pragma '{key}' requires =VALUE"))
            elif key == "module":
                pragmas.module = value
            elif key == "disable":
                rules = set(value.split(","))
                unknown = sorted(rules - known_ids)
                if unknown:
                    pragmas.errors.append(
                        (line, "pragma 'disable' names unknown rule id(s): "
                               + ", ".join(map(repr, unknown))))
                else:
                    pragmas.line_disables.setdefault(line, set()).update(rules)
            elif equals or index == 0:
                pragmas.errors.append(
                    (line, f"unknown reprolint pragma {word!r}"))
            else:
                # The justification prose every suppression pragma should
                # carry starts at the first word after the directives.
                break
    return pragmas


class FileContext:
    """One file under analysis: pragmas, AST with parent links, scope info."""

    def __init__(self, path: str, source: str, known_ids: Set[str]) -> None:
        self.path = PurePath(path).as_posix()
        self.pragmas = _parse_pragmas(source, known_ids)
        self.module = self.pragmas.module or derive_module(path)
        self.tree = ast.parse(source, filename=path)
        # Every rule walks the whole file; walk it once, in ast.walk order.
        self._nodes: List[ast.AST] = list(ast.walk(self.tree))
        self._parents: Dict[int, ast.AST] = {}
        for node in self._nodes:
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node
        self._set_names: Optional[Dict[int, Set[str]]] = None

    # -- navigation --------------------------------------------------------

    def walk(self) -> Iterator[ast.AST]:
        return iter(self._nodes)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def in_package(self, *prefixes: str) -> bool:
        return any(self.module == p or self.module.startswith(p + ".")
                   for p in prefixes)

    # -- scope tracking ----------------------------------------------------

    def _scope_of(self, node: ast.AST) -> ast.AST:
        return self.enclosing_function(node) or self.tree

    def set_bound_names(self, node: ast.AST) -> Set[str]:
        """Names bound to ``set``-valued expressions in ``node``'s scope
        (assignments from ``set(...)``, set literals/comprehensions, or a
        ``Set[...]`` annotation) — the scope tracking behind REP003."""
        if self._set_names is None:
            self._set_names = {}
            for candidate in self.walk():
                names: List[str] = []
                if isinstance(candidate, ast.Assign) and _is_set_expr(candidate.value):
                    for target in candidate.targets:
                        if isinstance(target, ast.Name):
                            names.append(target.id)
                elif isinstance(candidate, ast.AnnAssign) and isinstance(
                        candidate.target, ast.Name):
                    annotation = dotted_name(candidate.annotation) \
                        if not isinstance(candidate.annotation, ast.Subscript) \
                        else dotted_name(candidate.annotation.value)
                    if annotation.split(".")[-1] in ("set", "Set", "frozenset",
                                                     "FrozenSet"):
                        names.append(candidate.target.id)
                    elif candidate.value is not None and _is_set_expr(candidate.value):
                        names.append(candidate.target.id)
                if names:
                    scope = self._scope_of(candidate)
                    self._set_names.setdefault(id(scope), set()).update(names)
        return self._set_names.get(id(self._scope_of(node)), set())


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

#: Directory names skipped when walking trees (deliberate-violation fixtures
#: are linted only when a test passes their file path explicitly).
SKIP_DIR_NAMES = frozenset({"__pycache__", "lint_fixtures", ".git"})


@dataclass
class LintResult:
    """Outcome of one lint run, after pragma suppression."""

    findings: List[Finding]
    file_count: int

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not SKIP_DIR_NAMES.intersection(candidate.parts):
                    yield candidate
        else:
            yield path


def _lint_entries(entries: Sequence[Tuple[str, str]],
                  rules: Sequence[Rule]) -> List[Finding]:
    """Parse each ``(path, source)`` once, run every rule's per-file check
    on it, then every rule's tree check over all of them; pragmas apply
    to both kinds of finding alike."""
    known_ids = {rule.id for rule in rules}
    findings: Dict[Tuple[str, str, int, int], Finding] = {}

    def keep(finding: Finding) -> None:
        findings.setdefault(
            (finding.path, finding.rule, finding.line, finding.col), finding)

    contexts: Dict[str, FileContext] = {}
    for path, source in entries:
        try:
            ctx = FileContext(path, source, known_ids)
        except SyntaxError as exc:
            keep(Finding(META_RULE, PurePath(path).as_posix(),
                         exc.lineno or 1, exc.offset or 0,
                         f"syntax error: {exc.msg}", ""))
            continue
        contexts[ctx.path] = ctx
        for line, message in ctx.pragmas.errors:
            keep(Finding(META_RULE, ctx.path, line, 0, message,
                         "see DESIGN.md 'Static invariants and reprolint'"))
        for rule in rules:
            for finding in rule.check(ctx):
                if not ctx.pragmas.suppresses(finding):
                    keep(finding)
    parsed = list(contexts.values())
    for rule in rules:
        for finding in rule.check_tree(parsed):
            if not contexts[finding.path].pragmas.suppresses(finding):
                keep(finding)
    return sorted(findings.values(), key=lambda f: f.sort_key)


def lint_source(source: str, path: str,
                rules: Sequence[Rule]) -> List[Finding]:
    """Lint one source string as a one-file tree: its tree-wide rules see
    only this file."""
    return _lint_entries([(path, source)], rules)


def lint_paths(paths: Sequence[str], rules: Sequence[Rule]) -> LintResult:
    """Lint files/trees in one pass."""
    entries: List[Tuple[str, str]] = []
    findings: List[Finding] = []
    file_count = 0
    for file_path in iter_python_files(paths):
        file_count += 1
        try:
            entries.append((file_path.as_posix(),
                            file_path.read_text(encoding="utf-8")))
        except OSError as exc:
            findings.append(Finding(META_RULE, file_path.as_posix(), 1, 0,
                                    f"cannot read file: {exc}", ""))
    findings.extend(_lint_entries(entries, rules))
    findings.sort(key=lambda f: f.sort_key)
    return LintResult(findings=findings, file_count=file_count)
