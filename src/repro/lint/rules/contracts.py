"""Contract-conformance rules (REP050, REP051, REP053).

The runtime contracts — the ConservationAuditor's invariants, the span
registry, the backend stats mirrors — are each defined in one module and
*used* from others.  Per-file rules cannot tell a registered invariant
from an orphan; these project rules close that gap.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..engine import Finding, dotted_name
from ..project import ProjectContext, ProjectRule


def _known_span_kinds() -> Set[str]:
    """The single source of truth: repro.obs.recorder.SPAN_KINDS."""
    from ...obs.recorder import SPAN_KINDS
    return set(SPAN_KINDS)


class UnregisteredVerifyRule(ProjectRule):
    """REP050: every ``verify_*`` invariant must have a caller.

    An invariant nobody calls is an invariant nobody checks — the audit
    claims coverage it does not have.  Call sites are counted anywhere in
    the ``repro`` package (method or function, resolved or not, matched
    by name), so the rule only fires on true orphans.
    """

    id = "REP050"
    summary = "verify_* invariant defined but never invoked"
    hint = ("call it from the audit path (audit_hub / the experiment "
            "driver) or delete it; unchecked invariants rot")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        called = project.called_names.get("repro", set())
        for info in project.repro_modules():
            for fn in sorted(info.functions.values(),
                             key=lambda f: f.qualname):
                if not fn.name.startswith("verify_"):
                    continue
                if fn.name in called:
                    continue
                yield self.at(info.ctx, fn.node,
                              f"{fn.node_id}() is never called from any "
                              f"repro module; the invariant is not part "
                              f"of the audit")


class SpanKindResolutionRule(ProjectRule):
    """REP051: span kinds behind names must resolve into SPAN_KINDS.

    REP022 checks literals and recognises the exported constant names;
    this rule chases *any* name — including a constant defined in another
    module or re-exported through an alias — down to its literal and
    validates that against the registry.  Unresolvable kinds are skipped
    (documented false negative), never guessed.
    """

    id = "REP051"
    summary = "span kind resolves to a value outside SPAN_KINDS"
    hint = "use a kind from repro.obs.recorder.SPAN_KINDS"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        known = _known_span_kinds()
        for info in project.repro_modules():
            ctx = info.ctx
            for node in ctx.walk():
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "record_span"):
                    continue
                kind_expr = node.args[0] if node.args else next(
                    (kw.value for kw in node.keywords
                     if kw.arg == "kind"), None)
                if kind_expr is None \
                        or isinstance(kind_expr, ast.Constant):
                    continue  # literals are REP022's jurisdiction
                dotted = dotted_name(kind_expr)
                if not dotted or dotted.startswith("self."):
                    continue
                resolved = project.resolve_constant(info, dotted)
                if not (isinstance(resolved, ast.Constant)
                        and isinstance(resolved.value, str)):
                    continue
                if resolved.value not in known:
                    yield self.at(ctx, kind_expr,
                                  f"span kind {dotted} resolves to "
                                  f"{resolved.value!r}, which is not in "
                                  f"SPAN_KINDS; record_span() would "
                                  f"reject it at runtime")


class StatsMirrorRule(ProjectRule):
    """REP053: every ``*Stats`` field must be written somewhere.

    A counter that exists but is never incremented reads as zero forever
    — in a mirror (``ServerStats`` copying ``PackShardStats``) that is a
    silent hole in the reported numbers, not an idle feature.
    """

    id = "REP053"
    summary = "Stats field never written anywhere in the project"
    hint = ("wire the counter to the code path it describes, or delete "
            "the field — a always-zero stat misreports the experiment")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        written = self._written_names(project)
        for info in project.repro_modules():
            ctx = info.ctx
            for node in ctx.walk():
                if not (isinstance(node, ast.ClassDef)
                        and node.name.endswith("Stats")
                        and self._is_dataclass(node)):
                    continue
                for stmt in node.body:
                    if not (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        continue
                    field = stmt.target.id
                    if field.startswith("_") or field in written:
                        continue
                    yield self.at(ctx, stmt,
                                  f"{info.module}.{node.name}.{field} is "
                                  f"never written by any repro module; "
                                  f"it will report 0 forever")

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            if dotted_name(target).split(".")[-1] == "dataclass":
                return True
        return False

    @staticmethod
    def _written_names(project: ProjectContext) -> Set[str]:
        """Attribute names stored to, plus keyword-argument names, project
        wide — a deliberately generous write set so the rule only fires
        on fields *nothing* could possibly be feeding."""
        mutators = frozenset({"append", "extend", "add", "insert",
                              "update", "setdefault", "pop", "clear"})
        written: Set[str] = set()
        for info in project.repro_modules():
            for node in info.ctx.walk():
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, (ast.Store, ast.Del)):
                    written.add(node.attr)
                elif isinstance(node, ast.Call):
                    for keyword in node.keywords:
                        if keyword.arg:
                            written.add(keyword.arg)
                    # stats.field.append(...) mutates `field` in place.
                    if isinstance(node.func, ast.Attribute) \
                            and node.func.attr in mutators \
                            and isinstance(node.func.value, ast.Attribute):
                        written.add(node.func.value.attr)
        return written
