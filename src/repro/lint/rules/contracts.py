"""Contract-conformance rule (REP053).

A ``*Stats`` counter is defined in one module and written from others.
A per-file check cannot tell a fed counter from a dead one, so this rule
looks at every ``repro`` module of the run at once.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence, Set

from ..engine import FileContext, Finding, Rule, dotted_name


class StatsMirrorRule(Rule):
    """REP053: every ``*Stats`` field must be written somewhere.

    A counter that exists but is never incremented reads as zero forever
    — in a mirror (``ServerStats`` copying ``PackShardStats``) that is a
    silent hole in the reported numbers, not an idle feature.
    """

    id = "REP053"
    summary = "Stats field never written anywhere in the project"
    hint = ("wire the counter to the code path it describes, or delete "
            "the field — a always-zero stat misreports the experiment")

    def check_tree(self, contexts: Sequence[FileContext],
                   ) -> Iterator[Finding]:
        repro = [ctx for ctx in contexts if ctx.in_package("repro")]
        written = self._written_names(repro)
        for ctx in repro:
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
                                  f"{ctx.module}.{node.name}.{field} is "
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
    def _written_names(contexts: Sequence[FileContext]) -> Set[str]:
        """Attribute names stored to, plus keyword-argument names, tree
        wide — a deliberately generous write set so the rule only fires
        on fields *nothing* could possibly be feeding."""
        mutators = frozenset({"append", "extend", "add", "insert",
                              "update", "setdefault", "pop", "clear"})
        written: Set[str] = set()
        for ctx in contexts:
            for node in ctx.walk():
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
