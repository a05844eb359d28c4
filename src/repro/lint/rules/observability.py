"""Observability rules (REP020, REP021).

The conservation audit (PR 3) can only balance the books if every wire
event produced a span and no failure signal was silently swallowed on the
way to it.  These rules keep the emit sites and the failure paths honest.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from ..engine import FileContext, Finding, Rule, dotted_name
from .conservation import meter_mutation_call

#: Exceptions that carry audit/failure evidence; a handler that catches
#: one and does nothing destroys the evidence the auditor needs.
_CRITICAL_EXCEPTIONS = frozenset({
    "AuditViolation", "FaultError", "TransferInterrupted", "SimulationError",
    "IntegrityError", "RetriesExhausted",
})

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})

class UnpairedEmitRule(Rule):
    """REP020: a meter-mutating function must also emit a span."""

    id = "REP020"
    summary = "meter mutation without a recorder emit site"
    hint = ("emit recorder.record_span(...) next to the meter.record(...) "
            "so the conservation audit can balance this path")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # The meter module itself cannot emit spans (it is what spans
        # describe); everything else that touches the wire must pair up.
        if not ctx.in_package("repro") \
                or ctx.in_package("repro.simnet.meter"):
            return
        for node in ctx.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            mutations: List[ast.AST] = []
            emits = False
            for child in ast.walk(node):
                if meter_mutation_call(child):
                    mutations.append(child)
                if isinstance(child, ast.Call) \
                        and isinstance(child.func, ast.Attribute) \
                        and child.func.attr in ("record_span", "note_reset"):
                    emits = True
            if mutations and not emits:
                yield self.at(ctx, mutations[0],
                              f"{ctx.module}.{node.name}() mutates the "
                              f"meter but never emits a span")


class SwallowedFailureRule(Rule):
    """REP021: no do-nothing handlers around failure signals."""

    id = "REP021"
    summary = "exception handler silently swallows failure evidence"
    hint = "narrow the exception type, or record/re-raise what was caught"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._noop_body(node.body):
                continue
            caught = self._caught_names(node.type)
            critical = sorted(set(caught) & _CRITICAL_EXCEPTIONS)
            if critical:
                yield self.at(ctx, node,
                              f"except {critical[0]}: pass destroys the "
                              f"failure evidence the audit needs")
            elif (node.type is None or set(caught) & _BROAD_EXCEPTIONS) \
                    and ctx.in_package("repro"):
                yield self.at(ctx, node,
                              "bare/broad except with an empty body would "
                              "swallow AuditViolation and FaultError too")

    @staticmethod
    def _noop_body(body: List[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, (ast.Pass, ast.Continue)):
                continue
            if isinstance(statement, ast.Expr) \
                    and isinstance(statement.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True

    @staticmethod
    def _caught_names(node: Optional[ast.expr]) -> List[str]:
        if node is None:
            return []
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        names = []
        for element in elements:
            name = dotted_name(element)
            if name:
                names.append(name.split(".")[-1])
        return names
