"""Byte-conservation rules (REP010–REP012).

The conservation audit (PR 3) proves, at runtime, that every byte on the
wire is accounted exactly once.  That proof only works because the ledger
is integer-only and mutated through a single code path; these rules pin
both properties down statically.  TUE, ratios, and fractions *derived
from* the ledger are deliberately float — the rules fire only when float
arithmetic flows back **into** a byte-named counter.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional

from ..engine import FileContext, Finding, Rule

#: Identifier shapes treated as byte counters.
_BYTEISH_EXACT = frozenset({"payload", "overhead", "wasted", "traffic",
                            "nbytes", "wire"})
_BYTEISH_SUFFIXES = ("_bytes", "_traffic", "_wire", "_size")
_BYTEISH_PREFIXES = ("bytes_",)

#: Modules exempt from REP010: pure display code whose job is to turn the
#: integer ledger into human-readable floats.
_DISPLAY_MODULES = ("repro.reporting", "repro.units")

#: Modules allowed to mutate a TrafficMeter (REP011): the meter itself and
#: the single Channel wire path that the conservation audit cross-checks.
METER_MUTATION_MODULES = ("repro.simnet.meter", "repro.simnet.protocol")

#: Names that hold a TUE denominator; guarding them with ``max(x, 1)``
#: silently reports TUE == traffic for a zero-byte update (the PR 3 bug
#: class) instead of the inf/nan convention.
_DENOMINATOR_RE = re.compile(r"(data_update|update_bytes|denominator)")


def is_byteish(name: str) -> bool:
    return (name in _BYTEISH_EXACT
            or name.endswith(_BYTEISH_SUFFIXES)
            or name.startswith(_BYTEISH_PREFIXES))


def _direct_name(node: ast.AST) -> str:
    """The identifier an expression *is*: a name, an attribute, or a call
    of a named accessor (``meter.total_bytes()``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _direct_name(node.func)
    return ""


def _mentioned_byteish(node: ast.AST) -> Optional[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and is_byteish(child.id):
            return child.id
        if isinstance(child, ast.Attribute) and is_byteish(child.attr):
            return child.attr
    return None


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Attribute):
        return [target.attr]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


def _is_int_wrapped(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "len", "round"))


def _division_inside(node: ast.AST) -> Optional[ast.AST]:
    """The first true division anywhere under ``node``, or None."""
    for child in ast.walk(node):
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
            return child
    return None


def _float_feeds(value: ast.AST) -> Optional[ast.AST]:
    """The first float-producing sub-expression of ``value`` (a true
    division or a ``float()`` cast).

    ``int(...)``-wrapped subtrees re-floor their result, which forgives
    float *scaling* (``int(bytes * 1.5)``) — but not true division:
    ``int(a * b / c)`` computes the quotient as a float first, so above
    2**53 the value is already wrong before ``int()`` sees it.  Divisions
    are therefore flagged even under an int/round wrapper; ``a * b // c``
    is the exact form.
    """
    if _is_int_wrapped(value):
        return _division_inside(value)
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Div):
        return value
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id == "float":
        return value
    for child in ast.iter_child_nodes(value):
        culprit = _float_feeds(child)
        if culprit is not None:
            return culprit
    return None


class FloatByteArithmeticRule(Rule):
    """REP010: byte counters are integers; floats must not feed them."""

    id = "REP010"
    summary = "float arithmetic feeding a byte counter"
    hint = ("use integer // — int(a / b) rounds through a float and is "
            "already wrong above 2**53")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro") or ctx.in_package(*_DISPLAY_MODULES):
            return
        for node in ctx.walk():
            # float(<byte counter>) — the cast that launders ints away.
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "float" and node.args:
                name = _mentioned_byteish(node.args[0])
                if name:
                    yield self.at(ctx, node,
                                  f"float() cast of byte counter '{name}'")
                continue
            # <byte target> = ... / ...  (or float(...)), incl. += and :=-free
            # AnnAssign; int(...)-wrapped values are already re-floored.
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            if value is not None:
                names = [n for t in targets for n in _target_names(t)
                         if is_byteish(n)]
                if isinstance(node, ast.AugAssign) and names \
                        and isinstance(node.op, ast.Div):
                    yield self.at(ctx, node,
                                  f"'/=' on byte counter '{names[0]}'")
                    continue
                if names:
                    culprit = _float_feeds(value)
                    if culprit is not None:
                        yield self.at(
                            ctx, culprit,
                            f"float-valued expression assigned to byte "
                            f"counter '{names[0]}'")
            # f(..., some_bytes=<float expr>) — float flowing into a
            # byte-named parameter (meter fields, report counters).
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg and is_byteish(keyword.arg):
                        culprit = _float_feeds(keyword.value)
                        if culprit is not None:
                            yield self.at(
                                ctx, culprit,
                                f"float-valued expression passed as byte "
                                f"argument '{keyword.arg}='")


def meter_mutation_call(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it mutates a TrafficMeter, else None.

    Matches ``<x>.meter.record(...)`` / ``meter.record(...)`` and direct
    ``.records`` list mutation.  Writes to the ``.up`` / ``.down`` totals
    are assignments, not calls — :class:`MeterMutationRule` finds those.
    """
    if not isinstance(node, ast.Call) \
            or not isinstance(node.func, ast.Attribute):
        return None
    attr = node.func.attr
    receiver = node.func.value
    receiver_name = _direct_name(receiver)
    if attr == "record" and "meter" in receiver_name:
        return f"{receiver_name}.record(...)"
    if attr in ("append", "extend", "clear") \
            and isinstance(receiver, ast.Attribute) \
            and receiver.attr == "records" \
            and "meter" in _direct_name(receiver.value):
        return f".records.{attr}(...)"
    return None


class MeterMutationRule(Rule):
    """REP011: the meter is mutated only by the Channel wire path."""

    id = "REP011"
    summary = "TrafficMeter mutated outside simnet.protocol"
    hint = ("route the bytes through Channel.exchange()/error_exchange() "
            "so the conservation audit sees a span for them")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro") \
                or ctx.in_package(*METER_MUTATION_MODULES):
            return
        for node in ctx.walk():
            description = meter_mutation_call(node)
            if description:
                yield self.at(ctx, node,
                              f"{description} in {ctx.module} bypasses the "
                              f"audited Channel wire path")
            # <meter>.up / .down, or a field of one, as a write target
            # (plain, augmented, del); reading them is what they are for.
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                totals = node if node.attr in ("up", "down") else node.value
                if isinstance(totals, ast.Attribute) \
                        and totals.attr in ("up", "down") \
                        and "meter" in _direct_name(totals.value):
                    yield self.at(ctx, node,
                                  f"write to TrafficMeter.{totals.attr} "
                                  f"bypasses the record() invariant checks")


class MaskedZeroDenominatorRule(Rule):
    """REP012: ``max(x, 1)`` denominators hide zero-update runs."""

    id = "REP012"
    summary = "max(..., 1) masks a zero denominator"
    hint = ("propagate the zero and let TUE report inf/nan "
            "(the PR 3 zero-size convention)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ctx.walk():
            if not self._is_max_one(node):
                continue
            parent = ctx.parent(node)
            if isinstance(parent, ast.BinOp) \
                    and isinstance(parent.op, (ast.Div, ast.FloorDiv)) \
                    and parent.right is node:
                yield self.at(ctx, node,
                              "max(..., 1) as a division denominator "
                              "silently treats a zero update as one byte")
            elif isinstance(parent, ast.keyword) and parent.arg \
                    and _DENOMINATOR_RE.search(parent.arg):
                yield self.at(ctx, node,
                              f"max(..., 1) bound to TUE denominator "
                              f"'{parent.arg}=' hides zero-update runs")
            elif isinstance(parent, ast.Assign) and any(
                    _DENOMINATOR_RE.search(name)
                    for target in parent.targets
                    for name in _target_names(target)):
                yield self.at(ctx, node,
                              "max(..., 1) assigned to a TUE denominator "
                              "hides zero-update runs")

    @staticmethod
    def _is_max_one(node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "max" and len(node.args) == 2):
            return False
        return any(isinstance(arg, ast.Constant) and arg.value == 1
                   for arg in node.args)
