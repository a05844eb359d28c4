"""Concurrency / fork-safety rules (REP030, REP032, REP034).

PR 7's parallel replay deadlocked in CI because a ``fork()`` could run
while another thread held a stdio buffer lock: the child inherits the
locked lock with no owner to release it.  The hand fix was the
``_fork_lock`` discipline in ``repro.trace.pool`` — every fork primitive
runs under one designated lock so no two threads interleave a fork with
lock-holding work.  These rules make that discipline a static invariant
instead of tribal knowledge.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..engine import FileContext, Finding, Rule, dotted_name

#: Call shapes that fork the process or arm the fork machinery.  Matched
#: on the dotted name's tail so both ``multiprocessing.Process`` and
#: ``context.Process`` are seen.
_FORK_TAILS = frozenset({"fork", "forkpty", "Process", "Pool",
                         "ProcessPoolExecutor"})


def _is_fork_lock(name: str) -> bool:
    return name.split(".")[-1].endswith("fork_lock")


def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _fork_primitive(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it is a fork primitive call, else None."""
    if not isinstance(node, ast.Call):
        return None
    dotted = dotted_name(node.func)
    tail = dotted.split(".")[-1]
    if tail not in _FORK_TAILS:
        return None
    # ``x.Pool`` on anything but the multiprocessing module could be a
    # domain object; a bare ``Pool`` is taken to be the imported one.
    if tail == "Pool" and "." in dotted \
            and not dotted.startswith(("multiprocessing.", "mp.")):
        return None
    return f"{dotted}()"


def _under_fork_lock(ctx: FileContext, node: ast.AST) -> bool:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if _is_fork_lock(dotted_name(item.context_expr)):
                    return True
    return False


class ForkDisciplineRule(Rule):
    """REP030: fork primitives only under the ``_fork_lock`` discipline.

    The stdio buffer locks always exist, so *any* fork can inherit one
    mid-acquire; serialising every fork primitive under one module lock
    is the only shape that cannot deadlock.
    """

    id = "REP030"
    summary = "fork primitive outside the _fork_lock discipline"
    hint = ("wrap the fork/Process call in `with _fork_lock:` "
            "(see repro.trace.pool)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ctx.walk():
            description = _fork_primitive(node)
            if description is not None and not _under_fork_lock(ctx, node):
                yield self.at(ctx, node,
                              f"{description} in {ctx.module} runs "
                              f"outside `with _fork_lock:`; a concurrent "
                              f"lock holder deadlocks the child")


class NonDaemonSpawnRule(Rule):
    """REP032: library code must not spawn non-daemon threads/processes.

    A non-daemon worker keeps the interpreter alive after the experiment
    returns; in CI that is a hang, not a result.
    """

    id = "REP032"
    summary = "non-daemon Thread/Process spawned in library code"
    hint = "pass daemon=True (or set .daemon = True before .start())"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            tail = dotted_name(node.func).split(".")[-1]
            if tail not in ("Thread", "Process"):
                continue
            daemon = _keyword(node, "daemon")
            if isinstance(daemon, ast.Constant) and daemon.value is True:
                continue
            if self._daemon_set_later(ctx, node):
                continue
            yield self.at(ctx, node,
                          f"{tail}(...) in {ctx.module} without "
                          f"daemon=True outlives the run")

    @staticmethod
    def _daemon_set_later(ctx: FileContext, call: ast.Call) -> bool:
        """``proc = Process(...)`` followed by ``proc.daemon = True``."""
        parent = ctx.parent(call)
        if not isinstance(parent, ast.Assign) or len(parent.targets) != 1 \
                or not isinstance(parent.targets[0], ast.Name):
            return False
        bound = parent.targets[0].id
        scope = ctx.enclosing_function(call) or ctx.tree
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) \
                    and any(isinstance(t, ast.Attribute) and t.attr == "daemon"
                            and isinstance(t.value, ast.Name)
                            and t.value.id == bound
                            for t in node.targets) \
                    and isinstance(node.value, ast.Constant) \
                    and node.value.value is True:
                return True
        return False


class GlobalStartMethodRule(Rule):
    """REP034: no global multiprocessing configuration in library code."""

    id = "REP034"
    summary = "process-global multiprocessing configuration"
    hint = ("use multiprocessing.get_context('fork') locally; "
            "set_start_method() is process-global and first-caller-wins")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            tail = dotted.split(".")[-1]
            if tail == "set_start_method":
                yield self.at(ctx, node,
                              f"set_start_method() in {ctx.module} "
                              f"mutates process-global state")
            elif tail == "Pool" and _fork_primitive(node) is not None:
                yield self.at(ctx, node,
                              f"{dotted}() uses the ambient start method; "
                              f"build the pool from an explicit "
                              f"get_context('fork')")
