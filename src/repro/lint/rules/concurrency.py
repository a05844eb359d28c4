"""Concurrency / fork-safety rules (REP030, REP032–REP034).

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
from typing import Iterator, Optional, Set

from ..engine import FileContext, Finding, dotted_name
from ..graph import ModuleInfo
from ..project import ProjectContext, ProjectRule

#: Call shapes that fork the process or arm the fork machinery.  Matched
#: on the import-expanded dotted name's tail so both
#: ``multiprocessing.Process`` and ``context.Process`` are seen.
_FORK_TAILS = frozenset({"fork", "Process", "Pool", "ProcessPoolExecutor"})

_FORK_EXACT = frozenset({
    "os.fork", "os.forkpty",
})


def _is_fork_lock(name: str) -> bool:
    return name.split(".")[-1].endswith("fork_lock")


def _is_lockish(name: str) -> bool:
    tail = name.split(".")[-1].lower()
    return ("lock" in tail or "mutex" in tail) and not _is_fork_lock(name)


def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _fork_primitive(node: ast.AST, info: ModuleInfo) -> Optional[str]:
    """Describe ``node`` if it is a fork primitive call, else None."""
    if not isinstance(node, ast.Call):
        return None
    dotted = info.expand(dotted_name(node.func))
    if not dotted:
        return None
    if dotted in _FORK_EXACT:
        return f"{dotted}()"
    tail = dotted.split(".")[-1]
    if tail == "Thread":
        return None  # threads don't fork; REP032 owns them
    if tail in _FORK_TAILS:
        # A bare ``Pool`` resolving to nothing multiprocessing-ish could
        # be a domain object; require either a known module prefix or a
        # resolution miss on an mp-style name.
        if tail == "Pool" and "." in dotted \
                and not dotted.startswith(("multiprocessing", "mp.")):
            return None
        return f"{dotted}()"
    return None


def _under_fork_lock(ctx: FileContext, node: ast.AST) -> bool:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if _is_fork_lock(dotted_name(item.context_expr)):
                    return True
    return False


class ForkDisciplineRule(ProjectRule):
    """REP030: fork primitives only under the ``_fork_lock`` discipline.

    The stdio buffer locks always exist, so *any* fork can inherit one
    mid-acquire; serialising every fork primitive under one module lock
    is the only shape that cannot deadlock.
    """

    id = "REP030"
    summary = "fork primitive outside the _fork_lock discipline"
    hint = ("wrap the fork/Process call in `with _fork_lock:` "
            "(see repro.trace.pool)")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.repro_modules():
            ctx = info.ctx
            for node in ctx.walk():
                description = _fork_primitive(node, info)
                if description is None:
                    continue
                if not _under_fork_lock(ctx, node):
                    yield self.at(ctx, node,
                                  f"{description} in {info.module} runs "
                                  f"outside `with _fork_lock:`; a concurrent "
                                  f"lock holder deadlocks the child")


class NonDaemonSpawnRule(ProjectRule):
    """REP032: library code must not spawn non-daemon threads/processes.

    A non-daemon worker keeps the interpreter alive after the experiment
    returns; in CI that is a hang, not a result.
    """

    id = "REP032"
    summary = "non-daemon Thread/Process spawned in library code"
    hint = "pass daemon=True (or set .daemon = True before .start())"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.repro_modules():
            ctx = info.ctx
            for node in ctx.walk():
                if not isinstance(node, ast.Call):
                    continue
                tail = info.expand(dotted_name(node.func)).split(".")[-1]
                if tail not in ("Thread", "Process"):
                    continue
                daemon = _keyword(node, "daemon")
                if isinstance(daemon, ast.Constant) and daemon.value is True:
                    continue
                if self._daemon_set_later(ctx, node):
                    continue
                yield self.at(ctx, node,
                              f"{tail}(...) in {info.module} without "
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


class LockAcrossForkRule(ProjectRule):
    """REP033: no ordinary lock held across a call chain that forks.

    This is the exact PR 7 deadlock shape, caught through the call
    graph: the fork need not be lexically visible under the ``with``.
    """

    id = "REP033"
    summary = "lock held across a call chain that reaches a fork"
    hint = ("release the lock before calling into the fork path, or make "
            "this lock the module's _fork_lock")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        forking = self._forking_functions(project)
        if not forking:
            return
        for info in project.repro_modules():
            ctx = info.ctx
            for node in ctx.walk():
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                lock_name = ""
                for item in node.items:
                    name = dotted_name(item.context_expr)
                    if _is_lockish(name):
                        lock_name = name
                        break
                if not lock_name:
                    continue
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    dotted = dotted_name(call.func)
                    callee = project._resolve_callee(
                        info, dotted, self._caller_id(info, call))
                    if callee is None:
                        continue
                    path = project.call_graph.reaches(callee.node_id, forking)
                    if path is None and callee.node_id not in forking:
                        continue
                    chain = " -> ".join(path or [callee.node_id])
                    yield self.at(ctx, call,
                                  f"`with {lock_name}:` holds a lock while "
                                  f"{dotted}() reaches a fork primitive "
                                  f"({chain}); a forked child inherits the "
                                  f"held lock")
                    break  # one finding per with-block is enough

    @staticmethod
    def _caller_id(info: ModuleInfo, node: ast.AST) -> str:
        enclosing = info.ctx.enclosing_function(node)
        if enclosing is None:
            return f"{info.module}:<module>"
        qual = info.qualname_of_node.get(id(enclosing), "?")
        return f"{info.module}:{qual}"

    @staticmethod
    def _forking_functions(project: ProjectContext) -> Set[str]:
        forking: Set[str] = set()
        for info in project.repro_modules():
            for fn in info.functions.values():
                for node in ast.walk(fn.node):
                    if _fork_primitive(node, info) is not None:
                        forking.add(fn.node_id)
                        break
        return forking


class GlobalStartMethodRule(ProjectRule):
    """REP034: no global multiprocessing configuration in library code."""

    id = "REP034"
    summary = "process-global multiprocessing configuration"
    hint = ("use multiprocessing.get_context('fork') locally; "
            "set_start_method() is process-global and first-caller-wins")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.repro_modules():
            ctx = info.ctx
            for node in ctx.walk():
                if not isinstance(node, ast.Call):
                    continue
                dotted = info.expand(dotted_name(node.func))
                if dotted.split(".")[-1] == "set_start_method":
                    yield self.at(ctx, node,
                                  f"set_start_method() in {info.module} "
                                  f"mutates process-global state")
                elif dotted == "multiprocessing.Pool":
                    yield self.at(ctx, node,
                                  "multiprocessing.Pool uses the ambient "
                                  "start method; build the pool from an "
                                  "explicit get_context('fork')")
