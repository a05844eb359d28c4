"""Determinism rules (REP001–REP006).

Byte-identical replay (PR 2) and traced-vs-untraced equality (PR 3) both
assume simulation code never consults ambient state: no wall clocks, no
unseeded or process-global RNGs, no iteration order that depends on hash
randomisation, no entropy sources, no environment variables.  Each rule
here turns one of those assumptions into a static check.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, dotted_name

#: Packages whose code must be a pure function of its inputs: everything
#: the simulator, the trace pipeline, and the accounting layers run.
DETERMINISTIC_PACKAGES = (
    "repro.simnet", "repro.client", "repro.cloud", "repro.trace",
    "repro.core", "repro.obs", "repro.content", "repro.delta",
    "repro.chunking", "repro.compress", "repro.fleet", "repro.fsim",
)

#: Modules whose dict/set iteration feeds byte accounting or report order,
#: where ordering must be forced with ``sorted(...)`` (REP003).
ACCOUNTING_MODULES = (
    "repro.trace.replay", "repro.trace.pool", "repro.trace.analysis",
    "repro.trace.schema",
    "repro.simnet.meter", "repro.obs",
    "repro.cloud.dedup", "repro.core.tue",
)

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})

#: Functions on the process-global ``random`` RNG (shared mutable state:
#: any draw perturbs every later draw in the process).
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "triangular", "seed", "getrandbits",
})

#: Legacy numpy global-state RNG entry points.
_NUMPY_GLOBAL_FNS = frozenset({
    "rand", "randn", "randint", "random", "seed", "choice", "shuffle",
    "permutation", "normal", "uniform",
})

#: RNG constructors that draw OS entropy when called with no seed.
_SEEDED_CONSTRUCTORS = frozenset({
    "Random", "default_rng", "SeedSequence", "Philox", "PCG64", "PCG64DXSM",
    "MT19937", "SFC64",
})

_ENTROPY_CALLS = frozenset({
    "os.urandom", "urandom", "uuid.uuid1", "uuid.uuid4", "uuid1", "uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.choice",
})


class WallClockRule(Rule):
    """REP001: no wall-clock reads inside the simulation."""

    id = "REP001"
    summary = "wall-clock call in deterministic simulation code"
    hint = "use the Simulator's virtual clock (sim.now) or pass time in"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK_CALLS:
                    yield self.at(ctx, node,
                                  f"wall-clock call {name}() in "
                                  f"{ctx.module} breaks replayability")


class UnseededRngRule(Rule):
    """REP002: every RNG must be constructed with an explicit seed."""

    id = "REP002"
    summary = "unseeded or process-global RNG"
    hint = ("construct random.Random(seed) / np.random.default_rng(seed) "
            "/ a bit generator with a seed derived from the call's inputs")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            tail = name.split(".")[-1]
            seedless = not node.args and not node.keywords
            if tail in _SEEDED_CONSTRUCTORS and seedless:
                yield self.at(ctx, node,
                              f"{tail}() without a seed draws from "
                              f"OS entropy")
            elif name.startswith("random.") and tail in _GLOBAL_RANDOM_FNS:
                yield self.at(ctx, node,
                              f"{name}() uses the process-global RNG; "
                              f"draws couple unrelated call sites")
            elif (name.startswith(("np.random.", "numpy.random."))
                    and tail in _NUMPY_GLOBAL_FNS):
                yield self.at(ctx, node,
                              f"{name}() uses numpy's global RNG state")


class UnorderedIterationRule(Rule):
    """REP003: accounting/merge code must not iterate unordered views."""

    id = "REP003"
    summary = "iteration over an unordered view in accounting code"
    hint = "wrap the iterable in sorted(...) to pin a deterministic order"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*ACCOUNTING_MODULES):
            return
        for node in ctx.walk():
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                reason = self._unordered(ctx, candidate)
                if reason:
                    yield self.at(ctx, candidate, reason)

    def _unordered(self, ctx: FileContext, node: ast.AST) -> str:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("set", "frozenset"):
                return ("iterating a set literal couples accounting to hash "
                        "order")
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "keys":
                return (".keys() iteration order is insertion order — merge "
                        "and accounting code must not depend on it")
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "iterating a set couples accounting to hash order"
        if isinstance(node, ast.Name) \
                and node.id in ctx.set_bound_names(node):
            return (f"'{node.id}' is set-typed; its iteration order depends "
                    f"on hash seeding")
        return ""


class AmbientEntropyRule(Rule):
    """REP004: no entropy sources outside tests."""

    id = "REP004"
    summary = "ambient entropy source in library code"
    hint = "derive identifiers from seeded RNGs or deterministic counters"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _ENTROPY_CALLS:
                    yield self.at(ctx, node,
                                  f"{name}() is fresh entropy on every run")


class SaltedHashRule(Rule):
    """REP005: no builtin ``hash()`` in deterministic code.

    ``hash(str_or_bytes)`` is salted per process (PYTHONHASHSEED), so any
    value derived from it differs between the sequential replay and a fork
    pool's children started in another interpreter.  ``__hash__``
    implementations are exempt — delegating to ``hash()`` there is how
    Python composes hashes, and container *membership* stays correct.
    """

    id = "REP005"
    summary = "builtin hash() is salted per process"
    hint = "use hashlib (or the record's digest) for any persisted value"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        for node in ctx.walk():
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "hash":
                function = ctx.enclosing_function(node)
                if function is not None and function.name == "__hash__":
                    continue
                yield self.at(ctx, node)


class AmbientEnvironmentRule(Rule):
    """REP006: no environment reads inside the simulation."""

    id = "REP006"
    summary = "environment read in deterministic simulation code"
    hint = "thread configuration through parameters, not os.environ"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        for node in ctx.walk():
            if isinstance(node, ast.Attribute) \
                    and dotted_name(node) in ("os.environ", "sys.argv"):
                yield self.at(ctx, node,
                              f"{dotted_name(node)} read in {ctx.module}")
            elif isinstance(node, ast.Call) \
                    and dotted_name(node.func) in ("os.getenv",):
                yield self.at(ctx, node, "os.getenv() read in simulation code")
