"""The artifact registry's entry type and the argument plumbing around it."""

from __future__ import annotations

import argparse
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from ..client import SERVICES, AccessMethod
from ..units import KB, MB

#: The trace every trace-driven paper artifact analyses.
TRACE_SEED = 42


class Artifact(NamedTuple):
    """One reproduced artifact, stated once.

    ``repro NAME`` parses ``arguments`` (flag -> ``add_argument`` options),
    calls ``run(args)`` and prints every text ``render(args, result)``
    returns.  ``repro audit NAME`` and ``repro trace-run NAME`` do the same
    under a span recorder, with ``args.audit`` set so ``run`` also checks
    the invariants it keeps outside the span ledger.

    ``artifacts`` names the texts ``render`` returns at the argument
    defaults, which are the parameters ``benchmarks/results/<name>.txt``
    is produced at; ``full_scale`` holds the defaults ``REPRO_SCALE=full``
    overrides there.  ``ok`` decides the exit status of a run that can
    fail its own claim.
    """

    name: str
    description: str
    run: Callable[[argparse.Namespace], Any]
    render: Callable[[argparse.Namespace, Any], Dict[str, str]]
    arguments: Dict[str, Dict[str, Any]] = {}
    artifacts: Tuple[str, ...] = ()
    full_scale: Dict[str, Any] = {}
    ok: Optional[Callable[[Any], bool]] = None


def add_arguments(parser: argparse.ArgumentParser, entry: Artifact) -> None:
    """Register ``entry``'s flags on ``parser``; runs default to unaudited."""
    for flag, options in entry.arguments.items():
        parser.add_argument(flag, **options)
    parser.set_defaults(entry=entry, audit=False)


def bench_args(entry: Artifact, full: bool = False) -> argparse.Namespace:
    """The arguments ``entry``'s archived artifacts are produced at."""
    parser = argparse.ArgumentParser(prog=entry.name)
    add_arguments(parser, entry)
    args = parser.parse_args([])
    if full:
        vars(args).update(entry.full_scale)
    return args


def _access(value: str) -> AccessMethod:
    return AccessMethod(value.lower())


def service_name(value: str) -> str:
    """A stock service name, matched case-insensitively and kept as typed."""
    if value.lower() not in {service.lower() for service in SERVICES}:
        raise argparse.ArgumentTypeError(
            f"unknown service {value!r} (one of {', '.join(SERVICES)})")
    return value


def services(*default: str) -> Dict[str, Any]:
    """``--service A [B ...]``, defaulting to the artifact's own set."""
    return dict(type=service_name, nargs="+", default=list(default),
                dest="services", metavar="SERVICE")


#: One access method.
ACCESS = dict(type=_access, default=AccessMethod.PC)
#: Any of the three access methods, all by default.
ACCESSES = dict(type=_access, nargs="+", default=list(AccessMethod))
MAX_BLOCK = dict(type=int, default=16 * MB, dest="max_block")
MAX_X = dict(type=int, default=20, dest="max_x")
TOTAL = dict(type=int, default=512 * KB)
SEED = dict(type=int, default=42)
TRACE_SCALE = dict(type=float, default=0.3)
