"""The artifact registry: every reproduced table, figure and study, stated
once.

Each :class:`Artifact` entry names its CLI arguments, its experiment call
and the renderer that turns the result into named text artifacts.  The
CLI derives ``repro NAME``, ``repro audit NAME`` and ``repro trace-run
NAME`` from it, and ``benchmarks/bench_artifacts.py`` regenerates
``benchmarks/results/<artifact>.txt`` from it, so the two can no longer
render the same result differently.
"""

from .ablations import ABLATIONS
from .base import Artifact, add_arguments, bench_args
from .extensions import EXTENSIONS
from .paper import PAPER

#: Every entry, in ``repro list`` order.
ARTIFACTS = PAPER + EXTENSIONS + ABLATIONS

__all__ = ["ARTIFACTS", "Artifact", "add_arguments", "bench_args"]
