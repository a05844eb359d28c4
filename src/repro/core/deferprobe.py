"""Black-box inference of a service's fixed sync deferment (§6.1).

The paper detects sync deferments by sweeping the "X KB / X sec" appending
experiment over integer X and watching where TUE jumps from ≈1 (batched) to
large (per-update sync), then refines X with fractional steps — finding
T ≈ 4.2 s for Google Drive, ≈ 10.5 s for OneDrive and ≈ 6 s for SugarSync.

:func:`infer_sync_deferment` reproduces that procedure: bracket the jump on
the integer grid, then bisect with float periods down to ``resolution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..units import KB
from .cell import append, cell, measure


@dataclass
class DeferProbeResult:
    """Outcome of the deferment inference."""

    service: str
    deferment: Optional[float]   # None ⇒ no fixed deferment detected
    bracket: Optional[Tuple[float, float]]
    samples: List[Tuple[float, int]]  # (x, sync_transactions)


def _syncs_at(service: str, x: float, appends: int) -> int:
    """Sync-transaction count for an appending run with period ``x``."""
    recipe = append(x, total=appends * KB, append_kb=1.0)
    return measure(cell(service, recipe)).sync_transactions


def infer_sync_deferment(
    service: str,
    max_period: int = 20,
    appends: int = 24,
    resolution: float = 0.1,
) -> DeferProbeResult:
    """Estimate a service's fixed sync deferment T, or None if there is none.

    A period is classified "deferred" when the whole run collapses into a
    couple of sync transactions, and "per-update" when most appends sync
    individually.
    """
    samples: List[Tuple[float, int]] = []

    def deferred(x: float) -> bool:
        syncs = _syncs_at(service, x, appends)
        samples.append((x, syncs))
        return syncs <= max(2, appends // 8)

    if not deferred(1.0):
        # Updates at 1 s period already sync individually: no deferment.
        return DeferProbeResult(service, None, None, samples)

    low = 1.0
    high = None
    for x in range(2, max_period + 1):
        if deferred(float(x)):
            low = float(x)
        else:
            high = float(x)
            break
    if high is None:
        # Deferred across the whole sweep: T exceeds the probe range.
        return DeferProbeResult(service, None, (low, float("inf")), samples)

    while high - low > resolution:
        mid = (low + high) / 2.0
        if deferred(mid):
            low = mid
        else:
            high = mid
    estimate = (low + high) / 2.0
    return DeferProbeResult(service, estimate, (low, high), samples)
