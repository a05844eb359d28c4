"""Pluggable sync strategies: how a file's new content reaches the cloud.

Four concrete strategies plus an adaptive selector (see DESIGN.md,
"Pluggable sync strategies & the selection contract"):

* :class:`FullFileStrategy` — ship the whole file (the extracted
  pre-refactor default path);
* :class:`FixedBlockDeltaStrategy` — rsync fixed-block delta (the
  extracted IDS path);
* :class:`CdcDeltaStrategy` — content-defined-chunk delta;
* :class:`SetReconcileStrategy` — two-round chunk-set reconciliation
  against the user's whole cloud;
* :class:`AdaptiveSelector` — per-file, per-network-condition choice by
  exact cost estimates, extending ASD (Eq. 2) from *when* to *how*.
"""

from .adaptive import AdaptiveSelector, PathHistory
from .base import StrategyEstimate, SyncStrategy, TransferTally
from .delta import FIXED_DELTA, CdcDeltaStrategy, FixedBlockDeltaStrategy
from .fullfile import FULL_FILE, FullFileStrategy
from .reconcile import SetReconcileStrategy

#: Registry for CLI/experiment lookups by stable name.
STRATEGY_NAMES = (
    "full-file", "fixed-delta", "cdc-delta", "set-reconcile", "adaptive")


def make_strategy(name: str) -> SyncStrategy:
    """A fresh strategy instance by stable name (``STRATEGY_NAMES``)."""
    factories = {
        "full-file": FullFileStrategy,
        "fixed-delta": FixedBlockDeltaStrategy,
        "cdc-delta": CdcDeltaStrategy,
        "set-reconcile": SetReconcileStrategy,
        "adaptive": AdaptiveSelector,
    }
    try:
        return factories[name]()
    except KeyError:
        raise ValueError(f"unknown sync strategy {name!r}; "
                         f"expected one of {', '.join(STRATEGY_NAMES)}")


__all__ = [
    "AdaptiveSelector",
    "CdcDeltaStrategy",
    "FIXED_DELTA",
    "FULL_FILE",
    "FixedBlockDeltaStrategy",
    "FullFileStrategy",
    "PathHistory",
    "STRATEGY_NAMES",
    "SetReconcileStrategy",
    "StrategyEstimate",
    "SyncStrategy",
    "TransferTally",
    "make_strategy",
]
