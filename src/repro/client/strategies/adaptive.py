"""The adaptive selector: per-file, per-network-condition strategy choice.

This extends the paper's adaptive sync defer (ASD, Eq. 2) from *when* to
sync into *how*: before each transfer the selector asks every candidate
strategy for an exact cost estimate under the link's observed conditions
(RTT, bandwidth, base loss — all read from the live link spec, exactly as
ASD reads the observed sync bandwidth) and picks the cheapest.  Because
the estimates are byte-exact under quiescent conditions, the greedy
per-file choice is never worse than any single static strategy on the
same workload — the dominance property Experiment 11 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .base import StrategyEstimate, SyncStrategy
from .delta import CdcDeltaStrategy, FixedBlockDeltaStrategy
from .fullfile import FULL_FILE, FullFileStrategy
from .reconcile import SetReconcileStrategy


@dataclass
class PathHistory:
    """Per-path edit history the selector accumulates (the ASD lineage)."""

    edits: int = 0
    chosen: Dict[str, int] = field(default_factory=dict)
    last: Optional[str] = None


class AdaptiveSelector(SyncStrategy):
    """Pick the cheapest applicable strategy for each individual file.

    Ordering is lexicographic on ``(wire_bytes, round_trips × RTT,
    history, name)``: bytes are the paper's currency (TUE), the RTT term
    breaks byte-ties in favour of fewer round trips on slow links, and a
    path's previously-chosen strategy wins exact ties so repeated edits
    keep a stable plan.  Candidates that cannot promise an exact estimate
    (see :meth:`SyncStrategy.estimate`) are skipped; when none can, the
    full-file route carries the change.
    """

    name = "adaptive"

    def __init__(self, candidates: Optional[Sequence[SyncStrategy]] = None):
        self.candidates: List[SyncStrategy] = (
            list(candidates) if candidates is not None else [
                FullFileStrategy(),
                FixedBlockDeltaStrategy(),
                CdcDeltaStrategy(),
                SetReconcileStrategy(),
            ])
        self.history: Dict[str, PathHistory] = {}

    def applicable(self, client: Any, change: Any, content: Any) -> bool:
        return True

    def estimate(self, client: Any, change: Any,
                 content: Any) -> Optional[StrategyEstimate]:
        return None  # a selector has no wire shape of its own to price

    def resolve(self, client: Any, change: Any, content: Any) -> SyncStrategy:
        path = change.path
        spec = client.link.spec
        history = self.history.setdefault(path, PathHistory())
        history.edits += 1

        considered: List[List[Any]] = []
        best = None
        best_est: Optional[StrategyEstimate] = None
        for candidate in self.candidates:
            if not candidate.applicable(client, change, content):
                continue
            estimate = candidate.estimate(client, change, content)
            if estimate is None:
                continue
            # Probing is real work (signatures, chunking, index mirrors):
            # charge it to the transfer's cpu ledger.
            client.charge_cpu(estimate.cpu_units)
            considered.append(
                [candidate.name, estimate.wire_bytes, estimate.round_trips])
            key = (estimate.wire_bytes,
                   estimate.round_trips * spec.rtt,
                   0 if candidate.name == history.last else 1,
                   candidate.name)
            if best is None or key < best[0]:
                best = (key, candidate)
                best_est = estimate
        chosen = best[1] if best is not None else FULL_FILE

        history.chosen[chosen.name] = history.chosen.get(chosen.name, 0) + 1
        history.last = chosen.name
        if client.recorder is not None:
            now = client.sim.now
            client.recorder.record_span(
                "strategy-select", chosen.name, "client", now, now,
                path=path, chosen=chosen.name,
                rtt=spec.rtt, up_bw=spec.up_bw, down_bw=spec.down_bw,
                loss_rate=spec.loss_rate, edits=history.edits,
                considered=considered,
                est_wire=best_est.wire_bytes if best_est else None,
                est_round_trips=best_est.round_trips if best_est else None)
        return chosen

    def transfer(self, client: Any, change: Any, content: Any,
                 lightweight: bool = False, in_batch: bool = False) -> float:
        # Only reached when the selector is used as a concrete strategy
        # (the engine normally calls resolve() and runs the winner).
        chosen = self.resolve(client, change, content)
        return chosen.transfer(client, change, content,
                               lightweight=lightweight, in_batch=in_batch)
