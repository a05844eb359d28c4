"""Observability: wire-level event tracing and byte-conservation auditing.

The paper's methodology rests on trusting a packet capture — every TUE,
overhead-split, and deferment number is a Wireshark ledger read at the
client's NIC.  Our :class:`~repro.simnet.meter.TrafficMeter` plays that
role, and this package is the instrument that makes it trustworthy:

* :class:`TraceRecorder` — a ledger of typed spans (connect, exchange,
  retry-attempt, defer-window, dedup-hit, fault-episode, sync-transaction)
  emitted by the channel, the client engine, and the cloud server, each
  carrying start/end sim-time and the meter delta it produced;
* :data:`INVARIANTS` — the conservation invariants that make the meter a
  faithful capture (span deltas sum to meter totals, wire bytes match the
  packetisation model, wasted is a decomposition, clocks are monotone,
  and the replay, fan-out, REST and cross-domain ledgers balance), one
  table row each; :func:`verify` runs every row its inputs allow and
  :func:`audit` raises the first structured :class:`AuditViolation`,
  naming the invariant and the offending span;
* :func:`recording` — an ambient :class:`TraceHub` context so every
  experiment (1–8) and CLI command can run traced/audited without any
  signature changes, at near-zero overhead when disabled (a single
  ``is None`` check per wire event).
"""

from .audit import (
    INVARIANTS,
    AuditViolation,
    audit,
    audit_hub,
    verify,
)
from .recorder import (
    BUNDLE_COMMIT,
    CONNECT,
    DEDUP_HIT,
    DEFER_WINDOW,
    DELTA_EXCHANGE,
    EXCHANGE,
    FAULT_EPISODE,
    METER_RESET,
    RETRY_ATTEMPT,
    SPAN_KINDS,
    STRATEGY_SELECT,
    SYNC_TRANSACTION,
    WIRE_KINDS,
    PhaseStat,
    Span,
    TraceHub,
    TraceRecorder,
    current_hub,
    recording,
    session_recorder,
)

__all__ = [
    "AuditViolation",
    "BUNDLE_COMMIT",
    "CONNECT",
    "DEDUP_HIT",
    "DEFER_WINDOW",
    "DELTA_EXCHANGE",
    "EXCHANGE",
    "FAULT_EPISODE",
    "INVARIANTS",
    "METER_RESET",
    "PhaseStat",
    "RETRY_ATTEMPT",
    "SPAN_KINDS",
    "STRATEGY_SELECT",
    "SYNC_TRANSACTION",
    "Span",
    "TraceHub",
    "TraceRecorder",
    "WIRE_KINDS",
    "audit",
    "audit_hub",
    "current_hub",
    "recording",
    "session_recorder",
    "verify",
]
