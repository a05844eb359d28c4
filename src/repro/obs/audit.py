"""Byte-conservation auditing over a recorded trace.

The auditor replays a :class:`~repro.obs.recorder.TraceRecorder` and
asserts the invariants that make the :class:`~repro.simnet.meter.TrafficMeter`
a trustworthy stand-in for the paper's Wireshark capture:

``span-sanity``
    Every span has ``end >= start``; every wire span carries a
    non-negative meter delta with ``wasted <= total`` per direction.
``monotone-clock``
    Wire spans from one channel start in non-decreasing sim-time order —
    a channel cannot put bytes on the wire in the past.
``wire-packetisation``
    For every wire span, the meter delta equals the packetisation model
    recomputed from the span's own inputs: forward bytes are
    ``wire + per-packet headers + retransmissions`` and the reverse
    direction carries the ACK stream, exactly as
    :meth:`repro.simnet.link.Link.wire_cost` defines them.
``sum-conservation``
    The wire spans of the final accounting epoch (after the last meter
    reset) sum — field by field, including record count — to the meter's
    live totals.  Every metered byte is explained by exactly one span.
``kind-conservation``
    Per-kind payload/overhead/wasted totals sum to the meter-wide
    counters and respect ``wasted <= total`` within each kind.
``bundle-conservation``
    Every bundled small-file commit explains its wire bytes file by file:
    the ``bundle-commit`` logical span's per-file ledger sums to its
    payload, and across the trace the ledger totals equal the payload of
    the ``bundle-commit`` wire exchanges — no byte rides a bundle
    unattributed.
``strategy-conservation``
    Every strategy-routed transfer explains its payload: each
    ``delta-exchange`` logical span's claimed ``payload`` is non-negative
    and bounded by its measured ``wire_bytes``, and per strategy the
    ledger sums equal the upstream payload of the wire exchanges the
    strategy declared it speaks through (its ``wire_names``) — no byte
    rides a sync strategy unattributed, and no two strategies claim the
    same exchange vocabulary.
``replay-conservation`` (:func:`verify_replay_report`)
    A :class:`~repro.trace.replay.ReplayReport`'s per-user counters sum
    to its merged totals and every decomposition stays within bounds;
    :func:`verify_replay_merge` checks shard reports add up to a merged
    report counter by counter.
``rest-conservation`` (:func:`verify_rest_ledger`)
    An :class:`~repro.cloud.object_store.ObjectStore`'s op ledger balances
    against its physical state: lifetime ``put_bytes`` minus reclaimed
    (deleted + overwritten) bytes equals the bytes currently stored.

Violations are reported as structured :class:`AuditViolation` errors
naming the invariant and the offending span.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..simnet.link import Link
from .recorder import Span, TraceHub, TraceRecorder


class AuditViolation(Exception):
    """A broken conservation invariant, pinned to the span that broke it."""

    def __init__(self, invariant: str, message: str,
                 span: Optional[Span] = None,
                 session: Optional[str] = None) -> None:
        self.invariant = invariant
        self.span = span
        self.session = session
        where = f" at {span.describe()}" if span is not None else ""
        who = f" (session {session})" if session else ""
        super().__init__(f"[{invariant}]{who} {message}{where}")


#: The invariants :meth:`ConservationAuditor.verify` checks, in order.
SPAN_INVARIANTS = ("span-sanity", "monotone-clock", "wire-packetisation",
                   "sum-conservation", "kind-conservation",
                   "bundle-conservation", "strategy-conservation")


class ConservationAuditor:
    """Replays a recorder's span ledger and checks every invariant."""

    def verify(self, recorder: TraceRecorder) -> List[AuditViolation]:
        """All violations in ``recorder``, empty when the trace is clean."""
        violations: List[AuditViolation] = []
        violations.extend(self._check_span_sanity(recorder))
        violations.extend(self._check_monotone_clocks(recorder))
        violations.extend(self._check_wire_math(recorder))
        violations.extend(self._check_sum_conservation(recorder))
        violations.extend(self._check_kind_conservation(recorder))
        violations.extend(self._check_bundle_conservation(recorder))
        violations.extend(self._check_strategy_conservation(recorder))
        return violations

    def audit(self, recorder: TraceRecorder) -> None:
        """Raise the first violation found, if any."""
        violations = self.verify(recorder)
        if violations:
            raise violations[0]

    # -- invariants -------------------------------------------------------

    def _check_span_sanity(self, recorder: TraceRecorder) -> List[AuditViolation]:
        out: List[AuditViolation] = []
        for span in recorder.spans:
            if span.end < span.start:
                out.append(AuditViolation(
                    "span-sanity", f"end {span.end:.3f} precedes start "
                    f"{span.start:.3f}", span, recorder.label))
            if not span.wire:
                continue
            delta = span.delta
            if delta is None:
                out.append(AuditViolation(
                    "span-sanity", "wire span carries no meter delta",
                    span, recorder.label))
                continue
            for name in ("up_payload", "up_overhead", "up_wasted",
                         "down_payload", "down_overhead", "down_wasted",
                         "record_count"):
                if getattr(delta, name) < 0:
                    out.append(AuditViolation(
                        "span-sanity", f"negative delta field {name}",
                        span, recorder.label))
            if delta.up_wasted > delta.up_total:
                out.append(AuditViolation(
                    "span-sanity",
                    f"up wasted {delta.up_wasted} exceeds up total "
                    f"{delta.up_total}", span, recorder.label))
            if delta.down_wasted > delta.down_total:
                out.append(AuditViolation(
                    "span-sanity",
                    f"down wasted {delta.down_wasted} exceeds down total "
                    f"{delta.down_total}", span, recorder.label))
        return out

    def _check_monotone_clocks(self, recorder: TraceRecorder) -> List[AuditViolation]:
        out: List[AuditViolation] = []
        last_start: dict = {}
        for span in recorder.spans:
            if not span.wire:
                continue
            previous = last_start.get(span.source)
            if previous is not None and span.start < previous:
                out.append(AuditViolation(
                    "monotone-clock",
                    f"wire span starts at {span.start:.3f}, before the "
                    f"previous {span.source} span at {previous:.3f}",
                    span, recorder.label))
            last_start[span.source] = span.start
        return out

    def _check_wire_math(self, recorder: TraceRecorder) -> List[AuditViolation]:
        out: List[AuditViolation] = []
        for span in recorder.spans:
            if not span.wire or span.delta is None:
                continue
            violation = self._recompute_span(span, recorder.label)
            if violation is not None:
                out.append(violation)
        return out

    def _recompute_span(self, span: Span,
                        session: str) -> Optional[AuditViolation]:
        """Recompute the packetisation arithmetic from the span's inputs and
        compare it with the meter delta the span actually produced."""
        attrs = span.attrs
        delta = span.delta
        assert delta is not None
        op = attrs.get("op")
        if op is None:
            return AuditViolation(
                "wire-packetisation", "wire span has no op attribute",
                span, session)

        def mismatch(what: str, expected: int, got: int) -> AuditViolation:
            return AuditViolation(
                "wire-packetisation",
                f"{what}: model says {expected}, meter recorded {got}",
                span, session)

        if op == "handshake":
            expected_up = attrs.get("up_bytes")
            expected_down = attrs.get("down_bytes")
            if delta.up_total != expected_up:
                return mismatch("handshake up bytes", expected_up,
                                delta.up_total)
            if delta.down_total != expected_down:
                return mismatch("handshake down bytes", expected_down,
                                delta.down_total)
            if delta.payload != 0 or delta.wasted != 0:
                return mismatch("handshake payload/wasted", 0,
                                delta.payload + delta.wasted)
            return None

        if op in ("exchange", "rejected"):
            up_wire = attrs.get("up_wire", 0)
            down_wire = attrs.get("down_wire", 0)
            up_retx = attrs.get("up_retx", 0)
            down_retx = attrs.get("down_retx", 0)
            up_hdr, up_acks = Link.wire_cost(up_wire)
            down_hdr, down_acks = Link.wire_cost(down_wire)
            expected_up = up_wire + up_hdr + down_acks + up_retx
            expected_down = down_wire + down_hdr + up_acks + down_retx
            if delta.up_total != expected_up:
                return mismatch("up wire bytes", expected_up, delta.up_total)
            if delta.down_total != expected_down:
                return mismatch("down wire bytes", expected_down,
                                delta.down_total)
            if op == "exchange":
                if delta.up_payload != attrs.get("up_payload", 0):
                    return mismatch("up payload", attrs.get("up_payload", 0),
                                    delta.up_payload)
                if delta.down_payload != attrs.get("down_payload", 0):
                    return mismatch("down payload",
                                    attrs.get("down_payload", 0),
                                    delta.down_payload)
                if delta.up_wasted != up_retx:
                    return mismatch("up wasted (retransmissions)", up_retx,
                                    delta.up_wasted)
                if delta.down_wasted != down_retx:
                    return mismatch("down wasted (retransmissions)",
                                    down_retx, delta.down_wasted)
            else:  # rejected: fully wasted, no payload
                if delta.payload != 0:
                    return mismatch("rejected payload", 0, delta.payload)
                if delta.up_wasted != delta.up_total:
                    return mismatch("rejected up wasted", delta.up_total,
                                    delta.up_wasted)
                if delta.down_wasted != delta.down_total:
                    return mismatch("rejected down wasted", delta.down_total,
                                    delta.down_wasted)
            return None

        if op == "restart":
            wire_bytes = attrs.get("wire_bytes", 0)
            hdr, acks = Link.wire_cost(wire_bytes)
            if delta.up_total != wire_bytes + hdr:
                return mismatch("restart up bytes", wire_bytes + hdr,
                                delta.up_total)
            if delta.down_total != acks:
                return mismatch("restart ack bytes", acks, delta.down_total)
            if delta.up_wasted != delta.up_total \
                    or delta.down_wasted != delta.down_total:
                return mismatch("restart wasted", delta.total, delta.wasted)
            if delta.payload != 0:
                return mismatch("restart payload", 0, delta.payload)
            return None

        if op == "aborted":
            sent_up = attrs.get("sent_up", 0)
            sent_down = attrs.get("sent_down", 0)
            if delta.up_total != sent_up:
                return mismatch("aborted up bytes", sent_up, delta.up_total)
            if delta.down_total != sent_down:
                return mismatch("aborted down bytes", sent_down,
                                delta.down_total)
            if delta.wasted != delta.total:
                return mismatch("aborted wasted", delta.total, delta.wasted)
            if delta.payload != 0:
                return mismatch("aborted payload", 0, delta.payload)
            return None

        if op == "notification":
            nbytes = attrs.get("nbytes", 0)
            hdr, acks = Link.wire_cost(nbytes)
            if delta.down_total != nbytes + hdr:
                return mismatch("notification down bytes", nbytes + hdr,
                                delta.down_total)
            if delta.up_total != acks:
                return mismatch("notification ack bytes", acks,
                                delta.up_total)
            if delta.payload != 0 or delta.wasted != 0:
                return mismatch("notification payload/wasted", 0,
                                delta.payload + delta.wasted)
            return None

        return AuditViolation(
            "wire-packetisation", f"unknown wire op {op!r}", span, session)

    def _check_sum_conservation(self, recorder: TraceRecorder) -> List[AuditViolation]:
        totals = recorder.final_totals()
        if totals is None:
            return []
        out: List[AuditViolation] = []
        fields = ("up_payload", "up_overhead", "up_wasted", "down_payload",
                  "down_overhead", "down_wasted", "record_count")
        sums = {name: 0 for name in fields}
        for span in recorder.final_epoch_wire_spans():
            if span.delta is None:
                continue  # reported by span-sanity
            for name in fields:
                sums[name] += getattr(span.delta, name)
        for name in fields:
            if sums[name] != getattr(totals, name):
                out.append(AuditViolation(
                    "sum-conservation",
                    f"wire spans sum to {name}={sums[name]} but the meter "
                    f"holds {getattr(totals, name)} — some traffic is "
                    f"unexplained by spans (or double-counted)",
                    session=recorder.label))
        if totals.up_wasted > totals.up_total:
            out.append(AuditViolation(
                "sum-conservation", "meter up wasted exceeds up total",
                session=recorder.label))
        if totals.down_wasted > totals.down_total:
            out.append(AuditViolation(
                "sum-conservation", "meter down wasted exceeds down total",
                session=recorder.label))
        return out

    def _check_kind_conservation(self, recorder: TraceRecorder) -> List[AuditViolation]:
        meter = recorder.meter
        if meter is None:
            return []
        out: List[AuditViolation] = []
        kinds = meter.totals_by_kind()
        payload = sum(t.payload for t in kinds.values())
        overhead = sum(t.overhead for t in kinds.values())
        wasted = sum(t.wasted for t in kinds.values())
        if payload != meter.payload_bytes:
            out.append(AuditViolation(
                "kind-conservation",
                f"per-kind payload sums to {payload}, meter holds "
                f"{meter.payload_bytes}", session=recorder.label))
        if overhead != meter.overhead_bytes:
            out.append(AuditViolation(
                "kind-conservation",
                f"per-kind overhead sums to {overhead}, meter holds "
                f"{meter.overhead_bytes}", session=recorder.label))
        if wasted != meter.wasted_bytes:
            out.append(AuditViolation(
                "kind-conservation",
                f"per-kind wasted sums to {wasted}, meter holds "
                f"{meter.wasted_bytes}", session=recorder.label))
        for kind, totals in kinds.items():
            if totals.wasted > totals.total:
                out.append(AuditViolation(
                    "kind-conservation",
                    f"kind {kind!r} wasted {totals.wasted} exceeds its "
                    f"total {totals.total}", session=recorder.label))
        return out

    def _check_bundle_conservation(self, recorder: TraceRecorder
                                   ) -> List[AuditViolation]:
        """Bundled commits must explain their wire bytes file by file.

        Each logical ``bundle-commit`` span carries a per-file ledger
        (``[path, wire_bytes, file_bytes]`` entries) whose wire column
        sums to the span's ``payload``; across the trace the ledger total
        must equal the upstream payload of the ``bundle-commit``-named
        wire exchanges.  Rejected/aborted attempts carry no payload and
        are excluded on both sides.
        """
        out: List[AuditViolation] = []
        ledger_total = 0
        wire_total = 0
        for span in recorder.spans:
            if span.kind == "bundle-commit":
                ledger = span.attrs.get("ledger")
                files = span.attrs.get("files")
                payload = span.attrs.get("payload", 0)
                if ledger is None:
                    out.append(AuditViolation(
                        "bundle-conservation",
                        "bundle-commit span carries no per-file ledger",
                        span, recorder.label))
                    continue
                if files != len(ledger):
                    out.append(AuditViolation(
                        "bundle-conservation",
                        f"span claims {files} files but its ledger has "
                        f"{len(ledger)} entries", span, recorder.label))
                entry_sum = 0
                for entry in ledger:
                    wire_bytes = int(entry[1])
                    if wire_bytes < 0 or int(entry[2]) < 0:
                        out.append(AuditViolation(
                            "bundle-conservation",
                            f"negative ledger entry for {entry[0]!r}",
                            span, recorder.label))
                    entry_sum += wire_bytes
                if entry_sum != payload:
                    out.append(AuditViolation(
                        "bundle-conservation",
                        f"ledger sums to {entry_sum} wire bytes but the "
                        f"bundle payload is {payload}", span,
                        recorder.label))
                ledger_total += entry_sum
            elif (span.kind == "exchange" and span.name == "bundle-commit"
                    and span.attrs.get("op") == "exchange"):
                wire_total += span.attrs.get("up_payload", 0)
        if ledger_total != wire_total:
            out.append(AuditViolation(
                "bundle-conservation",
                f"per-file ledgers explain {ledger_total} bundled wire "
                f"bytes but bundle-commit exchanges carried {wire_total}",
                session=recorder.label))
        return out

    def _check_strategy_conservation(self, recorder: TraceRecorder
                                     ) -> List[AuditViolation]:
        """Strategy-routed transfers must explain their payload bytes.

        Each ``delta-exchange`` logical span claims, model-side, the
        upstream payload its transfer shipped (``payload``), the exchange
        names carrying it (``wire_names``), plus its cost vector
        (``wire_bytes``, ``round_trips``, ``cpu_units``).  Per strategy,
        the claimed payloads must sum to the ``up_payload`` of the wire
        exchanges bearing those names — two independent accounting paths
        (the client's call sites vs. the channel's span attributes) that
        only agree when every byte is attributed to exactly one strategy.
        """
        out: List[AuditViolation] = []
        ledger_sums: dict = {}
        wire_names: dict = {}
        claimed_by: dict = {}
        for span in recorder.spans:
            if span.kind != "delta-exchange":
                continue
            strategy = span.attrs.get("strategy", span.name)
            payload = span.attrs.get("payload")
            names = span.attrs.get("wire_names")
            if payload is None or names is None:
                out.append(AuditViolation(
                    "strategy-conservation",
                    "delta-exchange span lacks payload/wire_names attrs",
                    span, recorder.label))
                continue
            if payload < 0:
                out.append(AuditViolation(
                    "strategy-conservation",
                    f"negative claimed payload {payload}", span,
                    recorder.label))
            wire_bytes = span.attrs.get("wire_bytes", 0)
            if wire_bytes < payload:
                out.append(AuditViolation(
                    "strategy-conservation",
                    f"claimed payload {payload} exceeds measured wire "
                    f"bytes {wire_bytes}", span, recorder.label))
            if span.attrs.get("round_trips", 0) < 0 \
                    or span.attrs.get("cpu_units", 0) < 0:
                out.append(AuditViolation(
                    "strategy-conservation",
                    "negative round_trips/cpu_units in cost vector",
                    span, recorder.label))
            ledger_sums[strategy] = ledger_sums.get(strategy, 0) + payload
            wire_names.setdefault(strategy, set()).update(names)
            for name in names:
                owner = claimed_by.setdefault(name, strategy)
                if owner != strategy:
                    out.append(AuditViolation(
                        "strategy-conservation",
                        f"exchange name {name!r} claimed by both "
                        f"{owner!r} and {strategy!r}", span,
                        recorder.label))
        if not ledger_sums:
            return out
        wire_sums: dict = {}
        for span in recorder.spans:
            if span.kind != "exchange" \
                    or span.attrs.get("op") != "exchange":
                continue
            wire_sums[span.name] = (wire_sums.get(span.name, 0)
                                    + span.attrs.get("up_payload", 0))
        for strategy, claimed in sorted(ledger_sums.items()):
            carried = sum(wire_sums.get(name, 0)
                          for name in sorted(wire_names[strategy]))
            if claimed != carried:
                out.append(AuditViolation(
                    "strategy-conservation",
                    f"strategy {strategy!r} ledgers claim {claimed} "
                    f"payload bytes but its exchanges carried {carried}",
                    session=recorder.label))
        return out


def audit_hub(hub: TraceHub) -> None:
    """Audit every recorder in ``hub``; raise the first violation found."""
    auditor = ConservationAuditor()
    for recorder in hub.recorders:
        auditor.audit(recorder)


# -- replay-report conservation -------------------------------------------

def verify_replay_report(report: Any) -> List[AuditViolation]:
    """Conservation checks over a (possibly merged) ReplayReport."""
    out: List[AuditViolation] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            out.append(AuditViolation("replay-conservation", message,
                                      session=report.service))

    for name in ("traffic_bytes", "data_update_bytes", "overhead_bytes",
                 "saved_by_compression", "saved_by_dedup", "saved_by_bds",
                 "saved_by_ids", "file_count", "upload_events"):
        check(getattr(report, name) >= 0, f"negative counter {name}")
    for user, value in report.per_user_traffic.items():
        check(value >= 0, f"negative per-user traffic for user {user}")
    per_user_sum = sum(report.per_user_traffic.values())
    check(per_user_sum == report.traffic_bytes,
          f"per-user traffic sums to {per_user_sum} but the merged report "
          f"holds traffic_bytes={report.traffic_bytes}")
    check(report.overhead_bytes <= report.traffic_bytes,
          f"overhead {report.overhead_bytes} exceeds total traffic "
          f"{report.traffic_bytes}")
    for user, value in report.per_user_modification_traffic.items():
        check(value >= 0,
              f"negative per-user modification traffic for user {user}")
        check(value <= report.per_user_traffic.get(user, 0),
              f"user {user} modification traffic {value} exceeds the "
              f"user's total traffic")
    return out


def audit_replay_report(report: Any) -> None:
    violations = verify_replay_report(report)
    if violations:
        raise violations[0]


def verify_replay_merge(parts: List[Any], merged: Any,
                        settle_credits: Optional[dict] = None
                        ) -> List[AuditViolation]:
    """Shard reports must sum, counter by counter, to the merged report.

    ``settle_credits`` is the phase-2 CROSS_USER dedup correction the
    parallel merge applied (per-user bytes re-credited from
    ``traffic_bytes`` to ``saved_by_dedup``); with it, raw phase-one
    shard reports balance against the final merged report exactly —
    traffic drops by the total credit, dedup savings rise by the same
    total, and each user's traffic drops by their own credit, so not a
    byte appears or vanishes in the settlement.  Without it (the
    default), the merge must be purely additive.
    """
    out: List[AuditViolation] = []
    credits = settle_credits or {}

    def check(condition: bool, message: str) -> None:
        if not condition:
            out.append(AuditViolation("replay-conservation", message,
                                      session=merged.service))

    for user, value in credits.items():
        check(value >= 0,
              f"settle credit for {user} is negative ({value}): phase 2 "
              f"can only move bytes from traffic into dedup savings")
    adjustment = sum(credits.values())
    for name in ("traffic_bytes", "data_update_bytes", "overhead_bytes",
                 "saved_by_compression", "saved_by_dedup", "saved_by_bds",
                 "saved_by_ids", "file_count", "upload_events"):
        total = sum(getattr(part, name) for part in parts)
        if name == "traffic_bytes":
            total -= adjustment
        elif name == "saved_by_dedup":
            total += adjustment
        check(total == getattr(merged, name),
              f"shard {name} sums to {total} after settlement, merged "
              f"report holds {getattr(merged, name)}")
    for dict_name in ("per_user_traffic", "per_user_modification_traffic",
                      "per_user_modification_update"):
        summed: dict = {}
        for part in parts:
            for user, value in getattr(part, dict_name).items():
                summed[user] = summed.get(user, 0) + value
        if dict_name == "per_user_traffic":
            for user, value in credits.items():
                check(user in summed,
                      f"settle credit for unknown user {user}")
                summed[user] = summed.get(user, 0) - value
        check(summed == getattr(merged, dict_name),
              f"per-user dict {dict_name} does not merge additively")
    return out


# -- fleet fan-out conservation -------------------------------------------

def verify_fleet_fanout(ledger: List[Any],
                        recorders: List[TraceRecorder]) -> List[AuditViolation]:
    """Balance each commit epoch's server-side push against follower intake.

    The shared-folder hub's ledger records, per epoch, the bytes the server
    pushed down (notification frames plus every follower fetch, successful
    or not); followers record the same bytes as ``down_bytes`` attributes
    on their ``fanout-notification`` spans.  Per epoch:

    * server ``pushed_bytes`` == Σ follower span ``down_bytes``;
    * exactly the epoch's ``targets`` were notified, the origin never.

    Backfill downloads (epoch < 0) move real bytes outside any commit
    epoch and are exempt by construction.
    """
    out: List[AuditViolation] = []
    by_epoch_bytes: dict = {}
    by_epoch_notified: dict = {}
    for recorder in recorders:
        for span in recorder.spans:
            if span.kind != "fanout-notification":
                continue
            epoch = span.attrs.get("epoch")
            if epoch is None:
                out.append(AuditViolation(
                    "fanout-conservation",
                    f"fanout-notification span {span.name!r} carries no "
                    f"epoch attribute", span=span, session=recorder.label))
                continue
            if epoch < 0:
                continue  # join-time backfill: no commit epoch to balance
            if epoch >= len(ledger):
                out.append(AuditViolation(
                    "fanout-conservation",
                    f"span references unknown epoch {epoch} "
                    f"(ledger holds {len(ledger)})",
                    span=span, session=recorder.label))
                continue
            by_epoch_bytes[epoch] = (by_epoch_bytes.get(epoch, 0)
                                     + int(span.attrs.get("down_bytes", 0)))
            if span.name == "notify":
                by_epoch_notified.setdefault(epoch, []).append(
                    span.attrs.get("member"))
    for entry in ledger:
        notified = by_epoch_notified.get(entry.epoch, [])
        if sorted(notified) != sorted(entry.targets):
            out.append(AuditViolation(
                "fanout-conservation",
                f"epoch {entry.epoch} targeted {sorted(entry.targets)} but "
                f"notified {sorted(notified)}"))
        if entry.origin in notified:
            out.append(AuditViolation(
                "fanout-conservation",
                f"epoch {entry.epoch} origin {entry.origin!r} received its "
                f"own notification (self-echo)"))
        received = by_epoch_bytes.get(entry.epoch, 0)
        if received != entry.pushed_bytes:
            out.append(AuditViolation(
                "fanout-conservation",
                f"epoch {entry.epoch} ({entry.kind} {entry.path!r} by "
                f"{entry.origin}): server pushed {entry.pushed_bytes} bytes "
                f"but followers received {received}"))
    return out


def audit_fleet_fanout(ledger: List[Any],
                       recorders: List[TraceRecorder]) -> None:
    """Raise the first fan-out conservation violation, if any."""
    violations = verify_fleet_fanout(ledger, recorders)
    if violations:
        raise violations[0]


def audit_domain_protocol(scheduler: Any) -> None:
    """Raise on the first broken cross-domain message invariant.

    The sharded fleet's fan-out crosses event domains as epoch-stamped
    messages; this invariant holds the message accounting itself to the
    same standard as the byte ledgers (matrix/total agreement, no
    self-crossings, monotone epochs, causal delivery).  The per-epoch
    byte balance across domains is already covered by
    ``fanout-conservation``, which is domain-agnostic by construction.
    """
    from ..simnet.domains import verify_domain_protocol

    violations = verify_domain_protocol(scheduler)
    if violations:
        raise AuditViolation("domain-protocol", violations[0])


# -- REST cost-ledger conservation ------------------------------------------

def verify_rest_ledger(store: Any) -> List[AuditViolation]:
    """Balance an ObjectStore's op counters against its physical state.

    Lifetime conservation: every byte ever PUT is either still stored or
    was reclaimed by a DELETE or an overwriting PUT —
    ``put_bytes - (delete_bytes + overwritten_bytes) == stored_bytes``.
    This is the invariant the ``delete_bytes``/``overwritten_bytes``
    counters exist to make checkable; backends that lose track of
    displaced bytes fail here.
    """
    out: List[AuditViolation] = []
    ops = store.ops

    def check(condition: bool, message: str) -> None:
        if not condition:
            out.append(AuditViolation("rest-conservation", message))

    for name in ("put", "get", "delete", "head", "list", "put_bytes",
                 "get_bytes", "delete_bytes", "overwritten_bytes"):
        check(getattr(ops, name) >= 0, f"negative counter {name}")
    check(ops.reclaimed_bytes <= ops.put_bytes,
          f"reclaimed {ops.reclaimed_bytes} bytes exceed lifetime "
          f"put_bytes {ops.put_bytes}")
    balance = ops.put_bytes - ops.reclaimed_bytes
    check(balance == store.stored_bytes,
          f"ledger balance put_bytes - reclaimed = {balance} but the store "
          f"physically holds {store.stored_bytes} bytes — displaced bytes "
          f"went uncounted")
    return out


def audit_rest_ledger(store: Any) -> None:
    """Raise the first REST-ledger conservation violation, if any."""
    violations = verify_rest_ledger(store)
    if violations:
        raise violations[0]
