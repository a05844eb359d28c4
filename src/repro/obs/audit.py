"""Byte-conservation auditing: one table of invariants.

Each invariant that makes the :class:`~repro.simnet.meter.TrafficMeter` a
trustworthy stand-in for the paper's Wireshark capture is one row of
:data:`INVARIANTS`: its name, the keyword inputs it reads, and its check.
:func:`verify` runs, in table order, every row whose inputs are all given
and returns the violations; :func:`audit` raises the first.  A check runs
only through those two, so no invariant can be defined and never run.

Over one span recorder (``recorder=``):

* ``span-sanity`` — every span ends no earlier than it starts; every wire
  span carries a non-negative meter delta with ``wasted <= total`` per
  direction;
* ``monotone-clock`` — no wire span starts before the previous wire span
  from the same source started;
* ``wire-packetisation`` — each wire span's delta equals the packetisation
  model (:meth:`repro.simnet.link.Link.wire_cost`) recomputed from the
  span's own attrs under the rule its ``op`` selects;
* ``sum-conservation`` — the final epoch's wire spans sum, field by field
  and in record count, to the meter's live totals;
* ``kind-conservation`` — per-kind totals sum to the meter-wide counters,
  ``wasted <= total`` within each kind;
* ``bundle-conservation``, ``strategy-conservation`` — the per-file bundle
  ledgers and the per-strategy payload claims explain exactly the wire
  payload of the exchanges they name.

Over ledgers kept outside a trace: ``replay-conservation`` (``report=``),
``fanout-conservation`` (``ledger=``, ``recorders=``),
``rest-conservation`` (``store=``) and ``domain-protocol``
(``scheduler=``); their checks' docstrings state them in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Set, Tuple)

from ..simnet.domains import verify_domain_protocol
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


def _failures(invariant: str, checks: Iterable[Tuple[bool, str]],
              session: Optional[str] = None) -> List[AuditViolation]:
    """One violation per ``(holds, message)`` pair that does not hold."""
    return [AuditViolation(invariant, message, session=session)
            for holds, message in checks if not holds]


# -- span rows (recorder=) ----------------------------------------------------

_DELTA_FIELDS = ("up_payload", "up_overhead", "up_wasted", "down_payload",
                 "down_overhead", "down_wasted", "record_count")


def _span_sanity(recorder: TraceRecorder) -> List[AuditViolation]:
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
        for name in _DELTA_FIELDS:
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


def _monotone_clock(recorder: TraceRecorder) -> List[AuditViolation]:
    out: List[AuditViolation] = []
    last_start: Dict[str, float] = {}
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


def _wire_packetisation(recorder: TraceRecorder) -> List[AuditViolation]:
    out: List[AuditViolation] = []
    for span in recorder.spans:
        if not span.wire or span.delta is None:
            continue
        violation = _recompute_span(span, recorder.label)
        if violation is not None:
            out.append(violation)
    return out


def _recompute_span(span: Span, session: str) -> Optional[AuditViolation]:
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


def _sum_conservation(recorder: TraceRecorder) -> List[AuditViolation]:
    totals = recorder.final_totals()
    if totals is None:
        return []
    sums = {name: 0 for name in _DELTA_FIELDS}
    for span in recorder.final_epoch_wire_spans():
        if span.delta is None:
            continue  # reported by span-sanity
        for name in _DELTA_FIELDS:
            sums[name] += getattr(span.delta, name)
    out: List[AuditViolation] = []
    for name in _DELTA_FIELDS:
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


def _kind_conservation(recorder: TraceRecorder) -> List[AuditViolation]:
    meter = recorder.meter
    if meter is None:
        return []
    kinds = meter.totals_by_kind()
    payload = sum(t.payload for t in kinds.values())
    overhead = sum(t.overhead for t in kinds.values())
    wasted = sum(t.wasted for t in kinds.values())
    out: List[AuditViolation] = []
    for what, summed, held in (("payload", payload, meter.payload_bytes),
                               ("overhead", overhead, meter.overhead_bytes),
                               ("wasted", wasted, meter.wasted_bytes)):
        if summed != held:
            out.append(AuditViolation(
                "kind-conservation",
                f"per-kind {what} sums to {summed}, meter holds {held}",
                session=recorder.label))
    for kind, totals in kinds.items():
        if totals.wasted > totals.total:
            out.append(AuditViolation(
                "kind-conservation",
                f"kind {kind!r} wasted {totals.wasted} exceeds its "
                f"total {totals.total}", session=recorder.label))
    return out


def _ledger_entry(entry: Any) -> Optional[Tuple[int, int]]:
    """``(wire_bytes, file_bytes)`` of one ``[path, wire_bytes,
    file_bytes]`` bundle ledger entry, or None when it is malformed."""
    try:
        _, wire_bytes, file_bytes = entry
        return int(wire_bytes), int(file_bytes)
    except (TypeError, ValueError):
        return None


def _bundle_conservation(recorder: TraceRecorder) -> List[AuditViolation]:
    """Full-BDS commits must explain their wire bytes file by file.

    Each logical ``bundle-commit`` span (one per full-BDS commit) carries a per-file ledger
    (``[path, wire_bytes, file_bytes]`` entries) whose wire column sums
    to the span's ``payload``; across the trace the ledger total must
    equal the upstream payload of the ``bundle-commit``-named wire
    exchanges.  Rejected/aborted attempts carry no payload and are
    excluded on both sides.
    """
    out: List[AuditViolation] = []
    ledger_total = 0
    wire_total = 0
    for span in recorder.spans:
        if span.kind == "bundle-commit":
            ledger = span.attrs.get("ledger")
            files = span.attrs.get("files")
            payload = span.attrs.get("payload", 0)
            if not isinstance(ledger, (list, tuple)):
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
                parsed = _ledger_entry(entry)
                if parsed is None:
                    out.append(AuditViolation(
                        "bundle-conservation",
                        f"malformed ledger entry {entry!r}; expected "
                        f"[path, wire_bytes, file_bytes]",
                        span, recorder.label))
                    continue
                wire_bytes, file_bytes = parsed
                if wire_bytes < 0 or file_bytes < 0:
                    out.append(AuditViolation(
                        "bundle-conservation",
                        f"negative ledger entry for {entry[0]!r}",
                        span, recorder.label))
                entry_sum += wire_bytes
            if entry_sum != payload:
                out.append(AuditViolation(
                    "bundle-conservation",
                    f"ledger sums to {entry_sum} wire bytes but the "
                    f"bundle payload is {payload}", span, recorder.label))
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


_NUMBER = (int, float)


def _strategy_conservation(recorder: TraceRecorder) -> List[AuditViolation]:
    """Strategy-routed transfers must explain their payload bytes.

    Each ``delta-exchange`` logical span claims, model-side, the upstream
    payload its transfer shipped (``payload``), the exchange names
    carrying it (``wire_names``), plus its cost vector (``wire_bytes``,
    ``round_trips``, ``cpu_units``).  Per strategy, the claimed payloads
    must sum to the ``up_payload`` of the wire exchanges bearing those
    names — two independent accounting paths (the client's call sites vs.
    the channel's span attributes) that only agree when every byte is
    attributed to exactly one strategy.
    """
    out: List[AuditViolation] = []
    ledger_sums: Dict[str, Any] = {}
    wire_names: Dict[str, Set[str]] = {}
    claimed_by: Dict[str, str] = {}
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
        wire_bytes = span.attrs.get("wire_bytes", 0)
        round_trips = span.attrs.get("round_trips", 0)
        cpu_units = span.attrs.get("cpu_units", 0)
        if not (isinstance(payload, _NUMBER)
                and isinstance(wire_bytes, _NUMBER)
                and isinstance(round_trips, _NUMBER)
                and isinstance(cpu_units, _NUMBER)
                and isinstance(names, (list, tuple))
                and all(isinstance(name, str) for name in names)):
            out.append(AuditViolation(
                "strategy-conservation",
                "delta-exchange span has a non-numeric cost vector or "
                "malformed wire_names", span, recorder.label))
            continue
        if payload < 0:
            out.append(AuditViolation(
                "strategy-conservation",
                f"negative claimed payload {payload}", span,
                recorder.label))
        if wire_bytes < payload:
            out.append(AuditViolation(
                "strategy-conservation",
                f"claimed payload {payload} exceeds measured wire "
                f"bytes {wire_bytes}", span, recorder.label))
        if round_trips < 0 or cpu_units < 0:
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
                    f"{owner!r} and {strategy!r}", span, recorder.label))
    if not ledger_sums:
        return out
    wire_sums: Dict[str, Any] = {}
    for span in recorder.spans:
        if span.kind != "exchange" or span.attrs.get("op") != "exchange":
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


# -- ledger rows --------------------------------------------------------------

_REPORT_COUNTERS = ("traffic_bytes", "data_update_bytes", "overhead_bytes",
                    "saved_by_compression", "saved_by_dedup", "saved_by_bds",
                    "saved_by_ids", "file_count", "upload_events")


def _replay_conservation(report: Any) -> List[AuditViolation]:
    """A ReplayReport balances: no negative counter or per-user total,
    per-user traffic sums to the report's traffic, overhead is a part of
    it, and no user's modification traffic exceeds their total."""
    checks: List[Tuple[bool, str]] = []
    checks.extend((getattr(report, name) >= 0, f"negative counter {name}")
                  for name in _REPORT_COUNTERS)
    checks.extend((value >= 0, f"negative per-user traffic for user {user}")
                  for user, value in report.per_user_traffic.items())
    per_user_sum = sum(report.per_user_traffic.values())
    checks.append((per_user_sum == report.traffic_bytes,
                   f"per-user traffic sums to {per_user_sum} but the "
                   f"report holds traffic_bytes={report.traffic_bytes}"))
    checks.append((report.overhead_bytes <= report.traffic_bytes,
                   f"overhead {report.overhead_bytes} exceeds total traffic "
                   f"{report.traffic_bytes}"))
    for user, value in report.per_user_modification_traffic.items():
        checks.append((value >= 0, f"negative per-user modification "
                                   f"traffic for user {user}"))
        checks.append((value <= report.per_user_traffic.get(user, 0),
                       f"user {user} modification traffic {value} exceeds "
                       f"the user's total traffic"))
    return _failures("replay-conservation", checks, report.service)


def _fanout_conservation(ledger: List[Any], recorders: List[TraceRecorder]
                         ) -> List[AuditViolation]:
    """Balance each commit epoch's server-side push against follower intake.

    The shared-folder hub's ledger records, per epoch, the bytes the server
    pushed down (notification frames plus every follower fetch, successful
    or not); followers record the same bytes as ``down_bytes`` attributes
    on their ``fanout-notification`` spans.  Per epoch:

    * server ``pushed_bytes`` == Σ follower span ``down_bytes``;
    * exactly the epoch's ``targets`` were notified, the origin never.

    A span whose epoch names no ledger entry is itself a violation.
    """
    out: List[AuditViolation] = []
    by_epoch_bytes: Dict[int, int] = {}
    by_epoch_notified: Dict[int, List[Any]] = {}
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
            if not 0 <= epoch < len(ledger):
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
    checks: List[Tuple[bool, str]] = []
    for entry in ledger:
        notified = by_epoch_notified.get(entry.epoch, [])
        received = by_epoch_bytes.get(entry.epoch, 0)
        checks.append((sorted(notified) == sorted(entry.targets),
                       f"epoch {entry.epoch} targeted {sorted(entry.targets)} "
                       f"but notified {sorted(notified)}"))
        checks.append((entry.origin not in notified,
                       f"epoch {entry.epoch} origin {entry.origin!r} "
                       f"received its own notification (self-echo)"))
        checks.append((received == entry.pushed_bytes,
                       f"epoch {entry.epoch} ({entry.kind} {entry.path!r} by "
                       f"{entry.origin}): server pushed {entry.pushed_bytes} "
                       f"bytes but followers received {received}"))
    return out + _failures("fanout-conservation", checks)


def _rest_conservation(store: Any) -> List[AuditViolation]:
    """Balance an ObjectStore's op counters against its physical state.

    Lifetime conservation: every byte ever PUT is either still stored or
    was reclaimed by a DELETE or an overwriting PUT —
    ``put_bytes - (delete_bytes + overwritten_bytes) == stored_bytes``.
    This is the invariant the ``delete_bytes``/``overwritten_bytes``
    counters exist to make checkable; backends that lose track of
    displaced bytes fail here.
    """
    ops = store.ops
    checks = [(getattr(ops, name) >= 0, f"negative counter {name}")
              for name in ("put", "get", "delete", "head", "list",
                           "put_bytes", "get_bytes", "delete_bytes",
                           "overwritten_bytes")]
    checks.append((ops.reclaimed_bytes <= ops.put_bytes,
                   f"reclaimed {ops.reclaimed_bytes} bytes exceed lifetime "
                   f"put_bytes {ops.put_bytes}"))
    balance = ops.put_bytes - ops.reclaimed_bytes
    checks.append((balance == store.stored_bytes,
                   f"ledger balance put_bytes - reclaimed = {balance} but "
                   f"the store physically holds {store.stored_bytes} bytes "
                   f"— displaced bytes went uncounted"))
    return _failures("rest-conservation", checks)


def _domain_protocol(scheduler: Any) -> List[AuditViolation]:
    """The sharded fleet's cross-domain message accounting, held to the
    same standard as the byte ledgers (matrix/total agreement, no
    self-crossings, monotone epochs, causal delivery).  The per-epoch
    byte balance across domains is ``fanout-conservation``'s, which is
    domain-agnostic by construction."""
    return [AuditViolation("domain-protocol", message)
            for message in verify_domain_protocol(scheduler)]


# -- the registry -------------------------------------------------------------

@dataclass(frozen=True)
class Invariant:
    """One conservation invariant: ``check(**inputs)`` returns its
    violations.  ``inputs`` names the keyword inputs the check reads."""

    name: str
    inputs: Tuple[str, ...]
    check: Callable[..., List[AuditViolation]]

    def arguments(self, given: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """This row's keyword arguments out of ``given``, or None when an
        input is missing."""
        if not all(name in given for name in self.inputs):
            return None
        return {name: given[name] for name in self.inputs}


#: Every invariant, in the order :func:`verify` runs them.
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant("span-sanity", ("recorder",), _span_sanity),
    Invariant("monotone-clock", ("recorder",), _monotone_clock),
    Invariant("wire-packetisation", ("recorder",), _wire_packetisation),
    Invariant("sum-conservation", ("recorder",), _sum_conservation),
    Invariant("kind-conservation", ("recorder",), _kind_conservation),
    Invariant("bundle-conservation", ("recorder",), _bundle_conservation),
    Invariant("strategy-conservation", ("recorder",), _strategy_conservation),
    Invariant("replay-conservation", ("report",), _replay_conservation),
    Invariant("fanout-conservation", ("ledger", "recorders"),
              _fanout_conservation),
    Invariant("rest-conservation", ("store",), _rest_conservation),
    Invariant("domain-protocol", ("scheduler",), _domain_protocol),
)


def verify(**inputs: Any) -> List[AuditViolation]:
    """Every violation of every row whose inputs are all given, in table
    order; empty when they all hold."""
    out: List[AuditViolation] = []
    used: Set[str] = set()
    for row in INVARIANTS:
        args = row.arguments(inputs)
        if args is not None:
            used.update(args)
            out.extend(row.check(**args))
    if used != inputs.keys():
        raise TypeError(f"no invariant runs on {sorted(inputs.keys() - used)}")
    return out


def audit(**inputs: Any) -> None:
    """Raise the first violation :func:`verify` finds, if any."""
    violations = verify(**inputs)
    if violations:
        raise violations[0]


def audit_hub(hub: TraceHub) -> None:
    """Audit every recorder in ``hub``; raise the first violation found."""
    for recorder in hub.recorders:
        audit(recorder=recorder)
