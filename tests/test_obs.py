"""Tests for the tracing layer (repro.obs): spans, hub, auditor, export."""

import dataclasses
import json

import pytest

from repro.client import AccessMethod, SyncSession
from repro.obs import (
    AuditViolation,
    Span,
    TraceHub,
    TraceRecorder,
    audit_hub,
    current_hub,
    recording,
    session_recorder,
    verify,
)
from repro.simnet import Direction, TrafficMeter
from repro.units import KB


def traced_session(service="Dropbox", **kwargs):
    hub = TraceHub()
    with recording(hub=hub):
        session = SyncSession(service, AccessMethod.PC, **kwargs)
    return session, hub


def run_small_workload(session):
    session.create_random_file("a.bin", 32 * KB, seed=1)
    session.run_until_idle()
    session.modify_random_byte("a.bin", seed=2)
    session.run_until_idle()


# -- recorder basics -------------------------------------------------------


def test_record_span_rejects_unknown_kind():
    recorder = TraceRecorder()
    with pytest.raises(ValueError):
        recorder.record_span("telepathy", "x", "test", 0.0, 1.0)


def test_ambient_hub_scoping():
    assert current_hub() is None
    assert session_recorder() is None           # disabled ⇒ None, no hub
    with recording() as hub:
        assert current_hub() is hub
        recorder = session_recorder("lbl")
        assert recorder is not None and recorder in hub.recorders
        with recording() as inner:              # nesting restores the outer
            assert current_hub() is inner
        assert current_hub() is hub
    assert current_hub() is None


def test_session_outside_recording_has_no_recorder():
    """The overhead-when-disabled guarantee starts here: no ambient hub ⇒
    no recorder anywhere in the stack."""
    session = SyncSession("Dropbox", AccessMethod.PC)
    assert session.recorder is None
    assert session.client.recorder is None
    assert session.client.channel.recorder is None
    with pytest.raises(ValueError):
        session.audit()


def test_session_inside_recording_is_wired_end_to_end():
    session, hub = traced_session()
    assert session.recorder is not None
    assert session.client.recorder is session.recorder
    assert session.client.channel.recorder is session.recorder
    assert session.server.recorder is session.recorder
    assert session.recorder.meter is session.meter
    assert session.recorder in hub.recorders


# -- audit over real traffic ----------------------------------------------


def test_audit_passes_on_clean_session():
    session, hub = traced_session()
    run_small_workload(session)
    session.audit()                 # no raise
    audit_hub(hub)                  # no raise
    assert verify(recorder=session.recorder) == []
    kinds = {span.kind for span in session.recorder.spans}
    assert {"connect", "exchange", "defer-window",
            "sync-transaction"} <= kinds


def test_audit_passes_across_meter_reset_epochs():
    session, _ = traced_session()
    session.create_random_file("a.bin", 16 * KB, seed=1)
    session.run_until_idle()
    session.reset_meter()
    session.modify_random_byte("a.bin", seed=2)
    session.run_until_idle()
    assert any(s.kind == "meter-reset" for s in session.recorder.spans)
    session.audit()                 # totals only cover the final epoch


def test_wire_spans_cover_every_meter_record():
    session, _ = traced_session()
    run_small_workload(session)
    spans = session.recorder.final_epoch_wire_spans()
    assert sum(s.delta.record_count for s in spans) == len(session.meter.records)
    assert sum(s.delta.total for s in spans) == session.meter.total_bytes


def test_tracing_does_not_perturb_measurements():
    """Zero-fault traffic must be byte-identical with and without tracing."""
    plain = SyncSession("GoogleDrive", AccessMethod.PC)
    run_small_workload(plain)
    traced, _ = traced_session("GoogleDrive")
    run_small_workload(traced)
    assert traced.total_traffic == plain.total_traffic
    assert traced.meter.totals_by_kind() == plain.meter.totals_by_kind()
    assert traced.sim.now == plain.sim.now


def test_dedup_hit_events_from_shared_server():
    session, _ = traced_session()
    session.create_random_file("one.bin", 64 * KB, seed=3)
    session.run_until_idle()
    # Same content at a new path: negotiation should hit the dedup index.
    session.create_file("two.bin", session.folder.get("one.bin"))
    session.run_until_idle()
    hits = [s for s in session.recorder.spans if s.kind == "dedup-hit"]
    assert hits and all(s.attrs["hits"] >= 1 for s in hits)
    session.audit()


# -- the auditor must actually fail on corruption --------------------------


def corrupt(recorder, index, **changes):
    span = recorder.spans[index]
    recorder.spans[index] = dataclasses.replace(span, **changes)


def wire_index(recorder):
    return next(s.index for s in recorder.spans
                if s.kind == "exchange" and s.attrs.get("op") == "exchange")


def test_corrupted_delta_raises_audit_violation():
    session, _ = traced_session()
    run_small_workload(session)
    recorder = session.recorder
    index = wire_index(recorder)
    bad = dataclasses.replace(recorder.spans[index].delta,
                              up_overhead=recorder.spans[index].delta.up_overhead + 1)
    corrupt(recorder, index, delta=bad)
    with pytest.raises(AuditViolation) as err:
        session.audit()
    assert err.value.invariant in ("wire-packetisation", "sum-conservation")
    assert err.value.span is not None


def test_unmetered_traffic_raises_sum_conservation():
    """A meter record no span explains (the bug class this PR hunts)."""
    session, _ = traced_session()
    run_small_workload(session)
    session.meter.record(session.sim.now, Direction.UP, 0, 999, kind="ghost")
    with pytest.raises(AuditViolation) as err:
        session.audit()
    assert err.value.invariant == "sum-conservation"


def test_corrupted_clock_raises_monotone_violation():
    session, _ = traced_session()
    run_small_workload(session)
    recorder = session.recorder
    indices = [s.index for s in recorder.wire_spans()]
    corrupt(recorder, indices[-1], start=-5.0, end=-4.0)
    violations = verify(recorder=recorder)
    assert any(v.invariant == "monotone-clock" for v in violations)


def test_backwards_span_raises_sanity_violation():
    recorder = TraceRecorder()
    recorder.bind_meter(TrafficMeter())
    recorder.record_span("sync-transaction", "sync", "client", 5.0, 1.0)
    violations = verify(recorder=recorder)
    assert [v.invariant for v in violations] == ["span-sanity"]


def test_wire_span_without_delta_is_a_violation():
    recorder = TraceRecorder()
    recorder.bind_meter(TrafficMeter())
    recorder.record_span("exchange", "upload", "channel", 0.0, 1.0, op="exchange")
    violations = verify(recorder=recorder)
    assert any(v.invariant == "span-sanity" for v in violations)


# -- export / phase breakdown ----------------------------------------------


def test_jsonl_roundtrip_stays_auditable(tmp_path):
    session, hub = traced_session()
    run_small_workload(session)
    path = str(tmp_path / "trace.jsonl")
    hub.to_jsonl(path)
    loaded = TraceHub.from_jsonl(path)
    assert loaded.span_count == hub.span_count
    assert [r.label for r in loaded.recorders] == [r.label for r in hub.recorders]
    audit_hub(loaded)               # totals travel with the file
    # ... and a corrupted reload still fails:
    recorder = loaded.recorders[0]
    index = wire_index(recorder)
    bad = dataclasses.replace(recorder.spans[index].delta, up_payload=0,
                              up_overhead=0)
    corrupt(recorder, index, delta=bad)
    with pytest.raises(AuditViolation):
        audit_hub(loaded)


def test_load_jsonl_returns_an_auditable_hub(tmp_path):
    """Regression: the JSONL loader used to hand back raw dict entries, so
    the obvious export → load → audit_hub pipeline blew up on the result."""
    session, hub = traced_session()
    run_small_workload(session)
    path = str(tmp_path / "trace.jsonl")
    hub.to_jsonl(path)
    loaded = TraceHub.from_jsonl(path)
    assert isinstance(loaded, TraceHub)
    audit_hub(loaded)


HOSTILE_HEADER = {"type": "session", "session": "hostile", "totals": None}


def hostile_span(kind, attrs=None, **changes):
    span = {"type": "span", "session": "hostile", "index": 0, "kind": kind,
            "name": "x", "source": "client", "start": 0.0, "end": 1.0,
            "delta": None, "attrs": attrs or {}}
    span.update(changes)
    return span


@pytest.mark.parametrize("lines, refusal", [
    ([HOSTILE_HEADER, hostile_span(
        "bundle-commit", {"files": 1, "payload": 0, "ledger": [["a"]]})],
     "bundle-conservation"),
    ([HOSTILE_HEADER, hostile_span(
        "bundle-commit",
        {"files": 1, "payload": 0, "ledger": [["a", "five", 3]]})],
     "bundle-conservation"),
    ([HOSTILE_HEADER, hostile_span(
        "delta-exchange", {"payload": "5", "wire_names": ["upload"]})],
     "strategy-conservation"),
    ([HOSTILE_HEADER, hostile_span("bogus")],
     "line 2: unknown span kind 'bogus'"),
    ([HOSTILE_HEADER, "{not json"], "line 2: not JSON ("),
    ([HOSTILE_HEADER, ["span"]], "line 2: expected a JSON object, got list"),
    ([HOSTILE_HEADER, {k: v for k, v in hostile_span("exchange").items()
                       if k != "delta"}],
     "line 2: span line lacks delta"),
    ([HOSTILE_HEADER, hostile_span("exchange", delta={"up_bytes": 1})],
     "line 2: delta is not a meter snapshot: {'up_bytes': 1}"),
    ([dict(HOSTILE_HEADER, totals={"record_count": 0, "bogus": 1})],
     "line 1: totals is not a meter snapshot: {'record_count': 0, "
     "'bogus': 1}"),
    ([{"type": "bogus"}, hostile_span("exchange")],
     "line 1: unknown line type 'bogus'"),
    ([HOSTILE_HEADER, hostile_span(["exchange"])],
     "line 2: kind is not a string: ['exchange']"),
    ([HOSTILE_HEADER, hostile_span("exchange", start="0")],
     "line 2: start is not a number: '0'"),
    ([HOSTILE_HEADER, hostile_span("exchange", end="1")],
     "line 2: end is not a number: '1'"),
    ([HOSTILE_HEADER, hostile_span("exchange", index="0")],
     "line 2: index is not an integer: '0'"),
    ([HOSTILE_HEADER, hostile_span("exchange", delta={"up_payload": "5"})],
     "line 2: delta is not a meter snapshot: {'up_payload': '5'}"),
    ([HOSTILE_HEADER, hostile_span("exchange", attrs=["payload"])],
     "line 2: attrs is not an object: ['payload']"),
], ids=["short-ledger-entry", "non-numeric-ledger-entry", "string-payload",
        "unknown-kind", "not-json", "json-list", "span-without-delta",
        "unknown-delta-key", "unknown-totals-key", "unknown-line-type",
        "list-kind", "string-start", "string-end", "string-index",
        "string-delta-count", "list-attrs"])
def test_hostile_span_dump_is_refused_not_crashed(tmp_path, lines, refusal):
    """A one-span dump with malformed attrs is an audit violation naming
    the invariant and the span; a malformed line fails the load with a
    ValueError naming the path and the line — never a bare
    IndexError/KeyError/TypeError/JSONDecodeError, never a pass."""
    path = tmp_path / "hostile.jsonl"
    path.write_text("".join(
        (line if isinstance(line, str) else json.dumps(line)) + "\n"
        for line in lines), encoding="utf-8")
    if refusal.startswith("line "):
        with pytest.raises(ValueError) as err:
            TraceHub.from_jsonl(str(path))
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{path}, {refusal}")
        return
    kind = lines[-1]["kind"]
    with pytest.raises(AuditViolation) as err:
        audit_hub(TraceHub.from_jsonl(str(path)))
    assert err.value.invariant == refusal
    assert err.value.span is not None and err.value.span.kind == kind


def test_phase_breakdown_conserves_wire_bytes():
    session, hub = traced_session()
    run_small_workload(session)
    stats = hub.phase_breakdown()
    wire_up = sum(s.up_bytes for s in stats)
    wire_down = sum(s.down_bytes for s in stats)
    assert wire_up == session.meter.up.total
    assert wire_down == session.meter.down.total
    assert all(s.events > 0 for s in stats)


def test_render_phase_breakdown_table():
    from repro.reporting import render_phase_breakdown
    session, hub = traced_session()
    run_small_workload(session)
    table = render_phase_breakdown(hub)
    assert "Phase" in table and "Wasted" in table
    assert "exchange" in table and "connect" in table
