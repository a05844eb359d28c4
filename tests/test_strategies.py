"""Unit tests for the pluggable sync strategies and their cost ledger.

The strategy layer's contract has three independently checkable parts:

* every transfer reports an honest ``(wire_bytes, round_trips,
  cpu_units)`` cost vector into ``client.strategy_ledger`` — traced or
  not;
* a strategy's :meth:`estimate` is *byte-exact* under a warm connection
  (that exactness is what makes the adaptive selector's greedy choice a
  dominance argument, not a heuristic);
* the ``strategy-conservation`` auditor invariant actually bites when a
  ledger lies.
"""

import pytest

from repro.client import (
    AccessMethod,
    RetryPolicy,
    SyncSession,
    make_strategy,
    service_profile,
    AdaptiveSelector,
    FixedBlockDeltaStrategy,
    FullFileStrategy,
    SetReconcileStrategy,
    STRATEGY_NAMES,
)
from repro.client.engine import PendingChange
from repro.cloud import NotFound
from repro.content import Content, random_content
from repro.core import strategy_link, strategy_profile
from repro.delta import cdc_delta
from repro.obs import recording
from repro.obs import verify
from repro.simnet import FaultEpisode, FaultKind, FaultSchedule
from repro.units import KB


def stratlab(strategy=None, link="mn"):
    return SyncSession(strategy_profile(), link_spec=strategy_link(link),
                       strategy=strategy)


def spans_of(hub, kind):
    return [span for recorder in hub.recorders for span in recorder.spans
            if span.kind == kind]


def test_make_strategy_builds_every_name_and_rejects_unknown():
    for name in STRATEGY_NAMES:
        assert make_strategy(name).name == name
    with pytest.raises(ValueError):
        make_strategy("telepathy")


def test_ledger_accumulates_cost_vectors_per_strategy():
    session = stratlab(strategy=FixedBlockDeltaStrategy())
    session.create_random_file("a.bin", 64 * KB, seed=1)
    session.run_until_idle()
    session.advance(30.0)
    session.modify_random_byte("a.bin", seed=2)
    session.run_until_idle()
    ledger = session.client.strategy_ledger
    # The creation falls back to full-file (no shadow yet), the edit
    # rides the pinned delta strategy — both tallies must be non-trivial.
    assert set(ledger) == {"full-file", "fixed-delta"}
    for tally in ledger.values():
        assert tally.payload > 0
        assert tally.exchanges >= 1
        assert tally.cpu_units > 0


def test_ledger_is_identical_traced_and_untraced():
    def run():
        session = stratlab(strategy=AdaptiveSelector())
        session.create_random_file("a.bin", 96 * KB, seed=3)
        session.run_until_idle()
        session.advance(30.0)
        session.append("a.bin", random_content(KB, seed=4))
        session.run_until_idle()
        return {name: (t.payload, t.exchanges, t.cpu_units)
                for name, t in session.client.strategy_ledger.items()}

    untraced = run()
    with recording(audit=True):
        traced = run()
    assert traced == untraced


@pytest.mark.parametrize("link", ["mn", "lte"])
@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_estimate_is_byte_exact_under_warm_connection(name, link):
    """A strategy's bid == the measured meter delta of its transfer,
    whenever no handshake interleaves (30 s gap < the 55 s keep-alive):
    both sides read the one description the strategy states."""
    strategy = make_strategy(name)
    with recording() as hub:
        session = stratlab(strategy=strategy, link=link)
        session.create_random_file("a.bin", 128 * KB, seed=5)
        session.run_until_idle()
        session.advance(30.0)
        session.modify_random_byte("a.bin", seed=6)
        if name != "adaptive":
            # A static strategy's bid, taken against exactly the client
            # state its transfer is about to see.
            change = PendingChange(path="a.bin")
            content = session.folder.get("a.bin")
            concrete = strategy.resolve(session.client, change, content)
            bid = concrete.estimate(session.client, change, content)
            expected = (concrete.name, bid.wire_bytes, bid.round_trips)
        session.run_until_idle()
    if name == "adaptive":
        chosen = spans_of(hub, "strategy-select")[-1].attrs
        expected = (chosen["chosen"], chosen["est_wire"],
                    chosen["est_round_trips"])
    measured = spans_of(hub, "delta-exchange")[-1].attrs
    assert (measured["strategy"], measured["wire_bytes"],
            measured["round_trips"]) == expected


def test_per_path_state_does_not_outlive_the_path():
    """Regression: plan slots (pinning both contents plus the delta /
    reconcile pieces) and ``_ready_at`` entries used to survive their
    path's transfer, and even its deletion.  A delete leaves neither the
    path's record nor an in-flight record behind."""
    session = stratlab(strategy=AdaptiveSelector())
    names = ["a.bin", "b.bin", "c.bin"]
    for index, name in enumerate(names):
        session.create_random_file(name, 200 * KB, seed=20 + index)
    session.run_until_idle()
    session.advance(30.0)
    for index, name in enumerate(names):
        session.modify_random_byte(name, seed=30 + index)
    session.run_until_idle()
    for name in names:
        session.delete_file(name)
    session.run_until_idle()
    client = session.client
    assert client.stats.deletions_synced == 3
    assert client._records == {}
    assert client._in_flight is None
    assert client._ready_at == {}


def test_rename_moves_the_record_and_its_chunking(monkeypatch):
    """A rename carries the path's record along: the moved version is
    never chunked again, and the next edit chunks only its new content."""
    chunked = []
    real_spans = cdc_delta.cdc_spans

    def counted(data, *args):
        chunked.append(data)
        return real_spans(data, *args)

    monkeypatch.setattr(cdc_delta, "cdc_spans", counted)
    session = stratlab(strategy=AdaptiveSelector())
    session.create_random_file("a.bin", 96 * KB, seed=40)
    session.run_until_idle()
    client = session.client
    record = client._records["a.bin"]
    assert [data is record.content.data for data in chunked] == [True]
    session.advance(30.0)
    session.folder.rename("a.bin", "b.bin")
    session.run_until_idle()
    assert client._records == {"b.bin": record}
    assert client.stats.renames_synced == 1
    session.advance(30.0)
    session.modify_random_byte("b.bin", seed=41)
    session.run_until_idle()
    assert len(chunked) == 2
    assert chunked[1] is client._records["b.bin"].content.data
    assert session.server.download_content("user1", "b.bin")[0].data == \
        session.folder.get("b.bin").data


def assert_dead_transfer_keeps_the_record(session, path):
    """Sync ``path`` once, kill the next transfer with the caller's fault
    armed, then check the record still names the committed version and a
    later edit round-trips against the cloud's copy."""
    session.create_random_file(path, 64 * KB, seed=42)
    session.run_until_idle()
    client = session.client
    committed = client._records[path]
    session.advance(30.0)
    session.append(path, random_content(128 * KB, seed=43))
    session.run_until_idle()
    assert client.stats.failed_syncs == 1
    assert client._records == {path: committed}
    assert client._in_flight is None


def test_quota_failure_keeps_the_last_committed_record():
    session = stratlab(strategy=AdaptiveSelector())
    account = session.server.accounts.register("user1", quota_bytes=160 * KB)
    assert_dead_transfer_keeps_the_record(session, "a.bin")
    account.quota_bytes = 1024 * KB
    session.advance(30.0)
    session.modify_random_byte("a.bin", seed=44)
    session.run_until_idle()
    assert session.client.stats.delta_syncs \
        + session.client.stats.cdc_delta_syncs == 1
    assert session.server.download_content("user1", "a.bin")[0].data == \
        session.folder.get("a.bin").data


def test_exhausted_retries_keep_the_last_committed_record():
    blackout = FaultSchedule([FaultEpisode(start=30.0, duration=30.0,
                                           kind=FaultKind.BLACKOUT)])
    session = SyncSession(strategy_profile(), link_spec=strategy_link("mn"),
                          strategy=AdaptiveSelector(), faults=blackout,
                          retry=RetryPolicy(max_attempts=1, seed=1))
    assert_dead_transfer_keeps_the_record(session, "a.bin")
    assert session.client.stats.retry_giveups == 1
    session.advance(60.0)
    session.modify_random_byte("a.bin", seed=44)
    session.run_until_idle()
    assert session.server.download_content("user1", "a.bin")[0].data == \
        session.folder.get("a.bin").data


def test_adaptive_picks_the_frontier_winner_per_workload():
    session = stratlab(strategy=AdaptiveSelector())
    # Fresh create: only full-file / set-reconcile apply; whole content is
    # new so the sketch round trip buys nothing.
    session.create_random_file("base.bin", 128 * KB, seed=7)
    session.run_until_idle()
    assert set(session.client.strategy_ledger) == {"full-file"}
    # Scattered in-place edit: a delta strategy must win.
    session.advance(30.0)
    session.modify_random_byte("base.bin", seed=8)
    session.run_until_idle()
    assert {"fixed-delta", "cdc-delta"} & set(session.client.strategy_ledger)
    # Near-clone of existing content: reconciliation must win.
    session.advance(30.0)
    prefix = random_content(KB, seed=9).data
    clone = Content(prefix + session.folder.get("base.bin").data)
    session.create_file("copy.bin", clone)
    session.run_until_idle()
    assert "set-reconcile" in session.client.strategy_ledger


def test_recon_client_mirror_agrees_with_server_index():
    """Single-writer contract: the digests the planner predicts missing
    are exactly what the server's reconcile answers — each distinct
    digest once, in first-seen order, however often its chunk repeats."""
    session = stratlab(strategy=AdaptiveSelector())
    session.create_random_file("base.bin", 96 * KB, seed=10)
    session.run_until_idle()
    client = session.client
    strategy = SetReconcileStrategy()
    for path, repeated in (("copy.bin", b""), ("padded.bin", bytes(200 * KB))):
        clone = Content(random_content(2 * KB, seed=11).data + repeated
                        + session.folder.get("base.bin").data)
        plan = strategy._plan(client, path, clone)
        assert plan.missing  # the fresh prefix produces a new chunk
        assert len(plan.missing) < len(plan.digests)  # the clone tail dedups
        assert plan.missing == list(dict.fromkeys(
            digest for digest in plan.digests if digest in plan.missing))
        assert client.server.reconcile(client.user, path,
                                       plan.digests) == plan.missing


def test_full_file_estimate_refuses_inexact_profiles():
    """Under dedup (or unit retry) the full-file wire bytes depend on
    server state the estimator does not model — it must abstain rather
    than guess, leaving the selector's dominance argument intact."""
    change = PendingChange(path="x.bin", created=True)
    content = random_content(8 * KB, seed=12)
    dedup_client = SyncSession("Dropbox", AccessMethod.PC).client
    assert dedup_client.profile.dedup.enabled
    assert FullFileStrategy().estimate(dedup_client, change, content) is None
    exact_client = stratlab().client
    estimate = FullFileStrategy().estimate(exact_client, change, content)
    assert estimate is not None
    assert estimate.wire_bytes > content.size


def test_strategy_select_span_lists_considered_candidates():
    with recording() as hub:
        session = stratlab(strategy=AdaptiveSelector())
        session.create_random_file("a.bin", 32 * KB, seed=13)
        session.run_until_idle()
    span = spans_of(hub, "strategy-select")[-1]
    names = [entry[0] for entry in span.attrs["considered"]]
    assert span.attrs["chosen"] in names
    assert len(names) >= 2  # full-file and set-reconcile both bid


def tampered_violations(mutate):
    """Run one audited-clean cell, apply ``mutate`` to its recorder's
    spans, and return the auditor's strategy-conservation findings."""
    with recording() as hub:
        session = stratlab(strategy=FixedBlockDeltaStrategy())
        session.create_random_file("a.bin", 48 * KB, seed=14)
        session.run_until_idle()
        session.advance(30.0)
        session.modify_random_byte("a.bin", seed=15)
        session.run_until_idle()
    (recorder,) = hub.recorders
    assert verify(recorder=recorder) == []
    mutate(recorder.spans)
    return [v for v in verify(recorder=recorder)
            if v.invariant == "strategy-conservation"]


def ledger_spans(spans):
    return [span for span in spans if span.kind == "delta-exchange"]


def test_audit_catches_inflated_ledger_payload():
    def mutate(spans):
        ledger_spans(spans)[-1].attrs["payload"] += 1

    assert tampered_violations(mutate)


def test_audit_catches_payload_exceeding_wire_bytes():
    def mutate(spans):
        span = ledger_spans(spans)[-1]
        span.attrs["payload"] = span.attrs["wire_bytes"] + 1

    assert tampered_violations(mutate)


def test_audit_catches_missing_cost_attrs():
    def mutate(spans):
        del ledger_spans(spans)[-1].attrs["payload"]

    assert tampered_violations(mutate)


def test_audit_catches_cross_strategy_exchange_claim():
    def mutate(spans):
        # The delta strategy claims the full-file upload exchange too:
        # those bytes would be attributed twice.
        for span in ledger_spans(spans):
            if span.attrs["strategy"] == "fixed-delta":
                span.attrs["wire_names"] = ["delta-sync", "upload"]

    assert tampered_violations(mutate)


def test_delete_after_rename_onto_deleted_path_tombstones_both():
    """Regression (found by the stateful battery while differential-testing
    this refactor): deleting a file that a pending rename just landed on
    must tombstone the rename *source* as well."""
    session = SyncSession("Dropbox", AccessMethod.PC)
    session.create_file("a.bin", random_content(4 * KB, seed=16))
    session.create_file("c.bin", random_content(4 * KB, seed=17))
    session.run_until_idle()
    session.delete_file("a.bin")
    session.folder.rename("c.bin", "a.bin")
    session.delete_file("a.bin")
    session.run_until_idle()
    for path in ("a.bin", "c.bin"):
        with pytest.raises(NotFound):
            session.server.download_content("user1", path)
