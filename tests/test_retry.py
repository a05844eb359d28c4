"""Tests for the client retry policy and its engine integration."""

import random
import types

import pytest

from repro.client import (
    AccessMethod,
    RetriesExhausted,
    RetryPolicy,
    RetryState,
    SyncSession,
)
from repro.client import retry as retry_module
from repro.obs import recording
from repro.simnet import FaultEpisode, FaultKind, FaultSchedule
from repro.units import KB, MB


# -- policy -----------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_budget=0)


def test_backoff_sequence_is_seeded_and_reproducible():
    a = RetryPolicy(seed=3).make_state()
    b = RetryPolicy(seed=3).make_state()
    seq_a = [a.backoff(i) for i in range(1, 6)]
    seq_b = [b.backoff(i) for i in range(1, 6)]
    assert seq_a == seq_b
    c = RetryPolicy(seed=4).make_state()
    assert [c.backoff(i) for i in range(1, 6)] != seq_a


def test_backoff_grows_exponentially_within_jitter():
    state = RetryPolicy().make_state()
    for attempt in range(1, 7):          # 0.5 s doubling, below the cap
        raw = 0.5 * 2.0 ** (attempt - 1)
        delay = state.backoff(attempt)
        assert raw * 0.9 <= delay <= raw * 1.1


def test_backoff_capped_at_max():
    state = RetryPolicy(seed=5).make_state()
    rng = random.Random(5)
    for attempt, raw in ((1, 0.5), (7, 30.0), (20, 30.0)):  # 32 s, 2^18 s
        assert state.backoff(attempt) == \
            raw * (1.0 + 0.1 * (2.0 * rng.random() - 1.0))


def test_the_jitter_rng_is_built_on_the_first_backoff(monkeypatch):
    """A state that never backs off holds no RNG; once built, it draws
    what an eager ``Random(seed)`` draws."""
    built = []

    def build(seed):
        built.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(retry_module, "random",
                        types.SimpleNamespace(Random=build))
    state = RetryPolicy(seed=9).make_state()
    state.begin_transaction()
    assert not state.budget_exhausted()
    assert built == []
    eager = random.Random(9)
    for attempt in (1, 2, 3):
        assert state.backoff(attempt) == 0.5 * 2.0 ** (attempt - 1) \
            * (1.0 + 0.1 * (2.0 * eager.random() - 1.0))
    assert built == [9]


def test_budget_resets_per_transaction_but_rng_does_not():
    policy = RetryPolicy(backoff_budget=80.0)
    state = policy.make_state()
    state.backoff(7)                     # each 30 s ± 10 %
    state.backoff(7)
    assert not state.budget_exhausted()
    state.backoff(7)
    assert state.budget_exhausted()
    state.begin_transaction()
    assert not state.budget_exhausted()
    assert state.total_retries == 3  # lifetime counter survives the reset


def test_backoff_attempts_are_one_based():
    with pytest.raises(ValueError):
        RetryPolicy().make_state().backoff(0)


# -- engine integration -----------------------------------------------------

def _blackout_at_start():
    """One blackout covering the first sync transaction's start."""
    return FaultSchedule([
        FaultEpisode(start=0.0, duration=3.0, kind=FaultKind.BLACKOUT)])


def test_client_with_retry_rides_out_a_blackout():
    session = SyncSession("Dropbox", AccessMethod.PC,
                          retry=RetryPolicy(seed=1),
                          faults=_blackout_at_start())
    session.create_random_file("f.bin", 64 * KB, seed=2)
    session.run_until_idle()
    stats = session.client.stats
    assert stats.failed_syncs == 0
    assert stats.transient_errors > 0
    assert stats.retries > 0
    assert session.wasted_traffic > 0
    # The file made it to the cloud despite the outage.
    assert session.server.download_content("user1", "f.bin")[0].data


def test_client_without_retry_abandons_the_sync():
    session = SyncSession("Dropbox", AccessMethod.PC,
                          faults=_blackout_at_start())
    session.create_random_file("f.bin", 64 * KB, seed=2)
    session.run_until_idle()
    stats = session.client.stats
    assert stats.failed_syncs == 1
    assert session.client.failures  # (time, message) recorded
    assert session.wasted_traffic > 0


def test_exhausted_retries_surface_as_failed_sync():
    # Back-to-back blackouts outlast a single-attempt policy.
    schedule = FaultSchedule([
        FaultEpisode(start=0.0, duration=30.0, kind=FaultKind.BLACKOUT)])
    session = SyncSession("Dropbox", AccessMethod.PC,
                          retry=RetryPolicy(max_attempts=1, seed=1),
                          faults=schedule)
    session.create_random_file("f.bin", 64 * KB, seed=2)
    session.run_until_idle()
    stats = session.client.stats
    assert stats.retry_giveups >= 1
    assert stats.failed_syncs == 1


def test_exhausted_retries_emit_a_give_up_span():
    schedule = FaultSchedule([
        FaultEpisode(start=0.0, duration=30.0, kind=FaultKind.BLACKOUT)])
    with recording():
        session = SyncSession("Dropbox", AccessMethod.PC,
                              retry=RetryPolicy(max_attempts=1, seed=1),
                              faults=schedule)
        session.create_random_file("f.bin", 64 * KB, seed=2)
        session.run_until_idle()
    give_ups = [span for span in session.recorder.spans
                if span.name == "give-up"]
    assert len(give_ups) == session.client.stats.retry_giveups >= 1
    assert {span.kind for span in give_ups} == {"retry-attempt"}


def test_retry_recovers_from_server_brownout():
    schedule = FaultSchedule([
        FaultEpisode(start=0.0, duration=4.0,
                     kind=FaultKind.SERVER_UNAVAILABLE)])
    session = SyncSession("Dropbox", AccessMethod.PC,
                          retry=RetryPolicy(seed=1), faults=schedule)
    session.create_random_file("f.bin", 64 * KB, seed=3)
    session.run_until_idle()
    stats = session.client.stats
    assert stats.failed_syncs == 0
    assert stats.transient_errors >= 1
    assert session.server.stats.requests_rejected >= 1
    # Rejected request framing is metered as wasted traffic.
    assert session.wasted_traffic > 0


def test_retry_policy_invisible_on_healthy_network():
    plain = SyncSession("Dropbox", AccessMethod.PC)
    with_retry = SyncSession("Dropbox", AccessMethod.PC,
                             retry=RetryPolicy(seed=1))
    for session in (plain, with_retry):
        session.create_random_file("f.bin", 1 * MB, seed=4)
        session.run_until_idle()
    assert with_retry.total_traffic == plain.total_traffic
    assert with_retry.wasted_traffic == 0
    assert with_retry.client.stats.transient_errors == 0
