"""Tests for deterministic fault injection (simnet.faults) and its wiring."""

import pytest

from repro.client import AccessMethod, RetryPolicy, SyncSession
from repro.cloud import CloudServer, RateLimited, ServiceUnavailable
from repro.core import faulty, measure, uploads
from repro.core.tue import TrafficReport
from repro.simnet import (
    Channel,
    FaultEpisode,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    Link,
    Simulator,
    TrafficMeter,
    TransferInterrupted,
    mn_link,
)
from repro.units import MB


# -- schedules --------------------------------------------------------------

def test_schedule_generation_is_deterministic():
    a = FaultSchedule.generate(seed=42, horizon=300.0)
    b = FaultSchedule.generate(seed=42, horizon=300.0)
    assert a.episodes == b.episodes
    assert len(a) > 0
    c = FaultSchedule.generate(seed=43, horizon=300.0)
    assert a.episodes != c.episodes


def test_schedule_episodes_sorted_and_bounded():
    schedule = FaultSchedule.generate(seed=7, horizon=200.0, mean_interval=10.0)
    starts = [e.start for e in schedule]
    assert starts == sorted(starts)
    assert all(0.0 <= e.start < 200.0 for e in schedule)
    assert all(e.duration > 0 for e in schedule)


def test_thinning_is_monotone_and_nested():
    schedule = FaultSchedule.generate(seed=5, horizon=500.0, mean_interval=8.0)
    low = set(schedule.thin(0.3).episodes)
    high = set(schedule.thin(0.7).episodes)
    full = set(schedule.thin(1.0).episodes)
    assert low <= high <= full
    assert len(schedule.thin(0.0)) == 0
    assert full == set(schedule.episodes)
    with pytest.raises(ValueError):
        schedule.thin(1.5)


def test_episode_interval_semantics():
    episode = FaultEpisode(start=10.0, duration=5.0, kind=FaultKind.BLACKOUT)
    assert episode.end == 15.0
    assert episode.active_at(10.0)
    assert not episode.active_at(15.0)  # half-open
    assert episode.overlaps(14.0, 20.0)
    assert not episode.overlaps(15.0, 20.0)
    with pytest.raises(ValueError):
        FaultEpisode(start=-1.0, duration=1.0, kind=FaultKind.BLACKOUT)
    with pytest.raises(ValueError):
        FaultEpisode(start=0.0, duration=0.0, kind=FaultKind.BLACKOUT)


def test_schedule_queries_filter_by_kind():
    schedule = FaultSchedule([
        FaultEpisode(start=0.0, duration=2.0, kind=FaultKind.LOSS_BURST,
                     severity=0.3),
        FaultEpisode(start=5.0, duration=2.0, kind=FaultKind.BLACKOUT),
        FaultEpisode(start=9.0, duration=2.0,
                     kind=FaultKind.SERVER_UNAVAILABLE),
    ])
    assert schedule.active_at(1.0).kind is FaultKind.LOSS_BURST
    assert schedule.active_at(1.0, kinds=(FaultKind.BLACKOUT,)) is None
    hit = schedule.first_overlapping(4.0, 20.0, kinds=(FaultKind.BLACKOUT,))
    assert hit is not None and hit.start == 5.0
    assert schedule.first_overlapping(20.0, 30.0) is None


# -- channel behaviour ------------------------------------------------------

def _rig(episodes):
    sim = Simulator()
    meter = TrafficMeter()
    injector = FaultInjector(FaultSchedule(episodes))
    channel = Channel(sim, Link(mn_link()), meter, faults=injector)
    return sim, meter, injector, channel


def test_blackout_aborts_exchange_and_meters_waste():
    episodes = [FaultEpisode(start=0.0, duration=4.0, kind=FaultKind.BLACKOUT)]
    _, meter, injector, channel = _rig(episodes)
    with pytest.raises(TransferInterrupted) as err:
        channel.exchange(up_payload=1_000_000, kind="upload")
    assert err.value.retry_at == pytest.approx(4.0)
    assert err.value.elapsed > 0
    assert err.value.wasted == meter.wasted_bytes
    # Everything except the connection handshake framing was wasted.
    assert 0 < meter.wasted_bytes < meter.total_bytes
    stats = injector.stats
    assert (stats.blackout_aborts, stats.connect_failures,
            stats.server_unavailable, stats.rate_limited) == (0, 1, 0, 0)
    # The blackout killed the connection: the retry pays a fresh handshake.
    assert channel._connected_until == -1.0


def test_exchange_after_blackout_succeeds():
    episodes = [FaultEpisode(start=0.0, duration=2.0, kind=FaultKind.BLACKOUT)]
    _, meter, _, channel = _rig(episodes)
    with pytest.raises(TransferInterrupted) as err:
        channel.exchange(up_payload=100_000, kind="upload")
    channel.wait(max(err.value.retry_at - channel.effective_now(), 0.0))
    duration = channel.exchange(up_payload=100_000, kind="upload")
    assert duration > 0
    assert meter.payload_bytes == 100_000


def test_loss_burst_inflates_wasted_retransmissions():
    episodes = [FaultEpisode(start=0.0, duration=60.0,
                             kind=FaultKind.LOSS_BURST, severity=0.3)]
    _, lossy_meter, injector, channel = _rig(episodes)
    channel.exchange(up_payload=1_000_000, kind="upload")
    _, clean_meter, _, clean_channel = _rig([])
    clean_channel.exchange(up_payload=1_000_000, kind="upload")
    assert lossy_meter.wasted_bytes > 0
    assert clean_meter.wasted_bytes == 0
    assert lossy_meter.total_bytes > clean_meter.total_bytes
    # Payload is identical — retransmissions are overhead, never payload.
    assert lossy_meter.payload_bytes == clean_meter.payload_bytes
    assert injector.stats.loss_bursts_hit == 1


def test_effective_now_is_plain_sim_time_without_faults():
    sim = Simulator()
    channel = Channel(sim, Link(mn_link()), TrafficMeter())
    channel.exchange(up_payload=10_000_000)  # long transfer
    assert channel.effective_now() == sim.now  # cursor ignored when no faults


def test_effective_now_advances_within_transaction_with_faults():
    _, _, _, channel = _rig([])
    before = channel.effective_now()
    channel.exchange(up_payload=1_000_000)
    assert channel.effective_now() > before


# -- server brownouts -------------------------------------------------------

def test_server_brownout_raises_matching_transient_error():
    server = CloudServer()
    server.attach_faults(FaultInjector(FaultSchedule([
        FaultEpisode(start=0.0, duration=5.0,
                     kind=FaultKind.SERVER_UNAVAILABLE),
        FaultEpisode(start=10.0, duration=5.0, kind=FaultKind.RATE_LIMIT),
    ])))
    with pytest.raises(ServiceUnavailable) as err:
        server.check_available(1.0)
    assert err.value.retry_at == pytest.approx(5.0)
    with pytest.raises(RateLimited) as err:
        server.check_available(11.0)
    assert err.value.retry_at == pytest.approx(15.0)
    server.check_available(7.0)  # between windows: no error
    assert server.stats.requests_rejected == 2


def test_server_without_faults_is_always_available():
    server = CloudServer()
    server.check_available(123.0)
    assert server.stats.requests_rejected == 0


# -- end-to-end -------------------------------------------------------------

def test_session_without_faults_reports_zero_waste():
    session = SyncSession("Dropbox", AccessMethod.PC)
    session.create_random_file("f.bin", 1 * MB, seed=1)
    session.run_until_idle()
    assert session.wasted_traffic == 0
    assert session.useful_traffic == session.total_traffic
    report = session.traffic_report()
    assert report.wasted == 0
    assert report.useful_tue == report.tue


def test_faulty_session_decomposes_traffic():
    run = measure(faulty(uploads(count=2), 1.0, resumable=True))
    assert run.client.transient_errors > 0
    assert run.wasted > 0
    assert run.useful + run.wasted == run.traffic


def test_restart_from_zero_wastes_more_than_resume():
    resume = measure(faulty(uploads(count=2), 0.75, resumable=True))
    restart = measure(faulty(uploads(count=2), 0.75, resumable=False))
    assert restart.wasted > resume.wasted
    assert restart.tue > resume.tue
    # Both deliver the same payload; the difference is pure failure cost.
    assert resume.useful > 0


def test_traffic_report_wasted_fields_roundtrip():
    meter = TrafficMeter()
    from repro.simnet import Direction
    meter.record(0.0, Direction.UP, payload=800, overhead=200, wasted=100)
    meter.record(0.0, Direction.DOWN, payload=0, overhead=50, wasted=25)
    report = TrafficReport.from_meter(meter, data_update_size=800)
    assert report.total == 1050
    assert report.wasted == 125
    assert report.useful == 925
    assert report.tue == pytest.approx(1050 / 800)
    assert report.useful_tue == pytest.approx(925 / 800)
