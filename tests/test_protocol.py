"""Unit tests for the HTTPS channel cost model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet import Channel, Link, ProtocolCosts, Simulator, TrafficMeter, mn_link


def make_channel(costs=None, rtt=0.05):
    sim = Simulator()
    link = Link(mn_link(rtt=rtt))
    meter = TrafficMeter()
    return sim, Channel(sim, link, meter, costs or ProtocolCosts()), meter


def test_first_exchange_pays_handshake():
    _, channel, meter = make_channel()
    channel.exchange(up_payload=100)
    kinds = meter.bytes_by_kind()
    assert "handshake" in kinds
    assert channel.handshake_count == 1


def test_connection_reused_within_idle_window():
    sim, channel, _ = make_channel()
    channel.exchange(up_payload=10)
    sim.run_until(1.0)
    channel.exchange(up_payload=10)
    assert channel.handshake_count == 1


def test_connection_reestablished_after_idle_timeout():
    costs = ProtocolCosts(idle_timeout=5.0)
    sim, channel, _ = make_channel(costs)
    channel.exchange(up_payload=10)
    sim.run_until(60.0)
    channel.exchange(up_payload=10)
    assert channel.handshake_count == 2


def test_drop_connection_forces_handshake():
    _, channel, _ = make_channel()
    channel.exchange()
    channel.drop_connection()
    channel.exchange()
    assert channel.handshake_count == 2


def test_payload_metered_as_payload():
    _, channel, meter = make_channel()
    channel.exchange(up_payload=5000, down_payload=2000)
    assert meter.up.payload == 5000
    assert meter.down.payload == 2000
    assert meter.up.overhead > 0  # headers + packet framing
    assert meter.down.overhead > 0


def test_meta_bytes_metered_as_overhead():
    _, plain_channel, plain_meter = make_channel()
    plain_channel.exchange()
    _, meta_channel, meta_meter = make_channel()
    meta_channel.exchange(up_meta=10_000)
    assert meta_meter.up.overhead >= plain_meter.up.overhead + 10_000
    assert meta_meter.up.payload == 0


def test_exchange_duration_increases_with_latency():
    _, fast, _ = make_channel(rtt=0.05)
    _, slow, _ = make_channel(rtt=0.5)
    assert slow.exchange(up_payload=1000) > fast.exchange(up_payload=1000)


def test_exchange_duration_increases_with_payload():
    _, channel, _ = make_channel()
    channel.exchange()  # absorb handshake
    small = channel.exchange(up_payload=1_000)
    large = channel.exchange(up_payload=1_000_000)
    assert large > small


def test_slow_start_adds_rounds_for_large_transfers():
    _, channel, _ = make_channel()
    assert channel._slow_start_rtts(1_000) == 0
    assert channel._slow_start_rtts(1_000_000) >= 3
    # Monotone non-decreasing in size.
    values = [channel._slow_start_rtts(n) for n in (10_000, 100_000, 1_000_000)]
    assert values == sorted(values)


def test_no_tls_costs_less():
    _, tls_channel, tls_meter = make_channel(ProtocolCosts(use_tls=True))
    tls_channel.exchange()
    _, raw_channel, raw_meter = make_channel(ProtocolCosts(use_tls=False))
    raw_channel.exchange()
    assert raw_meter.total_bytes < tls_meter.total_bytes


def test_notify_is_downstream_overhead():
    _, channel, meter = make_channel()
    channel.notify(500)
    assert meter.down.overhead >= 500
    assert meter.down.payload == 0


def test_extra_rtts_extend_duration():
    _, channel, _ = make_channel()
    channel.exchange()
    base = channel.exchange()
    longer = channel.exchange(extra_rtts=4)
    assert longer == pytest.approx(base + 4 * 0.05, rel=0.01)


byte_counts = st.integers(min_value=0, max_value=5_000_000)


@given(up_payload=byte_counts, down_payload=byte_counts,
       up_meta=st.integers(min_value=0, max_value=50_000),
       down_meta=st.integers(min_value=0, max_value=50_000),
       loss_rate=st.sampled_from([0.0, 0.005, 0.05]))
@example(up_payload=0, down_payload=0, up_meta=0, down_meta=0, loss_rate=0.05)
@example(up_payload=1460 - 450, down_payload=0, up_meta=0, down_meta=0,
         loss_rate=0.005)
@settings(max_examples=100, deadline=None)
def test_estimate_exchange_equals_metered_delta_on_warm_channel(
        up_payload, down_payload, up_meta, down_meta, loss_rate):
    """The estimate and the exchange read one wire plan, so on a warm,
    fault-free channel they agree byte for byte at any base loss rate."""
    meter = TrafficMeter()
    channel = Channel(Simulator(), Link(mn_link().with_loss(loss_rate)), meter)
    channel.exchange()  # pay the handshake; the connection is now warm
    before = meter.snapshot()
    request = dict(up_payload=up_payload, down_payload=down_payload,
                   up_meta=up_meta, down_meta=down_meta)
    channel.exchange(**request)
    delta = meter.since(before)
    assert channel.handshake_count == 1
    assert channel.estimate_exchange(**request) \
        == (delta.up_total, delta.down_total)
