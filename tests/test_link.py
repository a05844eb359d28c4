"""Unit tests for the link model and packetisation."""

import pytest
from hypothesis import given, strategies as st

from repro.simnet import (
    ACK_SIZE,
    Link,
    LinkSpec,
    MSS,
    PER_PACKET_HEADER,
    bj_link,
    mn_link,
    packetize,
)
from repro.units import Mbps


def test_packetize_zero():
    assert packetize(0) == (0, 0, 0)


def test_packetize_single_segment():
    packets, headers, acks = packetize(100)
    assert packets == 1
    assert headers == PER_PACKET_HEADER
    assert acks == ACK_SIZE


def test_packetize_exact_mss_boundary():
    packets, headers, acks = packetize(MSS)
    assert packets == 1
    packets2, _, _ = packetize(MSS + 1)
    assert packets2 == 2


@given(st.integers(min_value=0, max_value=100_000_000))
def test_packetize_invariants(nbytes):
    packets, headers, acks = packetize(nbytes)
    assert packets == -(-nbytes // MSS)
    assert headers == packets * PER_PACKET_HEADER
    # One delayed ACK per two segments, rounded up.
    assert acks == -(-packets // 2) * ACK_SIZE


def test_packetize_negative_rejected():
    with pytest.raises(ValueError):
        packetize(-1)


def test_linkspec_validation():
    with pytest.raises(ValueError):
        LinkSpec(up_bw=0, down_bw=1, rtt=0.01)
    with pytest.raises(ValueError):
        LinkSpec(up_bw=1, down_bw=1, rtt=-0.01)


def test_transfer_time_scales_with_bandwidth():
    fast = Link(LinkSpec(up_bw=20 * Mbps, down_bw=20 * Mbps, rtt=0.05))
    slow = Link(LinkSpec(up_bw=2 * Mbps, down_bw=2 * Mbps, rtt=0.05))
    nbytes = 1_000_000
    assert slow.transfer_time(nbytes, upstream=True) == pytest.approx(
        10 * fast.transfer_time(nbytes, upstream=True))


def test_asymmetric_directions():
    link = Link(LinkSpec(up_bw=1 * Mbps, down_bw=10 * Mbps, rtt=0.05))
    assert link.transfer_time(1000, upstream=True) > \
        link.transfer_time(1000, upstream=False)


def test_paper_vantage_points():
    mn = mn_link()
    bj = bj_link()
    assert mn.up_bw == 20 * Mbps
    assert bj.up_bw == pytest.approx(1.6 * Mbps)
    assert bj.rtt > mn.rtt


def test_spec_with_helpers_do_not_mutate():
    spec = mn_link()
    lossy = spec.with_loss(0.03)
    assert spec.loss_rate == 0.0
    assert lossy.loss_rate == 0.03
    assert (lossy.up_bw, lossy.down_bw, lossy.rtt) == \
        (spec.up_bw, spec.down_bw, spec.rtt)


def test_wire_cost_excludes_payload():
    overhead, acks = Link.wire_cost(MSS * 4)
    assert overhead == 4 * PER_PACKET_HEADER
    assert acks == 2 * ACK_SIZE
