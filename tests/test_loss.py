"""Tests for the packet-loss / retransmission model."""

import pytest

from repro.client import AccessMethod, SyncSession
from repro.content import random_content
from repro.core import append, cell, measure
from repro.simnet import Link, LinkSpec, mn_link
from repro.units import KB, MB, Mbps


def test_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec(up_bw=1 * Mbps, down_bw=1 * Mbps, rtt=0.05, loss_rate=1.0)
    with pytest.raises(ValueError):
        LinkSpec(up_bw=1 * Mbps, down_bw=1 * Mbps, rtt=0.05, loss_rate=-0.1)


def test_no_loss_no_retransmit():
    link = Link(mn_link())
    assert link.retransmit_overhead(1_000_000) == 0
    assert link.recovery_rtts(1_000_000) == 0.0


def test_retransmit_scales_with_loss():
    lossy = Link(mn_link().with_loss(0.02))
    lossier = Link(mn_link().with_loss(0.10))
    wire = 1_000_000
    assert 0 < lossy.retransmit_overhead(wire) < lossier.retransmit_overhead(wire)
    # Expected value: loss/(1-loss) of the bytes.
    assert lossy.retransmit_overhead(wire) == pytest.approx(
        wire * 0.02 / 0.98, rel=0.01)


def test_retransmit_nonzero_for_single_packet():
    """Regression: int() truncation used to zero out sub-packet overheads.

    A 1-packet exchange on a lossy link must still charge at least one
    retransmitted byte — rounding the expected value down to zero made
    every small exchange (polls, notifications, keep-alives) loss-free,
    underestimating chatty-protocol traffic on bad links.
    """
    from repro.simnet.link import MSS
    lossy = Link(mn_link().with_loss(0.02))
    single = MSS  # exactly one packet on the wire
    assert lossy.retransmit_overhead(single) >= 1
    # Tiny payloads are still one packet.
    assert lossy.retransmit_overhead(1) >= 1
    # And the ceiling never rounds a true zero up: lossless stays zero.
    assert Link(mn_link()).retransmit_overhead(single) == 0


def test_retransmit_loss_rate_override():
    """A burst-window loss rate can override the link's base rate."""
    link = Link(mn_link().with_loss(0.01))
    wire = 1_000_000
    base = link.retransmit_overhead(wire)
    boosted = link.retransmit_overhead(wire, loss_rate=0.25)
    assert boosted > base
    assert boosted == pytest.approx(wire * 0.25 / 0.75, rel=0.01)


def test_recovery_rtts_capped():
    link = Link(mn_link().with_loss(0.2))
    assert link.recovery_rtts(100 * MB) == 8.0


def test_lossy_link_inflates_sync_traffic():
    clean = SyncSession("Box", AccessMethod.PC, link_spec=mn_link())
    lossy = SyncSession("Box", AccessMethod.PC,
                        link_spec=mn_link().with_loss(0.05))
    for session in (clean, lossy):
        session.create_file("f.bin", random_content(1 * MB, seed=1))
        session.run_until_idle()
    assert lossy.total_traffic > clean.total_traffic * 1.03
    # Retransmissions are overhead, never payload.
    assert lossy.meter.payload_bytes == clean.meter.payload_bytes


def test_loss_lowers_tue_under_frequent_mods():
    """Loss slows syncs → more natural batching → smaller TUE, the same
    mechanism as the paper's poor-network finding (§6.2)."""
    appends = append(1.0, total=128 * KB)
    clean = measure(cell("Dropbox", appends, link=mn_link()))
    lossy = measure(cell("Dropbox", appends,
                         link=LinkSpec(up_bw=2 * Mbps, down_bw=2 * Mbps,
                                       rtt=0.06, loss_rate=0.08)))
    assert lossy.sync_transactions <= clean.sync_transactions
    assert lossy.tue < clean.tue * 1.05
