"""Shape tests for Experiment 7: network environment and hardware (§6.2)."""

import pytest

from repro.client import AdaptiveSyncDefer, M1, M2, M3, service_profile
from repro.core import Cell, append, cell, create, measure
from repro.simnet import LinkSpec, bj_link, mn_link
from repro.units import KB, MB, Mbps


def _one_kb_per_sec(link, total):
    """Figure 8's Dropbox "1 KB/sec" appends over ``link``."""
    return measure(cell("Dropbox", append(1.0, total=total), link=link)).tue


def test_simple_operation_tue_insensitive_to_network():
    """§6.2: TUE of a simple file operation is not affected by the network."""
    at_mn = measure(cell("OneDrive", create(1 * MB), link=mn_link()))
    at_bj = measure(cell("OneDrive", create(1 * MB), link=bj_link()))
    assert at_bj.traffic == pytest.approx(at_mn.traffic, rel=0.02)


def test_poor_network_lowers_tue_under_frequent_mods():
    """Figure 7: the BJ vantage point batches more, so TUE drops."""
    appends = append(1.0, total=256 * KB)
    at_mn = measure(cell("Dropbox", appends, link=mn_link()))
    at_bj = measure(cell("Dropbox", appends, link=bj_link()))
    assert at_bj.tue < at_mn.tue
    assert at_bj.sync_transactions < at_mn.sync_transactions


def test_higher_latency_lowers_tue():
    """Figure 8(b)."""
    tues = [_one_kb_per_sec(LinkSpec(up_bw=20 * Mbps, down_bw=20 * Mbps,
                                     rtt=rtt), total=128 * KB)
            for rtt in (0.040, 0.400, 1.000)]
    assert tues[0] > tues[1] > tues[2]


def test_higher_bandwidth_raises_tue():
    """Figure 8(a): monotone non-decreasing, strictly higher at the top."""
    tues = [_one_kb_per_sec(LinkSpec(up_bw=mbps * Mbps, down_bw=mbps * Mbps,
                                     rtt=0.050), total=128 * KB)
            for mbps in (0.4, 0.8, 1.6, 20)]
    assert all(a <= b + 1e-9 for a, b in zip(tues, tues[1:]))
    assert tues[-1] > tues[0]


def test_slower_hardware_lowers_tue():
    """Figure 8(c): M2 (Atom) batches more than M1, M3 batches least."""
    def tue_for(machine):
        return measure(cell("Dropbox", append(1.0, total=256 * KB),
                            machine=machine)).tue
    m1, m2, m3 = tue_for(M1), tue_for(M2), tue_for(M3)
    assert m2 < m1 <= m3 + 1e-9


def test_hardware_does_not_change_simple_operation_tue():
    fast = measure(cell("Box", create(1 * MB), machine=M3))
    slow = measure(cell("Box", create(1 * MB), machine=M2))
    assert slow.traffic == pytest.approx(fast.traffic, rel=0.02)


def _fixed_and_asd(x, total):
    """Google Drive's appends under its fixed deferment and under ASD."""
    fixed = service_profile("GoogleDrive")
    asd = fixed.with_defer(lambda: AdaptiveSyncDefer())
    return [measure(Cell(profile, append(x, total=total))).tue
            for profile in (fixed, asd)]


def test_asd_fixes_the_fixed_defer_gap():
    """§6.1: with ASD, TUE ≈ 1 even for X > T (Google Drive's T ≈ 4.2 s)."""
    original, with_asd = _fixed_and_asd(6, total=128 * KB)
    assert original > 10
    assert with_asd < 2.0


def test_asd_does_not_hurt_below_the_deferment():
    original, with_asd = _fixed_and_asd(2, total=64 * KB)
    assert with_asd < max(2.0, original * 1.5)


def test_link_spec_sweep_is_deterministic():
    spec = LinkSpec(up_bw=4 * Mbps, down_bw=4 * Mbps, rtt=0.1)
    a = measure(cell("Box", append(2.0, total=64 * KB), link=spec))
    b = measure(cell("Box", append(2.0, total=64 * KB), link=spec))
    assert a == b
