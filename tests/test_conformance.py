"""Conformance suite: every profile's observable behaviour matches its
declared design choices, end to end.

The paper's methodology infers design choices from black-box traffic; this
suite runs the same inferences against all 18 profiles and requires the
observed behaviour to agree with the declared matrix — so a profile edit
that breaks a declared behaviour fails loudly.
"""

import pytest

from repro.client import AccessMethod, SyncSession, all_profiles
from repro.compress import CompressionLevel
from repro.content import random_content, text_content
from repro.units import KB, MB

ALL = all_profiles()


@pytest.mark.parametrize("profile", ALL, ids=lambda p: p.name)
def test_creation_converges(profile):
    session = SyncSession(profile)
    content = random_content(32 * KB, seed=1)
    session.create_file("conf.bin", content)
    session.run_until_idle()
    assert session.server.download_content("user1", "conf.bin")[0].data \
        == content.data


@pytest.mark.parametrize("profile", ALL, ids=lambda p: p.name)
def test_modification_granularity_matches_declaration(profile):
    session = SyncSession(profile)
    session.create_file("m.bin", random_content(512 * KB, seed=1))
    session.run_until_idle()
    session.reset_meter()
    session.modify_random_byte("m.bin", seed=2)
    session.run_until_idle()
    if profile.uses_ids:
        assert session.total_traffic < 256 * KB, \
            f"{profile.name} declares IDS but shipped the file"
        assert session.client.stats.delta_syncs == 1
    else:
        assert session.total_traffic > 512 * KB, \
            f"{profile.name} declares full-file sync but shipped less"


@pytest.mark.parametrize("profile", ALL, ids=lambda p: p.name)
def test_upload_compression_matches_declaration(profile):
    session = SyncSession(profile)
    session.create_file("t.txt", text_content(512 * KB, seed=3))
    session.run_until_idle()
    compresses = profile.upload_compression.level is not CompressionLevel.NONE
    if compresses:
        assert session.meter.up.payload < 450 * KB, profile.name
    else:
        assert session.meter.up.payload == 512 * KB, profile.name


@pytest.mark.parametrize("profile", ALL, ids=lambda p: p.name)
def test_dedup_matches_declaration(profile):
    session = SyncSession(profile)
    content = random_content(256 * KB, seed=4)
    session.create_file("orig.bin", content)
    session.run_until_idle()
    session.reset_meter()
    session.create_file("copy.bin", content)
    session.run_until_idle()
    if profile.dedup.enabled:
        assert session.total_traffic < 128 * KB, \
            f"{profile.name} declares dedup but re-uploaded"
    else:
        assert session.total_traffic > 256 * KB, \
            f"{profile.name} declares no dedup but skipped the upload"


@pytest.mark.parametrize("profile", ALL, ids=lambda p: p.name)
def test_deletion_cheap_everywhere(profile):
    session = SyncSession(profile)
    session.create_file("d.bin", random_content(256 * KB, seed=5))
    session.run_until_idle()
    session.reset_meter()
    session.delete_file("d.bin")
    session.run_until_idle()
    assert session.total_traffic < 100 * KB, profile.name


@pytest.mark.parametrize("profile",
                         [p for p in ALL if p.access is AccessMethod.PC],
                         ids=lambda p: p.name)
def test_defer_behaviour_matches_declaration(profile):
    """Probe each PC client like §6.1 does and compare with the profile."""
    from repro.client.defer import FixedDefer
    session = SyncSession(profile)
    session.create_file("log.bin", random_content(0))
    session.run_until_idle()
    session.reset_meter()
    for index in range(6):
        session.append("log.bin", random_content(1 * KB, seed=index))
        session.advance(1.0)
    session.run_until_idle()
    syncs = session.client.stats.sync_transactions
    policy = profile.make_defer()
    if isinstance(policy, FixedDefer) and policy.deferment > 1.5:
        assert syncs <= 2, f"{profile.name}: deferment should batch 1 s updates"
    else:
        assert syncs >= 2, f"{profile.name}: expected several sync transactions"
