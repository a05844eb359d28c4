"""Golden conformance: the trace path (generator → replay) byte for byte.

The other trace tests are statistical, self-determinism or pool parity —
they all pass when generator and replay drift *together*.  This one pins
both to ``tests/golden/trace_path.json``, written from the commit before
the replay loop and the generator's draws were rebuilt (PR 16):

* blake2b of the full record stream of ``generate_trace`` and of the
  flattened ``iter_trace_shards`` — at ``scale=0.02`` (one user per
  service) for seeds 42 and 7, and for a many-users plan whose bursts
  interleave users, so the per-burst user draw is pinned too;
* every :class:`ReplayReport` field (per-user dict *order* included) of
  that many-users trace under all 6 services × 3 access methods, which
  ``ReplayPool`` at 2 workers and on the in-process shard path must equal.

Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.client import SERVICES, AccessMethod, service_profile
from repro.trace import (
    SERVICE_FILES,
    SERVICE_USERS,
    GeneratorConfig,
    ReplayPool,
    generate_trace,
    iter_trace_shards,
    replay_trace,
)

GOLDEN = Path(__file__).parent / "golden" / "trace_path.json"
REPLAY_SEED = 3

#: ``scale=0.02`` rounds every service down to one user; this plan keeps
#: that file count but 15 % of the users (23), so users interleave.
MANY_USERS = {name: (max(1, round(SERVICE_USERS[name] * 0.15)),
                     max(1, round(SERVICE_FILES[name] * 0.02)))
              for name in SERVICE_USERS}

STREAMS = {
    "scale=0.02,seed=42": dict(scale=0.02, seed=42),
    "scale=0.02,seed=7": dict(scale=0.02, seed=7),
    "many-users,seed=42": dict(
        config=GeneratorConfig(seed=42, services=MANY_USERS)),
}

PROFILES = [service_profile(service, access)
            for service in SERVICES for access in AccessMethod]


def stream_digest(records) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for record in records:
        digest.update(repr((
            record.user, record.path, record.size, record.compressed_size,
            record.created_at, record.modified_at, record.modify_count,
            record.content_id)).encode())
        digest.update(record.segments.tobytes())
    return digest.hexdigest()


def report_json(report) -> str:
    """Key order is kept: per-user dict order is part of the contract."""
    return json.dumps(dataclasses.asdict(report))


@pytest.fixture(scope="module")
def many_users_trace():
    return generate_trace(**STREAMS["many-users,seed=42"])


@pytest.fixture(scope="module")
def golden(many_users_trace):
    if os.environ.get("REGEN_GOLDEN"):
        payload = {
            "generate_trace": {
                name: stream_digest(generate_trace(**kwargs))
                for name, kwargs in STREAMS.items()},
            "iter_trace_shards": {
                name: stream_digest(
                    record for shard in iter_trace_shards(**kwargs)
                    for record in shard)
                for name, kwargs in STREAMS.items()},
            "replay": {
                profile.name: dataclasses.asdict(
                    replay_trace(many_users_trace, profile, seed=REPLAY_SEED))
                for profile in PROFILES},
        }
        GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", STREAMS)
def test_generated_record_stream_is_pinned(golden, name):
    assert stream_digest(generate_trace(**STREAMS[name])) \
        == golden["generate_trace"][name]


@pytest.mark.parametrize("name", STREAMS)
def test_sharded_record_stream_is_pinned(golden, name):
    flattened = (record for shard in iter_trace_shards(**STREAMS[name])
                 for record in shard)
    assert stream_digest(flattened) == golden["iter_trace_shards"][name]


def test_many_users_trace_interleaves_users(many_users_trace):
    """The plan only earns its place if creation order and first-modified
    order of users differ — otherwise per-user dict order is pinned by
    nothing."""
    created, modified = [], []
    for record in many_users_trace:
        if record.user not in created:
            created.append(record.user)
        if record.modify_count and record.user not in modified:
            modified.append(record.user)
    assert len(created) == 23
    assert modified != [user for user in created if user in modified]


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_sequential_replay_is_pinned(golden, many_users_trace, profile):
    report = replay_trace(many_users_trace, profile, seed=REPLAY_SEED)
    assert report_json(report) == json.dumps(golden["replay"][profile.name])


@pytest.mark.parametrize("workers", [2, 1])
def test_pooled_replay_is_pinned(golden, many_users_trace, workers):
    """``workers=2`` forks; ``workers=1`` runs the shard/merge pipeline
    in-process.  Both must reproduce the sequential golden exactly."""
    with ReplayPool(many_users_trace, workers=workers) as pool:
        for profile in PROFILES:
            report = pool.replay(profile, seed=REPLAY_SEED)
            assert report_json(report) \
                == json.dumps(golden["replay"][profile.name]), profile.name
