"""Audited end-to-end runs: experiments under faults, parallel replay."""

import pytest

from repro.client import AccessMethod, service_profile
from repro.core import (cell, create, faulty, measure, run_strategy_cell,
                        uploads)
from repro.obs import AuditViolation, audit, audit_hub, recording, verify
from repro.trace import ReplayPool, generate_trace, replay_trace
from repro.units import KB


def test_audited_experiment8_under_nonzero_fault_rate():
    """The hardest path for conservation: aborts, retries, restart resends
    and brownout rejections must all still sum span-by-span."""
    with recording() as hub:
        run = measure(faulty(uploads(count=2, size=512 * KB), 0.75,
                             resumable=False, unit_size=128 * KB))
    assert run.wasted > 0                      # faults actually fired
    audit_hub(hub)                             # every invariant holds
    kinds = {s.kind for rec in hub.recorders for s in rec.spans}
    assert "fault-episode" in kinds
    assert "retry-attempt" in kinds


def test_audited_experiment8_resumable_and_restart_agree_with_untraced():
    """Tracing must not perturb the fault model either."""
    for resumable in (False, True):
        rig = faulty(uploads(count=2, size=256 * KB), 0.5, resumable,
                     unit_size=64 * KB)
        plain = measure(rig)
        with recording(audit=True):
            traced = measure(rig)
        assert traced == plain


def test_untraced_experiment_matches_traced_byte_for_byte():
    plain = measure(cell("Box", create(100 * KB)))
    with recording(audit=True):
        traced = measure(cell("Box", create(100 * KB)))
    assert traced == plain


def test_audited_experiment11_smoke():
    """Experiment 11 cells under one ambient hub: the full conservation
    audit must hold, including strategy-conservation over the
    per-strategy delta-exchange cost ledger."""
    with recording() as hub:
        for name in ("full-file", "set-reconcile", "adaptive"):
            reading = run_strategy_cell(name, "scatter-edit", "mn",
                                        files=2, seed=3)
            assert reading.traffic > 0
    audit_hub(hub)
    kinds = {s.kind for rec in hub.recorders for s in rec.spans}
    assert "delta-exchange" in kinds
    assert "strategy-select" in kinds


def test_audited_two_worker_parallel_replay():
    """The pooled report passes conservation and matches the sequential
    replay exactly."""
    trace = generate_trace(scale=0.005, seed=7)
    profile = service_profile("Dropbox", AccessMethod.PC)
    sequential = replay_trace(trace, profile, seed=7)
    with ReplayPool(trace, workers=2) as pool:
        pooled = pool.replay(profile, seed=7)
    assert pooled == sequential
    audit(report=pooled)                # no raise
    assert verify(report=pooled) == []


def test_corrupted_replay_report_raises():
    trace = generate_trace(scale=0.005, seed=9)
    profile = service_profile("GoogleDrive", AccessMethod.PC)
    with ReplayPool(trace, workers=2) as pool:
        report = pool.replay(profile, seed=9)
    some_user = next(iter(report.per_user_traffic))
    report.per_user_traffic[some_user] += 1
    with pytest.raises(AuditViolation) as err:
        audit(report=report)
    assert err.value.invariant == "replay-conservation"


def test_recording_audit_flag_raises_on_corruption():
    """recording(audit=True) is the one-liner the CLI uses; prove the flag
    actually audits by corrupting the meter inside the block."""
    from repro.client import SyncSession
    from repro.simnet import Direction

    with pytest.raises(AuditViolation):
        with recording(audit=True):
            session = SyncSession("Dropbox", AccessMethod.PC)
            session.create_random_file("f.bin", 16 * KB, seed=1)
            session.run_until_idle()
            session.meter.record(0.0, Direction.DOWN, 0, 12345, kind="ghost")
