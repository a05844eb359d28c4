"""Hand-built single-session rigs — the oracle for ``repro.core.cell``.

These are the rigs Experiments 8, 10 and 11 and the §7 cost vector ran
before each became a :class:`~repro.core.Cell` with a recipe: each builds
its own ``SyncSession``, drives its workload and returns its own result
type.  They live here (imported by nothing under ``src/``) so
``test_rigs_differential.py`` can hold every value a renderer or a claim
reads from a :class:`~repro.core.Reading` to them.  The synthetic profiles
and the file-size mix are inputs, not code under comparison, so they come
from :mod:`repro.core`.
"""

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.client import (M1, AccessMethod, MachineProfile, RetryPolicy,
                          ServiceProfile, SyncSession, make_strategy,
                          service_profile)
from repro.compress import CompressionLevel
from repro.content import Content, random_content, text_content
from repro.core import (backend_profile, generate_mix, strategy_link,
                        strategy_profile)
from repro.obs import audit
from repro.simnet import FaultSchedule, LinkSpec, bj_link
from repro.units import KB, MB


# -- Experiment 8 -------------------------------------------------------------

@dataclass(frozen=True)
class FaultRun:
    """One (fault-rate, retry-policy) point of the Experiment 8 sweep."""

    service: str
    fault_rate: float
    resumable: bool
    traffic: int
    wasted: int
    useful: int
    tue: float
    transient_errors: int
    retries: int
    failed_syncs: int


def run_faulty_sync(service: str = "Dropbox", fault_rate: float = 1.0,
                    resumable: bool = True, seed: int = 8,
                    file_size: int = 1 * MB, file_count: int = 4,
                    unit_size: int = 256 * KB, spacing: float = 60.0,
                    link_spec: Optional[LinkSpec] = None,
                    horizon: float = 600.0, mean_interval: float = 12.0,
                    mean_duration: float = 2.5) -> FaultRun:
    """Upload ``file_count`` chunked files while faults hit the wire."""
    profile = replace(service_profile(service, AccessMethod.PC),
                      storage_chunk_size=unit_size)
    schedule = FaultSchedule.generate(
        seed=seed, horizon=horizon,
        mean_interval=mean_interval, mean_duration=mean_duration)
    retry = RetryPolicy(resumable=resumable, seed=seed,
                        max_attempts=20, backoff_budget=1200.0)
    session = SyncSession(profile, link_spec=link_spec or bj_link(),
                          retry=retry, faults=schedule.thin(fault_rate))
    for index in range(file_count):
        session.create_random_file(f"exp8/file{index:02d}.bin", file_size,
                                   seed=seed * 1000 + index)
        session.advance(spacing)
    session.run_until_idle()
    stats = session.client.stats
    update = file_count * file_size
    return FaultRun(
        service=service, fault_rate=fault_rate, resumable=resumable,
        traffic=session.total_traffic,
        wasted=session.wasted_traffic,
        useful=session.useful_traffic,
        tue=session.total_traffic / update,
        transient_errors=stats.transient_errors,
        retries=stats.retries,
        failed_syncs=stats.failed_syncs,
    )


# -- Experiment 10 ------------------------------------------------------------

@dataclass(frozen=True)
class BackendCell:
    """One (backend, mix) point of the Experiment 10 sweep."""

    backend: str
    mix: str
    files: int
    update_bytes: int
    traffic: int
    rest_ops: int
    put_ops: int
    get_ops: int
    delete_ops: int
    list_ops: int
    put_bytes: int
    stored_bytes: int
    shards_sealed: int
    shard_compactions: int
    bundle_commits: int

    @property
    def tue(self) -> float:
        if self.update_bytes == 0:
            return float("inf")
        return self.traffic / self.update_bytes

    @property
    def rest_ops_per_file(self) -> float:
        if self.files == 0:
            return float("inf")
        return self.rest_ops / self.files


def run_backend_cell(backend: str, mix: str, files: int, seed: int = 0,
                     delete_every: int = 4) -> BackendCell:
    """One audited create/delete/purge run against one backend."""
    sizes = generate_mix(mix, files, seed=seed)
    session = SyncSession(backend_profile(backend))
    for index, size in enumerate(sizes):
        session.create_random_file(f"f{index:04d}.bin", size,
                                   seed=1000 * seed + index)
    session.run_until_idle()
    deleted = []
    for index in range(0, files, delete_every):
        path = f"f{index:04d}.bin"
        session.delete_file(path)
        deleted.append(path)
    session.run_until_idle()
    for path in deleted:
        session.server.purge_history("user1", path, keep_last=1)
    audit(store=session.server.objects)
    ops = session.server.objects.ops
    stats = session.server.stats
    return BackendCell(
        backend=backend, mix=mix, files=files,
        update_bytes=session.data_update_bytes,
        traffic=session.total_traffic,
        rest_ops=ops.total_ops(), put_ops=ops.put, get_ops=ops.get,
        delete_ops=ops.delete, list_ops=ops.list, put_bytes=ops.put_bytes,
        stored_bytes=session.server.objects.stored_bytes,
        shards_sealed=stats.shards_sealed,
        shard_compactions=stats.shard_compactions,
        bundle_commits=session.client.stats.bundle_commits,
    )


# -- Experiment 11 ------------------------------------------------------------

@dataclass(frozen=True)
class StrategyCell:
    """One (strategy, workload, link) point of the Experiment 11 sweep."""

    strategy: str
    workload: str
    link: str
    files: int
    update_bytes: int
    traffic: int
    strategy_payload: int
    round_trips: int
    cpu_units: int

    @property
    def tue(self) -> float:
        if self.update_bytes == 0:
            return float("nan") if self.traffic == 0 else float("inf")
        return self.traffic / self.update_bytes


def _strategy_workload(session: SyncSession, workload: str, files: int,
                       seed: int) -> None:
    if workload == "fresh":
        for index in range(files):
            session.create_random_file(
                f"docs/fresh-{index}.bin", 48 * KB + 16 * KB * index,
                seed=7 * seed + index)
            session.advance(30.0)
        session.run_until_idle()
    elif workload == "scatter-edit":
        rng = random.Random(900_001 * seed + 17)
        paths = []
        for index in range(files):
            path = f"docs/doc-{index}.bin"
            session.create_random_file(
                path, 192 * KB + 32 * KB * index, seed=11 * seed + index)
            paths.append(path)
            session.advance(30.0)
        session.run_until_idle()
        for _ in range(2):
            for path in paths:
                data = bytearray(session.folder.get(path).data)
                for _ in range(3):
                    at = rng.randrange(0, len(data) - 120)
                    data[at:at + 120] = bytes(
                        rng.getrandbits(8) for _ in range(120))
                session.write_file(path, Content(bytes(data)))
                session.advance(30.0)
            session.run_until_idle()
    elif workload == "clone":
        bases = []
        for index in range(files):
            path = f"docs/base-{index}.bin"
            session.create_random_file(
                path, 128 * KB + 32 * KB * index, seed=13 * seed + index)
            bases.append(path)
            session.advance(30.0)
        session.run_until_idle()
        for index, base in enumerate(bases):
            prefix = random_content(1 * KB, seed=101 * seed + index).data
            clone = Content(prefix + session.folder.get(base).data)
            session.create_file(f"docs/copy-{index}.bin", clone)
            session.advance(30.0)
        session.run_until_idle()
    else:
        raise ValueError(f"unknown workload {workload!r}")


def run_strategy_cell(strategy_name: str, workload: str, link_name: str,
                      files: int, seed: int = 0) -> StrategyCell:
    """One workload run under one explicit sync strategy (unaudited)."""
    session = SyncSession(
        strategy_profile(), link_spec=strategy_link(link_name),
        strategy=make_strategy(strategy_name))
    _strategy_workload(session, workload, files, seed)
    ledger = session.client.strategy_ledger.values()
    return StrategyCell(
        strategy=strategy_name, workload=workload, link=link_name,
        files=session.client.stats.files_synced,
        update_bytes=session.data_update_bytes,
        traffic=session.total_traffic,
        strategy_payload=sum(t.payload for t in ledger),
        round_trips=sum(t.exchanges for t in ledger),
        cpu_units=sum(t.cpu_units for t in ledger),
    )


# -- §7 -----------------------------------------------------------------------

_COMPRESS_RATE = {
    CompressionLevel.NONE: float("inf"),
    CompressionLevel.LOW: 200 * MB,
    CompressionLevel.MODERATE: 80 * MB,
    CompressionLevel.HIGH: 30 * MB,
}
_HASH_RATE = 400 * MB
_SERVER_IO_RATE = 200 * MB


@dataclass
class CostReport:
    """The §7 cost vector for one workload run."""

    profile_name: str
    traffic_bytes: int = 0
    data_update_bytes: int = 0
    stored_bytes: int = 0
    logical_bytes: int = 0
    rest_operations: int = 0
    client_cpu_seconds: float = 0.0
    server_cpu_seconds: float = 0.0
    sync_transactions: int = 0

    @property
    def tue(self) -> float:
        if self.data_update_bytes <= 0:
            return float("inf") if self.traffic_bytes > 0 else float("nan")
        return self.traffic_bytes / self.data_update_bytes


def measure_costs(profile: ServiceProfile,
                  workload: Callable[[SyncSession], int],
                  machine: MachineProfile = M1) -> CostReport:
    """Run ``workload`` (which returns its update size) and cost it."""
    session = SyncSession(profile, machine=machine)
    update_bytes = workload(session)
    session.run_until_idle()
    server = session.server
    stats = session.client.stats
    hashed_bytes = sum(record.up_payload for record in session.client.history)
    compress_rate = _COMPRESS_RATE[profile.upload_compression.level]
    client_cpu = machine.cpu_factor * (
        hashed_bytes / _HASH_RATE
        + (session.meter.up.payload / compress_rate
           if compress_rate != float("inf") else 0.0)
        + stats.sync_transactions * 0.01
    )
    server_cpu = (
        server.objects.ops.put_bytes / _SERVER_IO_RATE
        + server.objects.ops.get_bytes / _SERVER_IO_RATE
        + server.stats.delta_applications * 0.005
    )
    logical = sum(account.used_bytes
                  for account in server.accounts._accounts.values())
    return CostReport(
        profile_name=profile.name,
        traffic_bytes=session.total_traffic,
        data_update_bytes=update_bytes,
        stored_bytes=server.objects.stored_bytes,
        logical_bytes=logical,
        rest_operations=server.objects.ops.total_ops(),
        client_cpu_seconds=client_cpu,
        server_cpu_seconds=server_cpu,
        sync_transactions=stats.sync_transactions,
    )


def mixed_workload(session: SyncSession) -> int:
    """The §7 workload with its hand-counted update size."""
    session.create_file("doc.txt", text_content(512 * KB, seed=1))
    session.create_file("img.jpg", random_content(512 * KB, seed=2))
    session.run_until_idle()
    for index in range(10):
        session.modify_random_byte("doc.txt", seed=10 + index)
        session.run_until_idle()
    return 1 * MB + 10
