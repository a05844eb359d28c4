"""The paper's controlled benchmark experiments (Experiments 1–7').

Every function here reproduces one experiment from §4–§6 and returns plain
result dataclasses the benchmark harness renders into the paper's tables and
figure series.  All experiments are pure functions of their parameters —
each builds a fresh simulated rig via :class:`~repro.client.SyncSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..client import (
    AccessMethod,
    M1,
    MachineProfile,
    ServiceProfile,
    SERVICES,
    SyncSession,
    service_profile,
)
from ..content import random_content
from ..simnet import LinkSpec, mn_link
from ..units import KB, MB

DEFAULT_SIZES = (1, 1 * KB, 1 * MB, 10 * MB)
ALL_ACCESS = (AccessMethod.PC, AccessMethod.WEB, AccessMethod.MOBILE)


def _session(service: str, access: AccessMethod,
             machine: MachineProfile = M1,
             link_spec: Optional[LinkSpec] = None,
             profile: Optional[ServiceProfile] = None) -> SyncSession:
    return SyncSession(profile or service_profile(service, access),
                       machine=machine, link_spec=link_spec or mn_link())


# ---------------------------------------------------------------------------
# Experiment 1 — file creation (Table 6, Figure 3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CreationCell:
    """One (service, access, size) cell of Table 6."""

    service: str
    access: AccessMethod
    size: int
    traffic: int
    overhead: int

    @property
    def tue(self) -> float:
        """TUE (Eq. 1): sync traffic over data update size.

        A zero-byte creation has no data update to amortise against, so its
        TUE is infinite by convention — the old ``max(size, 1)`` guard
        silently reported TUE == traffic, as if one byte had been written.
        """
        if self.size == 0:
            return float("inf")
        return self.traffic / self.size


@dataclass
class CreationResult:
    cells: List[CreationCell] = field(default_factory=list)

    def get(self, service: str, access: AccessMethod, size: int) -> CreationCell:
        for cell in self.cells:
            if (cell.service, cell.access, cell.size) == (service, access, size):
                return cell
        raise KeyError((service, access, size))


def measure_creation(service: str, access: AccessMethod, size: int,
                     seed: int = 1,
                     machine: MachineProfile = M1,
                     link_spec: Optional[LinkSpec] = None) -> CreationCell:
    """Sync one freshly created "highly compressed" file of ``size`` bytes."""
    session = _session(service, access, machine, link_spec)
    session.create_random_file("exp1.bin", size, seed=seed)
    session.run_until_idle()
    return CreationCell(
        service=service, access=access, size=size,
        traffic=session.total_traffic,
        overhead=session.total_traffic - session.meter.payload_bytes,
    )


def experiment1_creation(
    services: Sequence[str] = SERVICES,
    access_methods: Sequence[AccessMethod] = ALL_ACCESS,
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> CreationResult:
    """Reproduce Table 6: sync traffic of a compressed file creation."""
    result = CreationResult()
    for service in services:
        for access in access_methods:
            for size in sizes:
                result.cells.append(measure_creation(service, access, size))
    return result


def experiment1_tue_curve(
    services: Sequence[str] = SERVICES,
    sizes: Sequence[int] = (1, 10, 100, 1 * KB, 10 * KB, 100 * KB,
                            1 * MB, 10 * MB),
    access: AccessMethod = AccessMethod.PC,
) -> Dict[str, List[Tuple[int, float]]]:
    """Reproduce Figure 3: TUE vs. size of the created file (PC clients)."""
    curves: Dict[str, List[Tuple[int, float]]] = {}
    for service in services:
        curves[service] = [
            (size, measure_creation(service, access, size).tue)
            for size in sizes
        ]
    return curves


# ---------------------------------------------------------------------------
# Experiment 1' — batched creation (Table 7)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchCreationRow:
    service: str
    access: AccessMethod
    traffic: int
    tue: float
    sync_transactions: int


def measure_batch_creation(service: str, access: AccessMethod,
                           count: int = 100, file_size: int = 1 * KB) -> BatchCreationRow:
    """Move ``count`` distinct compressed files into the folder in a batch."""
    if count <= 0 or file_size <= 0:
        raise ValueError("count and file_size must be positive")
    session = _session(service, access)
    for index in range(count):
        session.create_random_file(f"batch/file{index:03d}.bin", file_size,
                                   seed=1000 + index)
    session.run_until_idle()
    update = count * file_size
    return BatchCreationRow(
        service=service, access=access,
        traffic=session.total_traffic,
        tue=session.total_traffic / update,
        sync_transactions=session.client.stats.sync_transactions,
    )


def experiment1_batch(
    services: Sequence[str] = SERVICES,
    access_methods: Sequence[AccessMethod] = ALL_ACCESS,
    count: int = 100,
    file_size: int = 1 * KB,
) -> List[BatchCreationRow]:
    """Reproduce Table 7: total traffic for 100 batched 1 KB creations."""
    return [
        measure_batch_creation(service, access, count, file_size)
        for service in services
        for access in access_methods
    ]


# ---------------------------------------------------------------------------
# Experiment 2 — file deletion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeletionRow:
    service: str
    access: AccessMethod
    size: int
    deletion_traffic: int


def experiment2_deletion(
    services: Sequence[str] = SERVICES,
    access_methods: Sequence[AccessMethod] = (AccessMethod.PC,),
    sizes: Sequence[int] = (1 * KB, 1 * MB, 10 * MB),
) -> List[DeletionRow]:
    """Delete each created file once fully synced; meter only the deletion."""
    rows = []
    for service in services:
        for access in access_methods:
            for size in sizes:
                session = _session(service, access)
                session.create_random_file("doomed.bin", size, seed=2)
                session.run_until_idle()
                session.reset_meter()
                session.delete_file("doomed.bin")
                session.run_until_idle()
                rows.append(DeletionRow(service, access, size,
                                        session.total_traffic))
    return rows


# ---------------------------------------------------------------------------
# Experiment 3 — one-byte modification (Figure 4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModificationCell:
    service: str
    access: AccessMethod
    size: int
    traffic: int

    @property
    def tue(self) -> float:
        """TUE against the 1-byte data update; infinite for an (impossible
        to modify, but constructible) zero-size cell, matching
        :class:`CreationCell`."""
        if self.size == 0:
            return float("inf")
        # TUE against a 1-byte update *is* the byte count, as a ratio.
        return float(self.traffic)  # reprolint: disable=REP010 deliberate


def measure_modification(service: str, access: AccessMethod, size: int,
                         seed: int = 3) -> ModificationCell:
    """Sync a random one-byte modification of a Z-byte compressed file."""
    session = _session(service, access)
    session.create_random_file("exp3.bin", size, seed=seed)
    session.run_until_idle()
    session.reset_meter()
    session.modify_random_byte("exp3.bin", seed=seed)
    session.run_until_idle()
    return ModificationCell(service, access, size, session.total_traffic)


def experiment3_modification(
    services: Sequence[str] = SERVICES,
    access_methods: Sequence[AccessMethod] = ALL_ACCESS,
    sizes: Sequence[int] = (1 * KB, 10 * KB, 100 * KB, 1 * MB),
) -> List[ModificationCell]:
    """Reproduce Figure 4: sync traffic of a random byte modification."""
    return [
        measure_modification(service, access, size)
        for access in access_methods
        for service in services
        for size in sizes
    ]


# ---------------------------------------------------------------------------
# Experiment 4 — compression (Table 8)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressionRow:
    service: str
    access: AccessMethod
    size: int
    upload_traffic: int
    download_traffic: int


def measure_compression(service: str, access: AccessMethod,
                        size: int = 10 * MB, seed: int = 4) -> CompressionRow:
    """Upload then download an X-byte text file of random English words."""
    session = _session(service, access)
    session.create_text_file("exp4.txt", size, seed=seed)
    session.run_until_idle()
    upload = session.total_traffic
    session.reset_meter()
    session.download("exp4.txt")
    session.run_until_idle()
    return CompressionRow(service, access, size, upload, session.total_traffic)


def experiment4_compression(
    services: Sequence[str] = SERVICES,
    access_methods: Sequence[AccessMethod] = ALL_ACCESS,
    size: int = 10 * MB,
) -> List[CompressionRow]:
    """Reproduce Table 8: sync traffic of a 10-MB text file, UP and DN."""
    return [
        measure_compression(service, access, size)
        for service in services
        for access in access_methods
    ]


# ---------------------------------------------------------------------------
# Experiment 6 — frequent modifications (Figure 6) and ASD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppendingRun:
    """Result of one "X KB / X sec" appending experiment."""

    service: str
    x: float
    total_appended: int
    traffic: int
    tue: float
    sync_transactions: int
    mean_batch_ops: float


def run_appending(
    service: str,
    x: float,
    total: int = 1 * MB,
    access: AccessMethod = AccessMethod.PC,
    machine: MachineProfile = M1,
    link_spec: Optional[LinkSpec] = None,
    profile: Optional[ServiceProfile] = None,
    append_kb: Optional[float] = None,
    seed: int = 6,
) -> AppendingRun:
    """Append ``x`` KB every ``x`` seconds until ``total`` bytes accumulate.

    ``append_kb`` decouples the appended size from the period for the
    fine-grained probes (e.g. the "1 KB/sec" runs of Experiment 7).
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if total <= 0:
        raise ValueError("total must be positive")
    chunk = int((append_kb if append_kb is not None else x) * KB)
    if chunk <= 0:
        raise ValueError("append size must be at least 1 byte")
    session = _session(service, access, machine, link_spec, profile=profile)
    session.create_file("mods.bin", random_content(0))
    session.run_until_idle()
    session.reset_meter()

    appended = 0
    index = 0
    while appended < total:
        step = min(chunk, total - appended)
        session.append("mods.bin", random_content(step, seed=seed * 10_000 + index))
        appended += step
        index += 1
        session.advance(x)
    session.run_until_idle()

    stats = session.client.stats
    ops = stats.ops_per_sync or [0]
    return AppendingRun(
        service=service, x=x, total_appended=appended,
        traffic=session.total_traffic,
        tue=session.total_traffic / appended,
        sync_transactions=stats.sync_transactions,
        mean_batch_ops=sum(ops) / len(ops),
    )


def experiment6_frequent_mods(
    service: str,
    xs: Iterable[float] = tuple(range(1, 21)),
    total: int = 1 * MB,
    machine: MachineProfile = M1,
    link_spec: Optional[LinkSpec] = None,
) -> List[AppendingRun]:
    """Reproduce one subfigure of Figure 6."""
    return [run_appending(service, float(x), total=total, machine=machine,
                          link_spec=link_spec) for x in xs]


def asd_comparison(
    service: str,
    xs: Iterable[float],
    defer_factory: Callable,
    total: int = 1 * MB,
) -> List[Tuple[float, float, float]]:
    """(x, tue_original, tue_with_policy) — the §6.1 ASD what-if analysis."""
    rows = []
    base_profile = service_profile(service, AccessMethod.PC)
    modified = base_profile.with_defer(defer_factory)
    for x in xs:
        original = run_appending(service, float(x), total=total)
        with_policy = run_appending(service, float(x), total=total,
                                    profile=modified)
        rows.append((float(x), original.tue, with_policy.tue))
    return rows


# ---------------------------------------------------------------------------
# Experiment 7 — network environment and hardware (Figures 7 & 8)
# ---------------------------------------------------------------------------

def experiment7_locations(
    service: str,
    xs: Iterable[float],
    mn_spec: Optional[LinkSpec] = None,
    bj_spec: Optional[LinkSpec] = None,
    total: int = 1 * MB,
) -> List[Tuple[float, float, float]]:
    """Reproduce Figure 7: (x, tue@MN, tue@BJ) for one service."""
    from ..simnet import bj_link
    mn_spec = mn_spec or mn_link()
    bj_spec = bj_spec or bj_link()
    rows = []
    for x in xs:
        at_mn = run_appending(service, float(x), total=total, link_spec=mn_spec)
        at_bj = run_appending(service, float(x), total=total, link_spec=bj_spec)
        rows.append((float(x), at_mn.tue, at_bj.tue))
    return rows


def experiment7_bandwidth(
    service: str = "Dropbox",
    bandwidths_mbps: Sequence[float] = (1.6, 2, 4, 8, 12, 16, 20),
    rtt: float = 0.050,
    total: int = 256 * KB,
) -> List[Tuple[float, float]]:
    """Reproduce Figure 8(a): Dropbox "1 KB/sec" TUE vs. bandwidth."""
    rows = []
    for mbps in bandwidths_mbps:
        spec = LinkSpec(up_bw=mbps * 1e6, down_bw=mbps * 1e6, rtt=rtt)
        run = run_appending(service, 1.0, total=total, link_spec=spec)
        rows.append((mbps, run.tue))
    return rows


def experiment7_latency(
    service: str = "Dropbox",
    rtts: Sequence[float] = (0.040, 0.100, 0.200, 0.400, 0.600, 0.800, 1.000),
    bandwidth_mbps: float = 20.0,
    total: int = 256 * KB,
) -> List[Tuple[float, float]]:
    """Reproduce Figure 8(b): Dropbox "1 KB/sec" TUE vs. latency."""
    rows = []
    for rtt in rtts:
        spec = LinkSpec(up_bw=bandwidth_mbps * 1e6,
                        down_bw=bandwidth_mbps * 1e6, rtt=rtt)
        run = run_appending(service, 1.0, total=total, link_spec=spec)
        rows.append((rtt, run.tue))
    return rows


def experiment7_hardware(
    service: str = "Dropbox",
    machines: Optional[Sequence[MachineProfile]] = None,
    xs: Iterable[float] = (1, 2, 3, 4, 6, 8, 10),
    total: int = 512 * KB,
) -> Dict[str, List[Tuple[float, float]]]:
    """Reproduce Figure 8(c): TUE per machine for "X KB/X sec" appends."""
    from ..client import M2, M3
    machines = machines or (M1, M2, M3)
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for machine in machines:
        curves[machine.name] = [
            (float(x), run_appending(service, float(x), total=total,
                                     machine=machine).tue)
            for x in xs
        ]
    return curves


# ---------------------------------------------------------------------------
# Experiment 8 — sync under failure: TUE vs. fault rate
# ---------------------------------------------------------------------------

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

    @property
    def wasted_fraction(self) -> float:
        return self.wasted / self.traffic if self.traffic else 0.0


def run_faulty_sync(
    service: str = "Dropbox",
    fault_rate: float = 1.0,
    resumable: bool = True,
    seed: int = 8,
    file_size: int = 1 * MB,
    file_count: int = 4,
    unit_size: int = 256 * KB,
    spacing: float = 60.0,
    link_spec: Optional[LinkSpec] = None,
    horizon: float = 600.0,
    mean_interval: float = 12.0,
    mean_duration: float = 2.5,
) -> FaultRun:
    """Upload ``file_count`` chunked files while faults hit the wire.

    The fault episodes are pre-drawn once from ``seed`` over ``horizon``
    seconds and then *thinned* to ``fault_rate`` — a higher rate keeps a
    strict superset of a lower rate's episodes, so sweeping the rate moves
    exactly one variable.  ``resumable`` selects the client's recovery
    design (resume at the failed unit vs. restart from byte zero).
    """
    from dataclasses import replace

    from ..client import RetryPolicy
    from ..simnet import FaultSchedule, bj_link

    if file_count <= 0 or file_size <= 0:
        raise ValueError("file_count and file_size must be positive")
    profile = replace(service_profile(service, AccessMethod.PC),
                      storage_chunk_size=unit_size)
    schedule = FaultSchedule.generate(
        seed=seed, horizon=horizon,
        mean_interval=mean_interval, mean_duration=mean_duration)
    # A generous attempt/budget cap: the sweep measures the traffic *cost*
    # of recovery designs, so every upload must eventually complete — a
    # give-up would drop payload and confound the TUE comparison.
    retry = RetryPolicy(resumable=resumable, seed=seed,
                        max_attempts=20, backoff_budget=1200.0)
    session = SyncSession(
        profile,
        link_spec=link_spec or bj_link(),
        retry=retry,
        faults=schedule.thin(fault_rate),
    )
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


def experiment8_faults(
    service: str = "Dropbox",
    fault_rates: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    **kwargs,
) -> Dict[bool, List[FaultRun]]:
    """TUE vs. fault rate for resumable and restart-from-zero clients.

    Returns ``{True: [...], False: [...]}`` keyed by ``resumable``; the two
    sweeps share seeds and schedules, so at rate 0 they are byte-identical
    and every gap at a nonzero rate is purely the recovery design.
    """
    return {
        resumable: [run_faulty_sync(service, rate, resumable=resumable,
                                    **kwargs)
                    for rate in fault_rates]
        for resumable in (True, False)
    }


# ---------------------------------------------------------------------------
# Experiment 9 — shared-folder collaboration (fleet fan-out amplification)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollaborationCell:
    """One (service, writer-count) point of the collaboration sweep."""

    service: str
    writers: int
    clients: int
    update_bytes: int
    traffic_bytes: int
    conflicts: int
    tue: float
    amplification: float


def run_collaboration(
    service: str,
    access: AccessMethod = AccessMethod.PC,
    writers: int = 2,
    clients: Optional[int] = None,
    files_per_writer: int = 2,
    file_size: int = 64 * KB,
    spacing: float = 20.0,
    seed: int = 9,
    link_spec: Optional[LinkSpec] = None,
    notification_delay: float = 0.2,
):
    """One fleet run: ``writers`` active writers among ``clients`` members.

    ``clients`` defaults to ``writers`` (every member writes), the paper's
    symmetric-collaboration shape.  Returns the :class:`~repro.fleet.
    FleetReport`.
    """
    from ..fleet import Fleet, schedule_writer_workload

    fleet = Fleet(service, access=access, clients=clients or writers,
                  link_spec=link_spec or mn_link(), seed=seed,
                  notification_delay=notification_delay)
    schedule_writer_workload(fleet, writers=writers,
                             files_per_writer=files_per_writer,
                             file_size=file_size, spacing=spacing, seed=seed)
    fleet.run_until_idle()
    return fleet.report()


def experiment9_collaboration(
    services: Sequence[str] = ("GoogleDrive", "OneDrive", "SugarSync"),
    writer_counts: Sequence[int] = (1, 2, 4, 8, 16),
    **kwargs,
) -> Dict[str, List["CollaborationCell"]]:
    """TUE(N) vs. collaborator count N — the fan-out amplification sweep.

    Each commit is paid for roughly N times (one upload plus N-1 follower
    downloads) while the data-update denominator grows only with the writes
    themselves, so for the no-dedup, no-batching PC profiles TUE(N) is
    strictly increasing in N.  The ``amplification`` column normalises each
    point against the same service's N=1 run.
    """
    out: Dict[str, List[CollaborationCell]] = {}
    for service in services:
        baseline = None
        cells: List[CollaborationCell] = []
        for writers in writer_counts:
            report = run_collaboration(service, writers=writers, **kwargs)
            if baseline is None:
                baseline = report
            cells.append(CollaborationCell(
                service=report.service,
                writers=writers,
                clients=report.clients,
                update_bytes=report.update_bytes,
                traffic_bytes=report.traffic_bytes,
                conflicts=report.conflicts,
                tue=report.tue,
                amplification=report.amplification(baseline),
            ))
        out[service] = cells
    return out


# ---------------------------------------------------------------------------
# Experiment 10 — storage backends × file-size mixes (packed shards)
# ---------------------------------------------------------------------------

BACKENDS = ("object", "chunk", "packshard")
FILE_MIXES = ("paper", "uniform-large", "multimedia")

#: Default workload size per mix: roughly equal total update bytes, so the
#: three sweeps finish in comparable time.
_MIX_FILES = {"paper": 96, "uniform-large": 12, "multimedia": 6}
_MIX_SEEDS = {"paper": 11, "uniform-large": 13, "multimedia": 17}


def generate_mix(mix: str, files: int, seed: int = 0) -> List[int]:
    """Deterministic file-size list for one workload mix.

    ``paper`` follows the trace's skew (§5): 77% of files in the 1–8 KB
    band, 18% mid-sized, 5% large.  ``uniform-large`` and ``multimedia``
    are the counterfactuals: workloads where per-file payload, not request
    overhead, dominates.
    """
    if mix not in FILE_MIXES:
        raise ValueError(f"unknown mix {mix!r} (one of {FILE_MIXES})")
    import random
    rng = random.Random(100_003 * seed + _MIX_SEEDS[mix])
    sizes: List[int] = []
    for _ in range(files):
        if mix == "paper":
            roll = rng.random()
            if roll < 0.77:
                sizes.append(rng.randint(1 * KB, 8 * KB))
            elif roll < 0.95:
                sizes.append(rng.randint(32 * KB, 128 * KB))
            else:
                sizes.append(rng.randint(256 * KB, 1 * MB))
        elif mix == "uniform-large":
            sizes.append(rng.randint(256 * KB, 1 * MB))
        else:  # multimedia
            sizes.append(rng.randint(1 * MB, 3 * MB))
    return sizes


def backend_profile(backend: str) -> ServiceProfile:
    """Synthetic "RestLab" profile isolating the storage backend choice.

    No compression, no dedup, no IDS — every design choice that could
    confound the backend comparison is off.  The ``object`` backend stores
    whole files as single REST objects; ``chunk`` and ``packshard`` split
    files into 16 KB units (small enough that the paper-mix files produce
    multiple objects each); ``packshard`` additionally bundles small-file
    commits client-side.
    """
    from ..cloud import DedupConfig
    from ..compress import NO_COMPRESSION
    from ..client import BundleSupport, OverheadProfile
    from ..client.defer import FixedDefer

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (one of {BACKENDS})")
    return ServiceProfile(
        service="RestLab",
        access=AccessMethod.PC,
        delta_block=None,
        upload_compression=NO_COMPRESSION,
        download_compression=NO_COMPRESSION,
        dedup=DedupConfig.none(),
        storage_chunk_size=None if backend == "object" else 16 * KB,
        overhead=OverheadProfile(meta_up=600, meta_down=300,
                                 notify_down=200),
        defer_factory=lambda: FixedDefer(2.0),
        bundle=BundleSupport(enabled=(backend == "packshard")),
        storage_backend="packshard" if backend == "packshard" else "chunk",
    )


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
        """TUE (Eq. 1); infinite when no data was updated."""
        if self.update_bytes == 0:
            return float("inf")
        return self.traffic / self.update_bytes

    @property
    def rest_ops_per_file(self) -> float:
        """Provider-side REST request amplification per synced file."""
        if self.files == 0:
            return float("inf")
        return self.rest_ops / self.files


def run_backend_cell(backend: str, mix: str,
                     files: Optional[int] = None,
                     seed: int = 0,
                     link_spec: Optional[LinkSpec] = None,
                     delete_every: int = 4) -> BackendCell:
    """One audited workload run against one backend.

    Creates the mix's files, syncs to idle, deletes every
    ``delete_every``-th file and purges its history (exercising the
    delete/GC path where the backends' cost models diverge hardest), then
    reads the REST ledger — which must balance
    (:func:`repro.obs.audit.audit_rest_ledger`) before the cell is
    reported.
    """
    from ..obs import audit_rest_ledger

    file_count = files if files is not None else _MIX_FILES[mix]
    sizes = generate_mix(mix, file_count, seed=seed)
    session = _session("RestLab", AccessMethod.PC, link_spec=link_spec,
                       profile=backend_profile(backend))
    for index, size in enumerate(sizes):
        session.create_random_file(f"f{index:04d}.bin", size,
                                   seed=1000 * seed + index)
    session.run_until_idle()
    deleted = []
    for index in range(0, file_count, delete_every):
        path = f"f{index:04d}.bin"
        session.delete_file(path)
        deleted.append(path)
    session.run_until_idle()
    for path in deleted:
        session.server.purge_history("user1", path, keep_last=1)
    audit_rest_ledger(session.server.objects)
    ops = session.server.objects.ops
    stats = session.server.stats
    return BackendCell(
        backend=backend,
        mix=mix,
        files=file_count,
        update_bytes=session.data_update_bytes,
        traffic=session.total_traffic,
        rest_ops=ops.total_ops(),
        put_ops=ops.put,
        get_ops=ops.get,
        delete_ops=ops.delete,
        list_ops=ops.list,
        put_bytes=ops.put_bytes,
        stored_bytes=session.server.objects.stored_bytes,
        shards_sealed=stats.shards_sealed,
        shard_compactions=stats.shard_compactions,
        bundle_commits=session.client.stats.bundle_commits,
    )


def experiment10_backends(
    backends: Sequence[str] = BACKENDS,
    mixes: Sequence[str] = FILE_MIXES,
    files: Optional[int] = None,
    seed: int = 0,
    link_spec: Optional[LinkSpec] = None,
) -> List[BackendCell]:
    """Sweep TUE and REST ops/file across backends × file-size mixes.

    The headline claim: on the paper's 77%-small-file mix the packed-shard
    backend issues ≥10× fewer REST ops per file than the Cumulus-style
    chunk store, because bundling collapses wire transactions and packing
    collapses PUT/GC amplification.
    """
    cells: List[BackendCell] = []
    for mix in mixes:
        for backend in backends:
            cells.append(run_backend_cell(backend, mix, files=files,
                                          seed=seed, link_spec=link_spec))
    return cells


# ---------------------------------------------------------------------------
# Experiment 11 — sync strategies × workloads × links (this repo's extension)
# ---------------------------------------------------------------------------

#: Stable sweep axes (strategy names match client.strategies.STRATEGY_NAMES).
STRATEGIES = ("full-file", "fixed-delta", "cdc-delta", "set-reconcile",
              "adaptive")
STRATEGY_WORKLOADS = ("fresh", "scatter-edit", "clone")
STRATEGY_LINKS = ("mn", "bj", "lte")


def strategy_link(name: str) -> LinkSpec:
    """Resolve one of the Experiment 11 link profiles by name."""
    from ..simnet import bj_link, lte_link
    links = {"mn": mn_link, "bj": bj_link, "lte": lte_link}
    if name not in links:
        raise ValueError(
            f"unknown link {name!r} (one of {STRATEGY_LINKS})")
    return links[name]()


def strategy_profile() -> ServiceProfile:
    """Synthetic "StratLab" profile isolating the transfer strategy choice.

    Like RestLab (Experiment 10): no compression, no dedup, no profile
    IDS, whole-file REST objects — the only moving part is the
    :mod:`~repro.client.strategies` plug, so per-cell traffic differences
    are attributable to the strategy alone.
    """
    from ..cloud import DedupConfig
    from ..compress import NO_COMPRESSION
    from ..client import OverheadProfile
    from ..client.defer import FixedDefer

    return ServiceProfile(
        service="StratLab",
        access=AccessMethod.PC,
        delta_block=None,
        upload_compression=NO_COMPRESSION,
        download_compression=NO_COMPRESSION,
        dedup=DedupConfig.none(),
        storage_chunk_size=None,
        overhead=OverheadProfile(meta_up=600, meta_down=300,
                                 notify_down=200),
        defer_factory=lambda: FixedDefer(2.0),
    )


def _strategy_workload(session: SyncSession, workload: str, files: int,
                       seed: int) -> None:
    """Drive one deterministic workload, identical across strategies.

    Every operation is followed by a 30 s advance: long enough that each
    file syncs alone (no cross-strategy batching divergence), short
    enough that the connection stays warm — so per-cell traffic differs
    only by what the strategy put on the wire.
    """
    import random
    from ..content import Content

    if workload == "fresh":
        # Incompressible new content: nothing for any delta to match.
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
        raise ValueError(
            f"unknown workload {workload!r} (one of {STRATEGY_WORKLOADS})")


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
        """TUE (Eq. 1); nan for an empty cell, inf for pure overhead."""
        if self.update_bytes == 0:
            return float("nan") if self.traffic == 0 else float("inf")
        return self.traffic / self.update_bytes


def run_strategy_cell(strategy_name: str, workload: str, link_name: str,
                      files: int = 3, seed: int = 0,
                      audit: bool = True) -> StrategyCell:
    """One audited workload run under one explicit sync strategy.

    With ``audit=True`` (the default) and no ambient trace hub, the run
    is wrapped in a full conservation audit — including the
    strategy-conservation invariant over the ``delta-exchange`` cost
    ledger.  An ambient hub (``repro audit strategies``) is used as-is so its
    owner audits the whole sweep at once.
    """
    from ..obs import current_hub, recording

    if audit and current_hub() is None:
        with recording(audit=True):
            return _run_strategy_cell(
                strategy_name, workload, link_name, files, seed)
    return _run_strategy_cell(strategy_name, workload, link_name, files, seed)


def _run_strategy_cell(strategy_name: str, workload: str, link_name: str,
                       files: int, seed: int) -> StrategyCell:
    from ..client import make_strategy

    session = SyncSession(
        strategy_profile(), link_spec=strategy_link(link_name),
        strategy=make_strategy(strategy_name))
    _strategy_workload(session, workload, files, seed)
    ledger = session.client.strategy_ledger.values()
    return StrategyCell(
        strategy=strategy_name,
        workload=workload,
        link=link_name,
        files=session.client.stats.files_synced,
        update_bytes=session.data_update_bytes,
        traffic=session.total_traffic,
        strategy_payload=sum(t.payload for t in ledger),
        round_trips=sum(t.exchanges for t in ledger),
        cpu_units=sum(t.cpu_units for t in ledger),
    )


def experiment11_strategies(
    strategies: Sequence[str] = STRATEGIES,
    workloads: Sequence[str] = STRATEGY_WORKLOADS,
    links: Sequence[str] = STRATEGY_LINKS,
    files: int = 3,
    seed: int = 0,
    audit: bool = True,
) -> List[StrategyCell]:
    """Sweep TUE across strategies × workloads × links, every cell audited.

    The headline claim: the adaptive selector's per-file choice from
    exact cost estimates makes its TUE ≤ every static strategy's on every
    workload × link cell — no single static choice wins everywhere
    (full-file takes "fresh", the deltas take "scatter-edit",
    reconciliation takes "clone"), but the selector never loses.
    """
    cells: List[StrategyCell] = []
    for workload in workloads:
        for link in links:
            for strategy in strategies:
                cells.append(run_strategy_cell(
                    strategy, workload, link,
                    files=files, seed=seed, audit=audit))
    return cells
