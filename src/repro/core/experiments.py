"""The multi-file rigs of Experiments 8–11: faults, fleets, backends and
sync strategies.

Experiments 1–7′ and ASD are one measurement each and live in
:mod:`repro.core.cell`.  The rigs here drive workloads that do not fit one
cell's recipe (fault schedules, retry policies, a fleet, a REST ledger, a
strategy plug) and return their own result dataclasses.  All are pure
functions of their parameters, each on a fresh simulated rig.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..client import (
    AccessMethod,
    ServiceProfile,
    SyncSession,
    service_profile,
)
from ..content import random_content
from ..simnet import LinkSpec, mn_link
from ..units import KB, MB

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
    multiple objects each); ``packshard`` additionally commits each batch's
    files of up to 128 KB in one full-BDS transaction.
    """
    from ..cloud import DedupConfig
    from ..compress import NO_COMPRESSION
    from ..client import BdsMode, BdsSupport, OverheadProfile
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
        bds=(BdsSupport(BdsMode.FULL, per_file_bytes=96,
                        max_file_bytes=128 * KB)
             if backend == "packshard" else BdsSupport()),
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
    (``rest-conservation``, :func:`repro.obs.audit`) before the cell is
    reported.
    """
    from ..obs import audit

    file_count = files if files is not None else _MIX_FILES[mix]
    sizes = generate_mix(mix, file_count, seed=seed)
    session = SyncSession(backend_profile(backend), link_spec=link_spec)
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
    audit(store=session.server.objects)
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
    chunk store, because full BDS collapses wire transactions and packing
    collapses PUT/GC amplification.
    """
    if files is not None and files < 1:
        raise ValueError("files must be >= 1")
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
    if files < 1:
        raise ValueError("files must be >= 1")
    cells: List[StrategyCell] = []
    for workload in workloads:
        for link in links:
            for strategy in strategies:
                cells.append(run_strategy_cell(
                    strategy, workload, link,
                    files=files, seed=seed, audit=audit))
    return cells
