"""One measurement cell: the paper's micro experiments as data.

Every single-session experiment — Experiments 1–7′, ASD, the fault sweep
(8), the storage backends (10), the sync strategies (11) and the §7 cost
vector — is one measurement repeated: build one client rig, apply a file
operation, and read the meter.  A :class:`Cell` states that measurement as
(profile, recipe, link, machine) plus the session seam the later rigs need
(retry policy, fault schedule, strategy), and :func:`measure` takes it and
returns a :class:`Reading`.  Each registry entry declares its grid of cells
and formats the readings.

A recipe is a callable ``(session, mark) -> None``.  ``mark()`` drains the
session to idle, keeps the traffic of the phase it closes and zeroes the
meter, so the reading covers only what follows (the deletion, the edit, the
download).  The constructors below keep each experiment's paths and seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..client import (AccessMethod, BdsMode, BdsSupport, ClientStats, M1,
                      FixedDefer, MachineProfile, OverheadProfile,
                      RetryPolicy, ServiceProfile, SyncSession, SyncStrategy,
                      make_strategy, service_profile)
from ..cloud import DedupConfig, RestOpCounters, ServerStats
from ..compress import NO_COMPRESSION, CompressionLevel
from ..content import Content, random_content, text_content
from ..obs import audit as conservation_audit
from ..obs import current_hub, recording
from ..simnet import FaultSchedule, LinkSpec, bj_link, lte_link, mn_link
from ..units import KB, MB
from .tue import tue

#: ``recipe(session, mark)`` applies one experiment's file operations.
Recipe = Callable[[SyncSession, Callable[[], None]], None]


@dataclass(frozen=True)
class Reading:
    """What the meter and the session's ledgers say after one cell synced.

    The meter fields (``traffic``, ``payload``, ``wasted``,
    ``update_bytes``) cover what followed the last ``mark()``; the ledgers
    (``client``, ``server``, ``rest``, ``stored_bytes``, ``logical_bytes``
    and the strategy sums) cover the whole session.
    """

    traffic: int
    payload: int
    update_bytes: int
    sync_transactions: int
    #: The traffic of each phase a ``mark()`` closed, in order.
    marked: Tuple[int, ...] = ()
    #: Failure-induced bytes: retransmissions, aborted sends, re-sends.
    wasted: int = 0
    #: The strategy ledger summed over strategies: Boškov et al.'s
    #: ``(wire payload, round trips, cpu units)`` for the session.
    strategy_payload: int = 0
    round_trips: int = 0
    cpu_units: int = 0
    client: ClientStats = field(default_factory=ClientStats)
    server: ServerStats = field(default_factory=ServerStats)
    #: The store's REST ledger and what it holds, physical and logical.
    rest: RestOpCounters = field(default_factory=RestOpCounters)
    stored_bytes: int = 0
    logical_bytes: int = 0

    @property
    def useful(self) -> int:
        return self.traffic - self.wasted

    @property
    def tue(self) -> float:
        """TUE (Eq. 1): traffic over the data update since the last mark."""
        return tue(self.traffic, self.update_bytes)


@dataclass(frozen=True)
class Cell:
    """One measurement: a recipe run by one client; ``link=None`` is MN.

    ``retry``, ``faults`` and ``strategy`` go to the session unchanged.
    """

    profile: ServiceProfile
    recipe: Recipe
    link: Optional[LinkSpec] = None
    machine: MachineProfile = M1
    retry: Optional[RetryPolicy] = None
    faults: Optional[FaultSchedule] = None
    strategy: Optional[SyncStrategy] = None


def cell(service: str, recipe: Recipe,
         access: AccessMethod = AccessMethod.PC, **kwargs) -> Cell:
    """A :class:`Cell` for a stock service profile."""
    return Cell(service_profile(service, access), recipe, **kwargs)


def measure(cell: Cell) -> Reading:
    """Run ``cell`` on a fresh rig, drain it to idle and read the meter.

    The session is dropped on return, so its ledgers are the snapshot.
    """
    session = SyncSession(cell.profile, machine=cell.machine,
                          link_spec=cell.link, retry=cell.retry,
                          faults=cell.faults, strategy=cell.strategy)
    marked: List[int] = []

    def mark() -> None:
        session.run_until_idle()
        marked.append(session.total_traffic)
        session.reset_meter()

    cell.recipe(session, mark)
    session.run_until_idle()
    client, server = session.client, session.server
    ledger = client.strategy_ledger.values()
    return Reading(traffic=session.total_traffic,
                   payload=session.meter.payload_bytes,
                   update_bytes=session.data_update_bytes,
                   sync_transactions=client.stats.sync_transactions,
                   marked=tuple(marked),
                   wasted=session.wasted_traffic,
                   strategy_payload=sum(tally.payload for tally in ledger),
                   round_trips=sum(tally.exchanges for tally in ledger),
                   cpu_units=sum(tally.cpu_units for tally in ledger),
                   client=client.stats, server=server.stats,
                   rest=server.objects.ops,
                   stored_bytes=server.objects.stored_bytes,
                   logical_bytes=(server.accounts.get(client.user).used_bytes
                                  if client.user in server.accounts else 0))


# ---------------------------------------------------------------------------
# Recipes, one per experiment
# ---------------------------------------------------------------------------

def create(size: int, seed: int = 1) -> Recipe:
    """Experiment 1 (Table 6, Figure 3): one incompressible creation."""
    def recipe(session, mark):
        session.create_random_file("exp1.bin", size, seed=seed)
    return recipe


def batch(count: int = 100) -> Recipe:
    """Experiment 1′ (Table 7): ``count`` distinct 1 KB files created at
    once."""
    if count <= 0:
        raise ValueError("count must be positive")

    def recipe(session, mark):
        for index in range(count):
            session.create_random_file(f"batch/file{index:03d}.bin", 1 * KB,
                                       seed=1000 + index)
    return recipe


def delete(size: int) -> Recipe:
    """Experiment 2: delete a fully synced file; only the deletion counts."""
    def recipe(session, mark):
        session.create_random_file("doomed.bin", size, seed=2)
        mark()
        session.delete_file("doomed.bin")
    return recipe


def modify(size: int) -> Recipe:
    """Experiment 3 (Figure 4): flip one random byte of a synced file."""
    def recipe(session, mark):
        session.create_random_file("exp3.bin", size, seed=3)
        mark()
        session.modify_random_byte("exp3.bin", seed=3)
    return recipe


def upload_download(size: int = 10 * MB) -> Recipe:
    """Experiment 4 (Table 8): upload a text file, then download it.

    The upload is ``marked[0]``; the download is the reading's traffic.
    """
    def recipe(session, mark):
        session.create_text_file("exp4.txt", size, seed=4)
        mark()
        session.download("exp4.txt")
    return recipe


def append(x: float, total: int = 1 * MB,
           append_kb: Optional[float] = None) -> Recipe:
    """Experiments 6 and 7: append ``x`` KB every ``x`` s up to ``total``.

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

    def recipe(session, mark):
        session.create_file("mods.bin", random_content(0))
        mark()
        appended = 0
        index = 0
        while appended < total:
            step = min(chunk, total - appended)
            session.append("mods.bin",
                           random_content(step, seed=60_000 + index))
            appended += step
            index += 1
            session.advance(x)
    return recipe


# -- Experiment 8: sync under failure ---------------------------------------

#: Experiment 8 draws its contents, fault episodes and retry jitter from it.
_FAULT_SEED = 8


def uploads(count: int = 4, size: int = 1 * MB) -> Recipe:
    """Experiment 8: ``count`` incompressible uploads a minute apart."""
    if count <= 0 or size <= 0:
        raise ValueError("count and size must be positive")

    def recipe(session, mark):
        for index in range(count):
            session.create_random_file(f"exp8/file{index:02d}.bin", size,
                                       seed=_FAULT_SEED * 1000 + index)
            session.advance(60.0)
    return recipe


def faulty(recipe: Recipe, rate: float, resumable: bool,
           unit_size: int = 256 * KB) -> Cell:
    """Experiment 8's cell: ``recipe`` on Dropbox PC over BJ under faults.

    The fault episodes are pre-drawn once over 600 s and then
    *thinned* to ``rate`` — a higher rate keeps a strict superset of a
    lower rate's episodes, so sweeping the rate moves exactly one variable.
    ``resumable`` selects the client's recovery design (resume at the
    failed ``unit_size`` unit vs. restart from byte zero).  The retry cap
    is generous: the sweep measures the traffic *cost* of recovery, so
    every upload must complete — a give-up would drop payload and confound
    the TUE comparison.
    """
    schedule = FaultSchedule.generate(seed=_FAULT_SEED, horizon=600.0,
                                      mean_interval=12.0, mean_duration=2.5)
    return Cell(replace(service_profile("Dropbox"),
                        storage_chunk_size=unit_size),
                recipe, link=bj_link(),
                retry=RetryPolicy(resumable=resumable, seed=_FAULT_SEED,
                                  max_attempts=20, backoff_budget=1200.0),
                faults=schedule.thin(rate))


# -- Experiment 10: storage backends × file-size mixes ----------------------

BACKENDS = ("object", "chunk", "packshard")
FILE_MIXES = ("paper", "uniform-large", "multimedia")

#: Default workload size per mix: roughly equal total update bytes, so the
#: three sweeps finish in comparable time.
MIX_FILES = {"paper": 96, "uniform-large": 12, "multimedia": 6}
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
    if files < 0:
        raise ValueError("files must be >= 0")
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


def churn(mix: str, files: int, seed: int = 0) -> Recipe:
    """Experiment 10: create ``files`` of ``mix``, then delete and purge.

    Syncs the creations to idle, deletes every 4th file and purges its
    history (the delete/GC path, where the backends' cost models diverge
    hardest), then audits the REST ledger (``rest-conservation``,
    :func:`repro.obs.audit`), which must balance before anything is read.
    """
    if files < 1:
        raise ValueError("files must be >= 1")
    sizes = generate_mix(mix, files, seed=seed)
    doomed = [f"f{index:04d}.bin" for index in range(0, files, 4)]

    def recipe(session, mark):
        for index, size in enumerate(sizes):
            session.create_random_file(f"f{index:04d}.bin", size,
                                       seed=1000 * seed + index)
        session.run_until_idle()
        for path in doomed:
            session.delete_file(path)
        session.run_until_idle()
        for path in doomed:
            session.server.purge_history(session.client.user, path,
                                         keep_last=1)
        conservation_audit(store=session.server.objects)
    return recipe


# -- Experiment 11: sync strategies × workloads × links ---------------------

#: Stable sweep axes (strategy names match client.strategies.STRATEGY_NAMES).
STRATEGIES = ("full-file", "fixed-delta", "cdc-delta", "set-reconcile",
              "adaptive")
STRATEGY_WORKLOADS = ("fresh", "scatter-edit", "clone")
STRATEGY_LINKS = ("mn", "bj", "lte")


def strategy_link(name: str) -> LinkSpec:
    """Resolve one of the Experiment 11 link profiles by name."""
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


def edits(workload: str, files: int = 3, seed: int = 0) -> Recipe:
    """Experiment 11: one workload, identical across strategies.

    ``fresh`` creates incompressible files (nothing for a delta to match),
    ``scatter-edit`` patches three 120-byte spans of each file twice, and
    ``clone`` copies each file behind a 1 KB prefix.  Every operation is
    followed by a 30 s advance: long enough that each file syncs alone (no
    cross-strategy batching divergence), short enough that the connection
    stays warm — so per-cell traffic differs only by what the strategy put
    on the wire.
    """
    if workload not in STRATEGY_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r} (one of {STRATEGY_WORKLOADS})")
    if files < 1:
        raise ValueError("files must be >= 1")

    def create_all(session, name, base, step, seed_factor):
        paths = []
        for index in range(files):
            path = f"docs/{name}-{index}.bin"
            session.create_random_file(path, base + step * index,
                                       seed=seed_factor * seed + index)
            paths.append(path)
            session.advance(30.0)
        session.run_until_idle()
        return paths

    def recipe(session, mark):
        if workload == "fresh":
            create_all(session, "fresh", 48 * KB, 16 * KB, 7)
        elif workload == "scatter-edit":
            rng = random.Random(900_001 * seed + 17)
            paths = create_all(session, "doc", 192 * KB, 32 * KB, 11)
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
        else:  # clone
            bases = create_all(session, "base", 128 * KB, 32 * KB, 13)
            for index, base in enumerate(bases):
                prefix = random_content(1 * KB, seed=101 * seed + index).data
                session.create_file(f"docs/copy-{index}.bin", Content(
                    prefix + session.folder.get(base).data))
                session.advance(30.0)
    return recipe


def run_strategy_cell(strategy_name: str, workload: str, link_name: str,
                      files: int = 3, seed: int = 0,
                      audit: bool = True) -> Reading:
    """Measure one Experiment 11 cell: ``edits(workload)`` on StratLab.

    With ``audit=True`` (the default) and no ambient trace hub, the run
    is wrapped in a full conservation audit — including the
    strategy-conservation invariant over the ``delta-exchange`` cost
    ledger.  An ambient hub (``repro audit strategies``) is used as-is so
    its owner audits the whole sweep at once.
    """
    measured = Cell(strategy_profile(), edits(workload, files, seed),
                    link=strategy_link(link_name),
                    strategy=make_strategy(strategy_name))
    if audit and current_hub() is None:
        with recording(audit=True):
            return measure(measured)
    return measure(measured)


# -- §7: the cost vector ----------------------------------------------------

def mixed(session, mark) -> None:
    """§7's recipe: compressible + incompressible creation, ten edits."""
    session.create_file("doc.txt", text_content(512 * KB, seed=1))
    session.create_file("img.jpg", random_content(512 * KB, seed=2))
    session.run_until_idle()
    for index in range(10):
        session.modify_random_byte("doc.txt", seed=10 + index)
        session.run_until_idle()


#: Modelled client CPU throughputs, bytes/second (order-of-magnitude DEFLATE
#: and MD5 rates on 2014-class hardware; scaled by the machine's cpu factor).
_COMPRESS_RATE: Dict[CompressionLevel, float] = {
    CompressionLevel.NONE: float("inf"),
    CompressionLevel.LOW: 200 * MB,
    CompressionLevel.MODERATE: 80 * MB,
    CompressionLevel.HIGH: 30 * MB,
}
_HASH_RATE = 400 * MB
_SERVER_IO_RATE = 200 * MB


def cpu_seconds(cell: Cell, reading: Reading) -> Tuple[float, float]:
    """§7's modelled ``(client, server)`` CPU seconds behind ``reading``.

    Modelled, not wall-clock: the client hashes and compresses (at the
    cell profile's upload level, scaled by its machine) every metered
    payload byte — the cells this prices only upload — and spends 10 ms a
    sync transaction; the server moves every PUT and GET byte through
    chunk I/O and spends 5 ms a delta application.
    """
    rate = _COMPRESS_RATE[cell.profile.upload_compression.level]
    client = cell.machine.cpu_factor * (reading.payload / _HASH_RATE
                                   + reading.payload / rate
                                   + reading.sync_transactions * 0.01)
    server = (reading.rest.put_bytes / _SERVER_IO_RATE
              + reading.rest.get_bytes / _SERVER_IO_RATE
              + reading.server.delta_applications * 0.005)
    return client, server
