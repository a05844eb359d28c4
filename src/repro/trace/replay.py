"""Macro-level trace replay: what would each service pay for this trace?

The paper's motivation is macro-economic: at a billion files a day, sync
traffic is a line item (§1 estimates Dropbox's S3 bill from per-sync
averages).  The micro simulator in :mod:`repro.client` measures single
sessions exactly, but replaying 222,632 files — some of them gigabytes —
through it byte-for-byte is not feasible; this module instead *estimates*
each service's trace-wide traffic analytically from the very same design
choices the micro engine implements, and decomposes the total into what
each mechanism (compression, dedup, BDS, IDS) saves.

The estimator is validated against the micro engine in
tests/test_replay.py: for small synthetic traces the two agree on every
qualitative ordering and within tens of percent on totals.

Scaling: :class:`ReplayPool` shards the replay across a persistent pool of
worker processes (one per user-disjoint shard, forked once and reused for
every profile replayed against the same trace) and is **byte-identical**
to :func:`replay_trace` at any worker count.  Four properties make that
possible (see DESIGN.md, "Parallel replay & determinism contract"):

* every record's modification RNG is its own stream keyed by
  ``(seed, profile, global record index)`` — no draw-order coupling
  between records;
* BDS batch eligibility and ``SAME_USER`` dedup only couple records of
  one user, and sharding is by user;
* ``CROSS_USER`` dedup couples records globally, so shards retain per-unit
  first-occurrence *candidates* worker-side and ship only a compact
  digest/index summary; a merge pass resolves true first occurrences and
  re-credits ``saved_by_dedup`` exactly (two-phase protocol, with the
  winner table published once through ``multiprocessing.shared_memory``);
* phase 2 short-circuits entirely when no unit has candidates in more
  than one shard — the common case for traces without cross-user
  duplicate content.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
import threading
import traceback
from array import array
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..client import AccessMethod, ServiceProfile, service_profile
from ..client.defer import NoDefer
from ..client.profiles import BdsMode
from ..cloud.dedup import DedupGranularity, DedupScope
from ..compress import CompressionLevel
from .analysis import creation_batch_flags
from .schema import FileRecord, Trace

#: Fraction of a file's *achievable* compression each level realises
#: (calibrated against repro.compress on the Experiment 4 text corpus:
#: HIGH ≈ 0.444, MODERATE ≈ 0.578, LOW ≈ 0.773 of original → savings
#: fractions relative to HIGH's saving).
_LEVEL_SAVING_FRACTION = {
    CompressionLevel.NONE: 0.0,
    CompressionLevel.LOW: 0.41,
    CompressionLevel.MODERATE: 0.76,
    CompressionLevel.HIGH: 1.0,
}

#: Modelled fraction of a file altered per modification (median ≈ 2 %,
#: heavy-tailed — office documents re-save small diffs, media re-encodes
#: everything).
_MOD_FRACTION_LOG_MU = -3.9   # exp(-3.9) ≈ 0.02
_MOD_FRACTION_LOG_SIGMA = 1.0

#: Counter fields summed exactly by :meth:`ReplayReport.merge`.
_MERGE_COUNTERS = (
    "file_count", "upload_events", "data_update_bytes", "traffic_bytes",
    "overhead_bytes", "saved_by_compression", "saved_by_dedup",
    "saved_by_bds", "saved_by_ids",
)

#: Per-user dict fields merged by key-wise addition.
_MERGE_DICTS = (
    "per_user_traffic", "per_user_modification_traffic",
    "per_user_modification_update",
)


@dataclass
class ReplayReport:
    """Trace-wide traffic estimate for one service profile."""

    service: str
    access: str
    file_count: int = 0
    upload_events: int = 0
    data_update_bytes: int = 0
    traffic_bytes: int = 0
    overhead_bytes: int = 0
    saved_by_compression: int = 0
    saved_by_dedup: int = 0
    saved_by_bds: int = 0
    saved_by_ids: int = 0
    per_user_traffic: Dict[str, int] = field(default_factory=dict)
    per_user_modification_traffic: Dict[str, int] = field(default_factory=dict)
    per_user_modification_update: Dict[str, int] = field(default_factory=dict)

    @property
    def tue(self) -> float:
        if self.data_update_bytes <= 0:
            # Zero-size convention (PR 3): traffic with no data update is
            # infinitely inefficient; no traffic at all is undefined.
            return float("inf") if self.traffic_bytes > 0 else float("nan")
        return self.traffic_bytes / self.data_update_bytes

    @property
    def total_savings(self) -> int:
        return (self.saved_by_compression + self.saved_by_dedup
                + self.saved_by_bds + self.saved_by_ids)

    @classmethod
    def merge(cls, reports: Sequence["ReplayReport"]) -> "ReplayReport":
        """Exact sum of shard reports: all counters and per-user dicts.

        Every field is additive, so merging is associative and
        order-insensitive up to dict insertion order (the parallel replay
        canonicalises that separately).  Raises on an empty sequence or on
        reports for different profiles — a merged report must mean one
        (service, access) pair.
        """
        if not reports:
            raise ValueError("cannot merge zero reports")
        first = reports[0]
        for other in reports[1:]:
            if (other.service, other.access) != (first.service, first.access):
                raise ValueError(
                    f"cannot merge reports for different profiles: "
                    f"{first.service}/{first.access} vs "
                    f"{other.service}/{other.access}")
        merged = cls(service=first.service, access=first.access)
        for report in reports:
            for name in _MERGE_COUNTERS:
                setattr(merged, name, getattr(merged, name) + getattr(report, name))
            for name in _MERGE_DICTS:
                target = getattr(merged, name)
                for user, value in getattr(report, name).items():
                    target[user] = target.get(user, 0) + value
        return merged


def _fixed_overhead(profile: ServiceProfile) -> int:
    """Per-sync fixed overhead implied by the profile's cost parameters.

    Mirrors the micro engine: handshake (when each sync opens a connection),
    HTTP framing per request, service metadata, and the notification push.
    """
    costs = profile.protocol
    overhead = profile.overhead
    handshake = 0
    if overhead.connection_per_sync:
        handshake = (costs.tcp_handshake_up + costs.tcp_handshake_down
                     + (costs.tls_handshake_up + costs.tls_handshake_down
                        if costs.use_tls else 0))
    framing = (costs.request_header + costs.response_header) \
        * max(overhead.requests_per_sync, 1)
    return (handshake + framing + overhead.meta_up + overhead.meta_down
            + overhead.notify_down)


def _wire_payload(size: int, compressed: int, saving_fraction: float,
                  per_byte_factor: float) -> int:
    """Upload bytes for content with a known reference-compressed size,
    under a profile's :data:`_LEVEL_SAVING_FRACTION` entry and per-byte
    protocol overhead (the replay loop resolves both once per profile)."""
    achievable = max(size - compressed, 0)
    wire = size - int(achievable * saving_fraction)
    return wire + int(per_byte_factor * wire)


def _mod_fractions(seed: int, profile_name: str, index: int,
                   count: int) -> List[float]:
    """Modification fractions for one record: an independent RNG stream.

    Keyed by (seed, profile, global record index) so any shard can
    reproduce exactly the draws the sequential replay makes for this
    record — the determinism contract that makes parallel == sequential.

    Each fraction is ``min(1.0, rng.lognormvariate(mu, sigma))``, drawn by
    the stdlib's own Kinderman–Monahan loop spelled out over ``rng.random``
    (tests/test_trace_draws.py holds it to the stdlib call).
    """
    draw = random.Random(f"replay:{seed}:{profile_name}:{index}").random
    fractions = []
    for _ in range(count):
        while True:
            u1 = draw()
            u2 = 1.0 - draw()
            z = random.NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                break
        fraction = math.exp(_MOD_FRACTION_LOG_MU + z * _MOD_FRACTION_LOG_SIGMA)
        fractions.append(fraction if fraction < 1.0 else 1.0)
    return fractions


# ---------------------------------------------------------------------------
# Compact dedup-candidate representation (the phase-1 wire format)
# ---------------------------------------------------------------------------

#: Bytes per unit digest.  Unit identities (segment-id blobs, up to 128 KB
#: for a 2 GB file's full-file key) are folded to fixed-width blake2b
#: digests before they enter the dedup set or the candidate state — the
#: collision probability over a trillion distinct units is < 2⁻⁸⁰, far
#: below any other modelling noise, and it is what makes the candidate
#: summaries compact enough to ship between processes.
_DIGEST_SIZE = 16


def _unit_digest(key) -> bytes:
    """Fixed-width identity digest for one dedup unit.

    ``key`` is the raw unit identity (the segment-id blob for a block, or
    the ``(blob, size)`` tuple of a full-file key).  Both the sequential
    and the sharded replay dedup on these digests, so the two paths agree
    by construction.
    """
    if isinstance(key, tuple):
        blob, size = key
        digest = hashlib.blake2b(blob, digest_size=_DIGEST_SIZE)
        digest.update(size.to_bytes(8, "little"))
    else:
        digest = hashlib.blake2b(key, digest_size=_DIGEST_SIZE)
    return digest.digest()


class _ShardCandidates:
    """Phase-1 candidate state for one shard under CROSS_USER dedup.

    Flat, integer-packed columns instead of per-record objects: global
    record indices, users, pre-dedup wires, unit-length sums, and a unit
    table (digest + length) addressed by per-record offsets.  The whole
    structure stays resident in the worker process that produced it; only
    :meth:`summary` — one digest and one owning record index per fresh
    unit — crosses the IPC boundary.
    """

    __slots__ = ("indices", "users", "wires", "total_lens", "offsets",
                 "unit_digests", "unit_lengths")

    def __init__(self) -> None:
        self.indices: List[int] = []
        self.users: List[str] = []
        self.wires: List[int] = []
        self.total_lens: List[int] = []
        self.offsets: List[int] = [0]
        self.unit_digests: List[bytes] = []
        self.unit_lengths: List[int] = []

    def __len__(self) -> int:
        return len(self.indices)

    def add(self, index: int, user: str, wire: int, total_len: int,
            fresh_units: Sequence[Tuple[bytes, int]]) -> None:
        self.indices.append(index)
        self.users.append(user)
        self.wires.append(wire)
        self.total_lens.append(total_len)
        for digest, length in fresh_units:
            self.unit_digests.append(digest)
            self.unit_lengths.append(length)
        self.offsets.append(len(self.unit_digests))

    def summary(self) -> Tuple[bytes, bytes]:
        """Packed (digest blob, int64 owner-index blob), one entry per
        fresh unit.  Within a shard every fresh unit belongs to exactly one
        candidate record (later occurrences were deduplicated locally), and
        shard records are scanned in increasing global index order, so the
        owner index *is* the shard's first occurrence of that unit.
        """
        owners = array("q")
        for position, index in enumerate(self.indices):
            owners.extend(
                [index] * (self.offsets[position + 1] - self.offsets[position]))
        return b"".join(self.unit_digests), owners.tobytes()

    def settle(self, winners: Dict[bytes, int]) -> Dict[str, int]:
        """Phase 2: per-user re-credit for units lost to an earlier shard.

        ``winners`` maps each *contested* unit digest (candidates in more
        than one shard) to the globally smallest candidate record index.
        Uncontested units are always kept.  The correction per record is
        computed with the *same* integer expression phase 1 used —
        ``wire * shipped // total_len`` — so the merged report equals the
        sequential one bit for bit, with no float rounding above 2**53.
        """
        credits: Dict[str, int] = {}
        lookup = winners.get
        for position, index in enumerate(self.indices):
            start = self.offsets[position]
            end = self.offsets[position + 1]
            shipped = 0
            kept = 0
            for unit in range(start, end):
                length = self.unit_lengths[unit]
                shipped += length
                winner = lookup(self.unit_digests[unit])
                if winner is None or winner == index:
                    kept += length
            if kept == shipped:
                continue
            wire = self.wires[position]
            total_len = self.total_lens[position]
            delta = wire * shipped // total_len - wire * kept // total_len
            if delta:
                user = self.users[position]
                credits[user] = credits.get(user, 0) + delta
        return credits


def _replay_records(shard: Sequence[Tuple[int, FileRecord]],
                    profile: ServiceProfile, seed: int,
                    collect_candidates: bool,
                    ) -> Tuple[ReplayReport, Optional[_ShardCandidates]]:
    """Replay one shard of (global index, record) pairs.

    The single code path behind both the sequential and the parallel
    replay: :func:`replay_trace` calls it once with the whole trace (where
    the local dedup state *is* the global state), shards call it with
    per-user partitions.  ``collect_candidates`` turns on the phase-1 side
    of the CROSS_USER two-phase protocol.
    """
    # ---- constant per profile -----------------------------------------------
    fixed = _fixed_overhead(profile)
    saving_fraction = _LEVEL_SAVING_FRACTION[profile.upload_compression.level]
    per_byte = profile.overhead.per_byte_factor
    profile_name = profile.name
    delta_block = profile.delta_block if profile.uses_ids else 0
    dedup = profile.dedup
    dedup_enabled = dedup.enabled
    dedup_full_file = dedup.granularity is DedupGranularity.FULL_FILE
    dedup_cross_user = dedup.scope is DedupScope.CROSS_USER
    bds = profile.bds
    batched_overhead = bds.per_file_bytes if bds.mode is BdsMode.FULL \
        else max(bds.per_file_bytes, fixed // 8)
    batch_saving = max(fixed - batched_overhead, 0)

    # Which records BDS would batch.  All of a user's records live in this
    # shard, so the neighbourhoods equal the sequential ones.
    batched = creation_batch_flags([record for _, record in shard]) \
        if bds.mode is not BdsMode.NONE else [False] * len(shard)

    seen_units: Set = set()
    candidates = _ShardCandidates() if collect_candidates else None
    per_user_traffic: Dict[str, int] = {}
    per_user_mod_traffic: Dict[str, int] = {}
    per_user_mod_update: Dict[str, int] = {}
    mod_events = data_update = traffic = overhead_total = 0
    saved_compression = saved_dedup = saved_bds = saved_ids = 0

    for (index, record), in_batch in zip(shard, batched):
        size = record.size
        compressed = record.compressed_size
        user = record.user
        # ---- creation upload ------------------------------------------------
        # The pre-dedup full-file wire: what dedup scales down for the
        # creation, and what every non-IDS modification re-ships whole.
        full_wire = _wire_payload(size, compressed, saving_fraction, per_byte)
        saved_compression += max(size + int(per_byte * size) - full_wire, 0)
        wire = full_wire

        if dedup_enabled:
            shipped = total_len = 0
            fresh_units: List[Tuple[bytes, int]] = []
            if dedup_full_file:
                keys = ((record.full_file_key(), size),)
            else:
                keys = record.block_keys(dedup.block_size)
            for key, length in keys:
                total_len += length
                digest = _unit_digest(key)
                scope_key = digest if dedup_cross_user else (user, digest)
                if scope_key in seen_units:
                    continue
                seen_units.add(scope_key)
                shipped += length
                if collect_candidates:
                    fresh_units.append((digest, length))
            # A size-0 file — or a record with no content units at all —
            # has no bytes to negotiate: dedup neither ships nor saves
            # anything and the wire passes through unchanged.
            if total_len > 0:
                wire = full_wire * shipped // total_len
                saved_dedup += full_wire - wire
                if collect_candidates and fresh_units:
                    candidates.add(index, user, full_wire, total_len,
                                   fresh_units)

        overhead = fixed
        if in_batch:
            saved_bds += batch_saving
            overhead = batched_overhead
        user_traffic = wire + overhead
        overhead_total += overhead
        data_update += size

        # ---- modifications ---------------------------------------------------
        count = record.modify_count
        if count:
            # size == 0 forces every delta size to 0 below, so the ratio is
            # never consumed on that branch; no max(size, 1) masking.
            ratio = compressed / size if size else 0.0
            altered_total = 0
            mod_traffic = count * fixed
            for fraction in _mod_fractions(seed, profile_name, index, count):
                altered = max(1, int(size * fraction))
                altered_total += altered
                if delta_block:
                    # Delta ships the altered region in whole blocks.
                    delta_size = min(
                        (-(-altered // delta_block) + 1) * delta_block, size)
                    delta_wire = _wire_payload(
                        delta_size, int(delta_size * ratio),
                        saving_fraction, per_byte)
                    if delta_wire < full_wire:
                        saved_ids += full_wire - delta_wire
                    mod_traffic += delta_wire
                else:
                    mod_traffic += full_wire
            per_user_mod_traffic[user] = \
                per_user_mod_traffic.get(user, 0) + mod_traffic
            per_user_mod_update[user] = \
                per_user_mod_update.get(user, 0) + altered_total
            user_traffic += mod_traffic
            data_update += altered_total
            overhead_total += count * fixed
            mod_events += count

        per_user_traffic[user] = per_user_traffic.get(user, 0) + user_traffic
        traffic += user_traffic

    report = ReplayReport(
        service=profile.service, access=profile.access.value,
        file_count=len(shard), upload_events=len(shard) + mod_events,
        data_update_bytes=data_update, traffic_bytes=traffic,
        overhead_bytes=overhead_total,
        saved_by_compression=saved_compression, saved_by_dedup=saved_dedup,
        saved_by_bds=saved_bds, saved_by_ids=saved_ids,
        per_user_traffic=per_user_traffic,
        per_user_modification_traffic=per_user_mod_traffic,
        per_user_modification_update=per_user_mod_update)
    return report, candidates


def replay_trace(trace: Trace, profile: ServiceProfile,
                 seed: int = 0) -> ReplayReport:
    """Estimate the trace-wide sync traffic under one service profile."""
    report, _ = _replay_records(list(enumerate(trace)), profile, seed,
                                collect_candidates=False)
    return report


# ---------------------------------------------------------------------------
# Parallel sharded replay
# ---------------------------------------------------------------------------

def _shard_by_user(trace: Trace,
                   shard_count: int) -> List[List[Tuple[int, FileRecord]]]:
    """Partition (index, record) pairs into user-disjoint, balanced shards.

    Users are assigned greedily (heaviest first, ties by first appearance)
    to the least-loaded shard — deterministic, so shard contents depend
    only on the trace and ``shard_count``.
    """
    counts = trace.user_file_counts()
    # Stable sort: equal counts keep first-appearance order.
    ordered = sorted(counts.items(), key=lambda item: -item[1])
    loads = [0] * shard_count
    assignment: Dict[str, int] = {}
    for user, count in ordered:
        target = min(range(shard_count), key=lambda idx: loads[idx])
        assignment[user] = target
        loads[target] += count
    shards: List[List[Tuple[int, FileRecord]]] = [[] for _ in range(shard_count)]
    for index, record in enumerate(trace):
        shards[assignment[record.user]].append((index, record))
    return [shard for shard in shards if shard]


def _user_orders(records: Iterable[FileRecord]) -> Tuple[List[str], List[str]]:
    """(creation order, modification order) of users, by first appearance.

    Sequential replay inserts users into the per-user dicts on their first
    record (traffic) and first modified record (modification dicts); the
    parallel merge re-canonicalises to these orders.
    """
    creation_order: List[str] = []
    modification_order: List[str] = []
    seen_any: Set[str] = set()
    seen_modified: Set[str] = set()
    for record in records:
        if record.user not in seen_any:
            seen_any.add(record.user)
            creation_order.append(record.user)
        if record.modify_count > 0 and record.user not in seen_modified:
            seen_modified.add(record.user)
            modification_order.append(record.user)
    return creation_order, modification_order


def _restore_user_order(report: ReplayReport, creation_order: Sequence[str],
                        modification_order: Sequence[str]) -> None:
    """Reorder per-user dicts to sequential insertion order.

    The merged dicts carry shard order; rebuilding them makes the parallel
    report byte-identical to the sequential one — same ``repr``, same
    JSON — not merely equal.
    """
    report.per_user_traffic = {
        user: report.per_user_traffic[user]
        for user in creation_order if user in report.per_user_traffic}
    report.per_user_modification_traffic = {
        user: report.per_user_modification_traffic[user]
        for user in modification_order
        if user in report.per_user_modification_traffic}
    report.per_user_modification_update = {
        user: report.per_user_modification_update[user]
        for user in modification_order
        if user in report.per_user_modification_update}


def _parse_summary(summary: Tuple[bytes, bytes]
                   ) -> Tuple[List[bytes], List[int]]:
    blob, owner_blob = summary
    owners = array("q")
    owners.frombytes(owner_blob)
    digests = [blob[unit * _DIGEST_SIZE:(unit + 1) * _DIGEST_SIZE]
               for unit in range(len(owners))]
    return digests, list(owners)


def _contested_winners(summaries: Sequence[Optional[Tuple[bytes, bytes]]]
                       ) -> Tuple[Dict[bytes, int], List[int]]:
    """Resolve the cross-shard first-occurrence index from shard summaries.

    Returns ``(winners, losers)``: ``winners`` maps each unit digest whose
    candidates span **more than one shard** to the smallest candidate
    record index; ``losers`` lists the shard positions that hold at least
    one contested unit they did not win.  Units confined to a single shard
    are already settled by that shard's local first-occurrence pass, which
    is what lets phase 2 skip untouched shards — or vanish entirely.
    """
    best: Dict[bytes, int] = {}
    contested: Dict[bytes, bool] = {}   # dict-as-ordered-set: deterministic
    parsed: List[Optional[Tuple[List[bytes], List[int]]]] = []
    for summary in summaries:
        if not summary:
            parsed.append(None)
            continue
        digests, owners = _parse_summary(summary)
        parsed.append((digests, owners))
        for digest, index in zip(digests, owners):
            current = best.get(digest)
            if current is None:
                best[digest] = index
            else:
                contested[digest] = True
                if index < current:
                    best[digest] = index
    winners = {digest: best[digest] for digest in contested}
    losers: List[int] = []
    for position, entry in enumerate(parsed):
        if entry is None:
            continue
        digests, owners = entry
        if any(winners.get(digest, index) != index
               for digest, index in zip(digests, owners)):
            losers.append(position)
    return winners, losers


def _pack_winner_table(winners: Dict[bytes, int]) -> Tuple[bytes, bytes]:
    indices = array("q", winners.values())
    return b"".join(winners.keys()), indices.tobytes()


def _unpack_winner_table(digest_blob: bytes,
                         index_blob: bytes) -> Dict[bytes, int]:
    indices = array("q")
    indices.frombytes(index_blob)
    return {digest_blob[entry * _DIGEST_SIZE:(entry + 1) * _DIGEST_SIZE]:
            indices[entry] for entry in range(len(indices))}


#: Serialises ``os.fork`` against every parent-side lock a fork child
#: could inherit in the locked state.  Two such locks exist on this path:
#: the stdio buffer locks (``Process.start`` flushes the std streams
#: before forking) and the resource tracker's send lock (acquired when a
#: shared-memory segment is registered, unregistered, or the tracker is
#: started).  If another thread holds either at the instant of fork, the
#: child deadlocks the moment *it* needs the lock — flushing at exit, or
#: attaching the winner table.  So: forking and every tracker-touching
#: operation take this lock; one pool per thread is then safe.
_fork_lock = threading.Lock()


def _publish_winner_table(winners: Dict[bytes, int]
                          ) -> Tuple[tuple, Callable[[], None]]:
    """Publish the contested-winner index for workers to read.

    Preferred transport is one ``multiprocessing.shared_memory`` segment
    (written once, mapped read-only by every settling worker) so the table
    is not re-pickled per worker; platforms without shared memory fall
    back to shipping the packed blobs inline through each pipe.  Returns
    ``(descriptor, cleanup)`` — call ``cleanup()`` after every settle reply
    arrived.
    """
    digest_blob, index_blob = _pack_winner_table(winners)
    try:
        from multiprocessing import shared_memory
        # Creating a segment registers it with the resource tracker, which
        # briefly holds the tracker's lock — serialise against forks (see
        # _fork_lock) so no child is born with that lock held.
        with _fork_lock:
            segment = shared_memory.SharedMemory(
                create=True, size=len(digest_blob) + len(index_blob))
    except Exception:
        return ("inline", digest_blob, index_blob), (lambda: None)
    split = len(digest_blob)
    segment.buf[:split] = digest_blob
    segment.buf[split:split + len(index_blob)] = index_blob

    def cleanup() -> None:
        segment.close()
        try:
            with _fork_lock:  # unlink unregisters → tracker lock again
                segment.unlink()
        except FileNotFoundError:
            pass

    return ("shm", segment.name, len(winners)), cleanup


def _load_winner_table(descriptor: tuple) -> Dict[bytes, int]:
    """Worker-side inverse of :func:`_publish_winner_table`."""
    if descriptor[0] == "inline":
        return _unpack_winner_table(descriptor[1], descriptor[2])
    _, name, count = descriptor
    from multiprocessing import shared_memory
    # Attach-only: the parent owns the segment's lifetime and unlinks it
    # after the settle round.  Workers are fork children sharing the
    # parent's resource tracker, so the attach-side register is a set-add
    # no-op there and needs no compensating unregister (an unregister here
    # would strip the parent's own registration and make its unlink race
    # the tracker).
    segment = shared_memory.SharedMemory(name=name)
    split = count * _DIGEST_SIZE
    try:
        blob = bytes(segment.buf[:split + count * 8])
    finally:
        segment.close()
    return _unpack_winner_table(blob[:split], blob[split:])


def _portable_profile(profile: ServiceProfile) -> ServiceProfile:
    """A pickle-safe copy of ``profile`` for the worker pipe.

    Profiles carry defer-policy factory lambdas that cannot be pickled;
    the replay estimator never defers, so the factory is swapped for the
    no-op policy class before the profile crosses the pipe.  Every other
    field is plain data, which is what lets the pool replay *ad hoc*
    profiles (``dataclasses.replace`` variants), not just registry ones.
    """
    return replace(profile, defer_factory=NoDefer)


def _pool_worker_main(channel, shard: List[Tuple[int, FileRecord]]) -> None:
    """Worker loop for one shard.

    The shard rides into the process through the fork (``Process`` args —
    no module global, no pickling); commands and compact results ride the
    pipe.  Phase-1 candidate state stays resident here between a
    ``replay`` and its ``settle``, which is what keeps candidates off the
    IPC boundary entirely.
    """
    candidates: Optional[_ShardCandidates] = None
    try:
        while True:
            message = channel.recv()
            command = message[0]
            try:
                if command == "feed":
                    shard.extend(message[1])
                    continue
                if command == "replay":
                    _, profile, seed, collect = message
                    report, candidates = _replay_records(
                        shard, profile, seed, collect)
                    summary = candidates.summary() \
                        if candidates is not None and len(candidates) else None
                    channel.send(("ok", (report, summary)))
                elif command == "settle":
                    winners = _load_winner_table(message[1])
                    credits = candidates.settle(winners) \
                        if candidates is not None else {}
                    channel.send(("ok", credits))
                elif command == "close":
                    return
                else:
                    channel.send(("error", f"unknown command {command!r}"))
            except Exception:
                channel.send(("error", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            channel.close()
        except OSError:
            pass


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    return workers or os.cpu_count() or 1


#: Records per ``feed`` message when streaming a record source into a live
#: pool: large enough to amortise pickling, small enough to keep parent
#: memory bounded by a batch rather than the trace.
_FEED_BATCH = 1024


class ReplayPool:
    """A persistent, user-sharded pool of replay worker processes.

    Forks one worker per shard **once** and reuses the same processes for
    every :meth:`replay` call — :func:`replay_all` replays ~18 profiles
    against one fork instead of forking ~18 pools.  Each worker owns its
    shard for the pool's lifetime (received through the fork, or streamed
    in batches by :meth:`from_records`), so per-call IPC is limited to a
    profile, a seed, and the compact phase-1/phase-2 dedup exchanges.

    Byte-identity contract: ``pool.replay(profile, seed)`` equals
    ``replay_trace(trace, profile, seed)`` for the trace (or record
    stream, in stream order) the pool was built from, at any worker
    count.  Platforms without the ``fork`` start method run the shard
    pipeline in-process — same results, no speedup.
    """

    def __init__(self, trace: Trace, workers: Optional[int] = None) -> None:
        resolved = _resolve_workers(workers)
        self._shards: List[List[Tuple[int, FileRecord]]] = \
            _shard_by_user(trace, resolved)
        self._creation_order, self._modification_order = _user_orders(trace)
        self._record_count = len(trace)
        self._channels: list = []
        self._processes: list = []
        self._closed = False
        if resolved > 1 and len(self._shards) > 1:
            self._start(self._shards)

    @classmethod
    def from_records(cls, records: Iterable[FileRecord],
                     workers: Optional[int] = None) -> "ReplayPool":
        """Build a pool by streaming records into the workers.

        The workers fork *first* with empty shards; records are then
        assigned to users' shards on first appearance (least-loaded shard,
        ties to the lowest) and shipped in batches, so the parent never
        materialises the trace — peak parent memory is one feed batch plus
        the record source's own state.  Replay results are byte-identical
        to ``replay_trace`` over the same records in stream order.
        """
        resolved = _resolve_workers(workers)
        pool = cls.__new__(cls)
        pool._shards = [[] for _ in range(resolved)]
        pool._creation_order = []
        pool._modification_order = []
        pool._record_count = 0
        pool._channels = []
        pool._processes = []
        pool._closed = False
        if resolved > 1:
            pool._start(pool._shards)
        live = bool(pool._processes)
        buffers: List[List[Tuple[int, FileRecord]]] = \
            [[] for _ in range(resolved)]
        loads = [0] * resolved
        assignment: Dict[str, int] = {}
        seen_modified: Set[str] = set()
        for index, record in enumerate(records):
            user = record.user
            slot = assignment.get(user)
            if slot is None:
                slot = min(range(resolved), key=lambda idx: loads[idx])
                assignment[user] = slot
                pool._creation_order.append(user)
            loads[slot] += 1
            if record.modify_count > 0 and user not in seen_modified:
                seen_modified.add(user)
                pool._modification_order.append(user)
            pool._record_count += 1
            if live:
                buffers[slot].append((index, record))
                if len(buffers[slot]) >= _FEED_BATCH:
                    pool._channels[slot].send(("feed", buffers[slot]))
                    buffers[slot] = []
            else:
                pool._shards[slot].append((index, record))
        if live:
            for slot, batch in enumerate(buffers):
                if batch:
                    pool._channels[slot].send(("feed", batch))
        else:
            pool._shards = [shard for shard in pool._shards if shard]
        return pool

    @classmethod
    def from_shards(cls, shards: Iterable[Trace],
                    workers: Optional[int] = None) -> "ReplayPool":
        """Build a pool from a shard stream (e.g. ``iter_trace_shards``).

        Equivalent to :meth:`from_records` over the flattened stream: the
        replay's sequential reference is the concatenated shard ordering.
        """
        return cls.from_records(
            (record for shard in shards for record in shard),
            workers=workers)

    # -- lifecycle ---------------------------------------------------------

    def _start(self, shards: List[List[Tuple[int, FileRecord]]]) -> None:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return
        with _fork_lock:
            try:
                # Start the resource tracker *before* forking so every
                # worker inherits it: attaching the shared-memory winner
                # table then re-registers the same name with the one shared
                # tracker (a set-add no-op) instead of each worker spawning
                # a private tracker that would race the parent's unlink at
                # exit.
                from multiprocessing import resource_tracker
                resource_tracker.ensure_running()
            except (ImportError, AttributeError, OSError):
                # No tracker on this platform: the shm path degrades to
                # each worker tracking its own attach, which is still
                # correct.
                pass
            for shard in shards:
                parent_channel, child_channel = context.Pipe()
                process = context.Process(target=_pool_worker_main,
                                          args=(child_channel, shard),
                                          daemon=True)
                process.start()
                child_channel.close()
                self._channels.append(parent_channel)
                self._processes.append(process)

    def close(self) -> None:
        """Shut the workers down; the pool is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        for channel in self._channels:
            try:
                channel.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for channel in self._channels:
            try:
                channel.close()
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        self._channels = []
        self._processes = []

    def __enter__(self) -> "ReplayPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except (OSError, ValueError, AttributeError, TypeError):
            # Interpreter teardown: pipes and process handles may already
            # be half-destroyed; __del__ must never raise.
            pass

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def worker_count(self) -> int:
        """Live worker processes (0 when running shards in-process)."""
        return len(self._processes)

    # -- replay ------------------------------------------------------------

    def replay(self, profile: ServiceProfile, seed: int = 0) -> ReplayReport:
        """Replay the pool's trace under ``profile``; byte-identical to
        :func:`replay_trace` on the same records."""
        report, _, _ = self._replay_full(profile, seed)
        return report

    def replay_audited(self, profile: ServiceProfile,
                       seed: int = 0) -> ReplayReport:
        """Replay and verify the replay-conservation invariant over the
        merge: shard reports must sum to the merged report, with phase-2
        settle credits moving bytes from ``traffic_bytes`` into
        ``saved_by_dedup`` exactly, user by user.  Raises the first
        :class:`~repro.obs.AuditViolation` found.
        """
        from ..obs.audit import verify_replay_merge, verify_replay_report
        report, parts, credits = self._replay_full(profile, seed)
        violations = verify_replay_merge(parts, report,
                                         settle_credits=credits)
        violations.extend(verify_replay_report(report))
        if violations:
            raise violations[0]
        return report

    def _replay_full(self, profile: ServiceProfile, seed: int
                     ) -> Tuple[ReplayReport, List[ReplayReport],
                                Dict[str, int]]:
        if self._closed:
            raise RuntimeError("replay pool is closed")
        collect = (profile.dedup.enabled
                   and profile.dedup.scope is DedupScope.CROSS_USER)
        local_candidates: List[Optional[_ShardCandidates]] = []
        if self._processes:
            safe_profile = _portable_profile(profile)
            for channel in self._channels:
                channel.send(("replay", safe_profile, seed, collect))
            results = [self._receive(channel) for channel in self._channels]
            parts = [part for part, _ in results]
            summaries = [summary for _, summary in results]
        else:
            parts = []
            summaries = []
            for shard in self._shards:
                part, candidates = _replay_records(shard, profile, seed,
                                                   collect)
                parts.append(part)
                local_candidates.append(candidates)
                summaries.append(
                    candidates.summary()
                    if candidates is not None and len(candidates) else None)
        if not parts:
            empty = ReplayReport(service=profile.service,
                                 access=profile.access.value)
            return empty, [], {}
        merged = ReplayReport.merge(parts)
        credits: Dict[str, int] = {}
        if collect:
            winners, losers = _contested_winners(summaries)
            if winners and losers:
                credits = self._settle(winners, losers, local_candidates)
                adjustment = sum(credits.values())
                merged.traffic_bytes -= adjustment
                merged.saved_by_dedup += adjustment
                for user, value in credits.items():
                    merged.per_user_traffic[user] -= value
        _restore_user_order(merged, self._creation_order,
                            self._modification_order)
        return merged, parts, credits

    def _settle(self, winners: Dict[bytes, int], losers: Sequence[int],
                local_candidates: Sequence[Optional[_ShardCandidates]]
                ) -> Dict[str, int]:
        shard_credits: List[Dict[str, int]] = []
        if self._processes:
            descriptor, cleanup = _publish_winner_table(winners)
            try:
                for position in losers:
                    self._channels[position].send(("settle", descriptor))
                shard_credits = [self._receive(self._channels[position])
                                 for position in losers]
            finally:
                cleanup()
        else:
            for position in losers:
                candidates = local_candidates[position]
                shard_credits.append(
                    candidates.settle(winners) if candidates else {})
        credits: Dict[str, int] = {}
        for per_user in shard_credits:
            for user, value in per_user.items():
                credits[user] = credits.get(user, 0) + value
        return credits

    def _receive(self, channel):
        try:
            status, payload = channel.recv()
        except (EOFError, OSError):
            self.close()
            raise RuntimeError("replay worker exited unexpectedly")
        if status != "ok":
            self.close()
            raise RuntimeError(f"replay worker failed:\n{payload}")
        return payload


def replay_trace_parallel(trace: Trace, profile: ServiceProfile,
                          workers: Optional[int] = None,
                          seed: int = 0) -> ReplayReport:
    """Sharded, multi-process replay; byte-identical to :func:`replay_trace`.

    One-shot convenience over :class:`ReplayPool` (which is the API to use
    when replaying several profiles against one trace — the pool forks
    once and is reused).  Records are sharded by user (exact for SAME_USER
    dedup and BDS batch windows); CROSS_USER dedup is settled by the
    two-phase candidate/merge protocol.  ``workers=None`` uses the CPU
    count; ``workers=1`` runs the shard pipeline in-process (useful for
    testing the merge path without process overhead).  On platforms
    without the ``fork`` start method the shards also run in-process —
    same results, no speedup.
    """
    with ReplayPool(trace, workers=workers) as pool:
        return pool.replay(profile, seed=seed)


def modification_share(report: ReplayReport) -> Dict[str, float]:
    """Per-user fraction of sync traffic *wasted* on modifications.

    [36] defines the traffic overuse problem as modification sync traffic
    far exceeding the useful data-update bytes; the share here is that
    excess (modification traffic minus altered bytes) over the user's
    total sync traffic.
    """
    shares = {}
    for user, total in report.per_user_traffic.items():
        if total <= 0:
            continue
        mod_traffic = report.per_user_modification_traffic.get(user, 0)
        useful = report.per_user_modification_update.get(user, 0)
        shares[user] = max(mod_traffic - useful, 0) / total
    return shares


def traffic_overuse_fraction(report: ReplayReport,
                             threshold: float = 0.10) -> float:
    """Fraction of users losing more than ``threshold`` of their traffic
    to modification overuse.

    The paper cites (from the ISP-level Dropbox trace of [12, 36]) that for
    8.5 % of Dropbox users, more than 10 % of their sync traffic is caused
    by frequent modifications; this reproduces the statistic on any replay.
    """
    shares = modification_share(report)
    if not shares:
        return 0.0
    return sum(1 for share in shares.values() if share > threshold) / len(shares)


def replay_all(trace: Optional[Trace] = None,
               services: Optional[Sequence[str]] = None,
               access: AccessMethod = AccessMethod.PC,
               seed: int = 0,
               workers: int = 1,
               pool: Optional[ReplayPool] = None) -> List[ReplayReport]:
    """Replay the trace under every service, sorted by estimated traffic.

    With ``workers > 1`` a single :class:`ReplayPool` is forked once and
    reused across all profiles; pass ``pool`` to reuse an existing pool
    (e.g. one streamed from ``iter_trace_records``) — the caller keeps
    ownership and must close it.
    """
    from ..client import SERVICES
    names = services or SERVICES
    owns_pool = False
    if pool is None and workers > 1 and trace is not None:
        pool = ReplayPool(trace, workers=workers)
        owns_pool = True
    try:
        if pool is not None:
            reports = [pool.replay(service_profile(name, access), seed=seed)
                       for name in names]
        else:
            if trace is None:
                raise ValueError("replay_all needs a trace or a pool")
            reports = [replay_trace(trace, service_profile(name, access),
                                    seed=seed)
                       for name in names]
    finally:
        if owns_pool:
            pool.close()
    reports.sort(key=lambda report: report.traffic_bytes)
    return reports
