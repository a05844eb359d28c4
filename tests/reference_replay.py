"""Record-at-a-time replay loop — the oracle for ``repro.trace.replay``.

This is ``replay_trace`` as it was before the estimator became a
columnar kernel over 1024-record blocks: one pass over the records,
Python ints throughout, one scalar draw at a time from each user's
stream.  It lives here (imported by nothing under ``src/``) so the
differential battery in ``test_replay_kernel.py`` can hold the kernel to
it report for report.

Its arithmetic is its own: the payload formula and the draw constants are
copied, not imported, so a change to either in ``src/`` fails the battery
instead of moving both sides together.  So is the §4.1 creation-batch
rule: :func:`reference_creation_batch_flags` is the per-group sort loop
``repro.trace.analysis.creation_batch_flags`` ran before it became one
lexsort, and ``test_analysis.py`` holds the two to each other.  From the
estimator the oracle takes only what is under comparison or shared by
definition — the report type, the fixed overhead and the level saving
fractions — and from the trace analysis only the batch window, the
small-file threshold and the unit digest of its dedup pass.
"""

import hashlib
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.client import ServiceProfile
from repro.client.profiles import BdsMode
from repro.cloud.dedup import DedupGranularity, DedupScope
from repro.trace.analysis import (
    BDS_BATCH_WINDOW,
    SMALL_FILE_THRESHOLD,
    _unit_digest,
)
from repro.trace.replay import (
    _LEVEL_SAVING_FRACTION,
    ReplayReport,
    _fixed_overhead,
)
from repro.trace.schema import TraceRecord

from .reference_analysis import block_keys, full_file_key

_MOD_FRACTION_LOG_MU = -3.9   # exp(-3.9) ≈ 0.02
_MOD_FRACTION_LOG_SIGMA = 1.0


def _wire_payload(size: int, compressed: int, saving_fraction: float,
                  per_byte_factor: float) -> int:
    """Upload bytes for content with a known reference-compressed size,
    under a profile's :data:`_LEVEL_SAVING_FRACTION` entry and per-byte
    protocol overhead (the replay loop resolves both once per profile)."""
    achievable = max(size - compressed, 0)
    wire = size - int(achievable * saving_fraction)
    return wire + int(per_byte_factor * wire)


def reference_creation_batch_flags(records: Sequence[TraceRecord],
                                   threshold: int = SMALL_FILE_THRESHOLD,
                                   window: float = BDS_BATCH_WINDOW
                                   ) -> List[bool]:
    """Per record, in order: is it a small file whose (service, user)
    created another small file within ``window`` seconds?"""
    small: Dict[Tuple[str, str], List[Tuple[float, int]]] = {}
    for position, record in enumerate(records):
        if record.size < threshold:
            small.setdefault((record.service, record.user), []).append(
                (record.created_at, position))
    flags = [False] * len(records)
    for entries in small.values():
        entries.sort()
        last = len(entries) - 1
        for rank, (moment, position) in enumerate(entries):
            flags[position] = (
                (rank > 0 and moment - entries[rank - 1][0] <= window)
                or (rank < last and entries[rank + 1][0] - moment <= window))
    return flags


def _user_stream(seed: int, user: str) -> np.random.Generator:
    """One user's modification stream: Philox keyed by the 16-byte
    blake2b of ``replay:{seed}:{user}``, read as a big-endian int."""
    key = hashlib.blake2b(f"replay:{seed}:{user}".encode(), digest_size=16)
    return np.random.Generator(np.random.Philox(
        key=int.from_bytes(key.digest(), "big")))


def _mod_fractions(streams: Dict[str, np.random.Generator], seed: int,
                   user: str, count: int) -> List[float]:
    """Modification fractions for one record, drawn one scalar
    ``lognormal`` at a time from its user's stream (built on first sight
    and kept in ``streams``), each clamped to 1.0.

    Records reach this in trace order, so each user's draws follow their
    records whatever the other users do.
    """
    stream = streams.get(user)
    if stream is None:
        stream = streams[user] = _user_stream(seed, user)
    fractions = []
    for _ in range(count):
        fraction = float(stream.lognormal(_MOD_FRACTION_LOG_MU,
                                          _MOD_FRACTION_LOG_SIGMA))
        fractions.append(fraction if fraction < 1.0 else 1.0)
    return fractions


def reference_replay_records(records: Sequence[TraceRecord],
                             profile: ServiceProfile,
                             seed: int) -> ReplayReport:
    """Replay ``records``, in order, under ``profile``."""
    # ---- constant per profile -----------------------------------------------
    fixed = _fixed_overhead(profile)
    saving_fraction = _LEVEL_SAVING_FRACTION[profile.upload_compression.level]
    per_byte = profile.overhead.per_byte_factor
    delta_block = profile.delta_block if profile.uses_ids else 0
    dedup = profile.dedup
    dedup_enabled = dedup.enabled
    dedup_full_file = dedup.granularity is DedupGranularity.FULL_FILE
    dedup_cross_user = dedup.scope is DedupScope.CROSS_USER
    bds = profile.bds
    batched_overhead = bds.per_file_bytes if bds.mode is BdsMode.FULL \
        else max(bds.per_file_bytes, fixed // 8)
    batch_saving = max(fixed - batched_overhead, 0)

    # Which records BDS would batch.
    batched = reference_creation_batch_flags(records) \
        if bds.mode is not BdsMode.NONE else [False] * len(records)

    streams: Dict[str, np.random.Generator] = {}
    seen_units: Set = set()
    per_user_traffic: Dict[str, int] = {}
    per_user_mod_traffic: Dict[str, int] = {}
    per_user_mod_update: Dict[str, int] = {}
    mod_events = data_update = traffic = overhead_total = 0
    saved_compression = saved_dedup = saved_bds = saved_ids = 0

    for record, in_batch in zip(records, batched):
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
            if dedup_full_file:
                keys = ((full_file_key(record), size),)
            else:
                keys = block_keys(record, dedup.block_size)
            for key, length in keys:
                total_len += length
                digest = _unit_digest(key)
                scope_key = digest if dedup_cross_user else (user, digest)
                if scope_key in seen_units:
                    continue
                seen_units.add(scope_key)
                shipped += length
            # A size-0 file — or a record with no content units at all —
            # has no bytes to negotiate: dedup neither ships nor saves
            # anything and the wire passes through unchanged.
            if total_len > 0:
                wire = full_wire * shipped // total_len
                saved_dedup += full_wire - wire

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
            for fraction in _mod_fractions(streams, seed, user, count):
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
        file_count=len(records), upload_events=len(records) + mod_events,
        data_update_bytes=data_update, traffic_bytes=traffic,
        overhead_bytes=overhead_total,
        saved_by_compression=saved_compression, saved_by_dedup=saved_dedup,
        saved_by_bds=saved_bds, saved_by_ids=saved_ids,
        per_user_traffic=per_user_traffic,
        per_user_modification_traffic=per_user_mod_traffic,
        per_user_modification_update=per_user_mod_update)
    return report
