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

This module is the estimator alone and starts no process or thread:
:func:`replay_trace` prices a whole trace in one columnar pass over
1024-record blocks, after the trace analysis's one pass that finds which
dedup units ship (:func:`~repro.trace.analysis.dedup_columns`; DESIGN.md,
"The kernel and its floor").  Modification
fractions come from one Philox stream per (seed, user), so every profile
prices the same modifications of a trace.  :mod:`repro.trace.pool` runs
whole :func:`replay_trace` calls, one profile each, in a persistent
worker pool; it imports this module, never the reverse.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..client import ServiceProfile
from ..client.profiles import BdsMode
from ..compress import CompressionLevel
from ..simnet.protocol import TCP_HANDSHAKE_DOWN, TCP_HANDSHAKE_UP
from .analysis import creation_batch_flags, dedup_columns
from .schema import Trace, first_sight

#: Fraction of a file's *achievable* compression each level realises,
#: relative to HIGH's saving on repro.compress's Experiment 4 text corpus
#: (HIGH ≈ 0.444, MODERATE ≈ 0.578, LOW ≈ 0.773 of original); pinned to
#: that module by tests/test_replay.py.
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

#: Records per kernel block: one block's columns are the kernel's working
#: set, so memory is O(block) + O(users) whatever the trace length.
_BLOCK = 1024
#: Bound on len(block) × (most modifications + 1) × (largest size + its
#: overheads), which bounds every ``int64`` value of a block.  Half of
#: int64's range, so no truncated float product can round past the top.
_INT64_HEADROOM = 1 << 62

#: Per-user dict fields of a report, in declaration order.
_PER_USER_DICTS = (
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
        from ..core.tue import tue  # local: core imports trace

        return tue(self.traffic_bytes, self.data_update_bytes)

    @property
    def total_savings(self) -> int:
        return (self.saved_by_compression + self.saved_by_dedup
                + self.saved_by_bds + self.saved_by_ids)


def _fixed_overhead(profile: ServiceProfile) -> int:
    """Per-sync fixed overhead implied by the profile's cost parameters.

    Mirrors the micro engine: handshake (when each sync opens a connection),
    HTTP framing per request, service metadata, and the notification push.
    """
    costs = profile.protocol
    overhead = profile.overhead
    handshake = 0
    if overhead.connection_per_sync:
        handshake = (TCP_HANDSHAKE_UP + TCP_HANDSHAKE_DOWN
                     + (costs.tls_handshake_up + costs.tls_handshake_down
                        if costs.use_tls else 0))
    framing = (costs.request_header + costs.response_header) \
        * max(overhead.requests_per_sync, 1)
    return (handshake + framing + overhead.meta_up + overhead.meta_down
            + overhead.notify_down)


def _trunc(value):
    """``int()`` of a float, elementwise over an array (to ``int64``)."""
    return value.astype(np.int64) if isinstance(value, np.ndarray) \
        else int(value)


def _wire_payload(size, compressed, saving_fraction: float,
                  per_byte_factor: float):
    """Upload bytes for content with a known reference-compressed size,
    under a profile's :data:`_LEVEL_SAVING_FRACTION` entry and per-byte
    protocol overhead: the one payload formula, over ``int64`` columns
    (creation and IDS delta wires alike) or, step for step, Python ints."""
    achievable = np.maximum(size - compressed, 0)
    wire = size - _trunc(achievable * saving_fraction)
    return wire + _trunc(per_byte_factor * wire)


def _draw_fractions(streams: Dict, seed: int, users: Sequence,
                    counts: np.ndarray,
                    names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Modification fractions of consecutive records in record order,
    ``counts[k]`` for a record of user ``users[k]``, clamped to 1.0.

    ``users`` holds codes into the name table ``names`` or, without one,
    the names themselves.  Each user's stream in ``streams`` (keyed as in
    ``users``) is Philox keyed by the 16-byte blake2b of
    ``replay:{seed}:{name}`` — no profile, so every service prices the
    same modifications — built on first sight and consumed in record
    order.  Philox draws the same values chunked or in one call, so each
    user's block total is one ``lognormal`` call, scattered back through a
    mask of the user's draws."""
    keys, owners = np.unique(np.asarray(users), return_inverse=True)
    totals = np.bincount(owners, weights=counts,
                         minlength=len(keys)).astype(np.int64)
    fractions = np.empty(int(totals.sum()))
    for owner, (key, total) in enumerate(zip(keys.tolist(), totals.tolist())):
        stream = streams.get(key)
        if stream is None:
            name = key if names is None else names[key]
            digest = hashlib.blake2b(f"replay:{seed}:{name}".encode(),
                                     digest_size=16).digest()
            stream = streams[key] = np.random.Generator(
                np.random.Philox(key=int.from_bytes(digest, "big")))
        # A boolean mask takes the user's draw positions in record order.
        fractions[np.repeat(owners == owner, counts)] = stream.lognormal(
            _MOD_FRACTION_LOG_MU, _MOD_FRACTION_LOG_SIGMA, total)
    return np.minimum(fractions, 1.0, out=fractions)


def _fold(totals: Dict[int, int], users: np.ndarray,
          values: np.ndarray) -> None:
    """Add one block's per-record ``values`` into ``totals``, user code →
    Python int, a user entering at first sight.  A block's per-user sums
    are exact in ``int64`` under its headroom rule."""
    sums = np.zeros(int(users.max()) + 1, np.int64)
    np.add.at(sums, users, values)
    for code in first_sight(users):
        totals[code] = totals.get(code, 0) + int(sums[code])


def replay_trace(trace: Trace, profile: ServiceProfile,
                 seed: int = 0) -> ReplayReport:
    """Estimate the trace-wide sync traffic under one service profile.

    Prices column slices :data:`_BLOCK` records at a time and reads no
    per-record object; totals that outlive a block are Python ints, and
    what dedup ships is resolved for the whole trace first.  A
    block dedup size the trace's segments cannot align is refused before
    any record, and a block whose values could leave ``int64`` is refused
    naming a record of it by its position in the trace.
    """
    dedup_enabled = profile.dedup.enabled
    if dedup_enabled:
        try:
            dedup_shipped, dedup_total = dedup_columns(trace, profile.dedup)
        except ValueError as error:
            raise ValueError(f"{profile.name}: {error}") from None
    # ---- constant per profile -----------------------------------------------
    fixed = _fixed_overhead(profile)
    saving_fraction = _LEVEL_SAVING_FRACTION[profile.upload_compression.level]
    per_byte = profile.overhead.per_byte_factor
    delta_block = profile.delta_block if profile.uses_ids else 0
    bds = profile.bds
    batched_overhead = bds.per_file_bytes if bds.mode is BdsMode.FULL \
        else max(bds.per_file_bytes, fixed // 8)
    batch_saving = max(fixed - batched_overhead, 0)
    pad = max(fixed, batched_overhead) + 2 * delta_block + 1  # for headroom

    # Which records BDS would batch.
    batched = creation_batch_flags(trace) if bds.mode is not BdsMode.NONE \
        else np.broadcast_to(False, len(trace))
    names = trace.user_names
    # One modification stream per user code, alive across blocks.
    streams: Dict[int, np.random.Generator] = {}

    # Per user code, in first-sight order: the :data:`_PER_USER_DICTS`.
    per_user: Tuple[Dict[int, int], ...] = ({}, {}, {})
    mod_events = data_update = traffic = overhead_total = 0
    saved_compression = saved_dedup = saved_bds = saved_ids = 0

    for start in range(0, len(trace), _BLOCK):
        stop = min(start + _BLOCK, len(trace))
        size = trace.size[start:stop]
        compressed = trace.compressed_size[start:stop]
        counts = trace.modify_count[start:stop]
        users = trace.user_code[start:stop]
        biggest = int(max(size.max(), compressed.max()))
        if (stop - start) * (int(counts.max()) + 1) * (biggest + pad + abs(
                int(per_byte * biggest))) >= _INT64_HEADROOM:
            need = [(count + 1) * max(a, b) for count, a, b in zip(
                counts.tolist(), size.tolist(), compressed.tolist())]
            worst = start + need.index(max(need))
            raise OverflowError(f"record {worst}: its replay block could "
                                f"exceed int64")

        # ---- creation upload ------------------------------------------------
        # The pre-dedup full-file wire: what dedup scales down for the
        # creation, and what every non-IDS modification re-ships whole.
        full_wire = _wire_payload(size, compressed, saving_fraction, per_byte)
        saved_compression += int(np.maximum(
            size + _trunc(per_byte * size) - full_wire, 0).sum())
        wire = full_wire
        if dedup_enabled:
            shipped, total = dedup_shipped[start:stop], dedup_total[start:stop]
            # A size-0 file — or a record with no content units at all —
            # has total 0: dedup neither ships nor saves anything.
            wire = full_wire.copy()
            for p in np.flatnonzero(shipped < total).tolist():
                # Python ints: full * shipped can exceed int64.
                wire[p] = int(full_wire[p]) * int(shipped[p]) // int(total[p])
            saved_dedup += int((full_wire - wire).sum())

        in_batch = batched[start:stop]
        batch_count = int(np.count_nonzero(in_batch))
        saved_bds += batch_saving * batch_count
        record_traffic = wire + np.where(in_batch, batched_overhead, fixed)
        overhead_total += fixed * (stop - start - batch_count) \
            + batched_overhead * batch_count
        data_update += int(size.sum())

        # ---- modifications ---------------------------------------------------
        modified = np.flatnonzero(counts)
        if modified.size:
            mod_counts = counts[modified]
            mod_users = users[modified]
            # int(size * fraction) per draw, at least one byte.  Columns per
            # draw are a block's largest: no more than two live at once.
            fractions = _draw_fractions(streams, seed, mod_users, mod_counts,
                                        names)
            fractions *= np.repeat(size[modified].astype(float), mod_counts)
            altered = _trunc(fractions)
            del fractions
            np.maximum(altered, 1, out=altered)
            starts = np.cumsum(mod_counts) - mod_counts  # each record's first
            mod_traffic = mod_counts * fixed
            if delta_block:
                # Delta ships the altered region in whole blocks.  The ratio
                # is Python's c / s (float(c) / float(s) rounds twice past
                # 2**53); size == 0 makes every delta 0, so it goes unused.
                delta_size = np.minimum(
                    (-(-altered // delta_block) + 1) * delta_block,
                    np.repeat(size[modified], mod_counts))
                ratio = np.repeat([c / s if s else 0.0 for c, s in zip(
                    compressed[modified].tolist(), size[modified].tolist())],
                    mod_counts)
                delta_wire = _wire_payload(delta_size, _trunc(
                    delta_size * ratio), saving_fraction, per_byte)
                saved_ids += int(np.maximum(np.repeat(
                    full_wire[modified], mod_counts) - delta_wire, 0).sum())
                mod_traffic += np.add.reduceat(delta_wire, starts)
                del delta_size, delta_wire
            else:
                mod_traffic += mod_counts * full_wire[modified]
            altered = np.add.reduceat(altered, starts)   # per record
            record_traffic[modified] += mod_traffic
            data_update += int(altered.sum())
            overhead_total += fixed * int(mod_counts.sum())
            mod_events += int(mod_counts.sum())
            _fold(per_user[1], mod_users, mod_traffic)
            _fold(per_user[2], mod_users, altered)
            del mod_traffic, altered    # not held into the next block

        _fold(per_user[0], users, record_traffic)
        traffic += int(record_traffic.sum())

    return ReplayReport(
        service=profile.service, access=profile.access.value,
        file_count=len(trace), upload_events=len(trace) + mod_events,
        data_update_bytes=data_update, traffic_bytes=traffic,
        overhead_bytes=overhead_total,
        saved_by_compression=saved_compression, saved_by_dedup=saved_dedup,
        saved_by_bds=saved_bds, saved_by_ids=saved_ids,
        **{name: {names[code]: total for code, total in totals.items()}
           for name, totals in zip(_PER_USER_DICTS, per_user)})


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

