"""Sharded replay: the estimator of :mod:`repro.trace.replay` across a
persistent pool of worker processes, byte-identical at any worker count.

:class:`ReplayPool` forks one worker per user-disjoint shard once and
reuses them for every profile replayed against the same trace.  Four
properties make ``pool.replay(profile, seed)`` equal
``replay_trace(trace, profile, seed)`` byte for byte (see DESIGN.md,
"Parallel replay & determinism contract"):

* modification fractions come from one stream per ``(seed, user)``,
  consumed in global index order, and a shard holds all of a user's
  records in that order — no draw-order coupling between users;
* BDS batch eligibility and ``SAME_USER`` dedup only couple records of
  one user, and sharding is by user;
* ``CROSS_USER`` dedup couples records globally, so shards retain per-unit
  first-occurrence *candidates* worker-side and ship only a compact
  digest/index summary; a merge pass resolves true first occurrences and
  re-credits ``saved_by_dedup`` exactly (two-phase protocol; the
  contested-winner table rides the ``settle`` message as two packed
  blobs, 2–5× smaller than the phase-1 summaries on the same pipes);
* phase 2 short-circuits entirely when no unit has candidates in more
  than one shard — the common case for traces without cross-user
  duplicate content.

This is the only module in ``src/`` that forks; it imports the estimator,
never the reverse.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from array import array
from dataclasses import replace
from typing import Dict, Iterable, List, NoReturn, Optional, Sequence, Set, Tuple

import numpy as np

from ..client import AccessMethod, ServiceProfile, service_profile
from ..client.defer import NoDefer
from ..cloud.dedup import DedupScope
from .replay import (_DIGEST_SIZE, _MERGE_DICTS, ReplayReport,
                     _replay_records, replay_trace)
from .schema import MalformedRecord, Trace, TraceRecord, first_sight


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


#: One shard: a columnar trace and the global index of each of its records.
_Shard = Tuple[Trace, np.ndarray]


def _shard_by_user(trace: Trace, shard_count: int) -> List[_Shard]:
    """Partition the trace into user-disjoint, balanced, gathered shards.

    Users are assigned greedily (heaviest first, ties by first appearance)
    to the least-loaded shard — deterministic, so shard contents depend
    only on the trace and ``shard_count``.
    """
    counts = np.bincount(trace.user_code, minlength=len(trace.user_names))
    loads = [0] * shard_count
    assignment = np.zeros(len(trace.user_names), np.int64)
    # Stable sort: equal counts keep first-appearance order.
    for user in sorted(first_sight(trace.user_code),
                       key=lambda code: -counts[code]):
        target = min(range(shard_count), key=lambda idx: loads[idx])
        assignment[user] = target
        loads[target] += int(counts[user])
    owner = assignment[trace.user_code]
    shards = [np.flatnonzero(owner == target) for target in range(shard_count)]
    return [(trace.take(indices), indices) for indices in shards
            if indices.size]


def _user_orders(trace: Trace) -> Tuple[List[str], List[str]]:
    """(creation order, modification order) of users, by first appearance.

    Sequential replay inserts users into the per-user dicts on their first
    record (traffic) and first modified record (modification dicts); the
    parallel merge re-canonicalises to these orders.
    """
    names = trace.user_names
    return ([names[code] for code in first_sight(trace.user_code)],
            [names[code] for code in first_sight(
                trace.user_code[trace.modify_count > 0])])


def _restore_user_order(report: ReplayReport, creation_order: Sequence[str],
                        modification_order: Sequence[str]) -> None:
    """Reorder per-user dicts to sequential insertion order.

    The merged dicts carry shard order; rebuilding them makes the parallel
    report byte-identical to the sequential one — same ``repr``, same
    JSON — not merely equal.
    """
    for name, order in zip(_MERGE_DICTS, (creation_order, modification_order,
                                          modification_order)):
        totals = getattr(report, name)
        setattr(report, name,
                {user: totals[user] for user in order if user in totals})


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


#: Serialises ``os.fork`` against the one parent-side lock class a fork
#: child can still inherit in the locked state: the stdio buffer locks
#: (``Process.start`` flushes the std streams before forking).  If another
#: thread of this module holds one at the instant of fork — it is inside
#: its own ``Process.start`` — the child deadlocks the moment *it* flushes,
#: at exit.  So every fork takes this lock; one pool per thread is then
#: safe.
_fork_lock = threading.Lock()


def _portable_profile(profile: ServiceProfile) -> ServiceProfile:
    """A pickle-safe copy of ``profile`` for the worker pipe.

    Profiles carry defer-policy factory lambdas that cannot be pickled;
    the replay estimator never defers, so the factory is swapped for the
    no-op policy class before the profile crosses the pipe.  Every other
    field is plain data, which is what lets the pool replay *ad hoc*
    profiles (``dataclasses.replace`` variants), not just registry ones.
    """
    return replace(profile, defer_factory=NoDefer)


def _pool_worker_main(channel, shard: _Shard) -> None:
    """Worker loop for one shard.

    The shard rides into the process through the fork (``Process`` args —
    no module global, no pickling); commands and compact results ride the
    pipe, fed batches too, each joined onto the shard before the first
    replay.  Phase-1 candidate state stays resident here between a
    ``replay`` and its ``settle``, which is what keeps candidates off the
    IPC boundary entirely.
    """
    parts = [shard]
    candidates: Optional[_ShardCandidates] = None
    try:
        while True:
            message = channel.recv()
            command = message[0]
            try:
                if command == "feed":
                    parts.append(message[1])
                    continue
                if command == "replay":
                    if len(parts) > 1:
                        parts = [(Trace.concat([part for part, _ in parts]),
                                  np.concatenate([ids for _, ids in parts]))]
                    _, profile, seed, collect = message
                    candidates = _ShardCandidates() if collect else None
                    report = _replay_records(*parts[0], profile, seed,
                                             candidates)
                    channel.send(("ok", (
                        report, candidates.summary() if candidates else None)))
                elif command == "settle":
                    winners = _unpack_winner_table(*message[1:])
                    credits = candidates.settle(winners) if candidates else {}
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


def _batch(rows: List[TraceRecord], indices: List[int]) -> _Shard:
    """One feed batch; a malformed record is named by its stream index."""
    try:
        return Trace.from_records(rows), np.array(indices, dtype=np.int64)
    except MalformedRecord as error:
        raise MalformedRecord(indices[error.row], error.path,
                              error.reason) from None


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
        self._shards: List[_Shard] = _shard_by_user(trace, resolved)
        self._creation_order, self._modification_order = _user_orders(trace)
        self._record_count = len(trace)
        self._channels: list = []
        self._processes: list = []
        self._closed = False
        if resolved > 1 and len(self._shards) > 1:
            self._start()

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord],
                     workers: Optional[int] = None) -> "ReplayPool":
        """Build a pool by streaming records into the workers.

        The workers fork *first* with empty shards; records are then
        assigned to users' shards on first appearance (least-loaded shard,
        ties to the lowest) and shipped in columnar batches with their
        global indices, so the parent never materialises the trace — peak
        parent memory is one feed batch plus the record source's own state.
        Replay results are byte-identical to ``replay_trace`` over the same
        records in stream order.
        """
        resolved = _resolve_workers(workers)
        pool = cls(Trace(), resolved)   # every field at its empty value
        pool._shards = [_batch([], [])] * resolved
        if resolved > 1:
            pool._start()
        live = bool(pool._processes)
        buffers: List[List[TraceRecord]] = [[] for _ in range(resolved)]
        positions: List[List[int]] = [[] for _ in range(resolved)]
        loads = [0] * resolved
        assignment: Dict[str, int] = {}
        seen_modified: Set[str] = set()
        try:
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
                buffers[slot].append(record)
                positions[slot].append(index)
                if live and len(buffers[slot]) >= _FEED_BATCH:
                    pool._send(slot, ("feed", _batch(buffers[slot],
                                                     positions[slot])))
                    buffers[slot], positions[slot] = [], []
            shards = [_batch(*batch) for batch in zip(buffers, positions)]
        except BaseException:   # a malformed record: no worker outlives it
            pool.close()
            raise
        if live:
            for slot, shard in enumerate(shards):
                if len(shard[1]):
                    pool._send(slot, ("feed", shard))
        else:
            pool._shards = [shard for shard in shards if len(shard[1])]
        return pool

    # -- lifecycle ---------------------------------------------------------

    def _start(self) -> None:
        """Fork one worker per shard; a no-op where ``fork`` is missing."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return
        with _fork_lock:
            for shard in self._shards:
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
        from ..obs import audit
        report, parts, credits = self._replay_full(profile, seed)
        audit(report=report, parts=parts, settle_credits=credits)
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
            message = ("replay", _portable_profile(profile), seed, collect)
            positions = range(len(self._channels))
            for position in positions:
                self._send(position, message)
            results = [self._receive(position) for position in positions]
            parts = [part for part, _ in results]
            summaries = [summary for _, summary in results]
        else:
            parts = []
            summaries = []
            for shard in self._shards:
                candidates = _ShardCandidates() if collect else None
                parts.append(_replay_records(*shard, profile, seed,
                                             candidates))
                local_candidates.append(candidates)
                summaries.append(candidates.summary() if candidates else None)
        if not parts:   # no records: the kernel's empty report, or its error
            return _replay_records(Trace(), (), profile, seed), [], {}
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
            message = ("settle", *_pack_winner_table(winners))
            for position in losers:
                self._send(position, message)
            shard_credits = [self._receive(position) for position in losers]
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

    def _send(self, position: int, message: tuple) -> None:
        try:
            self._channels[position].send(message)
        except (EOFError, OSError):
            self._worker_died(position)

    def _receive(self, position: int):
        try:
            status, payload = self._channels[position].recv()
        except (EOFError, OSError):
            self._worker_died(position)
        if status != "ok":
            self.close()
            raise RuntimeError(f"replay worker failed:\n{payload}")
        return payload

    def _worker_died(self, position: int) -> NoReturn:
        """A pipe to worker ``position`` broke: close the whole pool (every
        other worker joined or terminated) and say which shard was lost."""
        process = self._processes[position]
        self.close()    # joins the dead worker too, so its exit code is set
        code = process.exitcode
        how = f"killed by signal {-code}" if code is not None and code < 0 \
            else f"exit code {code}"
        raise RuntimeError(
            f"replay worker for shard {position} (pid {process.pid}) died "
            f"({how}); the pool is closed")


def replay_all(trace: Optional[Trace] = None,
               services: Optional[Sequence[str]] = None,
               access: AccessMethod = AccessMethod.PC,
               seed: int = 0,
               workers: int = 1,
               pool: Optional[ReplayPool] = None,
               audit: bool = False) -> List[ReplayReport]:
    """Replay the trace under every service, sorted by estimated traffic.

    With ``workers > 1`` a single :class:`ReplayPool` is forked once and
    reused across all profiles; pass ``pool`` to reuse an existing pool
    (e.g. one streamed from ``iter_trace_records``) — the caller keeps
    ownership and must close it.  ``audit=True`` checks every report's
    replay-conservation invariant, and a pooled replay's shard merge too.
    """
    from ..client import SERVICES
    from ..obs import audit as audit_invariants
    names = services or SERVICES
    owns_pool = False
    if pool is None and workers > 1 and trace is not None:
        pool = ReplayPool(trace, workers=workers)
        owns_pool = True
    try:
        if pool is not None:
            replay = pool.replay_audited if audit else pool.replay
            reports = [replay(service_profile(name, access), seed=seed)
                       for name in names]
        else:
            if trace is None:
                raise ValueError("replay_all needs a trace or a pool")
            reports = [replay_trace(trace, service_profile(name, access),
                                    seed=seed)
                       for name in names]
            if audit:
                for report in reports:
                    audit_invariants(report=report)
    finally:
        if owns_pool:
            pool.close()
    reports.sort(key=lambda report: report.traffic_bytes)
    return reports
