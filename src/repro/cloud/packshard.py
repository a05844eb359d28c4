"""Packed-shard containers — the third storage backend.

The paper's trace is dominated by small files (77% under 100 KB), so when
every chunk becomes its own REST object (:mod:`repro.cloud.midlayer`) the
request *count* — not the payload — dominates the provider-side bill.  The
DES storage-efficiency literature answers with tight-packed containers and
algorithmic placement: units are appended into a small, fixed number of
shard containers chosen by ``shard = f(digest)``, turning millions of
objects into tens of containers and collapsing per-object API operations
by orders of magnitude.

:class:`PackShardStore` implements that idea over the same full-file
:class:`~repro.cloud.object_store.ObjectStore` contract the other backends
use, plus the one extra REST primitive real stores offer: ranged GET
(:meth:`ObjectStore.get_range`).  Mechanics:

* ``store(data)`` buffers the unit in memory under its placement slot —
  **zero REST ops**.  A slot whose buffer reaches the container size target
  seals itself: one PUT writes the concatenated units plus a
  length-prefixed JSON manifest trailer (the manifest bytes are part of
  the storage bill, not hidden metadata).
* ``flush()`` seals every dirty slot — the server calls it at commit time
  so durability matches the other backends' semantics.
* Reads resolve unit keys through the in-memory shard manifests and issue
  ranged GETs; ``fetch_many`` coalesces contiguous units of the same
  container into a single range request.
* ``delete`` marks garbage in the container's manifest.  When a container's
  garbage reaches half its payload it is compacted: one
  whole-container GET, survivors re-buffered under their original keys,
  one DELETE — costs all visible in :class:`RestOpCounters`.

Everything is deterministic: placement is a keyed blake2b of the unit
content, buffers seal in slot order, and manifests iterate sorted.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import IntegrityError, NotFound, annotate_manifest_error
from .object_store import ObjectStore

_MANIFEST_LEN_BYTES = 8

#: A slot's buffer seals into a container once it holds this many bytes.
TARGET_CONTAINER_BYTES = 4 * 1024 * 1024


def _encode_manifest(entries: List[Tuple[str, int, int]]) -> bytes:
    """Length-prefixed JSON trailer: ``[[key, offset, length], ...]``."""
    body = json.dumps(entries, separators=(",", ":")).encode("ascii")
    return body + len(body).to_bytes(_MANIFEST_LEN_BYTES, "big")


def _decode_manifest(blob: bytes) -> List[Tuple[str, int, int]]:
    """Inverse of :func:`_encode_manifest` — containers are self-describing."""
    if len(blob) < _MANIFEST_LEN_BYTES:
        raise IntegrityError("container too small to hold a manifest trailer")
    body_len = int.from_bytes(blob[-_MANIFEST_LEN_BYTES:], "big")
    start = len(blob) - _MANIFEST_LEN_BYTES - body_len
    if start < 0:
        raise IntegrityError("container manifest trailer overruns the blob")
    entries = json.loads(blob[start:start + body_len].decode("ascii"))
    return [(key, offset, length) for key, offset, length in entries]


@dataclass
class PackShardStats:
    """Backend-level counters mirrored into ``ServerStats``."""

    containers_sealed: int = 0
    sealed_bytes: int = 0
    manifest_bytes: int = 0
    compactions: int = 0
    compaction_copied_bytes: int = 0
    garbage_reclaimed_bytes: int = 0


@dataclass
class _Location:
    """Where a live unit lives: an open buffer or a sealed container."""

    slot: int
    container: Optional[str] = None   # None while buffered (pending)
    offset: int = 0
    length: int = 0


@dataclass
class _Container:
    """One sealed container's in-memory manifest mirror."""

    key: str
    slot: int
    payload_bytes: int
    manifest: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    garbage_bytes: int = 0


class PackShardStore:
    """Units packed into append-only shard containers by placement digest.

    Drop-in for :class:`~repro.cloud.midlayer.ChunkStore`: same
    ``store / fetch / fetch_many / delete / exists / flush /
    collect_garbage`` surface, radically different REST cost profile.
    """

    def __init__(self, objects: ObjectStore):
        self.objects = objects
        self.stats = PackShardStats()
        self._sequence = itertools.count()
        self._seal_sequence = itertools.count()
        self._locations: Dict[str, _Location] = {}
        self._containers: Dict[str, _Container] = {}
        # Per-slot open buffers: list of (unit_key, data) in arrival order.
        self._open: Dict[int, List[Tuple[str, bytes]]] = {}
        self._open_bytes: Dict[int, int] = {}

    # -- placement ----------------------------------------------------------

    def placement_slot(self, data: bytes) -> int:
        """Algorithmic placement: ``slot = blake2b(data) mod 4``."""
        digest = hashlib.blake2b(data, digest_size=8).digest()
        return int.from_bytes(digest, "big") % 4

    # -- writes -------------------------------------------------------------

    def store(self, data: bytes, md5: Optional[str] = None) -> str:
        """Buffer one unit; zero REST ops until the slot seals.  ``md5`` is
        ignored: a container's etag is hashed over the blob at seal."""
        key = f"shards/u{next(self._sequence):012d}"
        slot = self.placement_slot(data)
        self._open.setdefault(slot, []).append((key, bytes(data)))
        self._open_bytes[slot] = self._open_bytes.get(slot, 0) + len(data)
        self._locations[key] = _Location(slot=slot)
        if self._open_bytes[slot] >= TARGET_CONTAINER_BYTES:
            self._seal(slot)
        return key

    def flush(self) -> int:
        """Seal every dirty slot (commit-time durability); returns seals."""
        sealed = 0
        for slot in sorted(self._open):
            if self._open[slot]:
                self._seal(slot)
                sealed += 1
        return sealed

    def _seal(self, slot: int) -> None:
        """One PUT turns a slot's buffer into a sealed container."""
        units = self._open.get(slot) or []
        if not units:
            return
        container_key = (f"shards/c{slot:03d}-"
                         f"{next(self._seal_sequence):08d}")
        entries: List[Tuple[str, int, int]] = []
        offset = 0
        pieces = []
        for unit_key, data in units:
            entries.append((unit_key, offset, len(data)))
            pieces.append(data)
            offset += len(data)
        trailer = _encode_manifest(entries)
        blob = b"".join(pieces) + trailer
        self.objects.put(container_key, blob)
        container = _Container(key=container_key, slot=slot,
                               payload_bytes=offset)
        for unit_key, unit_offset, unit_length in entries:
            container.manifest[unit_key] = (unit_offset, unit_length)
            self._locations[unit_key] = _Location(
                slot=slot, container=container_key,
                offset=unit_offset, length=unit_length)
        self._containers[container_key] = container
        self._open[slot] = []
        self._open_bytes[slot] = 0
        self.stats.containers_sealed += 1
        self.stats.sealed_bytes += len(blob)
        self.stats.manifest_bytes += len(trailer)

    # -- reads --------------------------------------------------------------

    def _resolve(self, key: str) -> _Location:
        """Seal the slot if the unit is still buffered, then locate it."""
        location = self._locations.get(key)
        if location is None:
            raise NotFound(f"unit {key!r} does not exist")
        if location.container is None:
            self._seal(location.slot)
            location = self._locations[key]
        return location

    def fetch(self, key: str) -> bytes:
        """One ranged GET against the unit's container."""
        location = self._resolve(key)
        assert location.container is not None
        return self.objects.get_range(location.container, location.offset,
                                      location.length)

    def fetch_many(self, keys: List[str]) -> bytes:
        """Reassemble a file, coalescing contiguous same-container runs.

        Units that sit next to each other in the same container are fetched
        with a single range request — the read-side half of the packing win.
        Failures carry the run's first unit key and its manifest position,
        matching :meth:`ChunkStore.fetch_many` attribution semantics.
        """
        locations = []
        for position, key in enumerate(keys):
            try:
                locations.append(self._resolve(key))
            except NotFound as error:
                raise annotate_manifest_error(
                    error, key, position, len(keys)) from error
        pieces = []
        index = 0
        while index < len(locations):
            run_start = index
            first = locations[index]
            end = first.offset + first.length
            index += 1
            while (index < len(locations)
                   and locations[index].container == first.container
                   and locations[index].offset == end):
                end += locations[index].length
                index += 1
            assert first.container is not None
            try:
                pieces.append(self.objects.get_range(
                    first.container, first.offset, end - first.offset))
            except (IntegrityError, NotFound) as error:
                raise annotate_manifest_error(
                    error, keys[run_start], run_start, len(keys)) from error
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def exists(self, key: str) -> bool:
        return key in self._locations

    # -- deletes and compaction --------------------------------------------

    def delete(self, key: str) -> None:
        """Drop a buffered unit, or mark a sealed one as garbage."""
        location = self._locations.get(key)
        if location is None:
            raise NotFound(f"unit {key!r} does not exist")
        del self._locations[key]
        if location.container is None:
            buffer = self._open[location.slot]
            for index, (unit_key, data) in enumerate(buffer):
                if unit_key == key:
                    del buffer[index]
                    self._open_bytes[location.slot] -= len(data)
                    break
            return
        container = self._containers[location.container]
        del container.manifest[key]
        container.garbage_bytes += location.length
        self._maybe_compact(container)

    def collect_garbage(self, live: Iterable[str]) -> int:
        """Mark every non-live unit as garbage — zero LIST ops.

        The per-shard manifests are authoritative, so garbage collection
        never has to enumerate the REST namespace; compaction fires as
        thresholds are crossed.
        """
        live = set(live)
        removed = 0
        for key in sorted(self._locations):
            if key not in live:
                self.delete(key)
                removed += 1
        return removed

    def _maybe_compact(self, container: _Container) -> None:
        if not container.manifest:
            self._drop_container(container)
            return
        if container.garbage_bytes >= 0.5 * container.payload_bytes:
            self._compact(container)

    def _drop_container(self, container: _Container) -> None:
        """Every unit is garbage: one DELETE reclaims the whole container."""
        self.objects.delete(container.key)
        del self._containers[container.key]
        self.stats.garbage_reclaimed_bytes += container.garbage_bytes

    def _compact(self, container: _Container) -> None:
        """GET the container, re-buffer survivors, DELETE the old object."""
        blob = self.objects.get(container.key)
        survivors = sorted(container.manifest.items(),
                           key=lambda item: item[1][0])
        copied = 0
        slot = container.slot
        for unit_key, (offset, length) in survivors:
            data = blob[offset:offset + length]
            self._open.setdefault(slot, []).append((unit_key, data))
            self._open_bytes[slot] = self._open_bytes.get(slot, 0) + length
            self._locations[unit_key] = _Location(slot=slot)
            copied += length
        self.objects.delete(container.key)
        del self._containers[container.key]
        self.stats.compactions += 1
        self.stats.compaction_copied_bytes += copied
        self.stats.garbage_reclaimed_bytes += container.garbage_bytes
        if self._open_bytes.get(slot, 0) >= TARGET_CONTAINER_BYTES:
            self._seal(slot)
