"""RESTful object store — the Amazon-S3-class substrate.

The paper stresses that "most of today's cloud storage services are built on
top of RESTful infrastructure ... that typically only support data access
operations at the full-file level" (§4.3).  This store enforces exactly that
contract: whole-object PUT / GET / DELETE / HEAD / LIST, nothing else.  Any
finer-grained behaviour (chunks, deltas, dedup) must be layered on top — see
:mod:`repro.cloud.midlayer` — which is precisely the architectural point the
paper makes about implementing incremental data sync.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import IntegrityError, NotFound

#: S3-style LIST page size: one LIST op is charged per 1000 keys returned.
LIST_PAGE_SIZE = 1000


@dataclass
class ObjectRecord:
    """One stored object plus bookkeeping."""

    key: str
    data: bytes
    etag: str
    created_at: float
    put_count: int = 1
    #: The ``(data, etag)`` objects that last passed :meth:`verify`.
    #: ``bytes`` and ``str`` are immutable, so holding the very same two
    #: objects again is proof the digest still matches; anything else —
    #: replaced bytes, a replaced etag — is hashed.  Never set by ``put``.
    _passed: Tuple[Optional[bytes], Optional[str]] = field(
        default=(None, None), init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.data)

    def verify(self) -> None:
        """Raise :class:`IntegrityError` unless ``data`` hashes to ``etag``.

        Hashes once per stored object rather than once per read; a failed
        check is not remembered, so rotten bytes fail every read.
        """
        data, etag = self.data, self.etag
        if data is self._passed[0] and etag is self._passed[1]:
            return
        if hashlib.md5(data).hexdigest() != etag:
            raise IntegrityError(
                f"object {self.key!r} failed its digest check")
        self._passed = (data, etag)


@dataclass
class RestOpCounters:
    """REST verbs issued against the store — the mid-layer's cost ledger.

    The paper notes IDS requires transforming MODIFY into GET + PUT + DELETE;
    these counters make that transformation observable in tests and benches.
    """

    put: int = 0
    get: int = 0
    delete: int = 0
    head: int = 0
    list: int = 0
    put_bytes: int = 0
    get_bytes: int = 0
    delete_bytes: int = 0
    overwritten_bytes: int = 0

    def total_ops(self) -> int:
        return self.put + self.get + self.delete + self.head + self.list

    @property
    def reclaimed_bytes(self) -> int:
        """Bytes displaced from storage by DELETEs and overwriting PUTs.

        Lifetime conservation: ``put_bytes - reclaimed_bytes`` equals the
        store's current ``stored_bytes`` — asserted by
        the ``rest-conservation`` row of :data:`repro.obs.INVARIANTS`.
        """
        return self.delete_bytes + self.overwritten_bytes


class ObjectStore:
    """In-memory full-file object store with S3-like semantics."""

    def __init__(self) -> None:
        self._objects: Dict[str, ObjectRecord] = {}
        self.ops = RestOpCounters()
        self._clock = 0.0

    def set_time(self, now: float) -> None:
        """Let the simulation clock stamp object creation times."""
        self._clock = now

    # -- REST verbs --------------------------------------------------------

    def put(self, key: str, data: bytes,
            md5: Optional[str] = None) -> ObjectRecord:
        """Store a whole object (create or full overwrite).  ``md5``, a
        digest the caller already holds for these bytes, becomes the etag
        unhashed; the first read checks it."""
        etag = md5 if md5 is not None else hashlib.md5(data).hexdigest()
        existing = self._objects.get(key)
        record = ObjectRecord(
            key=key,
            data=bytes(data),
            etag=etag,
            created_at=self._clock,
            put_count=(existing.put_count + 1) if existing else 1,
        )
        self._objects[key] = record
        self.ops.put += 1
        self.ops.put_bytes += len(data)
        if existing is not None:
            self.ops.overwritten_bytes += existing.size
        return record

    def get(self, key: str) -> bytes:
        """Fetch a whole object; verifies the stored digest on the way out."""
        record = self._objects.get(key)
        if record is None:
            raise NotFound(f"object {key!r} does not exist")
        self.ops.get += 1
        self.ops.get_bytes += record.size
        record.verify()
        return record.data

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        """Ranged GET — one GET op, only the requested bytes on the wire.

        This is the REST primitive packed-shard containers rely on
        (:mod:`repro.cloud.packshard`): many logical units live inside one
        object, and readers fetch ``[offset, offset + length)`` slices.  The
        whole stored object is still digest-verified — corruption anywhere
        in the container fails every ranged read, which is exactly the
        blast-radius trade-off DESIGN.md documents for this backend.
        """
        record = self._objects.get(key)
        if record is None:
            raise NotFound(f"object {key!r} does not exist")
        if offset < 0 or length < 0:
            raise ValueError("range offset and length must be non-negative")
        if offset > record.size:
            raise ValueError(
                f"range offset {offset} beyond object {key!r} "
                f"size {record.size}")
        data = record.data[offset:offset + length]
        self.ops.get += 1
        self.ops.get_bytes += len(data)
        record.verify()
        return data

    def delete(self, key: str) -> None:
        record = self._objects.get(key)
        if record is None:
            raise NotFound(f"object {key!r} does not exist")
        del self._objects[key]
        self.ops.delete += 1
        self.ops.delete_bytes += record.size

    def head(self, key: str) -> Optional[ObjectRecord]:
        """Metadata-only probe; returns None instead of raising."""
        self.ops.head += 1
        return self._objects.get(key)

    def list_keys(self, prefix: str = "") -> List[str]:
        """Enumerate keys; cost is paginated S3-style.

        A real LIST returns at most :data:`LIST_PAGE_SIZE` keys per request,
        so enumerating N keys costs ``ceil(N / page)`` ops (minimum one —
        an empty listing is still a round trip).  Backends with millions of
        per-chunk objects pay for enumeration; packed shards do not.
        """
        keys = sorted(k for k in self._objects if k.startswith(prefix))
        pages = -(-len(keys) // LIST_PAGE_SIZE)
        self.ops.list += pages if pages > 0 else 1
        return keys

    # -- accounting ---------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[ObjectRecord]:
        return iter(self._objects.values())

    @property
    def stored_bytes(self) -> int:
        """Physical bytes currently held (the provider's storage bill)."""
        return sum(record.size for record in self._objects.values())
