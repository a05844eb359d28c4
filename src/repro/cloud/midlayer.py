"""The chunk mid-layer between sync semantics and the RESTful store.

Footnote 4 of the paper describes the two known ways to make incremental
sync work over full-file REST storage: transform MODIFY into GET + PUT +
DELETE, or "store every chunk of a file as a separate data object" (the
Cumulus approach).  :class:`ChunkStore` implements the latter: every chunk
becomes one REST object, so every chunk operation is visible in the object
store's :class:`~repro.cloud.object_store.RestOpCounters`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional

from .errors import IntegrityError, NotFound, annotate_manifest_error
from .object_store import ObjectStore

#: Every chunk object's key starts with this; garbage collection lists it.
KEY_PREFIX = "chunks/"


class ChunkStore:
    """Content chunks stored as individual full-file REST objects."""

    def __init__(self, objects: ObjectStore):
        self.objects = objects
        self._sequence = itertools.count()

    def store(self, data: bytes, md5: Optional[str] = None) -> str:
        """PUT one chunk as a fresh object; returns its key."""
        key = f"{KEY_PREFIX}{next(self._sequence):012d}"
        self.objects.put(key, data, md5)
        return key

    def fetch(self, key: str) -> bytes:
        """GET one chunk."""
        return self.objects.get(key)

    def fetch_many(self, keys: List[str]) -> bytes:
        """Reassemble a file from its manifest order.

        A failure mid-manifest is re-raised annotated with the failing key
        and its position, so corruption is attributable instead of being
        swallowed into an anonymous join.
        """
        pieces = []
        for position, key in enumerate(keys):
            try:
                pieces.append(self.objects.get(key))
            except (IntegrityError, NotFound) as error:
                raise annotate_manifest_error(
                    error, key, position, len(keys)) from error
        # One key: hand back the stored object itself, so a caller that
        # remembers what it verified (``download_content``) sees it again.
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def delete(self, key: str) -> None:
        self.objects.delete(key)

    def exists(self, key: str) -> bool:
        return key in self.objects

    def flush(self) -> int:
        """Nothing is buffered — every chunk was PUT eagerly at store()."""
        return 0

    def collect_garbage(self, live: Iterable[str]) -> int:
        """Delete stored chunks whose keys are not in ``live``.

        One paginated LIST enumerates the chunk namespace, then one DELETE
        per dead chunk — the per-object cost profile the packed-shard
        backend exists to avoid.
        """
        live = set(live)
        removed = 0
        for key in self.objects.list_keys(KEY_PREFIX):
            if key not in live:
                self.delete(key)
                removed += 1
        return removed
