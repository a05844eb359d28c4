"""Metadata server: per-user namespaces, versions, and "fake deletion".

Experiment 2 observes that deleting a file generates negligible traffic
because "the user client just notifies the cloud to change some attributes of
f rather than remove the content", which "also facilitates users' data
recovery, such as the version rollback of a file" (§4.2).  The metadata
server reproduces this: deletion writes a tombstone version; every prior
version remains addressable for rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import NotFound


@dataclass(frozen=True)
class FileVersion:
    """One committed version of a file path."""

    version: int
    size: int
    md5: str
    chunk_digests: tuple
    chunk_keys: tuple
    stored_sizes: tuple       # on-disk size per chunk (post-compression)
    committed_at: float
    deleted: bool = False
    #: The reassembled ``bytes`` object that last matched ``md5`` — set by
    #: :meth:`CloudServer.download`, for single-unit versions only, and
    #: gone with the version when history is purged.
    verified: Optional[bytes] = field(
        default=None, init=False, compare=False, repr=False)


@dataclass
class FileEntry:
    """A path in a user's namespace with its whole version history."""

    path: str
    versions: List[FileVersion] = field(default_factory=list)

    @property
    def head(self) -> FileVersion:
        return self.versions[-1]

    @property
    def exists(self) -> bool:
        return bool(self.versions) and not self.head.deleted


class MetadataServer:
    """Tracks every user's file tree; all mutations are append-only."""

    def __init__(self) -> None:
        self._namespaces: Dict[str, Dict[str, FileEntry]] = {}

    def _namespace(self, user: str) -> Dict[str, FileEntry]:
        return self._namespaces.setdefault(user, {})

    # -- commits ------------------------------------------------------------

    def commit(
        self,
        user: str,
        path: str,
        size: int,
        md5: str,
        chunk_digests: List[str],
        chunk_keys: List[str],
        stored_sizes: List[int],
        now: float,
    ) -> FileVersion:
        """Append a new head version for ``path``."""
        entry = self._namespace(user).setdefault(path, FileEntry(path))
        version = FileVersion(
            version=len(entry.versions) + 1,
            size=size,
            md5=md5,
            chunk_digests=tuple(chunk_digests),
            chunk_keys=tuple(chunk_keys),
            stored_sizes=tuple(stored_sizes),
            committed_at=now,
        )
        entry.versions.append(version)
        return version

    def tombstone(self, user: str, path: str, now: float) -> FileVersion:
        """The "fake deletion": attribute change only, content retained."""
        entry = self.get_entry(user, path)
        head = entry.head
        version = FileVersion(
            version=head.version + 1,
            size=0,
            md5="",
            chunk_digests=(),
            chunk_keys=(),
            stored_sizes=(),
            committed_at=now,
            deleted=True,
        )
        entry.versions.append(version)
        return version

    # -- queries ------------------------------------------------------------

    def get_entry(self, user: str, path: str) -> FileEntry:
        entry = self._namespace(user).get(path)
        if entry is None or not entry.versions:
            raise NotFound(f"{user}:{path} has no versions")
        return entry

    def head(self, user: str, path: str) -> FileVersion:
        """Current version; raises NotFound for missing or deleted files."""
        entry = self.get_entry(user, path)
        if entry.head.deleted:
            raise NotFound(f"{user}:{path} is deleted")
        return entry.head

    def version(self, user: str, path: str, number: int) -> FileVersion:
        """Any historical version — the rollback path fake deletion enables."""
        entry = self.get_entry(user, path)
        for candidate in entry.versions:
            if candidate.version == number:
                return candidate
        raise NotFound(f"{user}:{path} has no version {number}")

    def list_paths(self, user: str, include_deleted: bool = False) -> List[str]:
        return sorted(
            path for path, entry in self._namespace(user).items()
            if entry.versions and (include_deleted or not entry.head.deleted)
        )

    def purge_history(self, user: str, path: str, keep_last: int = 1) -> int:
        """Drop all but the newest ``keep_last`` versions of a path.

        The storage-cost counterpart of fake deletion: providers cap the
        rollback window to bound version storage.  Returns the number of
        versions removed.  The head version is always retained.
        """
        if keep_last < 1:
            raise ValueError("must keep at least the head version")
        entry = self.get_entry(user, path)
        removable = len(entry.versions) - keep_last
        if removable <= 0:
            return 0
        entry.versions = entry.versions[removable:]
        return removable

    def live_chunk_keys(self) -> set:
        """Chunk keys referenced by any version of any file (GC root set)."""
        keys = set()
        for namespace in self._namespaces.values():
            for entry in namespace.values():
                for version in entry.versions:
                    keys.update(version.chunk_keys)
        return keys
