"""The local sync folder: an in-memory filesystem with change notification.

Every cloud storage client watches "a designated local folder ... in which
every file operation is noticed and synchronized to the cloud" (§1).
:class:`SyncFolder` is that folder: it holds :class:`~repro.content.Content`
per path, and each mutation emits a :class:`FileEvent` to subscribers (the
sync client engine) at the current simulated time.
"""

from __future__ import annotations

import enum

import numpy as np
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..content import Content
from ..simnet import Simulator


class FileOp(enum.Enum):
    """The paper's file-operation taxonomy (§2, Table 1), plus the
    metadata-only operations real sync folders also see."""

    CREATE = "create"
    MODIFY = "modify"
    DELETE = "delete"
    RENAME = "rename"


@dataclass(frozen=True)
class FileEvent:
    """One observed change in the sync folder."""

    time: float
    path: str
    op: FileOp
    size: int             # file size after the operation
    update_bytes: int     # altered bytes relative to the previous state
    old_path: Optional[str] = None  # source path for renames


class MissingFileError(KeyError):
    """Operation on a path that does not exist in the folder."""


class SyncFolder:
    """In-memory sync folder bound to a simulator clock."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._files: Dict[str, Content] = {}
        self._listeners: List[Callable[[FileEvent], None]] = []
        self.events: List[FileEvent] = []

    # -- subscription -------------------------------------------------------

    def subscribe(self, listener: Callable[[FileEvent], None]) -> None:
        """Register a watcher; called synchronously on every mutation."""
        self._listeners.append(listener)

    def _emit(self, path: str, op: FileOp, size: int, update_bytes: int) -> FileEvent:
        event = FileEvent(self.sim.now, path, op, size, update_bytes)
        self.events.append(event)
        for listener in self._listeners:
            listener(event)
        return event

    # -- reads --------------------------------------------------------------

    def get(self, path: str) -> Content:
        content = self._files.get(path)
        if content is None:
            raise MissingFileError(path)
        return content

    def exists(self, path: str) -> bool:
        return path in self._files

    def paths(self) -> List[str]:
        return sorted(self._files)

    def total_bytes(self) -> int:
        return sum(c.size for c in self._files.values())

    # -- mutations ------------------------------------------------------------

    def create(self, path: str, content: Content) -> FileEvent:
        """Place a new file in the folder (the paper's file creation)."""
        if path in self._files:
            raise FileExistsError(f"{path} already exists in the sync folder")
        self._files[path] = content
        return self._emit(path, FileOp.CREATE, content.size, content.size)

    def write(self, path: str, content: Content) -> FileEvent:
        """Replace a file's content wholesale."""
        old = self._files.get(path)
        if old is None:
            raise MissingFileError(path)
        self._files[path] = content
        update = _altered_bytes(old, content)
        return self._emit(path, FileOp.MODIFY, content.size, update)

    def append(self, path: str, extra: Content) -> FileEvent:
        """Append bytes — Experiment 6's "X KB/X sec" primitive."""
        old = self.get(path)
        new = old.append(extra)
        self._files[path] = new
        return self._emit(path, FileOp.MODIFY, new.size, extra.size)

    def modify_random_byte(self, path: str, seed: int = 0) -> FileEvent:
        """Experiment 3's primitive: flip one random byte in place."""
        old = self.get(path)
        new = old.modify_random_byte(seed=seed)
        self._files[path] = new
        return self._emit(path, FileOp.MODIFY, new.size, 1)

    def delete(self, path: str) -> FileEvent:
        old = self._files.pop(path, None)
        if old is None:
            raise MissingFileError(path)
        return self._emit(path, FileOp.DELETE, 0, 0)

    def truncate(self, path: str, length: int) -> FileEvent:
        """Cut a file down to ``length`` bytes (log rotation, editors)."""
        old = self.get(path)
        if length < 0 or length > old.size:
            raise ValueError(f"cannot truncate {old.size}-byte file to {length}")
        new = old.slice(0, length)
        self._files[path] = new
        return self._emit(path, FileOp.MODIFY, new.size, old.size - length)

    def insert(self, path: str, offset: int, extra: Content) -> FileEvent:
        """Insert bytes mid-file — the workload rsync's rolling match exists
        for (every byte after ``offset`` shifts)."""
        old = self.get(path)
        if offset < 0 or offset > old.size:
            raise ValueError(f"offset {offset} outside file of {old.size} bytes")
        new = Content(old.data[:offset] + extra.data + old.data[offset:])
        self._files[path] = new
        return self._emit(path, FileOp.MODIFY, new.size, extra.size)

    def rename(self, old_path: str, new_path: str) -> FileEvent:
        """Move a file — content unchanged, so the update size is zero and a
        well-designed client syncs it as a metadata-only operation."""
        if new_path in self._files:
            raise FileExistsError(f"{new_path} already exists")
        content = self._files.pop(old_path, None)
        if content is None:
            raise MissingFileError(old_path)
        self._files[new_path] = content
        event = FileEvent(self.sim.now, new_path, FileOp.RENAME,
                          content.size, 0, old_path=old_path)
        self.events.append(event)
        for listener in self._listeners:
            listener(event)
        return event


    # -- remote application ---------------------------------------------------
    #
    # A download arriving from the cloud mutates the folder too, but it is
    # not a *local* update: it must neither wake the sync engine (it would
    # echo straight back up the wire) nor count into the data-update-size
    # denominator of TUE.  These applications therefore bypass _emit().

    def apply_remote(self, path: str, content: Content) -> None:
        """Install content delivered by the cloud without emitting an event."""
        self._files[path] = content

    def remove_remote(self, path: str) -> None:
        """Apply a remote deletion silently; missing paths are tolerated
        because a remote delete can race a local one."""
        self._files.pop(path, None)

    def rename_remote(self, old_path: str, new_path: str) -> None:
        """Apply a remote rename silently (content unchanged)."""
        content = self._files.pop(old_path, None)
        if content is None:
            raise MissingFileError(old_path)
        self._files[new_path] = content


def _altered_bytes(old: Content, new: Content) -> int:
    """Size of the altered region — the paper's *data update size*.

    For an in-place overwrite this is the number of differing bytes; growth
    or shrinkage counts the size difference as altered too.
    """
    common = min(old.size, new.size)
    if common == 0:
        differing = 0
    else:
        left = np.frombuffer(old.data, dtype=np.uint8, count=common)
        right = np.frombuffer(new.data, dtype=np.uint8, count=common)
        differing = int(np.count_nonzero(left != right))
    return differing + abs(old.size - new.size)
