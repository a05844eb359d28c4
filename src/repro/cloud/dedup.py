"""Deduplication index: granularity × scope, as Table 9 classifies services.

The paper finds three configurations in the wild:

* no deduplication at all (Google Drive, OneDrive, Box, SugarSync);
* full-file dedup, same-user *and* cross-user (Ubuntu One);
* 4 MB block dedup same-user, none cross-user (Dropbox).

:class:`DedupConfig` expresses any point in that space; :class:`DedupIndex`
maps fingerprints to stored chunk keys within the configured scope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class DedupGranularity(enum.Enum):
    NONE = "none"
    FULL_FILE = "full-file"
    BLOCK = "block"


class DedupScope(enum.Enum):
    SAME_USER = "same-user"
    CROSS_USER = "cross-user"


@dataclass(frozen=True)
class DedupConfig:
    """A service's deduplication design choice."""

    granularity: DedupGranularity = DedupGranularity.NONE
    scope: DedupScope = DedupScope.SAME_USER
    block_size: int = 4 * 1024 * 1024  # Dropbox's observed 4 MB

    def __post_init__(self) -> None:
        if self.granularity is DedupGranularity.BLOCK and self.block_size <= 0:
            raise ValueError("block dedup requires a positive block size")

    @property
    def enabled(self) -> bool:
        return self.granularity is not DedupGranularity.NONE

    @property
    def unit_size(self) -> Optional[int]:
        """Negotiation unit in bytes, or None for whole files."""
        if self.granularity is DedupGranularity.BLOCK:
            return self.block_size
        return None

    @staticmethod
    def none() -> "DedupConfig":
        return DedupConfig(DedupGranularity.NONE)

    @staticmethod
    def full_file(cross_user: bool = False) -> "DedupConfig":
        scope = DedupScope.CROSS_USER if cross_user else DedupScope.SAME_USER
        return DedupConfig(DedupGranularity.FULL_FILE, scope)

    @staticmethod
    def block(block_size: int, cross_user: bool = False) -> "DedupConfig":
        scope = DedupScope.CROSS_USER if cross_user else DedupScope.SAME_USER
        return DedupConfig(DedupGranularity.BLOCK, scope, block_size)


class DedupIndex:
    """Fingerprint → stored-chunk-key index honouring a :class:`DedupConfig`.

    Keys are partitioned per user for SAME_USER scope and shared for
    CROSS_USER scope.  With dedup disabled every lookup misses, so each
    upload stores fresh bytes — reproducing the "no dedup" services.
    """

    def __init__(self, config: DedupConfig):
        self.config = config
        self._index: Dict[Tuple[str, str], str] = {}
        self.hits = 0
        self.misses = 0

    def _key(self, user: str, digest: str) -> Tuple[str, str]:
        if self.config.scope is DedupScope.CROSS_USER:
            return ("*", digest)
        return (user, digest)

    def lookup(self, user: str, digest: str) -> Optional[str]:
        """Stored chunk key for ``digest`` within scope, or None."""
        if not self.config.enabled:
            self.misses += 1
            return None
        found = self._index.get(self._key(user, digest))
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def register(self, user: str, digest: str, chunk_key: str) -> None:
        """Record that ``digest`` is now stored at ``chunk_key``."""
        if self.config.enabled:
            self._index[self._key(user, digest)] = chunk_key

    def __len__(self) -> int:
        return len(self._index)
