"""Simulated cloud storage back end (the paper's RESTful substrate)."""

from .accounts import Account, AccountRegistry
from .dedup import DedupConfig, DedupGranularity, DedupIndex, DedupScope
from .errors import (
    AlreadyExists,
    CloudError,
    IntegrityError,
    NotFound,
    QuotaExceeded,
    RateLimited,
    ServiceUnavailable,
    TransientError,
    annotate_manifest_error,
)
from .metadata import FileEntry, FileVersion, MetadataServer
from .midlayer import ChunkStore
from .object_store import LIST_PAGE_SIZE, ObjectRecord, ObjectStore, \
    RestOpCounters
from .packshard import PackShardStats, PackShardStore
from .server import CloudServer, ServerStats

__all__ = [
    "Account",
    "AccountRegistry",
    "AlreadyExists",
    "ChunkStore",
    "CloudError",
    "CloudServer",
    "DedupConfig",
    "DedupGranularity",
    "DedupIndex",
    "DedupScope",
    "FileEntry",
    "FileVersion",
    "IntegrityError",
    "LIST_PAGE_SIZE",
    "MetadataServer",
    "NotFound",
    "ObjectRecord",
    "ObjectStore",
    "PackShardStats",
    "PackShardStore",
    "QuotaExceeded",
    "RateLimited",
    "RestOpCounters",
    "ServerStats",
    "ServiceUnavailable",
    "TransientError",
    "annotate_manifest_error",
]
