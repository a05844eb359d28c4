"""Service profiles: the six services × three access methods as design choices.

The paper's central abstraction (§2) is that a service's network behaviour is
determined by a small vector of *design choices*: data sync granularity,
data compression level, data deduplication granularity, sync deferment, and
batched-data-sync support — plus a protocol overhead envelope.  This module
encodes each measured service/access-method combination as such a vector,
calibrated against the paper's Tables 6–9 and Figures 4 and 6:

* sync granularity (Fig. 4): Dropbox and SugarSync PC clients use rsync-style
  incremental sync (~10 KB / ~32 KB blocks); everything else — and every
  web/mobile client — is full-file;
* compression (Table 8): only Dropbox and Ubuntu One compress; moderate on PC
  upload, low on mobile upload, high on download; never over the web upload;
* dedup (Table 9): Dropbox 4 MB block same-user; Ubuntu One full-file
  cross-user; nobody else; never for web access;
* sync deferment (Fig. 6): Google Drive ≈ 4.2 s, OneDrive ≈ 10.5 s,
  SugarSync ≈ 6 s, fixed, PC only;
* BDS (Table 7): Dropbox and Ubuntu One PC fully batch (one commit for the
  whole batch, with no file-size cap); their web (and Dropbox mobile)
  paths batch partially; the rest not at all;
* fixed and per-byte overheads (Table 6) per service and access method.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

from ..cloud import DedupConfig
from ..compress import (
    CompressionPolicy,
    HIGH_COMPRESSION,
    LOW_COMPRESSION,
    MODERATE_COMPRESSION,
    NO_COMPRESSION,
)
from ..simnet import ProtocolCosts
from ..units import KB, MB
from .defer import DeferPolicy, FixedDefer, NoDefer, ScanIntervalDefer


class AccessMethod(enum.Enum):
    """The paper's three service access methods."""

    PC = "pc"
    WEB = "web"
    MOBILE = "mobile"


class BdsMode(enum.Enum):
    """Batched-data-sync support levels observed in Experiment 1'."""

    NONE = "none"        # every file pays the full per-sync overhead
    PARTIAL = "partial"  # shared connection, reduced per-file overhead
    FULL = "full"        # one transaction for the whole batch


@dataclass(frozen=True)
class BdsSupport:
    """How a service batches the files of one sync transaction (Table 7).

    Full BDS ships the batch as one packed payload with a per-file
    manifest — one commit exchange whose per-file ledger the
    ``bundle-conservation`` audit balances.  Partial BDS shares a
    connection across per-file commits, each a cheap mini-request.
    """

    mode: BdsMode = BdsMode.NONE
    #: Per-file overhead bytes inside a batch (manifest entry or mini-request).
    per_file_bytes: int = 150
    #: Full BDS only: files larger than this sync individually.  None for
    #: every measured service; the packed-shard what-if profile caps it to
    #: target the 77%-small-file band the paper measures.
    max_file_bytes: Optional[int] = None


@dataclass(frozen=True)
class OverheadProfile:
    """Fixed and proportional protocol overhead, fitted to Table 6."""

    meta_up: int            # metadata bytes on the commit request
    meta_down: int          # metadata bytes on the commit response
    notify_down: int = 300  # post-commit push notification
    requests_per_sync: int = 1  # HTTP exchanges per sync transaction
    per_byte_factor: float = 0.0  # extra overhead per payload byte
    connection_per_sync: bool = False  # fresh TLS connection per file sync
    #: When many files sync in one transaction (Experiment 1'): does the
    #: client keep one connection across them...
    batch_connection_reuse: bool = False
    #: ...and what fraction of the per-file metadata survives amortisation?
    batch_meta_fraction: float = 1.0


@dataclass(frozen=True)
class ServiceProfile:
    """Complete design-choice vector of one service × access method."""

    service: str
    access: AccessMethod
    #: None ⇒ full-file sync; an int ⇒ rsync IDS with this block size.
    delta_block: Optional[int]
    upload_compression: CompressionPolicy
    download_compression: CompressionPolicy
    dedup: DedupConfig
    #: None ⇒ whole-file REST objects; int ⇒ chunked storage (Dropbox: 4 MB).
    storage_chunk_size: Optional[int]
    overhead: OverheadProfile
    bds: BdsSupport = BdsSupport()
    protocol: ProtocolCosts = field(default_factory=ProtocolCosts)
    #: Factory so every client gets fresh defer state.
    defer_factory: Callable[[], DeferPolicy] = NoDefer
    #: Server storage backend: "chunk" (one REST object per chunk) or
    #: "packshard" (packed shard containers, see repro.cloud.packshard).
    storage_backend: str = "chunk"

    @property
    def name(self) -> str:
        return f"{self.service}/{self.access.value}"

    @property
    def uses_ids(self) -> bool:
        return self.delta_block is not None

    def make_defer(self) -> DeferPolicy:
        return self.defer_factory()

    def with_defer(self, factory: Callable[[], DeferPolicy]) -> "ServiceProfile":
        """Swap the defer policy (used by the ASD what-if analyses, §6.1)."""
        return replace(self, defer_factory=factory)


#: Paper-measured fixed sync deferments (Fig. 6).
GOOGLE_DRIVE_DEFER = 4.2
ONEDRIVE_DEFER = 10.5
SUGARSYNC_DEFER = 6.0

#: Dropbox's client debounces rapid local changes for under a second before
#: committing (observable as single-transaction batch creations, Table 7).
DROPBOX_DEBOUNCE = 0.8

#: Folder-scan cadences for the clients that rescan on a timer (fitted to
#: the Figure 6 (c)/(e) TUE magnitudes at X = 1).
BOX_SCAN_INTERVAL = 7.0
UBUNTU_ONE_SCAN_INTERVAL = 3.5

#: Estimated IDS granularities (§4.3: Dropbox ≈ 10 KB; SugarSync coarser).
DROPBOX_DELTA_BLOCK = 10 * KB
SUGARSYNC_DELTA_BLOCK = 128 * KB

#: Dropbox's observed dedup/storage block size (Table 9).
DROPBOX_CHUNK = 4 * MB

#: Ubuntu One's custom storage protocol rides a plain persistent TCP stream.
_U1_PC_PROTOCOL = ProtocolCosts(use_tls=False, handshake_rtts=1.0,
                                tls_handshake_up=0, tls_handshake_down=0,
                                request_header=260, response_header=180,
                                idle_timeout=300.0)

_GD = "GoogleDrive"
_OD = "OneDrive"
_DB = "Dropbox"
_BOX = "Box"
_U1 = "UbuntuOne"
_SS = "SugarSync"

SERVICES: Tuple[str, ...] = (_GD, _OD, _DB, _BOX, _U1, _SS)


def _profile(**kwargs) -> ServiceProfile:
    return ServiceProfile(**kwargs)


_PROFILES = {}


def _register(profile: ServiceProfile) -> None:
    _PROFILES[(profile.service, profile.access)] = profile


# --- PC clients (Table 6 "PC client" column; Figs. 4a, 6) -------------------

_register(_profile(
    service=_GD, access=AccessMethod.PC, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=1800, meta_down=700, notify_down=300,
                             requests_per_sync=1, per_byte_factor=0.06,
                             connection_per_sync=True),
    defer_factory=lambda: FixedDefer(GOOGLE_DRIVE_DEFER),
))
_register(_profile(
    service=_OD, access=AccessMethod.PC, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=8000, meta_down=3500, notify_down=400,
                             requests_per_sync=2, per_byte_factor=0.08,
                             connection_per_sync=True,
                             batch_connection_reuse=True),
    defer_factory=lambda: FixedDefer(ONEDRIVE_DEFER),
))
_register(_profile(
    service=_DB, access=AccessMethod.PC, delta_block=DROPBOX_DELTA_BLOCK,
    upload_compression=MODERATE_COMPRESSION, download_compression=HIGH_COMPRESSION,
    dedup=DedupConfig.block(DROPBOX_CHUNK), storage_chunk_size=DROPBOX_CHUNK,
    overhead=OverheadProfile(meta_up=18000, meta_down=12000, notify_down=500,
                             requests_per_sync=3, per_byte_factor=0.19),
    bds=BdsSupport(BdsMode.FULL, per_file_bytes=150),
    defer_factory=lambda: FixedDefer(DROPBOX_DEBOUNCE),
))
_register(_profile(
    service=_BOX, access=AccessMethod.PC, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=30000, meta_down=16000, notify_down=400,
                             requests_per_sync=4, per_byte_factor=0.0,
                             connection_per_sync=True,
                             batch_connection_reuse=True,
                             batch_meta_fraction=0.22),
    defer_factory=lambda: ScanIntervalDefer(BOX_SCAN_INTERVAL),
))
_register(_profile(
    service=_U1, access=AccessMethod.PC, delta_block=None,
    upload_compression=MODERATE_COMPRESSION, download_compression=HIGH_COMPRESSION,
    dedup=DedupConfig.full_file(cross_user=True), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=500, meta_down=300, notify_down=150,
                             requests_per_sync=1, per_byte_factor=0.06),
    bds=BdsSupport(BdsMode.FULL, per_file_bytes=120),
    protocol=_U1_PC_PROTOCOL,
    defer_factory=lambda: ScanIntervalDefer(UBUNTU_ONE_SCAN_INTERVAL),
))
_register(_profile(
    service=_SS, access=AccessMethod.PC, delta_block=SUGARSYNC_DELTA_BLOCK,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=1800, meta_down=700, notify_down=300,
                             requests_per_sync=1, per_byte_factor=0.08,
                             connection_per_sync=True),
    defer_factory=lambda: FixedDefer(SUGARSYNC_DEFER),
))

# --- Web browsers (Table 6 "Web-based"; full-file, no dedup, no defer,
#     no upload compression — JavaScript cannot reach rsync/gzip, §4.3) -----

_register(_profile(
    service=_GD, access=AccessMethod.WEB, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=200, meta_down=100, notify_down=0,
                             requests_per_sync=1, per_byte_factor=0.0,
                             connection_per_sync=True),
))
_register(_profile(
    service=_OD, access=AccessMethod.WEB, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=15000, meta_down=6000, notify_down=0,
                             requests_per_sync=2, per_byte_factor=0.11,
                             connection_per_sync=True,
                             batch_connection_reuse=True,
                             batch_meta_fraction=0.85),
))
_register(_profile(
    service=_DB, access=AccessMethod.WEB, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=HIGH_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=DROPBOX_CHUNK,
    overhead=OverheadProfile(meta_up=16000, meta_down=8000, notify_down=0,
                             requests_per_sync=2, per_byte_factor=0.0,
                             connection_per_sync=True),
    bds=BdsSupport(BdsMode.PARTIAL, per_file_bytes=4800),
))
_register(_profile(
    service=_BOX, access=AccessMethod.WEB, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=30000, meta_down=16000, notify_down=0,
                             requests_per_sync=4, per_byte_factor=0.0,
                             connection_per_sync=True,
                             batch_connection_reuse=True,
                             batch_meta_fraction=0.55),
))
_register(_profile(
    service=_U1, access=AccessMethod.WEB, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=HIGH_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=20000, meta_down=10000, notify_down=0,
                             requests_per_sync=2, per_byte_factor=0.07,
                             connection_per_sync=True),
    bds=BdsSupport(BdsMode.PARTIAL, per_file_bytes=3900),
))
_register(_profile(
    service=_SS, access=AccessMethod.WEB, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=17000, meta_down=7000, notify_down=0,
                             requests_per_sync=2, per_byte_factor=0.01,
                             connection_per_sync=True),
))

# --- Mobile apps (Table 6 "Mobile app"; full-file, dedup as PC (Table 9),
#     low-level upload compression where supported) -------------------------

_register(_profile(
    service=_GD, access=AccessMethod.MOBILE, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=18000, meta_down=7000, notify_down=300,
                             requests_per_sync=2, per_byte_factor=0.04,
                             connection_per_sync=True,
                             batch_connection_reuse=True),
))
_register(_profile(
    service=_OD, access=AccessMethod.MOBILE, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=15000, meta_down=7000, notify_down=300,
                             requests_per_sync=2, per_byte_factor=0.03,
                             connection_per_sync=True,
                             batch_connection_reuse=True,
                             batch_meta_fraction=0.60),
))
_register(_profile(
    service=_DB, access=AccessMethod.MOBILE, delta_block=None,
    upload_compression=LOW_COMPRESSION, download_compression=HIGH_COMPRESSION,
    dedup=DedupConfig.block(DROPBOX_CHUNK), storage_chunk_size=DROPBOX_CHUNK,
    overhead=OverheadProfile(meta_up=7000, meta_down=3500, notify_down=400,
                             requests_per_sync=2, per_byte_factor=0.04),
    bds=BdsSupport(BdsMode.PARTIAL, per_file_bytes=2400),
))
_register(_profile(
    service=_BOX, access=AccessMethod.MOBILE, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=6000, meta_down=3000, notify_down=300,
                             requests_per_sync=2, per_byte_factor=0.04,
                             connection_per_sync=True),
))
_register(_profile(
    service=_U1, access=AccessMethod.MOBILE, delta_block=None,
    upload_compression=LOW_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.full_file(cross_user=True), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=9000, meta_down=4000, notify_down=300,
                             requests_per_sync=2, per_byte_factor=0.05,
                             connection_per_sync=True),
))
_register(_profile(
    service=_SS, access=AccessMethod.MOBILE, delta_block=None,
    upload_compression=NO_COMPRESSION, download_compression=NO_COMPRESSION,
    dedup=DedupConfig.none(), storage_chunk_size=None,
    overhead=OverheadProfile(meta_up=17000, meta_down=7000, notify_down=300,
                             requests_per_sync=2, per_byte_factor=0.05,
                             connection_per_sync=True,
                             batch_connection_reuse=True,
                             batch_meta_fraction=0.45),
))


def service_profile(service: str, access: AccessMethod = AccessMethod.PC) -> ServiceProfile:
    """Look up the design-choice vector for a service × access method.

    ``service`` accepts the canonical names (``"Dropbox"``) case-insensitively.
    """
    if isinstance(access, str):
        access = AccessMethod(access.lower())
    for (name, method), profile in _PROFILES.items():
        if name.lower() == service.lower() and method is access:
            return profile
    raise KeyError(f"no profile for {service!r} via {access}")


def all_profiles(access: Optional[AccessMethod] = None):
    """All registered profiles, optionally filtered by access method."""
    return [
        profile for (name, method), profile in sorted(
            _PROFILES.items(), key=lambda kv: (SERVICES.index(kv[0][0]), kv[0][1].value))
        if access is None or method is access
    ]
