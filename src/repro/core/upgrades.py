"""Provider guidance, quantified: retrofit each Table 5 implication.

The paper's implications column tells providers what to build: batched data
sync (§4.1), incremental data sync via a REST mid-layer (§4.3), compression
plus full-file dedup (§5.1/5.2), and an adaptive sync defer (§6.1).  This
module applies any of those upgrades to any service profile and measures
the saving on the workload class the mechanism targets — turning the
paper's advice into a costed engineering backlog per provider.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

from ..client import (
    AccessMethod,
    AdaptiveSyncDefer,
    ServiceProfile,
    service_profile,
)
from ..client.profiles import BdsMode, BdsSupport
from ..cloud import DedupConfig
from ..compress import HIGH_COMPRESSION, MODERATE_COMPRESSION
from ..content import random_content, text_content
from ..units import KB, MB
from .cell import Cell, Recipe, measure

#: Upgrade name → profile transformer (the paper's section it comes from).
UPGRADES: Dict[str, Callable[[ServiceProfile], ServiceProfile]] = {
    # §4.1: combine small files into batched transactions.
    "bds": lambda p: replace(
        p, bds=BdsSupport(BdsMode.FULL, per_file_bytes=150)),
    # §4.3: rsync mid-layer turning MODIFY into GET+PUT+DELETE.
    "ids": lambda p: replace(p, delta_block=10 * KB),
    # §5.1: moderate client compression, high on the cloud side.
    "compression": lambda p: replace(
        p, upload_compression=MODERATE_COMPRESSION,
        download_compression=HIGH_COMPRESSION),
    # §5.2: full-file dedup — sufficient, and compatible with compression.
    "full-file-dedup": lambda p: replace(
        p, dedup=DedupConfig.full_file(cross_user=True)),
    # §6.1: adaptive sync defer (Eq. 2) instead of any fixed deferment.
    "asd": lambda p: p.with_defer(lambda: AdaptiveSyncDefer()),
}


def apply_upgrade(profile: ServiceProfile, upgrade: str) -> ServiceProfile:
    """Return a copy of ``profile`` with one named upgrade applied."""
    try:
        transform = UPGRADES[upgrade]
    except KeyError:
        raise KeyError(f"unknown upgrade {upgrade!r}; "
                       f"choose from {sorted(UPGRADES)}") from None
    return transform(profile)


def apply_all_upgrades(profile: ServiceProfile) -> ServiceProfile:
    """All of the paper's recommendations stacked (the §7 end state)."""
    for upgrade in UPGRADES:
        profile = apply_upgrade(profile, upgrade)
    return profile


# ---------------------------------------------------------------------------
# Targeted workloads (each a cell recipe exercising exactly one mechanism)
# ---------------------------------------------------------------------------

def _workload_bds(session, mark) -> None:
    for index in range(50):
        session.create_file(f"w/{index}.bin", random_content(1 * KB, seed=index))


def _workload_ids(session, mark) -> None:
    session.create_file("doc.bin", random_content(1 * MB, seed=1))
    mark()
    for index in range(3):
        session.modify_random_byte("doc.bin", seed=index)
        session.run_until_idle()


def _workload_compression(session, mark) -> None:
    session.create_file("big.txt", text_content(2 * MB, seed=2))


def _workload_dedup(session, mark) -> None:
    content = random_content(512 * KB, seed=3)
    session.create_file("a.bin", content)
    session.run_until_idle()
    session.create_file("b.bin", content)


def _workload_asd(session, mark) -> None:
    session.create_file("log.bin", random_content(0))
    mark()
    for index in range(24):
        session.append("log.bin", random_content(6 * KB, seed=index))
        session.advance(12.0)    # past every fixed deferment (max: 10.5 s)


WORKLOADS: Dict[str, Recipe] = {
    "bds": _workload_bds,
    "ids": _workload_ids,
    "compression": _workload_compression,
    "full-file-dedup": _workload_dedup,
    "asd": _workload_asd,
}


@dataclass(frozen=True)
class UpgradeResult:
    """Traffic before/after one upgrade on its target workload."""

    service: str
    upgrade: str
    traffic_before: int
    traffic_after: int

    @property
    def saving(self) -> float:
        if self.traffic_before <= 0:
            return 0.0
        return 1.0 - self.traffic_after / self.traffic_before


def quantify_upgrade(service: str, upgrade: str,
                     access: AccessMethod = AccessMethod.PC) -> UpgradeResult:
    """Measure one upgrade's saving for one service on its target workload."""
    base = service_profile(service, access)
    workload = WORKLOADS[upgrade]
    return UpgradeResult(
        service=service,
        upgrade=upgrade,
        traffic_before=measure(Cell(base, workload)).traffic,
        traffic_after=measure(Cell(apply_upgrade(base, upgrade),
                                   workload)).traffic,
    )


def quantify_all(services: Sequence[str]) -> List[UpgradeResult]:
    """Full service × upgrade savings matrix, PC clients."""
    return [
        quantify_upgrade(service, upgrade)
        for service in services
        for upgrade in UPGRADES
    ]
