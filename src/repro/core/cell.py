"""One measurement cell: the paper's micro experiments as data.

Experiments 1–7′ and ASD (§4–§6) are one measurement repeated: build one
client rig, apply a file operation, and read the meter.  A :class:`Cell`
states that measurement as (profile, recipe, link, machine), and
:func:`measure` takes it and returns a :class:`Reading`.  Each registry
entry declares its grid of cells and formats the readings.

A recipe is a callable ``(session, mark) -> None``.  ``mark()`` drains the
session to idle, keeps the traffic of the phase it closes and zeroes the
meter, so the reading covers only what follows (the deletion, the edit, the
download).  The constructors below keep each experiment's paths and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..client import (AccessMethod, M1, MachineProfile, ServiceProfile,
                      SyncSession, service_profile)
from ..content import random_content
from ..simnet import LinkSpec
from ..units import KB, MB

#: ``recipe(session, mark)`` applies one experiment's file operations.
Recipe = Callable[[SyncSession, Callable[[], None]], None]


@dataclass(frozen=True)
class Reading:
    """What the meter says after one cell's recipe has synced."""

    traffic: int
    payload: int
    update_bytes: int
    sync_transactions: int
    #: The traffic of each phase a ``mark()`` closed, in order.
    marked: Tuple[int, ...] = ()

    @property
    def overhead(self) -> int:
        return self.traffic - self.payload

    @property
    def tue(self) -> float:
        """TUE (Eq. 1): traffic over the data update since the last mark.

        With no data update to amortise against (a zero-byte creation) the
        TUE is infinite by convention, not the traffic itself.
        """
        if self.update_bytes == 0:
            return float("inf")
        return self.traffic / self.update_bytes


@dataclass(frozen=True)
class Cell:
    """One measurement: a recipe run by one client; ``link=None`` is MN."""

    profile: ServiceProfile
    recipe: Recipe
    link: Optional[LinkSpec] = None
    machine: MachineProfile = M1


def cell(service: str, recipe: Recipe,
         access: AccessMethod = AccessMethod.PC, **kwargs) -> Cell:
    """A :class:`Cell` for a stock service profile."""
    return Cell(service_profile(service, access), recipe, **kwargs)


def measure(cell: Cell) -> Reading:
    """Run ``cell`` on a fresh rig, drain it to idle and read the meter."""
    session = SyncSession(cell.profile, machine=cell.machine,
                          link_spec=cell.link)
    marked: List[int] = []

    def mark() -> None:
        session.run_until_idle()
        marked.append(session.total_traffic)
        session.reset_meter()

    cell.recipe(session, mark)
    session.run_until_idle()
    return Reading(traffic=session.total_traffic,
                   payload=session.meter.payload_bytes,
                   update_bytes=session.data_update_bytes,
                   sync_transactions=session.client.stats.sync_transactions,
                   marked=tuple(marked))


# ---------------------------------------------------------------------------
# Recipes, one per experiment
# ---------------------------------------------------------------------------

def create(size: int, seed: int = 1) -> Recipe:
    """Experiment 1 (Table 6, Figure 3): one incompressible creation."""
    def recipe(session, mark):
        session.create_random_file("exp1.bin", size, seed=seed)
    return recipe


def batch(count: int = 100, size: int = 1 * KB) -> Recipe:
    """Experiment 1′ (Table 7): ``count`` distinct files created at once."""
    if count <= 0 or size <= 0:
        raise ValueError("count and size must be positive")

    def recipe(session, mark):
        for index in range(count):
            session.create_random_file(f"batch/file{index:03d}.bin", size,
                                       seed=1000 + index)
    return recipe


def delete(size: int) -> Recipe:
    """Experiment 2: delete a fully synced file; only the deletion counts."""
    def recipe(session, mark):
        session.create_random_file("doomed.bin", size, seed=2)
        mark()
        session.delete_file("doomed.bin")
    return recipe


def modify(size: int, seed: int = 3) -> Recipe:
    """Experiment 3 (Figure 4): flip one random byte of a synced file."""
    def recipe(session, mark):
        session.create_random_file("exp3.bin", size, seed=seed)
        mark()
        session.modify_random_byte("exp3.bin", seed=seed)
    return recipe


def upload_download(size: int = 10 * MB, seed: int = 4) -> Recipe:
    """Experiment 4 (Table 8): upload a text file, then download it.

    The upload is ``marked[0]``; the download is the reading's traffic.
    """
    def recipe(session, mark):
        session.create_text_file("exp4.txt", size, seed=seed)
        mark()
        session.download("exp4.txt")
    return recipe


def append(x: float, total: int = 1 * MB, append_kb: Optional[float] = None,
           seed: int = 6) -> Recipe:
    """Experiments 6 and 7: append ``x`` KB every ``x`` s up to ``total``.

    ``append_kb`` decouples the appended size from the period for the
    fine-grained probes (e.g. the "1 KB/sec" runs of Experiment 7).
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if total <= 0:
        raise ValueError("total must be positive")
    chunk = int((append_kb if append_kb is not None else x) * KB)
    if chunk <= 0:
        raise ValueError("append size must be at least 1 byte")

    def recipe(session, mark):
        session.create_file("mods.bin", random_content(0))
        mark()
        appended = 0
        index = 0
        while appended < total:
            step = min(chunk, total - appended)
            session.append("mods.bin",
                           random_content(step, seed=seed * 10_000 + index))
            appended += step
            index += 1
            session.advance(x)
    return recipe
