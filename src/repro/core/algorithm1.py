"""Algorithm 1: the Iterative Self-Duplication dedup-granularity probe.

Treats a cloud storage service as a black box (exactly as the paper does):
upload a fresh B₁-byte compressed file f₁, then f₂ = f₁ + f₁, and compare the
two traffic totals:

* Tr₂ ≪ Tr₁ and Tr₂ small        ⇒ B₁ is (a multiple of) the block size B;
* Tr₂ < 2·B₁ but not small       ⇒ B₁ > B — lower the guess;
* Tr₂ ≥ 2·B₁                     ⇒ B₁ < B — raise the guess.

The binary search finishes in O(log B) rounds.  We add one confirmation probe
the paper leaves implicit: when the "small" case fires, upload
f₃ = f₁ + f₁[:B₁/2]; if that is *also* nearly free, B₁ was a multiple of a
smaller true B and the search continues below B₁ (documented in DESIGN.md).

The same machinery answers Table 9's full-file and cross-user questions via
:func:`detect_full_file_dedup` and the two-session variants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..client import AccessMethod, SyncSession, service_profile
from ..cloud import CloudServer
from ..content import Content, random_content
from ..simnet import Simulator, mn_link
from ..units import KB, MB

_PROBE_COUNTER = itertools.count()


@dataclass
class ProbeRound:
    """One iteration of Algorithm 1 (for inspection and tests)."""

    guess: int
    tr1: int
    tr2: int
    verdict: str


@dataclass
class DedupProbeResult:
    """Outcome of the granularity inference."""

    granularity: Optional[int]   # block size in bytes; None ⇒ no block dedup
    full_file: bool              # whole-file dedup observed
    rounds: List[ProbeRound] = field(default_factory=list)

    def label(self) -> str:
        """Table 9 style label."""
        if self.granularity is not None:
            return f"{self.granularity // MB} MB" if self.granularity >= MB \
                else f"{self.granularity // KB} KB"
        if self.full_file:
            return "Full file"
        return "No"


def _measure_upload(session: SyncSession, path: str, content: Content) -> int:
    """Upload one file and return the traffic it generated."""
    before = session.meter.snapshot()
    session.create_file(path, content)
    session.run_until_idle()
    return session.meter.since(before).total


def detect_full_file_dedup(uploader: SyncSession,
                           re_uploader: Optional[SyncSession] = None,
                           size: int = 1 * MB,
                           seed: int = 11,
                           small_threshold: int = 100 * KB) -> bool:
    """Upload a file, then the identical content again (same or other user).

    Returns True when the second upload's traffic is trivial — the paper's
    test for full-file deduplication (§5.2).
    """
    re_uploader = re_uploader or uploader
    probe = next(_PROBE_COUNTER)
    # Fresh content per probe: a repeated seed would dedup against an
    # earlier probe's upload and destroy the full-traffic baseline.
    content = random_content(size, seed=seed * 100_003 + probe)
    first = _measure_upload(uploader, f"ff-dedup/{probe}/a.bin", content)
    second = _measure_upload(re_uploader, f"ff-dedup/{probe}/b.bin", content)
    return second < min(small_threshold, max(first // 4, 1))


def iterative_self_duplication(
    uploader: SyncSession,
    second_uploader: Optional[SyncSession] = None,
    initial_guess: int = 512 * KB,
    max_block: int = 32 * MB,
    small_threshold: int = 150 * KB,
    resolution: int = 64 * KB,
    max_rounds: int = 48,
) -> DedupProbeResult:
    """Run Algorithm 1 against a live session (or a cross-user pair)."""
    second_uploader = second_uploader or uploader
    lower = 0
    upper = math.inf
    guess = int(initial_guess)
    rounds: List[ProbeRound] = []
    full_file = detect_full_file_dedup(uploader, second_uploader)

    for round_index in range(max_rounds):
        seed = 9_000 + round_index
        f1 = random_content(guess, seed=seed)
        probe = next(_PROBE_COUNTER)
        tr1 = _measure_upload(uploader, f"sd/{probe}/f1.bin", f1)
        f2 = f1.concat_self()
        tr2 = _measure_upload(second_uploader, f"sd/{probe}/f2.bin", f2)

        is_small = tr2 < small_threshold and tr2 < max(tr1 // 4, 1)
        if is_small:
            # Confirmation probe: rule out "guess is a multiple of B".
            f3 = f1.append(f1.slice(0, guess // 2))
            tr3 = _measure_upload(second_uploader,
                                  f"sd/{probe}/f3.bin", f3)
            if tr3 < small_threshold:
                rounds.append(ProbeRound(guess, tr1, tr2, "multiple-of-B"))
                upper = guess
                guess = (lower + guess) // 2
            else:
                rounds.append(ProbeRound(guess, tr1, tr2, "found"))
                return DedupProbeResult(granularity=guess, full_file=True,
                                        rounds=rounds)
        elif tr2 < 2 * guess:
            rounds.append(ProbeRound(guess, tr1, tr2, "guess-too-big"))
            upper = guess
            guess = (lower + int(upper)) // 2
        else:
            rounds.append(ProbeRound(guess, tr1, tr2, "guess-too-small"))
            lower = guess
            guess = guess * 2 if math.isinf(upper) else (lower + int(upper)) // 2

        if math.isinf(upper) and guess > max_block:
            return DedupProbeResult(granularity=None, full_file=full_file,
                                    rounds=rounds)
        if not math.isinf(upper) and int(upper) - lower <= resolution:
            # Bracketed without an exact hit: report the bracket midpoint.
            mid = (lower + int(upper)) // 2
            return DedupProbeResult(granularity=mid if mid > 0 else None,
                                    full_file=full_file, rounds=rounds)
        if guess <= 0:
            return DedupProbeResult(granularity=None, full_file=full_file,
                                    rounds=rounds)
    return DedupProbeResult(granularity=None, full_file=full_file, rounds=rounds)


# ---------------------------------------------------------------------------
# Experiment 5 / Table 9 driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DedupFinding:
    """One row of Table 9."""

    service: str
    same_user: str
    cross_user: str


def _paired_sessions(service: str, access: AccessMethod) -> Tuple[SyncSession, SyncSession]:
    """Two users of the same service sharing one cloud and one clock."""
    profile = service_profile(service, access)
    sim = Simulator()
    server = CloudServer(dedup=profile.dedup,
                         storage_chunk_size=profile.storage_chunk_size,
                         name=profile.name)
    alice = SyncSession(profile, sim=sim, server=server, user="alice",
                        link_spec=mn_link())
    bob = SyncSession(profile, sim=sim, server=server, user="bob",
                      link_spec=mn_link())
    return alice, bob


def experiment5_dedup(
    services=("GoogleDrive", "OneDrive", "Dropbox", "Box", "UbuntuOne", "SugarSync"),
    max_block: int = 16 * MB,
) -> List[DedupFinding]:
    """Reproduce Table 9 by black-box probing each simulated service's PC
    client."""
    findings = []
    for service in services:
        same_alice, same_bob = _paired_sessions(service, AccessMethod.PC)
        same = iterative_self_duplication(same_alice, max_block=max_block)

        # The paper's cross-user procedure (§5.2): first confirm cross-user
        # *full-file* dedup by re-uploading an identical file from a second
        # account; only then is Algorithm 1 worth re-running across users.
        cross_alice, cross_bob = _paired_sessions(service, AccessMethod.PC)
        if detect_full_file_dedup(cross_alice, cross_bob):
            cross = iterative_self_duplication(cross_alice, cross_bob,
                                               max_block=max_block)
            cross_label = cross.label()
        else:
            cross_label = "No"
        findings.append(DedupFinding(
            service=service,
            same_user=same.label(),
            cross_user=cross_label,
        ))
    return findings
