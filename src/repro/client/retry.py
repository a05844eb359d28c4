"""Client-side recovery: exponential backoff, retry budgets, resume semantics.

Real sync clients do not abandon an upload because one request failed — they
back off and retry, and *how* they retry decides how much traffic a failure
costs.  A client that can resume a chunked transfer re-sends only the failed
chunk; a client that restarts from zero re-sends everything delivered so far,
and every one of those repeated bytes inflates TUE without moving any new
data.  That failure-induced term is exactly the network-level inefficiency
the paper's TUE metric is built to expose.

:class:`RetryPolicy` is the immutable configuration (a design choice, like
the profile vectors); :class:`RetryState` is the per-client mutable side —
a seeded RNG for jitter and the per-transaction backoff budget — so that
identical seeds always produce identical backoff sequences and experiments
stay exactly repeatable.  The RNG is built on the first backoff, so a
client that never retries holds no Mersenne-Twister state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


class RetriesExhausted(RuntimeError):
    """The retry policy gave up on a sync transaction.

    Raised after ``max_attempts`` consecutive failures on one request or
    once the transaction's backoff budget is spent.  The client surfaces it
    exactly like a quota failure: the sync is abandoned and recorded.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery design choices of one client.

    ``resumable`` is the headline knob: ``True`` resumes a chunked transfer
    at the failed chunk, ``False`` restarts the file from byte zero
    (re-sending already-delivered chunks as pure waste).
    """

    #: Consecutive failed attempts tolerated for one request before giving up.
    max_attempts: int = 6
    #: Seed for the jitter RNG — same seed, same backoff sequence.
    seed: int = 0
    #: Resume chunked transfers at the failed chunk (True) or restart the
    #: whole file from zero (False).
    resumable: bool = True
    #: Total backoff seconds allowed per sync transaction before giving up.
    backoff_budget: float = 300.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_budget <= 0:
            raise ValueError("backoff_budget must be positive")

    def make_state(self) -> "RetryState":
        return RetryState(self)


class RetryState:
    """Per-client mutable retry machinery (seeded jitter + budget)."""

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        self._rng: Optional[random.Random] = None
        #: Backoff seconds spent in the current sync transaction.
        self.spent = 0.0
        #: Lifetime counters, surfaced through ClientStats as well.
        self.total_retries = 0

    def begin_transaction(self) -> None:
        """Reset the per-transaction backoff budget (not the RNG)."""
        self.spent = 0.0

    def budget_exhausted(self) -> bool:
        return self.spent >= self.policy.backoff_budget

    def backoff(self, attempt: int) -> float:
        """Jittered exponential delay before retry number ``attempt``
        (1-based): 0.5 s doubling per attempt up to 30 s, each delay then
        scaled by a seeded uniform 1 ± 10 %."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        if self._rng is None:
            self._rng = random.Random(self.policy.seed)
        raw = min(0.5 * 2.0 ** (attempt - 1), 30.0)
        raw *= 1.0 + 0.1 * (2.0 * self._rng.random() - 1.0)
        self.spent += raw
        self.total_retries += 1
        return raw
