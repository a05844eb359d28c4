"""The reprolint rule registry: one list, run in one pass over the tree.

Families (see DESIGN.md, "Static invariants and reprolint", for the
evidence each rule has earned its place on):

* determinism — REP001 wall clocks, REP002 unseeded RNGs, REP003
  unordered iteration in accounting code, REP004 ambient entropy,
  REP005 salted ``hash()``, REP006 environment reads;
* byte-conservation — REP010 float arithmetic feeding byte counters,
  REP011 meter mutation outside the Channel path, REP012 ``max(x, 1)``
  denominators masking zero updates;
* observability — REP020 meter mutation without a span emit, REP021
  swallowed failure evidence;
* concurrency/fork-safety — REP030 fork primitives outside the
  ``_fork_lock`` discipline, REP032 non-daemon spawns, REP034
  process-global multiprocessing configuration;
* contract conformance, checked over every ``repro`` module of the run
  at once — REP053 ``*Stats`` fields nothing writes.  (An orphan
  conservation invariant needs no rule: ``repro.obs.INVARIANTS`` rows
  run only through ``verify``/``audit``, and
  ``tests/test_invariant_coverage.py`` drives every row.)
"""

from __future__ import annotations

from typing import Dict, List

from ..engine import Rule
from .concurrency import (ForkDisciplineRule, GlobalStartMethodRule,
                          NonDaemonSpawnRule)
from .conservation import (FloatByteArithmeticRule, MaskedZeroDenominatorRule,
                           MeterMutationRule)
from .contracts import StatsMirrorRule
from .determinism import (AmbientEntropyRule, AmbientEnvironmentRule,
                          SaltedHashRule, UnorderedIterationRule,
                          UnseededRngRule, WallClockRule)
from .observability import SwallowedFailureRule, UnpairedEmitRule

ALL_RULES: List[Rule] = [
    WallClockRule(),
    UnseededRngRule(),
    UnorderedIterationRule(),
    AmbientEntropyRule(),
    SaltedHashRule(),
    AmbientEnvironmentRule(),
    FloatByteArithmeticRule(),
    MeterMutationRule(),
    MaskedZeroDenominatorRule(),
    UnpairedEmitRule(),
    SwallowedFailureRule(),
    ForkDisciplineRule(),
    NonDaemonSpawnRule(),
    GlobalStartMethodRule(),
    StatsMirrorRule(),
]

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID"]
