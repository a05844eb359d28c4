"""The reprolint rule registry.

Per-file families (see DESIGN.md, "Static invariants and reprolint"):

* determinism — REP001 wall clocks, REP002 unseeded RNGs, REP003
  unordered iteration in accounting code, REP004 ambient entropy,
  REP005 salted ``hash()``, REP006 environment reads;
* byte-conservation — REP010 float arithmetic feeding byte counters,
  REP011 meter mutation outside the Channel path, REP012 ``max(x, 1)``
  denominators masking zero updates;
* observability — REP020 meter mutation without a span emit, REP021
  swallowed failure evidence, REP022 unknown span kinds.

Whole-program families (run by ``lint_project`` over a
:class:`~repro.lint.project.ProjectContext`):

* concurrency/fork-safety — REP030 fork primitives outside the
  ``_fork_lock`` discipline, REP032 non-daemon spawns, REP033 locks
  held across forking call chains, REP034 process-global
  multiprocessing configuration;
* interprocedural determinism taint — REP040 nondeterminism reaching
  byte accounting, REP041 deterministic code consuming tainted helpers
  across the fence, REP042 import-time entropy constants, REP043
  tainted span stamps / RNG seeds;
* contract conformance — REP050 orphan ``verify_*`` invariants, REP051
  cross-module span-kind resolution, REP053 ``*Stats`` mirror
  completeness.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..engine import Rule
from ..project import ProjectRule
from .concurrency import (ForkDisciplineRule, GlobalStartMethodRule,
                          LockAcrossForkRule, NonDaemonSpawnRule)
from .conservation import (FloatByteArithmeticRule, MaskedZeroDenominatorRule,
                           MeterMutationRule)
from .contracts import (SpanKindResolutionRule, StatsMirrorRule,
                        UnregisteredVerifyRule)
from .determinism import (AmbientEntropyRule, AmbientEnvironmentRule,
                          SaltedHashRule, UnorderedIterationRule,
                          UnseededRngRule, WallClockRule)
from .observability import (SwallowedFailureRule, UnknownSpanKindRule,
                            UnpairedEmitRule)
from .taint import (CrossModuleLaunderRule, TaintedAccountingRule,
                    TaintedConstantRule, TaintedStampOrSeedRule)

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
    UnknownSpanKindRule(),
]

PROJECT_RULES: List[ProjectRule] = [
    ForkDisciplineRule(),
    NonDaemonSpawnRule(),
    LockAcrossForkRule(),
    GlobalStartMethodRule(),
    TaintedAccountingRule(),
    CrossModuleLaunderRule(),
    TaintedConstantRule(),
    TaintedStampOrSeedRule(),
    UnregisteredVerifyRule(),
    SpanKindResolutionRule(),
    StatsMirrorRule(),
]

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
RULES_BY_ID.update({rule.id: rule for rule in PROJECT_RULES})

#: Every rule id a pragma or baseline entry may legally name.
KNOWN_IDS: Set[str] = set(RULES_BY_ID)

__all__ = ["ALL_RULES", "PROJECT_RULES", "RULES_BY_ID", "KNOWN_IDS"]
