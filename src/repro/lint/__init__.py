"""reprolint: static enforcement of determinism, byte-conservation, and
trace-coverage invariants (``repro lint``; see DESIGN.md).

One pass over the tree: ``lint_paths`` parses each file once, runs every
rule of ``ALL_RULES`` on it, and hands the same parsed files to the
tree-wide check (REP053).
"""

from .engine import (FileContext, Finding, META_RULE, Rule, derive_module,
                     lint_paths, lint_source)
from .rules import ALL_RULES, RULES_BY_ID

__all__ = ["ALL_RULES", "FileContext", "Finding", "META_RULE", "RULES_BY_ID",
           "Rule", "derive_module", "lint_paths", "lint_source"]
