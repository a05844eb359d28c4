"""reprolint: static enforcement of determinism, byte-conservation, and
trace-coverage invariants (``repro lint``; see DESIGN.md).

v2 adds the whole-program layer: :class:`ProjectContext` (import graph,
symbol tables, approximate call graph) and ``lint_project`` running the
cross-module REP03x/REP04x/REP05x families.
"""

from .engine import (BaselineEntry, FileContext, Finding, LintResult,
                     META_RULE, Rule, derive_module, iter_python_files,
                     lint_paths, lint_source, load_baseline)
from .graph import CallGraph, FunctionInfo, ModuleInfo
from .project import ProjectContext, ProjectRule, lint_project
from .rules import ALL_RULES, KNOWN_IDS, PROJECT_RULES, RULES_BY_ID

__all__ = ["ALL_RULES", "BaselineEntry", "CallGraph", "FileContext",
           "Finding", "FunctionInfo", "KNOWN_IDS", "LintResult", "META_RULE",
           "ModuleInfo", "PROJECT_RULES", "ProjectContext", "ProjectRule",
           "RULES_BY_ID", "Rule", "derive_module", "iter_python_files",
           "lint_paths", "lint_project", "lint_source", "load_baseline"]
