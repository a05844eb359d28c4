"""The tree-wide rule (REP053) across module boundaries.

Its one-file good/bad pair lives in ``lint_fixtures/`` with every other
rule's; these cases need a writer in a *different* module.
"""

import textwrap

from repro.lint import ALL_RULES, lint_paths


def _rules_fired(tmp_path, tree):
    for relative, source in tree.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    result = lint_paths([str(tmp_path)], ALL_RULES)
    return sorted({f.rule for f in result.findings})


# -- REP053 stats completeness ----------------------------------------------

def test_rep053_unwritten_stats_field(tmp_path):
    tree = {
        "repro/stats.py": """\
            from dataclasses import dataclass

            @dataclass
            class ServerStats:
                commits: int = 0
                orphans: int = 0
            """,
        "repro/server.py": """\
            def bump(stats):
                stats.commits += 1
            """,
    }
    assert _rules_fired(tmp_path, tree) == ["REP053"]
    findings = lint_paths([str(tmp_path)], ALL_RULES).findings
    assert [f.message.split(" ")[0] for f in findings] \
        == ["repro.stats.ServerStats.orphans"]


def test_rep053_counts_kwarg_and_container_mutation_as_writes(tmp_path):
    assert _rules_fired(tmp_path, {
        "repro/stats.py": """\
            from dataclasses import dataclass, field
            from typing import List

            @dataclass
            class ClientStats:
                commits: int = 0
                batch_sizes: List[int] = field(default_factory=list)
            """,
        "repro/engine.py": """\
            from repro.stats import ClientStats

            def build():
                return ClientStats(commits=1)

            def observe(stats, batch):
                stats.batch_sizes.append(len(batch))
            """,
    }) == []
