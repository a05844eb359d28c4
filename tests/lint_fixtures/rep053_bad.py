# reprolint: module=repro.cloud.fixture
"""Bad: a stats field nothing ever writes."""
from dataclasses import dataclass


@dataclass
class ServerStats:
    commits: int = 0
    orphans: int = 0  # expect: REP053


def bump(stats):
    stats.commits += 1
