# reprolint: module=repro.cloud.fixture
"""Good: fields written by attribute store, keyword or container mutation."""
from dataclasses import dataclass, field
from typing import List


@dataclass
class ServerStats:
    commits: int = 0
    rejected: int = 0
    batch_sizes: List[int] = field(default_factory=list)


def build():
    return ServerStats(rejected=0)


def observe(stats, batch):
    stats.commits += 1
    stats.batch_sizes.append(len(batch))
