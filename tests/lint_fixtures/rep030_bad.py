# reprolint: module=repro.trace.fixture
"""Bad: fork primitives outside the ``_fork_lock`` discipline."""
import multiprocessing
import os


def start(target):
    context = multiprocessing.get_context("fork")
    process = context.Process(target=target, daemon=True)  # expect: REP030
    process.start()
    return process


def spawn():
    return os.fork()  # expect: REP030
