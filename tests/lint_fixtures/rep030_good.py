# reprolint: module=repro.trace.fixture
"""Good: every fork primitive runs under the module's ``_fork_lock``."""
import multiprocessing
import os
import threading

_fork_lock = threading.Lock()


def start(target):
    context = multiprocessing.get_context("fork")
    with _fork_lock:
        process = context.Process(target=target, daemon=True)
        process.start()
    return process


def spawn():
    with _fork_lock:
        return os.fork()
