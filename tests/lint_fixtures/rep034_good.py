# reprolint: module=repro.trace.fixture
"""Good: the start method is chosen locally, through a context."""
import multiprocessing
import threading

_fork_lock = threading.Lock()


def configure():
    context = multiprocessing.get_context("fork")
    with _fork_lock:
        return context.Pool(2)
