# reprolint: module=repro.trace.fixture
"""Bad: process-global multiprocessing configuration."""
import multiprocessing
import threading

_fork_lock = threading.Lock()


def configure():
    multiprocessing.set_start_method("fork")  # expect: REP034
    with _fork_lock:
        return multiprocessing.Pool(2)  # expect: REP034
