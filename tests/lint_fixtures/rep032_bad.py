# reprolint: module=repro.trace.fixture
"""Bad: library code spawning workers that outlive the run."""
import threading

_fork_lock = threading.Lock()


def watch(fn):
    worker = threading.Thread(target=fn)  # expect: REP032
    worker.start()


def spawn(context, fn):
    with _fork_lock:
        process = context.Process(target=fn, daemon=False)  # expect: REP032
        process.start()
    return process
