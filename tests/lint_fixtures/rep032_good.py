# reprolint: module=repro.trace.fixture
"""Good: daemon workers, by keyword or by a later ``.daemon = True``."""
import threading


def watch(fn):
    worker = threading.Thread(target=fn, daemon=True)
    worker.start()


def watch_late(fn):
    worker = threading.Thread(target=fn)
    worker.daemon = True
    worker.start()
