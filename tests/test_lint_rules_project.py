"""Good/bad pairs for the whole-program rule families (REP030–REP053)."""

import textwrap

from repro.lint import KNOWN_IDS, PROJECT_RULES, lint_project


def _rules_fired(tmp_path, tree):
    for relative, source in tree.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    result = lint_project([str(tmp_path)], [], PROJECT_RULES,
                          known_ids=KNOWN_IDS)
    return sorted({f.rule for f in result.findings})


# -- REP030 fork discipline -------------------------------------------------

def test_rep030_fork_primitives_require_the_fork_lock(tmp_path):
    assert "REP030" in _rules_fired(tmp_path, {"repro/a.py": """\
        import multiprocessing

        def start(target):
            context = multiprocessing.get_context("fork")
            process = context.Process(target=target, daemon=True)
            process.start()
            return process
        """})


def test_rep030_quiet_under_fork_lock(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        import threading
        import multiprocessing

        _fork_lock = threading.Lock()

        def start(target):
            context = multiprocessing.get_context("fork")
            with _fork_lock:
                process = context.Process(target=target, daemon=True)
                process.start()
            return process
        """}) == []


# -- REP032 non-daemon spawns -----------------------------------------------

def test_rep032_non_daemon_thread_in_library_code(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        import threading

        def watch(fn):
            worker = threading.Thread(target=fn)
            worker.start()
        """}) == ["REP032"]


def test_rep032_quiet_for_daemon_kwarg_or_late_daemon_assignment(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        import threading

        def watch(fn):
            worker = threading.Thread(target=fn, daemon=True)
            worker.start()

        def watch_late(fn):
            worker = threading.Thread(target=fn)
            worker.daemon = True
            worker.start()
        """}) == []


# -- REP033 lock held across a forking call chain ---------------------------

def test_rep033_lock_across_transitive_fork(tmp_path):
    fired = _rules_fired(tmp_path, {
        "repro/pool.py": """\
            import os

            def spawn_worker():
                return os.fork()  # reprolint: disable=REP030 fixture fork
            """,
        "repro/driver.py": """\
            import threading
            from repro.pool import spawn_worker

            _lock = threading.Lock()

            def restart():
                with _lock:
                    pid = spawn_worker()
                return pid
            """,
    })
    assert "REP033" in fired


def test_rep033_quiet_when_the_lock_is_the_fork_lock(tmp_path):
    assert _rules_fired(tmp_path, {
        "repro/pool.py": """\
            import threading
            import os

            _fork_lock = threading.Lock()

            def spawn_worker():
                with _fork_lock:
                    return os.fork()
            """,
    }) == []


# -- REP034 global multiprocessing configuration ----------------------------

def test_rep034_set_start_method_and_bare_pool(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        import multiprocessing

        def configure():
            multiprocessing.set_start_method("fork")
            return multiprocessing.Pool(2)  # reprolint: disable=REP030 fixture
        """}) == ["REP034"]


# -- REP040/REP042/REP043 determinism taint ---------------------------------

def test_rep040_local_clock_taint_reaching_a_byte_counter(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        import time

        def leak(report):
            stamp = time.time()
            scaled = stamp * 2
            report.total_bytes = scaled
        """}) == ["REP040"]


def test_rep042_import_time_entropy_constant(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        import time

        _START = time.time()
        """}) == ["REP042"]


def test_rep043_tainted_span_stamp_and_rng_seed(tmp_path):
    fired = _rules_fired(tmp_path, {"repro/a.py": """\
        import random
        import time

        def emit(recorder, source):
            begin = time.time()
            recorder.record_span("connect", "c", source, begin, begin + 1)

        def draw():
            rng = random.Random(time.time_ns())
            return rng.random()
        """})
    assert "REP043" in fired


def test_taint_rules_quiet_on_deterministic_flows(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        SHARD_SIZE = 1 << 20

        def charge(report, payload):
            total_bytes = len(payload) * 2
            report.total_bytes = total_bytes
            return total_bytes
        """}) == []


# -- REP050 orphan invariants ------------------------------------------------

def test_rep050_quiet_when_the_invariant_is_called(tmp_path):
    assert _rules_fired(tmp_path, {
        "repro/audit.py": """\
            def verify_books(report):
                assert report.total >= 0
            """,
        "repro/driver.py": """\
            from repro.audit import verify_books

            def run(report):
                verify_books(report)
            """,
    }) == []


# -- REP051 span-kind resolution --------------------------------------------

def test_rep051_quiet_when_the_constant_resolves_into_span_kinds(tmp_path):
    assert _rules_fired(tmp_path, {
        "repro/kinds.py": 'connect_kind = "connect"\n',
        "repro/emit.py": """\
            from repro.kinds import connect_kind

            def emit(recorder, source):
                recorder.record_span(connect_kind, "c", source, 0, 1)
            """,
    }) == []


# -- REP053 stats completeness ----------------------------------------------

def test_rep053_unwritten_stats_field(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        from dataclasses import dataclass

        @dataclass
        class ServerStats:
            commits: int = 0
            orphans: int = 0

        def bump(stats):
            stats.commits += 1
        """}) == ["REP053"]


def test_rep053_counts_kwarg_and_container_mutation_as_writes(tmp_path):
    assert _rules_fired(tmp_path, {"repro/a.py": """\
        from dataclasses import dataclass, field
        from typing import List

        @dataclass
        class ClientStats:
            commits: int = 0
            batch_sizes: List[int] = field(default_factory=list)

        def build():
            return ClientStats(commits=1)

        def observe(stats, batch):
            stats.batch_sizes.append(len(batch))
        """}) == []
