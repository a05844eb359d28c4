"""Differential battery: the client's per-path records against from-scratch
plans (``reference_strategies.py``).

The client keeps one ``FileRecord`` per synced version of a path (its
content, a lazily built rsync signature and CDC chunk list) and one for
the version in flight, and every strategy reads its basis from them.  That
is only safe if it changes no byte: over random scripts of creates,
clones, in-place edits, insertions, renames, deletes and remote writes
(``absorb_remote``), every plan a strategy ships, every ``delta-exchange``
cost vector and every meter total must equal what the oracle — which
re-derives everything from bytes on every call — produces for the same
script.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.client import SyncSession, make_strategy
from repro.client.strategies import (
    AdaptiveSelector,
    CdcDeltaStrategy,
    FixedBlockDeltaStrategy,
    FullFileStrategy,
    SetReconcileStrategy,
)
from repro.content import Content, random_content
from repro.core import strategy_link, strategy_profile
from repro.delta import apply_cdc_delta, compute_cdc_delta
from repro.obs import recording
from repro.units import KB

from .reference_strategies import (
    REFERENCE_CANDIDATES,
    reference_compute_cdc_delta,
    reference_strategy,
)

REAL_CANDIDATES = (FullFileStrategy, FixedBlockDeltaStrategy,
                   CdcDeltaStrategy, SetReconcileStrategy)
RECORD_READERS = ("fixed-delta", "cdc-delta", "set-reconcile", "adaptive")
PATHS = ("a.bin", "b.bin", "c.bin")

SIZES = st.one_of(st.just(0), st.integers(1, 40 * KB))
SEEDS = st.integers(0, 10_000)
WHERE = st.floats(0.0, 1.0)
#: Index into the folder's existing paths, so most steps touch a live file.
PICK = st.integers(0, 7)
PATH = st.sampled_from(PATHS)
OPS = st.one_of(
    st.tuples(st.just("create"), PATH, SIZES, SEEDS),
    st.tuples(st.just("clone"), PATH, PICK, SEEDS),
    st.tuples(st.just("edit"), PICK, WHERE, SEEDS),
    st.tuples(st.just("insert"), PICK, WHERE, SEEDS),
    st.tuples(st.just("rename"), PICK, PATH),
    st.tuples(st.just("delete"), PICK),
    st.tuples(st.just("absorb"), PATH, SIZES, SEEDS),
)
SCRIPTS = st.lists(OPS, min_size=1, max_size=10).map(
    lambda ops: [("create", PATHS[0], 24 * KB, 1)] + ops)


def logged(cls, log):
    """An instance of strategy ``cls`` that logs every plan it ships."""

    class Logged(cls):
        def _plan(self, client, path, content):
            plan = super()._plan(client, path, content)
            log.append((self.name, path, plan))
            return plan

    return Logged()


def build(name, classes, log):
    if name == "adaptive":
        return AdaptiveSelector(candidates=[logged(cls, log)
                                            for cls in classes])
    (cls,) = [cls for cls in classes if cls.name == name]
    return logged(cls, log)


def remote_write(session, path, content):
    """Another device commits ``content`` to ``path``; this one absorbs it
    as a fleet member does: folder and synced basis, no local event."""
    server, user = session.server, session.client.user
    server.set_time(session.sim.now)
    key = server.upload_chunk(user, content.md5, content.data)
    server.commit(user, path, content.size, content.md5, [content.md5],
                  [key], [content.size])
    session.folder.apply_remote(path, content)
    session.client.absorb_remote(path, content)


def apply_op(session, op):
    """Apply one script step; a step that does not fit the folder is a
    no-op (the folder is strategy-independent, so both runs skip it)."""
    folder = session.folder
    live = sorted(folder.paths())
    kind = op[0]
    if kind in ("create", "absorb") or (kind == "clone" and live):
        path = op[1]
        if kind == "clone":
            source = folder.get(live[op[2] % len(live)]).data
            content = Content(random_content(KB, seed=op[3]).data + source)
        else:
            content = random_content(op[2], seed=op[3])
        if kind == "absorb":
            remote_write(session, path, content)
        elif folder.exists(path):
            session.write_file(path, content)
        else:
            session.create_file(path, content)
    elif live:
        path = live[op[1] % len(live)]
        if kind in ("edit", "insert"):
            data = folder.get(path).data
            at = int(op[2] * len(data))
            patch = random_content(120 if kind == "edit" else 2 * KB,
                                   seed=op[3]).data
            tail = data[at + len(patch):] if kind == "edit" else data[at:]
            session.write_file(path, Content(data[:at] + patch + tail))
        elif kind == "rename" and not folder.exists(op[2]):
            folder.rename(path, op[2])
        elif kind == "delete":
            session.delete_file(path)
    session.advance(30.0)


def run_script(strategy, script):
    with recording() as hub:
        session = SyncSession(strategy_profile(), link_spec=strategy_link("mn"),
                              strategy=strategy)
        for op in script:
            apply_op(session, op)
        session.run_until_idle()
    spans = [dict(span.attrs) for recorder in hub.recorders
             for span in recorder.spans if span.kind == "delta-exchange"]
    report = session.traffic_report()
    ledger = {name: (tally.payload, tally.exchanges, tally.cpu_units)
              for name, tally in session.client.strategy_ledger.items()}
    for path in session.folder.paths():
        assert session.server.download_content("user1", path)[0].data == \
            session.folder.get(path).data
    return session, spans, (report.up_payload, report.up_overhead,
                            report.down_payload, report.down_overhead), ledger


@pytest.mark.parametrize("name", RECORD_READERS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=SCRIPTS)
def test_records_ship_the_oracle_plans(name, script):
    real_log, oracle_log = [], []
    real = run_script(build(name, REAL_CANDIDATES, real_log), script)
    oracle = run_script(build(name, REFERENCE_CANDIDATES, oracle_log), script)
    assert real_log == oracle_log
    assert real[1:] == oracle[1:]
    client = real[0].client
    assert client._in_flight is None
    assert set(client._records) == set(real[0].folder.paths())
    for path, record in client._records.items():
        assert record.content is real[0].folder.get(path)
        assert record.plans is None


def test_a_plan_serves_one_version_against_one_basis():
    """The in-flight record answers only for the ``Content`` it was made
    for, and a plan only for the basis record it was built against."""
    session = SyncSession(strategy_profile(), link_spec=strategy_link("mn"))
    session.create_file("a.bin", random_content(48 * KB, seed=1))
    session.run_until_idle()
    client = session.client
    base = session.folder.get("a.bin").data
    first = Content(base[:KB] + b"x" * 64 + base[KB + 64:])
    second = Content(base[:20 * KB] + bytes(3 * KB) + base[20 * KB:])
    rebased = Content(base + random_content(16 * KB, seed=2).data)
    for name in ("fixed-delta", "cdc-delta", "set-reconcile"):
        strategy, oracle = make_strategy(name), reference_strategy(name)
        client.absorb_remote("a.bin", Content(base))
        strategy._plan(client, "a.bin", first)
        assert strategy._plan(client, "a.bin", second) == \
            oracle._plan(client, "a.bin", second)
        client.absorb_remote("a.bin", rebased)
        assert strategy._plan(client, "a.bin", second) == \
            oracle._plan(client, "a.bin", second)


CHUNKING = {"min_size": 64, "avg_size": 256, "max_size": 1024}


@settings(max_examples=200, deadline=None)
@given(old=st.binary(max_size=6000), cut=WHERE, extra=st.binary(max_size=700),
       drop=st.integers(0, 700))
def test_chunk_list_delta_is_the_bytes_codec(old, cut, extra, drop):
    """``compute_cdc_delta`` over the chunk lists emits exactly the ops the
    digest-map walk did, empty sides and repeated chunks included."""
    at = int(cut * len(old))
    new = old[:at] + extra + old[at + drop:]
    for params in ({}, CHUNKING):
        delta = compute_cdc_delta(old, new, **params)
        assert delta == reference_compute_cdc_delta(old, new, **params)
        assert apply_cdc_delta(old, delta) == new
