"""Hypothesis properties for the delta sync strategies (PR 10).

Two families:

* **reconstruction exactness** — for arbitrary (base, edit) pairs, every
  delta codec round-trips byte-exactly, and a live session pinned to each
  delta strategy converges the cloud to the folder;
* **wire economy** — a delta stream is never unboundedly worse than
  shipping the file whole: its wire size is bounded by the new file's
  size plus per-op framing, with op counts bounded by the geometry
  (blocks for rsync, ``min_size`` chunks for CDC).

Failing examples get shrunk by Hypothesis and committed as ``@example``
fixtures (the PR 2 convention), so a regression replays deterministically.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.chunking.cdc import DEFAULT_MIN
from repro.client import AdaptiveSelector, SyncSession, make_strategy
from repro.content import Content
from repro.core import strategy_link, strategy_profile
from repro.delta import (
    COPY_TOKEN_BYTES,
    LITERAL_HEADER_BYTES,
    apply_cdc_delta,
    apply_delta,
    compute_cdc_delta,
    compute_delta,
    compute_signature,
)
from repro.delta.cdc_delta import CDC_STREAM_HEADER_BYTES, CHUNK_REF_BYTES

#: An "edit script": (offset-ish int, replacement bytes) pairs applied to
#: the base — scattered overwrites, the delta strategies' home turf.
edits_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 20),
              st.binary(min_size=0, max_size=200)),
    min_size=0, max_size=6)


def apply_edits(base: bytes, edits) -> bytes:
    data = bytearray(base)
    for offset, replacement in edits:
        if not data:
            data.extend(replacement)
            continue
        at = offset % len(data)
        data[at:at + len(replacement)] = replacement
    return bytes(data)


@given(base=st.binary(max_size=6000), edits=edits_strategy,
       block_size=st.sampled_from([64, 512, 1024]))
@example(base=b"", edits=[(0, b"x")], block_size=64)
@example(base=b"\x00", edits=[], block_size=64)
@settings(max_examples=50, deadline=None)
def test_rsync_strategy_pair_roundtrips_exactly(base, edits, block_size):
    new = apply_edits(base, edits)
    delta = compute_delta(compute_signature(base, block_size), new)
    assert apply_delta(base, delta) == new


@given(base=st.binary(max_size=6000), edits=edits_strategy)
@example(base=b"", edits=[(0, b"x")])
@example(base=b"\x00", edits=[])
@settings(max_examples=50, deadline=None)
def test_cdc_strategy_pair_roundtrips_exactly(base, edits):
    new = apply_edits(base, edits)
    cdelta = compute_cdc_delta(base, new)
    assert apply_cdc_delta(base, cdelta) == new


@given(base=st.binary(max_size=6000), edits=edits_strategy,
       block_size=st.sampled_from([64, 512, 1024]))
@settings(max_examples=50, deadline=None)
def test_rsync_wire_bounded_by_full_file_plus_framing(base, edits, block_size):
    """Coalesced runs bound the stream: at most one copy token per matched
    block and one literal header per run between copies."""
    new = apply_edits(base, edits)
    delta = compute_delta(compute_signature(base, block_size), new)
    copies = len(new) // block_size + 1
    bound = (8 + len(new)
             + copies * COPY_TOKEN_BYTES
             + (copies + 1) * LITERAL_HEADER_BYTES)
    assert delta.wire_size <= bound


@given(base=st.binary(max_size=6000), edits=edits_strategy)
@settings(max_examples=50, deadline=None)
def test_cdc_wire_bounded_by_full_file_plus_framing(base, edits):
    """Every op covers at least ``min_size`` new-file bytes (bar the final
    chunk), so framing is bounded by the chunk-count geometry."""
    new = apply_edits(base, edits)
    cdelta = compute_cdc_delta(base, new)
    chunks = len(new) // DEFAULT_MIN + 1
    bound = (CDC_STREAM_HEADER_BYTES + len(new)
             + chunks * max(CHUNK_REF_BYTES, LITERAL_HEADER_BYTES))
    assert cdelta.wire_size <= bound


delta_names = st.sampled_from(["fixed-delta", "cdc-delta", "set-reconcile"])


@given(name=delta_names, base_size=st.integers(min_value=0, max_value=40),
       edits=edits_strategy, seed=st.integers(min_value=0, max_value=99))
@example(name="set-reconcile", base_size=0, edits=[(0, b"x")], seed=0)
@example(name="fixed-delta", base_size=1, edits=[(0, b"")], seed=1)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pinned_strategy_sessions_converge(name, base_size, edits, seed):
    """End-to-end: a session pinned to each delta strategy syncs arbitrary
    (create, edit) pairs and the cloud converges byte-exactly."""
    from repro.content import random_content

    session = SyncSession(strategy_profile(), link_spec=strategy_link("mn"),
                          strategy=make_strategy(name))
    base = random_content(base_size * 64, seed=seed)
    session.create_file("f.bin", base)
    session.run_until_idle()
    new = apply_edits(base.data, edits)
    session.advance(30.0)
    session.write_file("f.bin", Content(new))
    session.run_until_idle()
    stored, _ = session.server.download_content(session.client.user, "f.bin")
    assert stored.data == new


@given(edits=edits_strategy, seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_adaptive_never_beaten_by_pinned_full_file(edits, seed):
    """Property form of the Experiment 11 headline on a single file: total
    traffic under the adaptive selector never exceeds the pinned full-file
    session's for the same (create, edit) history."""
    from repro.content import random_content

    def run(strategy):
        session = SyncSession(strategy_profile(),
                              link_spec=strategy_link("mn"),
                              strategy=strategy)
        session.create_file("f.bin", random_content(2048, seed=seed))
        session.run_until_idle()
        new = apply_edits(session.folder.get("f.bin").data, edits)
        session.advance(30.0)
        session.write_file("f.bin", Content(new))
        session.run_until_idle()
        return session.total_traffic

    assert run(AdaptiveSelector()) <= run(make_strategy("full-file"))
