"""Experiment 10 surface: packed shards, batched commits, honest ledgers.

Covers the three ledger bugfixes (overwrite/delete byte conservation,
paginated LIST cost, mid-manifest failure attribution), the packed-shard
backend, full BDS (capped for packshard) with its conservation audit, and
the backend × mix sweep the CLI and bench report.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import ARTIFACTS, bench_args
from repro.chunking import fingerprint
from repro.client import (
    AccessMethod,
    BdsMode,
    FixedDefer,
    SyncSession,
    all_profiles,
)
from repro.cloud import (
    ChunkStore,
    CloudServer,
    IntegrityError,
    LIST_PAGE_SIZE,
    NotFound,
    ObjectStore,
    PackShardStore,
    annotate_manifest_error,
)
from repro.cloud.packshard import _decode_manifest, _encode_manifest
from repro.content import random_content
from repro.core import (
    BACKENDS,
    FILE_MIXES,
    MIX_FILES,
    Cell,
    backend_profile,
    churn,
    generate_mix,
    measure,
)
from repro.obs import AuditViolation, audit, audit_hub, recording, verify
from repro.units import KB, MB


# ---------------------------------------------------------------------------
# bugfix (a): overwrite/delete byte conservation on the REST ledger
# ---------------------------------------------------------------------------

def test_overwrite_and_delete_bytes_balance_the_ledger():
    store = ObjectStore()
    store.put("a", b"12345")
    store.put("a", b"123")           # overwrite displaces the 5 old bytes
    assert store.ops.overwritten_bytes == 5
    store.delete("a")                # delete displaces the 3 current bytes
    assert store.ops.delete_bytes == 3
    assert store.ops.reclaimed_bytes == 8
    assert store.ops.put_bytes - store.ops.reclaimed_bytes \
        == store.stored_bytes == 0
    assert verify(store=store) == []


def test_ledger_detects_uncounted_displacement():
    # Regression: before delete_bytes/overwritten_bytes existed there was
    # no way to balance put_bytes against stored_bytes.  Simulate the old
    # behaviour by zeroing the displacement counters after an overwrite.
    store = ObjectStore()
    store.put("a", b"12345")
    store.put("a", b"123")
    store.ops.overwritten_bytes = 0
    violations = verify(store=store)
    assert violations and all(
        v.invariant == "rest-conservation" for v in violations)
    assert "uncounted" in str(violations[0])


def test_ledger_rejects_negative_counters():
    store = ObjectStore()
    store.put("a", b"x")
    store.ops.delete_bytes = -1
    messages = [str(v) for v in verify(store=store)]
    assert any("negative counter delete_bytes" in m for m in messages)


def test_rest_ledger_audit_raises_on_imbalance():
    store = ObjectStore()
    store.put("a", b"12345")
    store.delete("a")
    audit(store=store)         # balanced: no raise
    store.ops.delete_bytes = 0
    with pytest.raises(AuditViolation):
        audit(store=store)


# ---------------------------------------------------------------------------
# bugfix (b): paginated LIST cost
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("keys,expected_ops", [
    (0, 1),       # empty listing is still one round trip
    (1, 1),
    (999, 1),
    (1000, 1),    # exactly one full page
    (1001, 2),    # one key over rolls a second page
])
def test_list_cost_is_paginated(keys, expected_ops):
    store = ObjectStore()
    for index in range(keys):
        store.put(f"k{index:05d}", b"")
    before = store.ops.list
    listed = store.list_keys()
    assert len(listed) == keys
    assert store.ops.list - before == expected_ops


def test_list_pagination_is_per_call():
    store = ObjectStore()
    for index in range(LIST_PAGE_SIZE + 1):
        store.put(f"k{index:05d}", b"")
    store.list_keys()
    store.list_keys("k000")          # prefix under one page: 1 more op
    assert store.ops.list == 3


# ---------------------------------------------------------------------------
# bugfix (c): mid-manifest failure attribution in fetch_many
# ---------------------------------------------------------------------------

def test_chunkstore_fetch_many_attributes_corruption():
    chunks = ChunkStore(ObjectStore())
    keys = [chunks.store(piece) for piece in (b"aaa", b"bbb", b"ccc")]
    chunks.objects._objects[keys[1]].data = b"XXX"   # rot under the etag
    with pytest.raises(IntegrityError) as excinfo:
        chunks.fetch_many(keys)
    assert excinfo.value.key == keys[1]
    assert excinfo.value.position == 1
    assert "manifest position 2 of 3" in str(excinfo.value)


def test_chunkstore_fetch_many_attributes_missing_chunk():
    chunks = ChunkStore(ObjectStore())
    keys = [chunks.store(piece) for piece in (b"aaa", b"bbb", b"ccc")]
    del chunks.objects._objects[keys[2]]
    with pytest.raises(NotFound) as excinfo:
        chunks.fetch_many(keys)
    assert excinfo.value.key == keys[2]
    assert excinfo.value.position == 2
    assert "manifest position 3 of 3" in str(excinfo.value)


def test_annotate_manifest_error_preserves_type():
    annotated = annotate_manifest_error(NotFound("gone"), "k", 0, 4)
    assert isinstance(annotated, NotFound)
    assert annotated.key == "k" and annotated.position == 0
    assert "manifest position 1 of 4" in str(annotated)


# ---------------------------------------------------------------------------
# coverage (d): chunk-store delete/exists, object-store iteration
# ---------------------------------------------------------------------------

def test_chunkstore_delete_exists_and_flush():
    chunks = ChunkStore(ObjectStore())
    key = chunks.store(b"payload")
    assert chunks.exists(key)
    assert chunks.flush() == 0       # eager PUTs: nothing buffered
    chunks.delete(key)
    assert not chunks.exists(key)
    with pytest.raises(NotFound):
        chunks.fetch(key)
    assert verify(store=chunks.objects) == []


def test_chunkstore_collect_garbage_deletes_non_live():
    chunks = ChunkStore(ObjectStore())
    keys = [chunks.store(bytes([value]) * 8) for value in range(3)]
    removed = chunks.collect_garbage([keys[0]])
    assert removed == 2
    assert chunks.exists(keys[0])
    assert not chunks.exists(keys[1]) and not chunks.exists(keys[2])


def test_objectstore_iteration_and_stored_bytes():
    store = ObjectStore()
    store.put("a", b"12345")
    store.put("b", b"12")
    records = list(store)
    assert len(store) == len(records) == 2
    assert sum(record.size for record in records) == store.stored_bytes == 7


def test_get_range_semantics_and_metering():
    store = ObjectStore()
    store.put("a", b"0123456789")
    assert store.get_range("a", 2, 4) == b"2345"
    assert store.ops.get == 1 and store.ops.get_bytes == 4
    assert store.get_range("a", 8, 100) == b"89"     # end-clamped
    assert store.get_range("a", 10, 5) == b""        # offset == size is ok
    with pytest.raises(NotFound):
        store.get_range("missing", 0, 1)
    with pytest.raises(ValueError):
        store.get_range("a", -1, 1)
    with pytest.raises(ValueError):
        store.get_range("a", 0, -1)
    with pytest.raises(ValueError):
        store.get_range("a", 11, 1)


def test_get_range_verifies_whole_object_digest():
    store = ObjectStore()
    store.put("a", b"0123456789")
    store._objects["a"].data = b"0123456789!"        # corrupt past the range
    with pytest.raises(IntegrityError):
        store.get_range("a", 0, 4)


# ---------------------------------------------------------------------------
# integrity checks and object identity: an object is hashed once, a
# different object (or a different expectation) is hashed again
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rot", [
    b"0123456780",       # equal length, one byte off
    b"012345678",        # truncated
    b"0123456789!",      # grown
    b"",
])
def test_get_rehashes_replaced_bytes_and_never_remembers_a_failure(rot):
    store = ObjectStore()
    original = store.put("a", b"0123456789").data
    assert store.get("a") is original                # verified, remembered
    store._objects["a"].data = rot                   # rot *after* a good read
    for _ in range(3):                               # every read, not just one
        with pytest.raises(IntegrityError):
            store.get("a")
        with pytest.raises(IntegrityError):
            store.get_range("a", 0, 4)
    store._objects["a"].data = original              # the good object is back
    assert store.get("a") is original
    store._objects["a"].data = bytes(bytearray(original))   # an equal copy
    assert store.get("a") == original                # hashes, and passes


def test_get_rehashes_when_the_expectation_is_replaced():
    store = ObjectStore()
    store.put("a", b"0123456789")
    store.get("a")
    store._objects["a"].etag = "0" * 32              # same bytes, new etag
    with pytest.raises(IntegrityError):
        store.get("a")
    with pytest.raises(IntegrityError):
        store.get("a")


def test_get_range_rehashes_container_corrupted_after_a_good_ranged_read():
    store = ObjectStore()
    store.put("a", b"0123456789")
    assert store.get_range("a", 0, 4) == b"0123"
    assert store.get_range("a", 0, 4) == b"0123"
    store._objects["a"].data = b"0123456789!"        # corrupt past the range
    with pytest.raises(IntegrityError):
        store.get_range("a", 0, 4)
    with pytest.raises(IntegrityError):
        store.get_range("a", 0, 4)


def test_overwriting_put_is_verified_afresh():
    store = ObjectStore()
    store.put("a", b"old bytes")
    store.get("a")
    record = store.put("a", b"new bytes")
    assert store.get("a") == b"new bytes"
    record.data = b"new bytez"                       # rot the replacement
    with pytest.raises(IntegrityError):
        store.get("a")


def test_store_hashes_each_stored_object_once_and_put_does_not_premark(
        md5_calls):
    store = ObjectStore()
    store.put("a", b"x" * 100)
    assert md5_calls == [100]                        # the etag, nothing else
    store.get("a")
    assert md5_calls == [100, 100]                   # first read verifies
    for _ in range(5):
        store.get("a")
        store.get_range("a", 10, 10)
    assert md5_calls == [100, 100]                   # same object: no hashing
    store.put("a", b"y" * 40)                        # overwrite: new record
    store.get_range("a", 0, 1)
    store.get("a")
    assert md5_calls == [100, 100, 40, 40]


def test_single_key_fetch_many_hands_back_the_stored_object():
    """Stated, not inherited from ``b"".join([x]) is x``: the reassembly
    of a one-unit manifest *is* the stored object."""
    chunks = ChunkStore(ObjectStore())
    key = chunks.store(b"only unit")
    assert chunks.fetch_many([key]) is chunks.objects._objects[key].data
    other = chunks.store(b" and more")
    assert chunks.fetch_many([key, other]) == b"only unit and more"
    shard = _shard()
    pieces = _one_slot(8, 8)
    units = [shard.store(piece) for piece in pieces]
    assert shard.fetch_many(units[:1]) == pieces[0]  # one run, one piece
    assert shard.fetch_many(units) == b"".join(pieces)


# ---------------------------------------------------------------------------
# packed-shard backend
# ---------------------------------------------------------------------------

def _shard():
    return PackShardStore(ObjectStore())


def _one_slot(*sizes):
    """Distinct units of the given sizes that all place into slot 0, so
    they share one open buffer and then one container."""
    shard, units, value = _shard(), [], 0
    for size in sizes:
        while shard.placement_slot(bytes([value]) * size) != 0:
            value += 1
        units.append(bytes([value]) * size)
        value += 1
    return units


def test_placement_is_deterministic_and_in_range():
    shard = _shard()
    data = random_content(4 * KB, seed=1).data
    slot = shard.placement_slot(data)
    assert 0 <= slot < 4
    assert shard.placement_slot(data) == slot
    assert shard.placement_slot(data) == _shard().placement_slot(data)


def test_store_buffers_with_zero_rest_ops_until_flush():
    shard = _shard()
    key = shard.store(b"unit-one")
    assert shard.objects.ops.total_ops() == 0
    assert shard.exists(key)
    assert shard.flush() == 1
    assert shard.objects.ops.put == 1
    assert shard.fetch(key) == b"unit-one"
    assert shard.objects.ops.get == 1
    assert shard.objects.ops.get_bytes == len(b"unit-one")


def test_slot_seals_itself_at_target_size():
    target = 4 * MB                          # the container size target
    shard = _shard()
    first, second = _one_slot(target - 40, 50)
    shard.store(first)
    assert shard.stats.containers_sealed == 0
    shard.store(second)
    assert shard.stats.containers_sealed == 1
    assert shard.objects.ops.put == 1


def test_read_of_pending_unit_seals_its_slot():
    shard = _shard()
    key = shard.store(b"pending")
    assert shard.fetch(key) == b"pending"            # sealed on demand
    assert shard.stats.containers_sealed == 1


def test_fetch_many_coalesces_contiguous_runs():
    shard = _shard()
    pieces = _one_slot(32, 32, 32)
    keys = [shard.store(piece) for piece in pieces]
    shard.flush()
    before = shard.objects.ops.get
    assert shard.fetch_many(keys) == b"".join(pieces)
    assert shard.objects.ops.get - before == 1       # one ranged GET
    assert shard.objects.ops.get_bytes == 96


def test_fetch_many_attributes_packshard_failures():
    shard = _shard()
    keys = [shard.store(piece) for piece in _one_slot(16, 16)]
    shard.flush()
    container_key = next(iter(shard._containers))
    shard.objects._objects[container_key].data += b"!"
    with pytest.raises(IntegrityError) as excinfo:
        shard.fetch_many(keys)
    assert excinfo.value.key == keys[0]
    assert excinfo.value.position == 0
    with pytest.raises(NotFound) as missing:
        shard.fetch_many([keys[0], "shards/u999999999999"])
    assert missing.value.position == 1


def test_container_manifest_trailer_roundtrip():
    shard = _shard()
    keys = [shard.store(piece) for piece in _one_slot(10, 10, 10)]
    shard.flush()
    container_key = next(iter(shard._containers))
    blob = shard.objects._objects[container_key].data
    entries = _decode_manifest(blob)
    assert [key for key, _, _ in entries] == keys
    assert [(offset, length) for _, offset, length in entries] \
        == [(0, 10), (10, 10), (20, 10)]
    assert _decode_manifest(_encode_manifest([("k", 0, 5)])) == [("k", 0, 5)]
    with pytest.raises(IntegrityError):
        _decode_manifest(b"tiny")
    with pytest.raises(IntegrityError):
        _decode_manifest(b"body" + (999).to_bytes(8, "big"))


@pytest.mark.parametrize("body", [
    "\u00e9".encode("utf-8"),          # not ASCII
    b"not json",
    b"{}",                               # an object, not a list
    b"[1]",                              # an entry that is not a list
    b"[[1,2]]",                          # too short
    b'[["k",0,5,9]]',                    # too long
    b'[[7,0,5]]',                        # key not a string
    b'[["k",-1,5]]',                     # negative offset
    b'[["k",0,5.0]]',                    # float length
    b'[["k",true,5]]',                   # bool offset
    b"[" * 100_000,                      # nested past the recursion limit
], ids=repr)
def test_hostile_manifest_trailer_is_an_integrity_error(body):
    with pytest.raises(IntegrityError):
        _decode_manifest(body + len(body).to_bytes(8, "big"))


MANIFEST_ENTRIES = st.lists(st.tuples(st.text(), st.integers(0, 2 ** 64),
                                      st.integers(0, 2 ** 64)))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(),
                                                          children),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(prefix=st.binary(max_size=16),
       body=st.one_of(
           st.binary(max_size=64),
           JSON_VALUES.map(lambda value: json.dumps(value).encode()),
           MANIFEST_ENTRIES.map(lambda entries: _encode_manifest(entries)[:-8]),
       ),
       length=st.one_of(st.none(), st.integers(0, 2 ** 64 - 1)))
def test_manifest_decoder_round_trips_or_refuses(prefix, body, length):
    """Any trailer either decodes to a manifest that encodes back to
    itself, or is refused as ``IntegrityError``; never anything else."""
    length = len(body) if length is None else length
    try:
        entries = _decode_manifest(prefix + body + length.to_bytes(8, "big"))
    except IntegrityError:
        return
    assert all(isinstance(key, str) and type(offset) is int
               and type(size) is int and min(offset, size) >= 0
               for key, offset, size in entries)
    assert _decode_manifest(_encode_manifest(entries)) == entries


@given(prefix=st.binary(max_size=16), entries=MANIFEST_ENTRIES)
def test_encoded_manifest_round_trips(prefix, entries):
    blob = prefix + _encode_manifest(entries)
    assert _decode_manifest(blob) == [tuple(entry) for entry in entries]


def test_delete_of_pending_unit_costs_nothing():
    shard = _shard()
    key = shard.store(b"ephemeral")
    shard.delete(key)
    assert not shard.exists(key)
    assert shard.flush() == 0
    assert shard.objects.ops.total_ops() == 0
    with pytest.raises(NotFound):
        shard.fetch(key)
    with pytest.raises(NotFound):
        shard.delete(key)


def test_reads_verify_the_container_units_moved_into(md5_calls):
    """Compaction re-seals survivors into a new container: reads hash that
    container (once), and corruption in it fails them."""
    shard = _shard()
    pieces = _one_slot(100, 100, 100, 100)
    keys = [shard.store(piece) for piece in pieces]
    shard.flush()
    old_container = next(iter(shard._containers))
    assert shard.fetch(keys[2]) == pieces[2]         # old container verified
    shard.delete(keys[0])
    shard.delete(keys[1])                            # compacts
    assert shard.stats.compactions == 1
    assert shard.fetch(keys[3]) == pieces[3]         # seals the survivors
    (new_container,) = shard._containers
    assert new_container != old_container
    blob = shard.objects._objects[new_container]
    assert md5_calls[-1] == blob.size                # ...and hashes them
    hashed = len(md5_calls)
    assert shard.fetch_many(keys[2:]) == pieces[2] + pieces[3]
    assert len(md5_calls) == hashed                  # once per container
    blob.data = blob.data[:150] + b"!" + blob.data[151:]
    for _ in range(2):
        with pytest.raises(IntegrityError):
            shard.fetch(keys[2])                     # rot outside its range
        with pytest.raises(IntegrityError):
            shard.fetch_many(keys[2:])


def test_sealed_delete_marks_garbage_then_compacts():
    shard = _shard()
    pieces = _one_slot(100, 100, 100, 100)
    keys = [shard.store(piece) for piece in pieces]
    shard.flush()
    shard.delete(keys[0])                    # 100/400 garbage: below 0.5
    assert shard.stats.compactions == 0
    shard.delete(keys[1])                    # 200/400 crosses the threshold
    assert shard.stats.compactions == 1
    assert shard.objects.ops.get == 1        # whole-container GET
    assert shard.objects.ops.delete == 1     # old container DELETE
    assert shard.stats.compaction_copied_bytes == 200
    assert shard.stats.garbage_reclaimed_bytes == 200
    assert shard.fetch(keys[2]) == pieces[2]  # survivor re-sealed + readable
    assert shard.fetch(keys[3]) == pieces[3]
    assert verify(store=shard.objects) == []


def test_fully_garbage_container_is_one_delete():
    shard = _shard()
    keys = [shard.store(piece) for piece in _one_slot(10, 90)]
    shard.flush()
    shard.delete(keys[0])                    # 10/100 garbage: below 0.5
    shard.delete(keys[1])                    # manifest empties: drop
    assert shard.objects.ops.get == 0
    assert shard.objects.ops.delete == 1
    assert len(shard.objects) == 0
    assert shard.stats.garbage_reclaimed_bytes == 100
    assert verify(store=shard.objects) == []


def test_packshard_collect_garbage_needs_no_list_ops():
    shard = _shard()
    pieces = _one_slot(20, 20, 20, 20)
    keys = [shard.store(piece) for piece in pieces]
    shard.flush()
    removed = shard.collect_garbage(keys[:1])
    assert removed == 3
    assert shard.objects.ops.list == 0
    assert shard.fetch(keys[0]) == pieces[0]


# ---------------------------------------------------------------------------
# server integration
# ---------------------------------------------------------------------------

def _upload(server, user, path, content, chunk_size=None):
    unit = chunk_size or max(content.size, 1)
    digests, keys, sizes = [], [], []
    for offset in range(0, max(content.size, 1), unit):
        piece = content.data[offset:offset + unit]
        digest = fingerprint(piece)
        key = server.resolve(user, digest)
        if key is None:
            key = server.upload_chunk(user, digest, piece)
        digests.append(digest)
        keys.append(key)
        sizes.append(len(piece))
    return server.commit(user, path, content.size, content.md5,
                         digests, keys, sizes)


def test_server_backend_selection():
    assert isinstance(CloudServer(backend="chunk").chunks, ChunkStore)
    assert isinstance(CloudServer(backend="packshard").chunks, PackShardStore)
    with pytest.raises(ValueError):
        CloudServer(backend="tape")


def test_server_packshard_end_to_end():
    server = CloudServer(backend="packshard", storage_chunk_size=1024)
    first = random_content(5000, seed=1)
    second = random_content(3000, seed=2)
    _upload(server, "u", "a.bin", first, chunk_size=1024)
    _upload(server, "u", "b.bin", second, chunk_size=1024)
    assert server.download_content("u", "a.bin")[0].data == first.data
    assert server.download_content("u", "b.bin")[0].data == second.data
    assert server.stats.shards_sealed >= 1      # mirrored from the backend
    server.delete_file("u", "a.bin")
    server.purge_history("u", "a.bin", keep_last=1)
    assert server.download_content("u", "b.bin")[0].data == second.data
    audit(store=server.objects)


def test_server_packshard_commit_flushes_for_durability():
    server = CloudServer(backend="packshard")
    content = random_content(2000, seed=3)
    _upload(server, "u", "f.bin", content)
    assert server.objects.ops.put >= 1          # sealed at commit, not read


# ---------------------------------------------------------------------------
# full-BDS commits + bundle-conservation audit
# ---------------------------------------------------------------------------

def _bundled_session():
    """Four small files synced through the capped full-BDS packshard
    profile."""
    hub_session = SyncSession(backend_profile("packshard"))
    for index in range(4):
        hub_session.create_random_file(f"s{index}.bin", 2 * KB,
                                       seed=10 + index)
    hub_session.run_until_idle()
    return hub_session


def test_bundled_commit_converges_and_counts():
    with recording() as hub:
        session = _bundled_session()
    assert session.client.stats.bundle_commits == 1
    assert session.client.stats.bundled_files == 4
    for index in range(4):
        content, _ = session.server.download_content("user1", f"s{index}.bin")
        assert content.data == random_content(2 * KB, seed=10 + index).data
    audit_hub(hub)                               # bundle-conservation holds


def test_bundle_ledger_explains_every_wire_byte():
    with recording():
        session = _bundled_session()
    spans = [s for s in session.recorder.spans if s.kind == "bundle-commit"]
    assert len(spans) == 1
    ledger = spans[0].attrs["ledger"]
    assert spans[0].attrs["files"] == len(ledger) == 4
    assert sum(entry[1] for entry in ledger) == spans[0].attrs["payload"]
    wire = [s for s in session.recorder.spans
            if s.kind == "exchange" and s.name == "bundle-commit"
            and s.attrs.get("op") == "exchange"]
    assert sum(s.attrs["up_payload"] for s in wire) \
        == spans[0].attrs["payload"]


def test_tampered_bundle_ledger_fails_the_audit():
    with recording() as hub:
        session = _bundled_session()
    span = next(s for s in session.recorder.spans
                if s.kind == "bundle-commit")
    span.attrs["ledger"][0][1] += 1              # claim one extra wire byte
    violations = verify(recorder=session.recorder)
    bundle = [v for v in violations if v.invariant == "bundle-conservation"]
    assert len(bundle) >= 2                      # span sum + trace total
    with pytest.raises(AuditViolation):
        audit_hub(hub)


def test_bundle_span_without_ledger_is_a_violation():
    from repro.obs import BUNDLE_COMMIT, TraceRecorder
    recorder = TraceRecorder("synthetic")
    recorder.record_span(BUNDLE_COMMIT, "bundle", "client", 0.0, 1.0,
                         files=2, payload=10)
    violations = verify(recorder=recorder)
    assert any("no per-file ledger" in str(v) for v in violations)


def test_large_files_are_not_bundled():
    profile = backend_profile("packshard")
    session = SyncSession(profile)
    for index in range(3):
        session.create_random_file(f"s{index}.bin", 2 * KB, seed=index)
    session.create_random_file(
        "big.bin", profile.bds.max_file_bytes + 1, seed=99)
    session.run_until_idle()
    assert session.client.stats.bundled_files == 3
    assert session.server.download_content("user1", "big.bin")[0].data \
        == random_content(profile.bds.max_file_bytes + 1, seed=99).data


def test_single_small_file_skips_the_bundle_path():
    session = SyncSession(backend_profile("packshard"))
    session.create_random_file("only.bin", 2 * KB, seed=1)
    session.run_until_idle()
    assert session.client.stats.bundle_commits == 0
    assert session.server.download_content("user1", "only.bin")[0].data \
        == random_content(2 * KB, seed=1).data


def test_stock_profiles_batch_without_a_cap():
    """Only the packshard what-if caps full BDS; Table 7's Dropbox PC batch
    is one audited ``bundle-commit`` like any other full-BDS commit."""
    assert all(profile.bds.max_file_bytes is None
               for profile in all_profiles())
    assert all(profile.storage_backend == "chunk"
               for profile in all_profiles())
    with recording() as hub:
        session = SyncSession("Dropbox", AccessMethod.PC)
        for index in range(3):
            session.create_random_file(f"s{index}.bin", 2 * KB, seed=index)
        session.run_until_idle()
    assert session.client.stats.bundle_commits == 1
    (span,) = [s for s in session.recorder.spans
               if s.kind == "bundle-commit"]
    assert [entry[0] for entry in span.attrs["ledger"]] \
        == ["s0.bin", "s1.bin", "s2.bin"]
    audit_hub(hub)


_FULL_BDS_PROFILES = [profile for profile in all_profiles()
                      if profile.bds.mode is BdsMode.FULL] \
    + [backend_profile("packshard")]


@pytest.mark.parametrize("profile", _FULL_BDS_PROFILES,
                         ids=lambda profile: profile.name)
def test_mixed_full_bds_batch_converges_and_balances(profile):
    """Small and large creations, an IDS edit, a rename and a delete in
    one batch: the combinable uploads share one commit, the rest sync
    individually, the cloud converges and every invariant holds.  A fixed
    2 s defer puts every change of the second phase in one batch."""
    with recording() as hub:
        session = SyncSession(profile.with_defer(lambda: FixedDefer(2.0)))
        session.create_random_file("edit.bin", 64 * KB, seed=1)
        session.create_random_file("old.bin", 4 * KB, seed=2)
        session.create_random_file("gone.bin", 4 * KB, seed=3)
        session.run_until_idle()
        commits = session.client.stats.bundle_commits
        deltas = session.client.stats.delta_syncs
        transactions = session.client.stats.sync_transactions
        session.create_random_file("s0.bin", 2 * KB, seed=4)
        session.create_random_file("s1.bin", 2 * KB, seed=5)
        session.create_random_file("big.bin", 200 * KB, seed=6)
        session.modify_random_byte("edit.bin", seed=7)
        session.folder.rename("old.bin", "new.bin")
        session.delete_file("gone.bin")
        session.run_until_idle()
    assert session.client.stats.sync_transactions == transactions + 1
    assert session.client.stats.bundle_commits == commits + 1
    assert session.client.stats.delta_syncs \
        == deltas + (1 if profile.uses_ids else 0)
    ledger = [s for s in session.recorder.spans
              if s.kind == "bundle-commit"][-1].attrs["ledger"]
    batched = {"s0.bin", "s1.bin"}
    if profile.bds.max_file_bytes is None:
        batched.add("big.bin")
    if not profile.uses_ids:
        batched.add("edit.bin")
    assert {entry[0] for entry in ledger} == batched
    for path in session.folder.paths():
        assert session.server.download_content("user1", path)[0].data \
            == session.folder.get(path).data, path
    for path in ("old.bin", "gone.bin"):
        with pytest.raises(NotFound):
            session.server.download_content("user1", path)
    audit_hub(hub)


# ---------------------------------------------------------------------------
# experiment 10: the backend × mix sweep
# ---------------------------------------------------------------------------

def test_generate_mix_shape_and_determinism():
    with pytest.raises(ValueError):
        generate_mix("bogus", 10)
    sizes = generate_mix("paper", 200, seed=0)
    assert len(sizes) == 200 and all(size >= 1 for size in sizes)
    assert sizes == generate_mix("paper", 200, seed=0)
    small = sum(1 for size in sizes if size <= 8 * KB)
    assert 0.6 < small / len(sizes) < 0.9       # the paper's small-file skew


def test_backend_profile_declarations():
    with pytest.raises(ValueError):
        backend_profile("tape")
    assert backend_profile("object").storage_chunk_size is None
    assert backend_profile("chunk").bds.mode is BdsMode.NONE
    shard = backend_profile("packshard")
    assert shard.bds.mode is BdsMode.FULL
    assert shard.bds.max_file_bytes == 128 * KB
    assert shard.storage_backend == "packshard"


def backend_cell(backend, files=MIX_FILES["paper"]):
    return Cell(backend_profile(backend), churn("paper", files))


def test_backend_cell_is_rerun_identical():
    rig = backend_cell("packshard", files=24)
    assert measure(rig) == measure(rig)


def test_paper_mix_packshard_cuts_rest_ops_tenfold():
    chunk = measure(backend_cell("chunk"))
    shard = measure(backend_cell("packshard"))
    assert shard.client.bundle_commits >= 1
    assert chunk.rest.total_ops() / shard.rest.total_ops() >= 10.0


def test_experiment10_matrix_is_mix_major():
    entry = next(entry for entry in ARTIFACTS if entry.name == "backends")
    args = bench_args(entry)
    args.files = 6
    readings = entry.run(args)
    assert list(readings) == [(mix, backend, 6) for mix in FILE_MIXES
                              for backend in BACKENDS]
    assert all(reading.rest.total_ops() > 0 and reading.stored_bytes > 0
               for reading in readings.values())
    assert all(reading.tue >= 1.0 for reading in readings.values())
