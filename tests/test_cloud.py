"""Unit tests for the cloud back-end substrate."""

import gc
import tracemalloc

import pytest

from repro.chunking import fingerprint
from repro.client import AccessMethod, SyncSession
from repro.cloud import (
    AccountRegistry,
    AlreadyExists,
    ChunkStore,
    CloudServer,
    DedupConfig,
    DedupGranularity,
    DedupIndex,
    DedupScope,
    IntegrityError,
    MetadataServer,
    NotFound,
    ObjectStore,
    QuotaExceeded,
)
from repro.content import random_content
from repro.delta import compute_delta, compute_signature
from repro.obs import recording
from repro.units import KB, MB


# ---------------------------------------------------------------------------
# object store
# ---------------------------------------------------------------------------

def test_put_get_roundtrip():
    store = ObjectStore()
    store.put("a", b"hello")
    assert store.get("a") == b"hello"
    assert store.ops.put == 1 and store.ops.get == 1


def test_get_missing_raises():
    with pytest.raises(NotFound):
        ObjectStore().get("nope")


def test_put_overwrites_whole_object():
    store = ObjectStore()
    store.put("a", b"one")
    record = store.put("a", b"twotwo")
    assert store.get("a") == b"twotwo"
    assert record.put_count == 2


def test_delete_removes():
    store = ObjectStore()
    store.put("a", b"x")
    store.delete("a")
    assert "a" not in store
    with pytest.raises(NotFound):
        store.delete("a")


def test_list_keys_prefix():
    store = ObjectStore()
    store.put("chunks/1", b"x")
    store.put("chunks/2", b"y")
    store.put("meta/1", b"z")
    assert store.list_keys("chunks/") == ["chunks/1", "chunks/2"]


def test_stored_bytes_accounting():
    store = ObjectStore()
    store.put("a", b"12345")
    store.put("b", b"123")
    assert store.stored_bytes == 8


def test_byte_counters():
    store = ObjectStore()
    store.put("a", b"12345")
    store.get("a")
    assert store.ops.put_bytes == 5
    assert store.ops.get_bytes == 5


# ---------------------------------------------------------------------------
# dedup index
# ---------------------------------------------------------------------------

def test_dedup_disabled_always_misses():
    index = DedupIndex(DedupConfig.none())
    index.register("u", "d1", "k1")
    assert index.lookup("u", "d1") is None
    assert index.misses == 1


def test_same_user_scope_isolates_users():
    index = DedupIndex(DedupConfig.block(4096))
    index.register("alice", "d1", "k1")
    assert index.lookup("alice", "d1") == "k1"
    assert index.lookup("bob", "d1") is None


def test_cross_user_scope_shares():
    index = DedupIndex(DedupConfig.full_file(cross_user=True))
    index.register("alice", "d1", "k1")
    assert index.lookup("bob", "d1") == "k1"
    assert index.hits == 1


def test_block_config_validation():
    with pytest.raises(ValueError):
        DedupConfig(DedupGranularity.BLOCK, DedupScope.SAME_USER, block_size=0)


def test_config_unit_size():
    assert DedupConfig.block(4096).unit_size == 4096
    assert DedupConfig.full_file().unit_size is None
    assert not DedupConfig.none().enabled


# ---------------------------------------------------------------------------
# accounts
# ---------------------------------------------------------------------------

def test_register_and_duplicate():
    registry = AccountRegistry()
    registry.register("alice")
    with pytest.raises(AlreadyExists):
        registry.register("alice")


def test_quota_enforced():
    registry = AccountRegistry()
    account = registry.register("bob", quota_bytes=100)
    account.charge(80)
    with pytest.raises(QuotaExceeded):
        account.charge(30)
    account.refund(50)
    account.charge(30)
    assert account.used_bytes == 60


def test_refund_never_negative():
    registry = AccountRegistry()
    account = registry.register("c", quota_bytes=100)
    account.refund(10)
    assert account.used_bytes == 0


def test_ensure_is_idempotent():
    registry = AccountRegistry()
    a1 = registry.ensure("x")
    a2 = registry.ensure("x")
    assert a1 is a2


# ---------------------------------------------------------------------------
# metadata server
# ---------------------------------------------------------------------------

def _commit(meta, user="u", path="p", size=10, version_tag="v", now=0.0):
    return meta.commit(user, path, size, version_tag, ["d"], ["k"], [size], now)


def test_commit_and_head():
    meta = MetadataServer()
    _commit(meta, size=10)
    version = meta.head("u", "p")
    assert version.version == 1 and version.size == 10


def test_versions_accumulate():
    meta = MetadataServer()
    _commit(meta, size=10)
    _commit(meta, size=20)
    assert meta.head("u", "p").version == 2
    assert meta.version("u", "p", 1).size == 10


def test_fake_deletion_keeps_history():
    meta = MetadataServer()
    _commit(meta, size=10)
    meta.tombstone("u", "p", 1.0)
    with pytest.raises(NotFound):
        meta.head("u", "p")
    # History survives: version 1 is still addressable (rollback).
    assert meta.version("u", "p", 1).size == 10
    assert meta.list_paths("u") == []
    assert meta.list_paths("u", include_deleted=True) == ["p"]


def test_live_chunk_keys_include_old_versions():
    meta = MetadataServer()
    meta.commit("u", "p", 5, "m1", ["d1"], ["k1"], [5], 0.0)
    meta.commit("u", "p", 5, "m2", ["d2"], ["k2"], [5], 1.0)
    assert meta.live_chunk_keys() == {"k1", "k2"}


# ---------------------------------------------------------------------------
# cloud server end-to-end semantics
# ---------------------------------------------------------------------------

def upload(server, user, path, content, chunk_size=None):
    """Minimal client-side upload flow against the server API."""
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


def test_upload_download_roundtrip():
    server = CloudServer()
    content = random_content(5000, seed=1)
    upload(server, "u", "f.bin", content)
    assert server.download_content("u", "f.bin")[0].data == content.data


def test_chunked_upload_roundtrip():
    server = CloudServer(storage_chunk_size=1024)
    content = random_content(5000, seed=2)
    upload(server, "u", "f.bin", content, chunk_size=1024)
    assert server.download_content("u", "f.bin")[0].data == content.data


def test_upload_chunk_verifies_digest():
    server = CloudServer()
    with pytest.raises(IntegrityError):
        server.upload_chunk("u", "bogus", b"data")


def test_negotiate_respects_dedup_config():
    dedup = CloudServer(dedup=DedupConfig.full_file())
    content = random_content(1000, seed=3)
    digest = fingerprint(content.data)
    assert dedup.negotiate("u", [digest]) == [digest]
    dedup.upload_chunk("u", digest, content.data)
    assert dedup.negotiate("u", [digest]) == []
    # A no-dedup server keeps asking for everything.
    plain = CloudServer()
    plain.upload_chunk("u", digest, content.data)
    assert plain.negotiate("u", [digest]) == [digest]


def test_upload_race_past_negotiation_emits_a_dedup_hit_span():
    with recording():
        session = SyncSession("Dropbox", AccessMethod.PC)
    server = session.server
    content = random_content(1000, seed=5)
    digest = fingerprint(content.data)
    key = server.upload_chunk("user1", digest, content.data)
    assert server.upload_chunk("user1", digest, content.data) == key
    assert [(span.kind, span.name) for span in session.recorder.spans] \
        == [("dedup-hit", "upload-race")]
    assert server.stats.dedup_bytes_saved == content.size


def test_commit_missing_chunk_rejected():
    server = CloudServer()
    with pytest.raises(NotFound):
        server.commit("u", "p", 10, "m", ["d"], ["chunks/404"], [10])


def test_fake_deletion_and_restore():
    server = CloudServer()
    content = random_content(2000, seed=4)
    upload(server, "u", "f.bin", content)
    server.delete_file("u", "f.bin")
    with pytest.raises(NotFound):
        server.download_content("u", "f.bin")
    server.restore_version("u", "f.bin", 1)
    assert server.download_content("u", "f.bin")[0].data == content.data


def test_apply_delta_via_midlayer_counts_rest_ops():
    server = CloudServer()
    old = random_content(4000, seed=5)
    upload(server, "u", "f.bin", old)
    ops_before = server.objects.ops.total_ops()
    new = old.modify_byte(100)
    delta = compute_delta(compute_signature(old.data, 512), new.data)
    server.apply_delta("u", "f.bin", delta, new.md5, old.md5)
    assert server.download_content("u", "f.bin")[0].data == new.data
    # The MODIFY became GET + PUT + DELETE against the REST store (§4.3).
    assert server.objects.ops.total_ops() > ops_before
    assert server.stats.delta_applications == 1


def test_quota_enforced_on_commit():
    server = CloudServer()
    server.accounts.register("tiny", quota_bytes=1000)
    content = random_content(2000, seed=6)
    with pytest.raises(QuotaExceeded):
        upload(server, "tiny", "big.bin", content)


def test_garbage_collection_spares_version_history():
    server = CloudServer()
    v1 = random_content(1000, seed=7)
    upload(server, "u", "f.bin", v1)
    v2 = random_content(1000, seed=8)
    upload(server, "u", "f.bin", v2)
    # Both versions' chunks are live (rollback support) — GC removes nothing.
    assert server.collect_garbage() == 0
    assert server.download_content("u", "f.bin")[0].data == v2.data


def test_duplicate_upload_not_stored_twice():
    server = CloudServer(dedup=DedupConfig.full_file())
    content = random_content(3000, seed=9)
    upload(server, "u", "a.bin", content)
    stored_before = server.objects.stored_bytes
    upload(server, "u", "b.bin", content)
    assert server.objects.stored_bytes == stored_before


def test_chunkstore_keys_are_unique():
    store = ChunkStore(ObjectStore())
    k1 = store.store(b"a")
    k2 = store.store(b"a")
    assert k1 != k2
    assert store.fetch_many([k1, k2]) == b"aa"


def test_purge_history_reclaims_storage():
    server = CloudServer()
    versions = [random_content(100_000, seed=s) for s in range(4)]
    upload(server, "u", "f.bin", versions[0])
    for content in versions[1:]:
        # Full overwrite commits (new chunks each time).
        upload(server, "u", "f.bin", content)
    stored_before = server.objects.stored_bytes
    assert stored_before >= 4 * 100_000
    removed = server.purge_history("u", "f.bin", keep_last=1)
    assert removed == 3
    assert server.objects.stored_bytes <= stored_before - 3 * 100_000
    # The head still downloads; old versions are gone.
    assert server.download_content("u", "f.bin")[0].data == versions[-1].data
    with pytest.raises(NotFound):
        server.metadata.version("u", "f.bin", 1)


def test_purge_history_validation_and_noop():
    server = CloudServer()
    content = random_content(1000, seed=9)
    upload(server, "u", "f.bin", content)
    with pytest.raises(ValueError):
        server.purge_history("u", "f.bin", keep_last=0)
    assert server.purge_history("u", "f.bin", keep_last=5) == 0


# ---------------------------------------------------------------------------
# the reassembly digest check and object identity
# ---------------------------------------------------------------------------

def _swap_only_chunk(server, user, path, data):
    """Overwrite the path's single stored unit *with a consistent etag*, so
    the store's own check passes and only the reassembly check is left."""
    (key,) = server.metadata.head(user, path).chunk_keys
    server.objects.put(key, data)


def test_download_rehashes_a_swapped_chunk_and_never_remembers_a_failure():
    server = CloudServer()
    content = random_content(5000, seed=21)
    upload(server, "u", "f.bin", content)
    good = server.download_content("u", "f.bin")[0].data
    # Verified, remembered.
    assert server.download_content("u", "f.bin")[0].data is good
    _swap_only_chunk(server, "u", "f.bin",
                     random_content(5000, seed=22).data)     # equal length
    for _ in range(3):
        with pytest.raises(IntegrityError, match="reassembly"):
            server.download_content("u", "f.bin")
    _swap_only_chunk(server, "u", "f.bin", good)     # the good object is back
    assert server.download_content("u", "f.bin")[0].data is good


def test_rename_and_rollback_do_not_inherit_a_verdict():
    server = CloudServer()
    content = random_content(5000, seed=23)
    upload(server, "u", "f.bin", content)
    server.download_content("u", "f.bin")
    _swap_only_chunk(server, "u", "f.bin", random_content(5000, seed=24).data)
    server.rename_file("u", "f.bin", "g.bin")        # same chunk, new head
    with pytest.raises(IntegrityError, match="reassembly"):
        server.download_content("u", "g.bin")
    server.restore_version("u", "f.bin", 1)          # same chunk, new head
    with pytest.raises(IntegrityError, match="reassembly"):
        server.download_content("u", "f.bin")


def test_digest_work_follows_heads_and_stored_objects_not_downloads(
        md5_calls):
    server = CloudServer()
    v1, v2 = random_content(3000, seed=25), random_content(4000, seed=26)

    def download(path="f.bin"):
        """(bytes returned, sizes hashed to return them)."""
        before = len(md5_calls)
        return server.download_content("u", path)[0].data, md5_calls[before:]

    upload(server, "u", "f.bin", v1)
    assert download() == (v1.data, [3000, 3000])     # stored object + head
    assert download() == (v1.data, [])
    upload(server, "u", "f.bin", v2)                 # a second commit
    assert download() == (v2.data, [4000, 4000])
    assert download() == (v2.data, [])
    server.rename_file("u", "f.bin", "g.bin")        # known object, new head
    assert download("g.bin") == (v2.data, [4000])
    assert download("g.bin") == (v2.data, [])
    server.restore_version("u", "f.bin", 1)          # rollback: new head too
    assert download() == (v1.data, [3000])
    assert download() == (v1.data, [])


def test_multi_chunk_file_is_hashed_on_every_download(md5_calls):
    """Its reassembly is a fresh joined copy each call: nothing to
    recognise, and remembering it would pin a second copy of the file."""
    server = CloudServer(storage_chunk_size=1024)
    content = random_content(4096, seed=27)
    upload(server, "u", "f.bin", content, chunk_size=1024)
    server.download_content("u", "f.bin")        # verifies the four units
    for _ in range(3):
        before = len(md5_calls)
        assert server.download_content("u", "f.bin")[0].data == content.data
        assert md5_calls[before:] == [4096]
    assert server.metadata.head("u", "f.bin").verified is None


@pytest.mark.parametrize("backend, chunk_size, held_after_download", [
    ("chunk", None, 0),           # the stored unit is the uploaded object
    ("chunk", 256 * KB, 1),       # four stored units; the joined copy is gone
    ("packshard", 256 * KB, 1),   # one container; the joined copy is gone
    # A packed unit is a fresh slice of its container per ranged GET: the
    # remembered slice never recurs, and is held until the next download
    # of that head or its purge (DESIGN.md, "Integrity checks ...").
    ("packshard", None, 2),
])
def test_no_memo_outlives_the_bytes_it_describes(backend, chunk_size,
                                                 held_after_download):
    size = 1 * MB
    server = CloudServer(storage_chunk_size=chunk_size, backend=backend)
    tracemalloc.start()
    try:
        v1, v2 = random_content(size, seed=28), random_content(size, seed=29)

        def held():
            """Whole files' worth of memory traced beyond ``baseline``."""
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - baseline) / size

        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        upload(server, "u", "f.bin", v1, chunk_size=chunk_size)
        assert server.download_content("u", "f.bin")[0].data == v1.data
        assert held() < held_after_download + 0.25
        upload(server, "u", "f.bin", v2, chunk_size=chunk_size)   # overwrite
        assert server.download_content("u", "f.bin")[0].data == v2.data
        server.delete_file("u", "f.bin")
        assert server.purge_history("u", "f.bin", keep_last=1) == 2
        assert server.objects.stored_bytes == 0
        assert held() < 0.25                         # nothing pinned
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# a digest handed to put() is trusted at write time, checked at read time
# ---------------------------------------------------------------------------

def test_put_with_a_wrong_md5_fails_every_read(md5_calls):
    store = ObjectStore()
    data = random_content(2000, seed=30).data
    store.put("k", data, md5=fingerprint(b"something else"))
    assert md5_calls == [len(b"something else")]     # put hashed nothing
    for _ in range(3):                               # never remembered
        with pytest.raises(IntegrityError, match="digest check"):
            store.get("k")
        with pytest.raises(IntegrityError, match="digest check"):
            store.get_range("k", 0, 10)
    store.put("k", data, md5=fingerprint(data))      # the right one reads
    assert store.get("k") == data


def test_put_with_the_right_md5_is_still_checked_on_first_read(md5_calls):
    store = ObjectStore()
    data = random_content(2000, seed=31).data
    digest = fingerprint(data)
    del md5_calls[:]
    record = store.put("k", data, md5=digest)
    assert record.etag == digest and md5_calls == []
    assert store.get("k") == data and md5_calls == [2000]
    assert store.get("k") == data and md5_calls == [2000]


@pytest.mark.parametrize("backend", ["chunk", "packshard"])
def test_upload_chunk_with_a_mismatched_digest_stores_nothing(backend):
    server = CloudServer(backend=backend)
    other = fingerprint(b"other bytes")
    with pytest.raises(IntegrityError, match="declared digest"):
        server.upload_chunk("u", other, b"data")
    assert len(server.objects) == 0 and server.objects.ops.put == 0
    assert server.resolve("u", other) is None
    assert server.stats.chunks_received == 0
    assert server.chunks.flush() == 0                # nothing buffered either
