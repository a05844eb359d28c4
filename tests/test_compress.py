"""Unit tests for the compression policies (§5.1 behaviours)."""

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.client import AccessMethod, SyncSession
from repro.compress import (
    CompressionLevel,
    CompressionPolicy,
    HIGH_COMPRESSION,
    LOW_COMPRESSION,
    MODERATE_COMPRESSION,
    NO_COMPRESSION,
)
from repro.compress.policy import WIRE_SIZE_MEMO_ENTRIES, _WIRE_SIZES
from repro.content import Content, random_content, text_content
from repro.units import KB, MB


def test_none_is_identity():
    content = text_content(10_000, seed=1)
    assert NO_COMPRESSION.wire_size(content) == content.size
    assert NO_COMPRESSION.compress(content.data) == content.data
    assert not NO_COMPRESSION.enabled


def test_levels_ordered_on_text():
    """The paper's ordering: low saves least, high saves most (Table 8)."""
    content = text_content(1 * MB, seed=2)
    low = LOW_COMPRESSION.wire_size(content)
    moderate = MODERATE_COMPRESSION.wire_size(content)
    high = HIGH_COMPRESSION.wire_size(content)
    assert high < moderate < low < content.size


def test_calibrated_ratios_match_paper():
    """Table 8 anchors: high ≈ 0.45 (WinZip), moderate ≈ 0.58, low ≈ 0.77."""
    content = text_content(2 * MB, seed=3)
    assert HIGH_COMPRESSION.ratio(content) == pytest.approx(0.45, abs=0.05)
    assert MODERATE_COMPRESSION.ratio(content) == pytest.approx(0.58, abs=0.06)
    assert LOW_COMPRESSION.ratio(content) == pytest.approx(0.77, abs=0.06)


def test_wire_size_never_expands():
    """Stored-fallback: incompressible data ships at original size."""
    content = random_content(100_000, seed=4)
    for policy in (LOW_COMPRESSION, MODERATE_COMPRESSION, HIGH_COMPRESSION):
        assert policy.wire_size(content) == content.size


def test_empty_content():
    empty = Content(b"")
    for policy in (NO_COMPRESSION, LOW_COMPRESSION, HIGH_COMPRESSION):
        assert policy.wire_size(empty) == 0
        assert policy.ratio(empty) == 1.0


def test_compress_roundtrippable_for_whole_stream():
    import zlib
    content = text_content(50_000, seed=5)
    compressed = HIGH_COMPRESSION.compress(content.data)
    assert zlib.decompress(compressed) == content.data


def test_segmented_compress_starts_with_valid_stream():
    """Each segment is an independent zlib stream; the first must
    reconstruct the deflated prefix of the original data exactly."""
    import zlib
    content = text_content(200_000, seed=6)
    compressed = MODERATE_COMPRESSION.compress(content.data)
    first = zlib.decompressobj()
    head = first.decompress(compressed)
    covered = int(16 * 1024 * 0.85)  # MODERATE: 85 % of each 16 KB segment
    assert head == content.data[:covered]


def test_ratio_definition():
    content = text_content(100_000, seed=8)
    policy = CompressionPolicy(CompressionLevel.HIGH)
    assert policy.ratio(content) == pytest.approx(
        policy.wire_size(content) / content.size)


# -- the wire-size memo -----------------------------------------------------

def known(data: bytes) -> Content:
    """``data`` holding its digest, the way a chunk or a download does."""
    return Content.with_md5(data, hashlib.md5(data).hexdigest())


def direct(policy: CompressionPolicy, data: bytes) -> int:
    """The oracle: price ``data`` with DEFLATE, no memo."""
    return min(len(data), len(policy.compress(data)))


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(
           st.binary(max_size=2 * KB),
           st.text(alphabet="ab c", max_size=40 * KB).map(str.encode)),
       level=st.sampled_from(list(CompressionLevel)))
def test_memoised_wire_size_equals_direct_pricing(data, level):
    """Memo path (digest known), a second object with equal bytes (a hit
    once the first filled the entry) and the direct path (digest unknown)
    all price what DEFLATE prices."""
    policy = CompressionPolicy(level)
    expected = direct(policy, data)
    assert policy.wire_size(known(data)) == expected
    assert policy.wire_size(known(bytes(bytearray(data)))) == expected
    unhashed = Content(data)
    assert policy.wire_size(unhashed) == expected
    assert unhashed.cached_md5 is None


def test_memo_evicts_its_oldest_entries_past_its_bound():
    """Filling past the bound keeps it at the bound, drops the oldest first,
    and an evicted unit is priced again, correctly."""
    extra = 16
    blobs = [index.to_bytes(4, "big") * 64
             for index in range(WIRE_SIZE_MEMO_ENTRIES + extra)]
    for blob in blobs:
        assert LOW_COMPRESSION.wire_size(known(blob)) == \
            direct(LOW_COMPRESSION, blob)
    assert len(_WIRE_SIZES) == WIRE_SIZE_MEMO_ENTRIES
    oldest = (CompressionLevel.LOW, hashlib.md5(blobs[0]).hexdigest(),
              len(blobs[0]))
    newest = (CompressionLevel.LOW, hashlib.md5(blobs[-1]).hexdigest(),
              len(blobs[-1]))
    assert oldest not in _WIRE_SIZES and newest in _WIRE_SIZES
    assert LOW_COMPRESSION.wire_size(known(blobs[0])) == \
        direct(LOW_COMPRESSION, blobs[0])
    assert len(_WIRE_SIZES) == WIRE_SIZE_MEMO_ENTRIES


def test_levels_never_share_a_memo_entry():
    """Whichever level prices the bytes first must not answer for another."""
    data = text_content(64 * KB, seed=4096).data
    policies = (HIGH_COMPRESSION, MODERATE_COMPRESSION, LOW_COMPRESSION)
    priced = [policy.wire_size(known(data)) for policy in policies]
    assert priced == [direct(policy, data) for policy in policies]
    assert len(set(priced)) == len(policies)


def test_memo_keys_on_size_beside_the_digest():
    """Two byte strings handed one digest (only a caller's mistake can do
    that) are still priced apart."""
    short = Content.with_md5(b"a" * 100, "one-digest")
    long = Content.with_md5(b"ab" * 5000, "one-digest")
    assert HIGH_COMPRESSION.wire_size(short) == \
        direct(HIGH_COMPRESSION, short.data)
    assert HIGH_COMPRESSION.wire_size(long) == \
        direct(HIGH_COMPRESSION, long.data)


def test_memo_footprint_at_capacity_is_bounded():
    """A full memo holds keys, digests and sizes, never the bytes priced."""
    _WIRE_SIZES.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(WIRE_SIZE_MEMO_ENTRIES):
            LOW_COMPRESSION.wire_size(known(index.to_bytes(4, "big") * 256))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(_WIRE_SIZES) == WIRE_SIZE_MEMO_ENTRIES
    assert held < 1.5 * MB


def test_second_session_on_the_same_file_runs_no_deflate(zlib_calls,
                                                         md5_calls):
    """Dropbox PC compresses uploads (moderate) and downloads (high).  A
    second session syncing and fetching the very same bytes finds both
    wire sizes in the memo, and hashes exactly what the first did."""
    content = text_content(300 * KB, seed=4097)
    counts = []
    for _ in range(2):
        del zlib_calls[:], md5_calls[:]
        session = SyncSession("Dropbox", AccessMethod.PC)
        session.create_file("a.txt", Content(content.data))
        session.run_until_idle()
        assert session.download("a.txt").data == content.data
        counts.append((len(zlib_calls), list(md5_calls)))
    (first_zlib, first_md5), (second_zlib, second_md5) = counts
    assert first_zlib > 0
    assert second_zlib == 0
    assert second_md5 == first_md5
