"""Unit tests for the compression policies (§5.1 behaviours)."""

import pytest

from repro.compress import (
    CompressionLevel,
    CompressionPolicy,
    HIGH_COMPRESSION,
    LOW_COMPRESSION,
    MODERATE_COMPRESSION,
    NO_COMPRESSION,
)
from repro.content import Content, random_content, text_content
from repro.units import MB


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
