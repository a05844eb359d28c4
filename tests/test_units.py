"""Unit tests for size/rate parsing and formatting."""

import pytest

from repro.units import GB, KB, MB, Mbps, fmt_rate, fmt_size, parse_size


def test_constants_are_binary():
    assert KB == 1024
    assert MB == 1024 ** 2
    assert GB == 1024 ** 3


@pytest.mark.parametrize("text,expected", [
    ("1", 1),
    ("1B", 1),
    ("1 KB", KB),
    ("10M", 10 * MB),
    ("2 GB", 2 * GB),
    ("100k", 100 * KB),
])
def test_parse_size(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("bad", ["", "MB", "1.5M", "ten"])
def test_parse_size_rejects(bad):
    with pytest.raises(ValueError):
        parse_size(bad)


def test_fmt_size_matches_paper_style():
    assert fmt_size(1) == "1 B"
    assert fmt_size(10 * KB) == "10.00 K"
    assert fmt_size(int(1.28 * MB)) == "1.28 M"
    assert fmt_size(2 * GB) == "2.00 G"
    assert fmt_size(10 * MB) == "10.00 M"
    assert fmt_size(KB) == "1.00 K"


def test_fmt_rate():
    assert fmt_rate(20 * Mbps) == "20.0 Mbps"
    assert fmt_rate(800_000) == "800 Kbps"
