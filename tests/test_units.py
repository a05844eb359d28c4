"""Unit tests for size/rate constants and formatting."""

from repro.units import GB, KB, MB, fmt_size


def test_constants_are_binary():
    assert KB == 1024
    assert MB == 1024 ** 2
    assert GB == 1024 ** 3


def test_fmt_size_matches_paper_style():
    assert fmt_size(1) == "1 B"
    assert fmt_size(10 * KB) == "10.00 K"
    assert fmt_size(int(1.28 * MB)) == "1.28 M"
    assert fmt_size(2 * GB) == "2.00 G"
    assert fmt_size(10 * MB) == "10.00 M"
    assert fmt_size(KB) == "1.00 K"
