"""The oracle's own pins: ``tests/reference_delta.py`` must stay right for
the differential battery in ``test_delta_kernel.py`` to mean anything."""

from hypothesis import given, settings, strategies as st

from repro.content import random_content
from repro.delta import weak_checksum

from .reference_delta import RollingChecksum, reference_weak_checksum


def test_rolling_matches_recompute():
    data = random_content(5000, seed=1).data
    window = 128
    roller = RollingChecksum(data[:window])
    for position in range(1, 200):
        roller.roll(data[position - 1], data[position + window - 1])
        assert roller.digest == weak_checksum(data[position:position + window])


@given(st.binary(min_size=2, max_size=300), st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_rolling_property(data, window):
    window = min(window, len(data) - 1)
    if window < 1:
        return
    roller = RollingChecksum(data[:window])
    for position in range(1, len(data) - window + 1):
        roller.roll(data[position - 1], data[position + window - 1])
        assert roller.digest == weak_checksum(data[position:position + window])


def test_roll_out_shrinks_window():
    data = b"hello world"
    roller = RollingChecksum(data)
    roller.roll_out(data[0])
    assert roller.digest == weak_checksum(data[1:])
    assert roller.window_len == len(data) - 1


def test_scalar_sums_match_vectorised_weak_checksum():
    # Both sides of src's numpy threshold (64 bytes), and a block whose
    # b sum overflows 32 bits before the mask.
    for size in (0, 1, 63, 64, 65, 1000, 70_000):
        data = random_content(size, seed=size).data
        assert reference_weak_checksum(data) == weak_checksum(data)
    assert reference_weak_checksum(b"\xff" * 70_000) == weak_checksum(b"\xff" * 70_000)
