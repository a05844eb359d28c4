"""Unit tests for the TUE metric and traffic reports."""

import math

import pytest

from repro.compress import HIGH_COMPRESSION
from repro.content import text_content
from repro.core import TrafficReport, tue
from repro.simnet import Direction, TrafficMeter


def test_tue_definition():
    assert tue(2048, 1024) == 2.0


def test_tue_validation():
    assert tue(100, 0) == math.inf
    assert math.isnan(tue(0, 0))
    with pytest.raises(ValueError):
        tue(-1, 100)
    with pytest.raises(ValueError):
        tue(100, -1)


def test_compressed_update_size_uses_footnote2():
    update = text_content(100_000, seed=1)
    compressed = HIGH_COMPRESSION.wire_size(update)
    assert compressed < update.size


def test_report_from_meter():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, payload=1000, overhead=100)
    meter.record(0.0, Direction.DOWN, payload=0, overhead=50)
    report = TrafficReport.from_meter(meter, data_update_size=1000)
    assert report.total == 1150
    assert report.overhead == 150
    assert report.payload == 1000
    assert report.tue == pytest.approx(1.15)
    assert report.overhead_fraction == pytest.approx(150 / 1150)
