"""Shape tests for the experiment harness (the paper's headline findings).

These assert the *qualitative* results — who wins, orderings, crossovers —
rather than absolute bytes, which is the reproduction contract.
"""

import math

import pytest

from repro.client import AccessMethod
from repro.core import (
    CreationCell,
    ModificationCell,
    experiment1_batch,
    experiment2_deletion,
    experiment6_frequent_mods,
    measure_batch_creation,
    measure_compression,
    measure_creation,
    measure_modification,
    run_appending,
    run_faulty_sync,
)
from repro.units import KB, MB


# ---------------------------------------------------------------------------
# Experiment 1 (Table 6 / Figure 3)
# ---------------------------------------------------------------------------

def test_zero_size_creation_tue_is_infinite():
    """Regression: the old ``max(size, 1)`` denominator made a 0-byte
    creation report TUE == traffic, as if one byte had been written."""
    cell = measure_creation("Dropbox", AccessMethod.PC, 0)
    assert cell.traffic > 0            # the sync itself still costs bytes
    assert math.isinf(cell.tue)
    assert CreationCell("Dropbox", AccessMethod.PC, 0, traffic=1234,
                        overhead=1234).tue == float("inf")


def test_one_byte_creation_tue_is_traffic():
    """Size 1 must keep its exact historical meaning: traffic / 1."""
    cell = measure_creation("Dropbox", AccessMethod.PC, 1)
    assert cell.tue == cell.traffic
    assert not math.isinf(cell.tue)


def test_zero_size_modification_cell_tue_is_infinite():
    """A 0-size ModificationCell cannot come out of measure_modification
    (you cannot modify a byte of an empty file) but is constructible; its
    sentinel must match CreationCell's instead of silently reporting
    TUE == traffic."""
    assert math.isinf(
        ModificationCell("Dropbox", AccessMethod.PC, 0, traffic=999).tue)
    one = ModificationCell("Dropbox", AccessMethod.PC, 1, traffic=999)
    assert one.tue == 999.0


def test_creation_tue_decreases_with_size():
    """Figure 3: small files → huge TUE; ≥1 MB → TUE under ~1.5."""
    tues = [measure_creation("GoogleDrive", AccessMethod.PC, size).tue
            for size in (1, 1 * KB, 100 * KB, 1 * MB, 10 * MB)]
    assert tues == sorted(tues, reverse=True)
    assert tues[0] > 1000          # 1-byte file: thousands
    assert tues[-1] < 1.5          # 10 MB file: near 1


def test_creation_traffic_close_to_table6_anchors():
    """Spot-check two calibration anchors from Table 6."""
    gd = measure_creation("GoogleDrive", AccessMethod.PC, 1)
    assert gd.traffic == pytest.approx(9 * KB, rel=0.35)
    db = measure_creation("Dropbox", AccessMethod.PC, 10 * MB)
    assert db.traffic == pytest.approx(12.5 * MB, rel=0.15)


def test_overhead_dominates_small_files():
    cell = measure_creation("Box", AccessMethod.PC, 1 * KB)
    assert cell.overhead > 10 * cell.size


# ---------------------------------------------------------------------------
# Experiment 1' (Table 7)
# ---------------------------------------------------------------------------

def test_bds_services_beat_non_bds_by_an_order_of_magnitude():
    rows = {
        service: measure_batch_creation(service, AccessMethod.PC, count=50)
        for service in ("Dropbox", "UbuntuOne", "GoogleDrive", "Box")
    }
    assert rows["Dropbox"].tue < 3
    assert rows["UbuntuOne"].tue < 3
    assert rows["GoogleDrive"].tue > 4 * rows["Dropbox"].tue
    assert rows["Box"].tue > 4 * rows["UbuntuOne"].tue


# ---------------------------------------------------------------------------
# Experiment 2 (deletion)
# ---------------------------------------------------------------------------

def test_deletion_negligible_for_all_services():
    """The paper: deletions generate < 100 KB regardless of anything."""
    rows = experiment2_deletion(sizes=(1 * MB,))
    for row in rows:
        assert row.deletion_traffic < 100 * KB, row


# ---------------------------------------------------------------------------
# Experiment 3 (Figure 4)
# ---------------------------------------------------------------------------

def test_ids_flat_full_file_linear():
    """Figure 4(a): Dropbox's curve is flat in file size; Google Drive's
    grows linearly (full-file sync)."""
    sizes = (100 * KB, 1 * MB)
    db = [measure_modification("Dropbox", AccessMethod.PC, size).traffic
          for size in sizes]
    gd = [measure_modification("GoogleDrive", AccessMethod.PC, size).traffic
          for size in sizes]
    assert db[1] < db[0] * 2          # flat-ish
    assert gd[1] > gd[0] * 5          # ~linear in size
    assert db[1] < gd[1] / 10


def test_dropbox_modification_near_50kb():
    """§4.3: one-byte mod via Dropbox PC ≈ 50 KB (overhead + one chunk)."""
    cell = measure_modification("Dropbox", AccessMethod.PC, 1 * MB)
    assert 20 * KB < cell.traffic < 120 * KB


def test_mobile_and_web_always_full_file():
    """Figure 4(b)/(c): no IDS off the PC client."""
    for access in (AccessMethod.WEB, AccessMethod.MOBILE):
        traffic = measure_modification("Dropbox", access, 1 * MB).traffic
        assert traffic > 0.9 * MB


# ---------------------------------------------------------------------------
# Experiment 4 (Table 8)
# ---------------------------------------------------------------------------

def test_compression_matrix_shapes():
    size = 2 * MB
    db_pc = measure_compression("Dropbox", AccessMethod.PC, size)
    gd_pc = measure_compression("GoogleDrive", AccessMethod.PC, size)
    # Dropbox compresses up and down; Google Drive neither.
    assert db_pc.upload_traffic < 0.75 * size
    assert db_pc.download_traffic < 0.65 * size
    assert gd_pc.upload_traffic > size
    assert gd_pc.download_traffic > size
    # Nobody compresses web uploads.
    db_web = measure_compression("Dropbox", AccessMethod.WEB, size)
    assert db_web.upload_traffic > size
    assert db_web.download_traffic < 0.65 * size  # but the cloud still does
    # Mobile upload compression is low-level: worse than PC, better than raw.
    db_mobile = measure_compression("Dropbox", AccessMethod.MOBILE, size)
    assert db_pc.upload_traffic < db_mobile.upload_traffic < size
    # Ubuntu One mobile downloads are uncompressed (Table 8's one asymmetry).
    u1_mobile = measure_compression("UbuntuOne", AccessMethod.MOBILE, size)
    assert u1_mobile.download_traffic > size


# ---------------------------------------------------------------------------
# Experiment 6 (Figure 6)
# ---------------------------------------------------------------------------

def test_fixed_defer_plateau_then_spike():
    """Google Drive: TUE ≈ 1 for X < T ≈ 4.2, huge for X just above."""
    below = run_appending("GoogleDrive", 3.0, total=128 * KB)
    above = run_appending("GoogleDrive", 5.0, total=128 * KB)
    assert below.tue < 2.0
    assert above.tue > 10 * below.tue


def test_tue_decreases_with_modification_period():
    """§6.1: lower update frequency ⇒ fewer sync events ⇒ smaller TUE."""
    runs = [run_appending("Dropbox", x, total=256 * KB) for x in (1, 5, 10)]
    tues = [run.tue for run in runs]
    assert tues == sorted(tues, reverse=True)


def test_ids_beats_full_file_under_frequent_mods():
    """Why Dropbox/SugarSync max TUE ≪ Google Drive/Box in Figure 6."""
    dropbox = run_appending("Dropbox", 5.0, total=256 * KB)
    google = run_appending("GoogleDrive", 5.0, total=256 * KB)
    assert dropbox.tue < google.tue / 3


def test_experiment6_returns_full_sweep():
    runs = experiment6_frequent_mods("Dropbox", xs=(1, 2), total=64 * KB)
    assert [run.x for run in runs] == [1.0, 2.0]
    assert all(run.total_appended == 64 * KB for run in runs)


def test_appending_validation():
    with pytest.raises(ValueError):
        run_appending("Dropbox", 0)
    with pytest.raises(ValueError):
        run_appending("Dropbox", 1.0, append_kb=0.0)


def test_appending_rejects_zero_total():
    """Regression: total=0 divided the traffic by zero appended bytes."""
    with pytest.raises(ValueError, match="total must be positive"):
        run_appending("Dropbox", 2.0, total=0)


@pytest.mark.parametrize("kwargs", [{"count": 0}, {"file_size": 0},
                                    {"count": -1}])
def test_batch_creation_rejects_empty_batches(kwargs):
    """Regression: an empty batch divided the traffic by a zero update."""
    with pytest.raises(ValueError, match="must be positive"):
        experiment1_batch(services=("Dropbox",),
                          access_methods=(AccessMethod.PC,), **kwargs)


@pytest.mark.parametrize("kwargs", [{"file_count": 0}, {"file_size": 0}])
def test_faulty_sync_rejects_empty_uploads(kwargs):
    """Regression: no uploaded bytes divided the traffic by zero."""
    with pytest.raises(ValueError, match="must be positive"):
        run_faulty_sync(**kwargs)
