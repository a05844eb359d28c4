"""Shape tests for the measurement cell (the paper's headline findings).

These assert the *qualitative* results — who wins, orderings, crossovers —
rather than absolute bytes, which is the reproduction contract.
"""

import dataclasses
import math

import pytest

from repro.client import SERVICES, AccessMethod
from repro.core import (Cell, Reading, append, batch, cell, churn, create,
                        delete, edits, generate_mix, measure, modify,
                        upload_download, uploads)
from repro.units import KB, MB


# ---------------------------------------------------------------------------
# The cell itself
# ---------------------------------------------------------------------------

def test_cell_fields_are_the_rig_and_the_session_seam():
    assert [field.name for field in dataclasses.fields(Cell)] == \
        ["profile", "recipe", "link", "machine", "retry", "faults",
         "strategy"]


def test_each_mark_closes_one_phase():
    """``mark()`` drains, keeps the closed phase's traffic and zeroes the
    meter, so the reading covers only what follows the last mark."""
    def recipe(session, mark):
        session.create_random_file("a.bin", 64 * KB, seed=1)
        mark()
        mark()
        session.create_random_file("b.bin", 32 * KB, seed=2)

    reading = measure(cell("Box", recipe))
    first, empty = reading.marked
    assert first > 64 * KB and empty == 0
    assert reading.update_bytes == 32 * KB
    assert 32 * KB < reading.traffic < first
    assert reading.sync_transactions == 2


# ---------------------------------------------------------------------------
# Experiment 1 (Table 6 / Figure 3)
# ---------------------------------------------------------------------------

def test_zero_size_creation_tue_is_infinite():
    """Regression: the old ``max(size, 1)`` denominator made a 0-byte
    creation report TUE == traffic, as if one byte had been written."""
    reading = measure(cell("Dropbox", create(0)))
    assert reading.traffic > 0         # the sync itself still costs bytes
    assert math.isinf(reading.tue)
    assert math.isinf(Reading(traffic=1234, payload=0, update_bytes=0,
                              sync_transactions=1).tue)


def test_zero_size_modification_cell_tue_is_infinite():
    """A modification reading with no data update cannot come out of
    ``modify`` (you cannot flip a byte of an empty file) but is
    constructible; its sentinel must match creation's instead of silently
    reporting TUE == traffic.  Figure 4's 1-byte flip keeps TUE ==
    traffic."""
    assert math.isinf(Reading(traffic=999, payload=0, update_bytes=0,
                              sync_transactions=1).tue)
    one = Reading(traffic=999, payload=0, update_bytes=1, sync_transactions=1)
    assert one.tue == 999.0
    flip = measure(cell("Dropbox", modify(1 * KB)))
    assert flip.update_bytes == 1
    assert flip.tue == flip.traffic


def test_idle_cell_tue_is_nan():
    """No traffic and no update leaves the TUE undefined (``nan``), the
    convention ``fmt_tue`` renders as ``—``; it is not infinite."""
    reading = measure(cell("Dropbox", lambda session, mark: None))
    assert (reading.traffic, reading.update_bytes) == (0, 0)
    assert math.isnan(reading.tue)


def test_one_byte_creation_tue_is_traffic():
    """Size 1 must keep its exact historical meaning: traffic / 1."""
    reading = measure(cell("Dropbox", create(1)))
    assert reading.tue == reading.traffic
    assert not math.isinf(reading.tue)


def test_creation_tue_decreases_with_size():
    """Figure 3: small files → huge TUE; ≥1 MB → TUE under ~1.5."""
    tues = [measure(cell("GoogleDrive", create(size))).tue
            for size in (1, 1 * KB, 100 * KB, 1 * MB, 10 * MB)]
    assert tues == sorted(tues, reverse=True)
    assert tues[0] > 1000          # 1-byte file: thousands
    assert tues[-1] < 1.5          # 10 MB file: near 1


def test_creation_traffic_close_to_table6_anchors():
    """Spot-check two calibration anchors from Table 6."""
    gd = measure(cell("GoogleDrive", create(1)))
    assert gd.traffic == pytest.approx(9 * KB, rel=0.35)
    db = measure(cell("Dropbox", create(10 * MB)))
    assert db.traffic == pytest.approx(12.5 * MB, rel=0.15)


def test_overhead_dominates_small_files():
    reading = measure(cell("Box", create(1 * KB)))
    assert reading.traffic - reading.payload > 10 * reading.update_bytes


# ---------------------------------------------------------------------------
# Experiment 1' (Table 7)
# ---------------------------------------------------------------------------

def test_bds_services_beat_non_bds_by_an_order_of_magnitude():
    rows = {
        service: measure(cell(service, batch(count=50)))
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
    for service in SERVICES:
        reading = measure(cell(service, delete(1 * MB)))
        assert reading.traffic < 100 * KB, (service, reading)


# ---------------------------------------------------------------------------
# Experiment 3 (Figure 4)
# ---------------------------------------------------------------------------

def test_ids_flat_full_file_linear():
    """Figure 4(a): Dropbox's curve is flat in file size; Google Drive's
    grows linearly (full-file sync)."""
    sizes = (100 * KB, 1 * MB)
    db = [measure(cell("Dropbox", modify(size))).traffic for size in sizes]
    gd = [measure(cell("GoogleDrive", modify(size))).traffic
          for size in sizes]
    assert db[1] < db[0] * 2          # flat-ish
    assert gd[1] > gd[0] * 5          # ~linear in size
    assert db[1] < gd[1] / 10


def test_dropbox_modification_near_50kb():
    """§4.3: one-byte mod via Dropbox PC ≈ 50 KB (overhead + one chunk)."""
    reading = measure(cell("Dropbox", modify(1 * MB)))
    assert 20 * KB < reading.traffic < 120 * KB


def test_mobile_and_web_always_full_file():
    """Figure 4(b)/(c): no IDS off the PC client."""
    for access in (AccessMethod.WEB, AccessMethod.MOBILE):
        traffic = measure(cell("Dropbox", modify(1 * MB), access)).traffic
        assert traffic > 0.9 * MB


# ---------------------------------------------------------------------------
# Experiment 4 (Table 8)
# ---------------------------------------------------------------------------

def test_compression_matrix_shapes():
    size = 2 * MB

    def up_down(service, access):
        reading = measure(cell(service, upload_download(size), access))
        up, = reading.marked
        return up, reading.traffic

    db_pc_up, db_pc_down = up_down("Dropbox", AccessMethod.PC)
    gd_pc_up, gd_pc_down = up_down("GoogleDrive", AccessMethod.PC)
    # Dropbox compresses up and down; Google Drive neither.
    assert db_pc_up < 0.75 * size
    assert db_pc_down < 0.65 * size
    assert gd_pc_up > size
    assert gd_pc_down > size
    # Nobody compresses web uploads.
    db_web_up, db_web_down = up_down("Dropbox", AccessMethod.WEB)
    assert db_web_up > size
    assert db_web_down < 0.65 * size  # but the cloud still does
    # Mobile upload compression is low-level: worse than PC, better than raw.
    db_mobile_up, _ = up_down("Dropbox", AccessMethod.MOBILE)
    assert db_pc_up < db_mobile_up < size
    # Ubuntu One mobile downloads are uncompressed (Table 8's one asymmetry).
    _, u1_mobile_down = up_down("UbuntuOne", AccessMethod.MOBILE)
    assert u1_mobile_down > size


# ---------------------------------------------------------------------------
# Experiment 6 (Figure 6)
# ---------------------------------------------------------------------------

def test_fixed_defer_plateau_then_spike():
    """Google Drive: TUE ≈ 1 for X < T ≈ 4.2, huge for X just above."""
    below = measure(cell("GoogleDrive", append(3.0, total=128 * KB)))
    above = measure(cell("GoogleDrive", append(5.0, total=128 * KB)))
    assert below.tue < 2.0
    assert above.tue > 10 * below.tue


def test_tue_decreases_with_modification_period():
    """§6.1: lower update frequency ⇒ fewer sync events ⇒ smaller TUE."""
    tues = [measure(cell("Dropbox", append(x, total=256 * KB))).tue
            for x in (1, 5, 10)]
    assert tues == sorted(tues, reverse=True)


def test_ids_beats_full_file_under_frequent_mods():
    """Why Dropbox/SugarSync max TUE ≪ Google Drive/Box in Figure 6."""
    dropbox = measure(cell("Dropbox", append(5.0, total=256 * KB)))
    google = measure(cell("GoogleDrive", append(5.0, total=256 * KB)))
    assert dropbox.tue < google.tue / 3


def test_experiment6_returns_full_sweep():
    """Every period appends the whole ``total``: the TUE denominator."""
    for x in (1, 2):
        reading = measure(cell("Dropbox", append(x, total=64 * KB)))
        assert reading.update_bytes == 64 * KB


@pytest.mark.parametrize("recipe, args, kwargs, message", [
    (append, (0,), {}, "x must be positive"),
    (append, (1.0,), {"append_kb": 0.0}, "append size"),
    # Regression: total=0 divided the traffic by zero appended bytes.
    (append, (2.0,), {"total": 0}, "total must be positive"),
    # Regression: an empty batch divided the traffic by a zero update.
    (batch, (), {"count": 0}, "must be positive"),
    (batch, (), {"count": -1}, "must be positive"),
    # Regression: a negative count built a cell with -0.0 REST ops/file,
    # and zero files an empty one.
    (churn, ("paper", -3), {}, "files must be >= 1"),
    (churn, ("paper", 0), {}, "files must be >= 1"),
    (edits, ("scatter-edit", -1), {}, "files must be >= 1"),
    (edits, ("fresh", 0), {}, "files must be >= 1"),
    (edits, ("bogus",), {}, "unknown workload"),
    (generate_mix, ("paper", -2), {}, "files must be >= 0"),
], ids=["append-x", "append-kb", "append-total", "batch-count",
        "batch-negative-count", "churn-negative-files",
        "churn-zero-files", "edits-negative-files", "edits-zero-files",
        "edits-unknown-workload", "mix-negative-files"])
def test_recipe_rejects_degenerate_inputs(recipe, args, kwargs, message):
    """Recipes check their inputs when built, before any rig exists."""
    with pytest.raises(ValueError, match=message):
        recipe(*args, **kwargs)


@pytest.mark.parametrize("kwargs", [{"count": 0}, {"size": 0}])
def test_faulty_sync_rejects_empty_uploads(kwargs):
    """Regression: no uploaded bytes divided the traffic by zero."""
    with pytest.raises(ValueError, match="must be positive"):
        uploads(**kwargs)
