"""Differential battery pinning the sync-strategy refactor.

The strategy refactor (PR 10) replaces the hard-coded full-file/delta
dispatch inside ``SyncClient._sync_one`` with pluggable
:class:`~repro.client.strategies.SyncStrategy` objects.  The refactor is
only safe if it is *byte-identical*: same wire spans, same meter fields,
for every stock profile over both link presets.

Because the pre-refactor client no longer exists once the refactor lands,
its behaviour is pinned by a committed fixture
(``tests/golden/strategy_baseline.json``) captured against the original
engine.  Three batteries compare against it:

1. the profile-driven **default** path (no explicit strategy) must match
   the fixture for all 18 stock profiles x both links;
2. the **explicit strategy** path (``FullFileStrategy``, or
   ``FixedBlockDeltaStrategy`` on IDS profiles) must reproduce the same
   bytes and the same wire spans — extraction changed nothing;
3. strategy cells must be byte-identical **traced vs. untraced** (the
   ``--trace``/audit machinery cannot perturb the bytes it observes).

Regenerate the fixture only against a known-good engine::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_strategy_differential.py -k default
"""

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.client import SyncSession, all_profiles
from repro.content import random_content
from repro.obs import recording
from repro.simnet import bj_link, mn_link
from repro.units import KB

GOLDEN = Path(__file__).parent / "golden" / "strategy_baseline.json"
ALL = all_profiles()
LINKS = [("mn", mn_link), ("bj", bj_link)]

#: Logical span kinds introduced by the strategy refactor.  They are
#: zero-cost markers (no meter delta), so byte-identity is defined over
#: everything else: all wire spans plus the pre-existing logical kinds.
STRATEGY_SPAN_KINDS = frozenset({"strategy-select", "delta-exchange"})


def drive_workload(session):
    """Scripted workload: create, edit in place, append, text file,
    rename, delete — every transfer shape the engine dispatches on."""
    session.advance(1.0)
    session.create_random_file("docs/a.bin", 96 * KB, seed=1)
    session.run_until_idle()
    session.advance(30.0)
    session.modify_random_byte("docs/a.bin", seed=2)
    session.run_until_idle()
    session.advance(30.0)
    session.append("docs/a.bin", random_content(4 * KB, seed=3))
    session.run_until_idle()
    session.advance(90.0)  # crosses idle_timeout: forces a reconnect
    session.create_text_file("notes/b.txt", 8 * KB, seed=4)
    session.run_until_idle()
    session.advance(30.0)
    session.folder.rename("notes/b.txt", "notes/c.txt")
    session.run_until_idle()
    session.advance(30.0)
    session.delete_file("notes/c.txt")
    session.run_until_idle()


def report_fields(report):
    return [report.up_payload, report.up_overhead, report.down_payload,
            report.down_overhead, report.data_update_size, report.up_wasted,
            report.down_wasted]


def span_fingerprint(hub):
    """(sha256, count) over every span except the new strategy markers.

    Span indices are deliberately excluded: inserting zero-cost logical
    spans shifts indices without moving a byte.
    """
    entries = []
    for recorder in hub.recorders:
        for span in recorder.spans:
            if span.kind in STRATEGY_SPAN_KINDS:
                continue
            delta = asdict(span.delta) if span.delta is not None else None
            entries.append([span.kind, span.name, span.source, span.start,
                            span.end, delta, dict(span.attrs)])
    blob = json.dumps(entries, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest(), len(entries)


def run_session(profile, link_spec, strategy=None):
    kwargs = {} if strategy is None else {"strategy": strategy}
    with recording() as hub:
        session = SyncSession(profile, link_spec=link_spec, **kwargs)
        drive_workload(session)
        report = report_fields(session.traffic_report())
    digest, count = span_fingerprint(hub)
    return {"report": report, "span_digest": digest, "span_count": count}


def golden_key(profile, link_name):
    return f"{profile.name}|{link_name}"


def load_golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("link_name,link_factory", LINKS,
                         ids=[name for name, _ in LINKS])
@pytest.mark.parametrize("profile", ALL, ids=lambda p: p.name)
def test_default_path_matches_pre_refactor_baseline(profile, link_name,
                                                    link_factory):
    observed = run_session(profile, link_factory())
    if os.environ.get("REGEN_GOLDEN"):
        data = load_golden() if GOLDEN.exists() else {}
        data[golden_key(profile, link_name)] = observed
        GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return
    expected = load_golden()[golden_key(profile, link_name)]
    assert observed == expected, (
        f"{profile.name} over {link_name}: the default sync path diverged "
        f"from the pre-refactor client")


@pytest.mark.parametrize("link_name,link_factory", LINKS,
                         ids=[name for name, _ in LINKS])
@pytest.mark.parametrize("profile", ALL, ids=lambda p: p.name)
def test_explicit_strategy_matches_pre_refactor_baseline(profile, link_name,
                                                         link_factory):
    """FullFileStrategy (FixedBlockDeltaStrategy on IDS profiles) pinned
    explicitly must be indistinguishable from the pre-refactor client."""
    from repro.client.strategies import (
        FixedBlockDeltaStrategy,
        FullFileStrategy,
    )

    strategy = (FixedBlockDeltaStrategy() if profile.uses_ids
                else FullFileStrategy())
    observed = run_session(profile, link_factory(), strategy=strategy)
    expected = load_golden()[golden_key(profile, link_name)]
    assert observed == expected, (
        f"{profile.name} over {link_name}: explicit {strategy.name} "
        f"strategy diverged from the pre-refactor client")


@pytest.mark.parametrize("strategy_name",
                         ["full-file", "fixed-delta", "cdc-delta",
                          "set-reconcile", "adaptive"])
def test_strategy_cell_traced_equals_untraced(strategy_name):
    """The audit/trace machinery must not perturb a strategy's bytes."""
    from repro.core import run_strategy_cell

    untraced = run_strategy_cell(strategy_name, "scatter-edit", "mn",
                                 files=2, seed=5, audit=False)
    traced = run_strategy_cell(strategy_name, "scatter-edit", "mn",
                               files=2, seed=5, audit=True)
    assert traced == untraced
