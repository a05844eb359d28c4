"""Every archived paper artifact, regenerated through its registry entry.

    pytest benchmarks --ignore=benchmarks/perf --benchmark-only

runs each :data:`repro.artifacts.ARTIFACTS` entry that archives text, at
its default arguments, once under pytest-benchmark (the experiments are
deterministic simulations, so repetition would only time the simulator).
It prints and writes every rendered text to ``results/<name>.txt``, then
asserts the paper's qualitative claims about that run — orderings,
crossovers, factors — so a regression fails loudly.  ``REPRO_SCALE=full``
applies each entry's full-scale defaults: the paper's 222,632-file trace
and its C = 1 MB appends.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.artifacts import ARTIFACTS, bench_args
from repro.artifacts.ablations import HISTORY_FILE_SIZE, HISTORY_VERSIONS
from repro.artifacts.paper import FIG2_GRID as GRID
from repro.artifacts.paper import PAPER_DEFERMENTS as EXPECTED
from repro.client import AccessMethod
from repro.core import run_faulty_sync
from repro.core.experiments import DEFAULT_SIZES
from repro.trace import SERVICE_FILES
from repro.units import GB, KB, MB

RESULTS_DIR = Path(__file__).parent / "results"
FULL = os.environ.get("REPRO_SCALE") == "full"


def check_table2(args, result):
    trace, stats, batchable, saving = result
    scale = args.scale
    assert abs(stats.small_fraction - 0.77) < 0.06
    assert abs(batchable - 0.66) < 0.10
    assert abs(stats.modified_fraction - 0.84) < 0.03
    assert abs(stats.compressible_fraction - 0.52) < 0.05
    assert abs(stats.compression_ratio - 1.31) < 0.15
    assert abs(stats.duplicate_file_ratio - 0.188) < 0.07
    if scale == 1.0:
        assert len(trace) == sum(SERVICE_FILES.values())


def check_fig2(args, result):
    original, compressed, stats = result
    assert 0.5 * 962 * KB < stats.mean_size < 1.5 * 962 * KB
    assert 0.5 * 7.5 * KB < stats.median_size < 1.6 * 7.5 * KB
    assert stats.max_size <= 2 * GB
    assert stats.median_compressed < stats.median_size
    # Compressed CDF dominates the original's (compression shrinks files).
    for size in GRID:
        assert compressed[size] >= original[size] - 1e-9


def check_findings(args, findings):
    failed = [finding for finding in findings if not finding.holds]
    assert not failed, failed


def check_table6(args, result):
    # Shape assertions: the paper's qualitative claims hold.
    for access in AccessMethod:
        for service in ("GoogleDrive", "Dropbox", "UbuntuOne"):
            small = result.get(service, access, 1)
            large = result.get(service, access, DEFAULT_SIZES[-1])
            assert small.tue > 1000
            assert large.tue < 1.35


def check_fig3(args, curves):
    for service, points in curves.items():
        tues = dict(points)
        # Paper's moderate-size guidance: ≥100 KB → small TUE; ≥1 MB → ~1.
        assert tues[100 * KB] < 2.5, service
        assert tues[1 * MB] < 1.5, service
        assert tues[1] > 1000, service
        values = [tue for _, tue in sorted(points)]
        assert values == sorted(values, reverse=True), service


def check_table7(args, rows_data):
    by_key = {(r.service, r.access): r for r in rows_data}
    # The paper's finding: only Dropbox and Ubuntu One batch on PC.
    pc = {s: by_key[(s, AccessMethod.PC)].tue
          for s in ("GoogleDrive", "OneDrive", "Dropbox", "Box",
                    "UbuntuOne", "SugarSync")}
    assert pc["Dropbox"] < 3 and pc["UbuntuOne"] < 3
    for other in ("GoogleDrive", "OneDrive", "Box", "SugarSync"):
        assert pc[other] > 3 * max(pc["Dropbox"], pc["UbuntuOne"])
    # Dropbox web/mobile batch partially: within an order of magnitude of 1.
    assert by_key[("Dropbox", AccessMethod.WEB)].tue < 10
    assert by_key[("Dropbox", AccessMethod.MOBILE)].tue < 10


def check_deletion(args, rows_data):
    for row in rows_data:
        assert row.deletion_traffic < 100 * KB, row


def check_fig4(args, cells):
    by_key = {(c.service, c.access, c.size): c for c in cells}
    # IDS flatness on PC for Dropbox and SugarSync.
    for service in ("Dropbox", "SugarSync"):
        small = by_key[(service, AccessMethod.PC, 100 * KB)].traffic
        large = by_key[(service, AccessMethod.PC, 1 * MB)].traffic
        assert large < 2 * small, service
        assert large < 300 * KB, service
    # Full-file growth everywhere else, and for every web/mobile client.
    for service in ("GoogleDrive", "OneDrive", "Box", "UbuntuOne"):
        assert by_key[(service, AccessMethod.PC, 1 * MB)].traffic > 1 * MB
    for access in (AccessMethod.WEB, AccessMethod.MOBILE):
        for service in ("Dropbox", "SugarSync"):
            assert by_key[(service, access, 1 * MB)].traffic > 0.9 * MB


def check_table8(args, rows_data):
    SIZE = args.size
    by_key = {(r.service, r.access): r for r in rows_data}
    # Compressors vs non-compressors (upload, PC).
    for service in ("Dropbox", "UbuntuOne"):
        assert by_key[(service, AccessMethod.PC)].upload_traffic < 0.75 * SIZE
        assert by_key[(service, AccessMethod.PC)].download_traffic < 0.65 * SIZE
    for service in ("GoogleDrive", "OneDrive", "Box", "SugarSync"):
        for access in AccessMethod:
            r = by_key[(service, access)]
            assert r.upload_traffic > SIZE
            assert r.download_traffic > SIZE
    # No web-upload compression anywhere.
    for service in ("Dropbox", "UbuntuOne"):
        assert by_key[(service, AccessMethod.WEB)].upload_traffic > SIZE
    # Mobile upload compression is low-level: between PC and raw.
    for service in ("Dropbox", "UbuntuOne"):
        pc = by_key[(service, AccessMethod.PC)].upload_traffic
        mobile = by_key[(service, AccessMethod.MOBILE)].upload_traffic
        assert pc < mobile < SIZE
    # Ubuntu One mobile DN uncompressed; Dropbox mobile DN compressed.
    assert by_key[("UbuntuOne", AccessMethod.MOBILE)].download_traffic > SIZE
    assert by_key[("Dropbox", AccessMethod.MOBILE)].download_traffic < 0.65 * SIZE


def check_table9(args, findings):
    by_service = {f.service: f for f in findings}
    assert by_service["Dropbox"].same_user == "4 MB"
    assert by_service["Dropbox"].cross_user == "No"
    assert by_service["UbuntuOne"].same_user == "Full file"
    assert by_service["UbuntuOne"].cross_user == "Full file"
    for service in ("GoogleDrive", "OneDrive", "Box", "SugarSync"):
        assert by_service[service].same_user == "No"
        assert by_service[service].cross_user == "No"


def check_fig5(args, curve):
    ratios = [ratio for _, ratio in curve]
    blocks, full_file = ratios[:-1], ratios[-1]
    # Finer blocks dedup (weakly) better; full-file is the floor.
    assert blocks == sorted(blocks, reverse=True)
    assert all(ratio >= full_file - 1e-9 for ratio in blocks)
    # ...but the superiority is trivial (the paper's headline for §5.2).
    assert max(blocks) - full_file < 0.15
    assert 1.1 < full_file < 1.4


def check_fig6(args, curves):
    SERVICES = args.services
    tue = {s: {r.x: r.tue for r in curves[s]} for s in SERVICES}

    # Fixed-defer plateaus below T, spike just above (GD 4.2, OD 10.5, SS 6).
    assert tue["GoogleDrive"][3] < 2 and tue["GoogleDrive"][5] > 20
    assert tue["OneDrive"][8] < 2 and tue["OneDrive"][12] > 10
    assert tue["SugarSync"][5] < 2 and tue["SugarSync"][7] > 3
    # IDS services stay far below full-file services once every deferment
    # has been passed (the Figure 6 ordering).
    assert tue["Dropbox"][5] < tue["GoogleDrive"][5] / 3
    assert tue["Dropbox"][8] < tue["Box"][8] / 3
    assert tue["SugarSync"][12] < tue["OneDrive"][12] / 2
    assert max(tue["SugarSync"].values()) < max(tue["Box"].values()) / 2
    # Box and Ubuntu One decline monotonically-ish (no plateau).
    assert tue["Box"][1] > tue["Box"][20]
    assert tue["UbuntuOne"][1] > tue["UbuntuOne"][20]
    # Past every deferment, TUE decreases with X for everyone.
    for service in SERVICES:
        assert tue[service][12] >= tue[service][20] * 0.8, service


def check_probe_defer(args, results):
    for service, expected in EXPECTED.items():
        inferred = results[service].deferment
        if expected is None:
            assert inferred is None, service
        else:
            assert inferred is not None, service
            assert abs(inferred - expected) < 0.25, (service, inferred)


def check_asd(args, results):
    # ASD's first few iteration rounds sync early while T_i converges, so
    # TUE sits slightly above 1.0 on this short (256 KB) run; the paper's
    # full 1 MB runs amortise that to ≈1.0.
    for service, comparison in results.items():
        for x, original, with_asd in comparison:
            assert with_asd < 2.5, (service, x)
            assert original > 4 * with_asd, (service, x)


def check_fig7(args, results):
    # BJ never exceeds MN, and is strictly lower at the shortest period
    # for the no-defer/IDS services (the paper's headline contrast).
    for service, rows_data in results.items():
        for _, mn, bj in rows_data:
            assert bj <= mn * 1.05, (service, mn, bj)
    for service in ("Box", "Dropbox"):
        x1 = results[service][0]
        assert x1[2] < x1[1], service


def check_fig8(args, result):
    bandwidth, latency, curves = result
    tues = [tue for _, tue in bandwidth]
    assert all(a <= b + 1e-9 for a, b in zip(tues, tues[1:]))
    assert tues[-1] > 1.3 * tues[0]

    tues = [tue for _, tue in latency]
    assert all(a >= b - 1e-9 for a, b in zip(tues, tues[1:]))
    assert tues[0] > 2 * tues[-1]

    # The outdated machine always at or below the typical one; the typical
    # one at or below the advanced one; strict gap for M2 at X=1.
    for index in range(len(curves["M1"])):
        m1 = curves["M1"][index][1]
        m2 = curves["M2"][index][1]
        m3 = curves["M3"][index][1]
        assert m2 <= m1 + 1e-9
        assert m1 <= m3 + 1e-9
    assert curves["M2"][0][1] < 0.8 * curves["M1"][0][1]


def check_faults(args, sweep):
    resumable, restart = sweep[True], sweep[False]
    # Determinism: the same seed reproduces byte-identical traffic totals.
    again = run_faulty_sync(fault_rate=0.5, resumable=False)
    baseline = next(r for r in restart if r.fault_rate == 0.5)
    assert again == baseline

    # Restart-from-zero TUE strictly increases with the fault rate.
    restart_tues = [r.tue for r in restart]
    assert all(a < b for a, b in zip(restart_tues, restart_tues[1:]))

    # The resumable client is strictly cheaper at every nonzero rate.
    for res, nores in zip(resumable, restart):
        if res.fault_rate > 0:
            assert res.tue < nores.tue
            assert 0 < res.wasted < nores.wasted

    # At rate 0 the recovery design is invisible: identical traffic, no waste.
    assert resumable[0].traffic == restart[0].traffic
    assert resumable[0].wasted == restart[0].wasted == 0

    # Wasted bytes are a decomposition of the total, never additive.
    for run in resumable + restart:
        assert run.useful + run.wasted == run.traffic


def check_trace_replay(args, result):
    reports, _ = result
    by_service = {report.service: report for report in reports}
    ordering = [report.service for report in reports]
    # IDS dominates at trace scale (84 % of files get modified).
    assert set(ordering[:2]) == {"Dropbox", "SugarSync"}
    # Every no-mechanism service pays more than every IDS service.
    worst_ids = max(by_service["Dropbox"].traffic_bytes,
                    by_service["SugarSync"].traffic_bytes)
    for service in ("GoogleDrive", "OneDrive", "Box"):
        assert by_service[service].traffic_bytes > worst_ids
    # Mechanism attribution matches the Table 9 / Table 8 design matrix.
    assert by_service["UbuntuOne"].saved_by_dedup > 0
    assert by_service["GoogleDrive"].total_savings == 0


def check_upgrades(args, results):
    by_key = {(r.service, r.upgrade): r for r in results}
    # Services lacking a mechanism gain a lot; services that have it don't.
    assert by_key[("Box", "ids")].saving > 0.8
    assert abs(by_key[("Dropbox", "ids")].saving) < 0.05
    assert by_key[("GoogleDrive", "bds")].saving > 0.5
    assert abs(by_key[("UbuntuOne", "full-file-dedup")].saving) < 0.05
    assert by_key[("GoogleDrive", "asd")].saving > 0.7
    assert by_key[("OneDrive", "asd")].saving > 0.5


def check_ablation_baselines(args, rows_data):
    by_name = {name: (batch, edit, appends)
               for name, batch, edit, appends in rows_data}
    # rsync wins or ties every column against the full-file services.
    for commercial in ("GoogleDrive", "OneDrive", "Box", "SugarSync"):
        assert by_name["RsyncLike"][0] < by_name[commercial][0]
        assert by_name["RsyncLike"][1] < by_name[commercial][1]
    # Dropbox (the best commercial system) is competitive with Syncthing
    # on edits but still pays more protocol overhead than raw rsync.
    assert by_name["RsyncLike"][1] < by_name["Dropbox"][1]


def check_ablation_chunking(args, rows_data):
    by_label = {label: (fixed_shared, cdc_shared)
                for label, fixed_shared, cdc_shared in rows_data}
    # Appends: both chunkers keep the prefix.
    assert by_label["append 16 KB"][0] > 0.9
    assert by_label["append 16 KB"][1] > 0.9
    # Inserts/prepends: fixed loses everything, CDC keeps nearly everything.
    for label in ("insert 1 KB @64K", "prepend 100 B"):
        fixed_shared, cdc_shared = by_label[label]
        assert fixed_shared < 0.15, label
        assert cdc_shared > 0.85, label


def check_ablation_compression(args, rows_data):
    wires = [wire for _, _, wire, _ in rows_data]
    assert wires == sorted(wires, reverse=True)  # none ≥ low ≥ moderate ≥ high
    # Higher levels cost more CPU than LOW on this workload.
    cpu = {level: elapsed for level, _, _, elapsed in rows_data}
    assert cpu["high"] > cpu["low"]


def check_ablation_dedup_scope(args, result):
    raw, rows_data = result
    uploaded = dict(rows_data)
    assert uploaded["none"] == raw
    # Cross-user saves more than same-user; blocks more than full-file;
    # but block-over-full-file superiority is small (§5.2's conclusion).
    assert uploaded["full-file / cross-user"] < uploaded["full-file / same-user"]
    assert uploaded["4 MB blocks / cross-user"] <= uploaded["full-file / cross-user"]
    full_saving = 1 - uploaded["full-file / cross-user"] / raw
    block_saving = 1 - uploaded["512 KB blocks / cross-user"] / raw
    assert block_saving - full_saving < 0.10


def check_ablation_defer(args, table):
    # ASD is the only policy ≈1 across every period (the paper's claim).
    assert all(tue < 2.0 for tue in table["asd"])
    for name in ("none", "fixed(2s)", "fixed(4.2s)", "fixed(10s)"):
        assert any(tue > 5.0 for tue in table[name]), name
    # Every fixed T fails once X > T.
    assert table["fixed(4.2s)"][3] > 5.0   # X=12 > 4.2
    assert table["fixed(10s)"][3] > 5.0    # X=12 > 10


def check_ablation_delta_block(args, rows_data):
    # Edit-delta grows with block size; signature shrinks: a real tradeoff.
    edit_wires = [edit.delta_wire_bytes for _, edit, _ in rows_data]
    sig_wires = [edit.signature_wire_bytes for _, edit, _ in rows_data]
    assert edit_wires == sorted(edit_wires)
    assert sig_wires == sorted(sig_wires, reverse=True)


def check_ablation_history(args, rows_data):
    VERSIONS, FILE_SIZE = HISTORY_VERSIONS, HISTORY_FILE_SIZE
    stored = {keep: bytes_ for keep, bytes_, _ in rows_data}
    # Keeping everything costs ~VERSIONS× the file; keeping 1 costs ~1×.
    assert stored[None] > (VERSIONS - 1) * FILE_SIZE
    assert stored[1] < 1.5 * FILE_SIZE
    assert stored[1] < stored[3] < stored[6] < stored[None]


def check_ablation_tradeoffs(args, reports):
    by_name = {report.profile_name: report for report in reports}
    ids = by_name["Dropbox/pc"]
    full = by_name["Box/pc"]
    # The double-edged sword, quantified.
    assert ids.traffic_bytes < full.traffic_bytes / 3
    assert ids.rest_operations > full.rest_operations


CHECKS = {name[len("check_"):].replace("_", "-"): check
          for name, check in list(globals().items())
          if name.startswith("check_")}


@pytest.mark.parametrize("entry", [e for e in ARTIFACTS if e.artifacts],
                         ids=lambda entry: entry.name)
def test_artifact(benchmark, entry):
    args = bench_args(entry, full=FULL)
    result = benchmark.pedantic(entry.run, args=(args,), rounds=1,
                                iterations=1, warmup_rounds=0)
    texts = entry.render(args, result)
    assert tuple(texts) == entry.artifacts
    for name, text in texts.items():
        print(f"\n===== {name} =====\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    CHECKS[entry.name](args, result)
