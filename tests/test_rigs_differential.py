"""Every single-session cell reads what its hand-built rig read.

Experiments 8, 10 and 11 and the §7 cost vector are cells measured by
:func:`repro.core.measure`; ``reference_rigs`` keeps the rigs they
replaced.  On a small grid of each, every value a renderer or a claim
reads from a :class:`~repro.core.Reading` must equal the rig's.
"""

import pytest

from repro.client import SERVICES
from repro.core import (BACKENDS, STRATEGIES, STRATEGY_WORKLOADS, Cell,
                        backend_profile, cell, churn, cpu_seconds, faulty,
                        measure, mixed, run_strategy_cell, uploads)

from . import reference_rigs as rigs


def faults():
    for rate in (0.0, 0.5, 1.0):
        for resumable in (True, False):
            got = measure(faulty(uploads(), rate, resumable))
            want = rigs.run_faulty_sync(fault_rate=rate, resumable=resumable)
            yield ((got.traffic, got.wasted, got.useful, got.tue,
                    got.client.transient_errors, got.client.retries,
                    got.client.failed_syncs),
                   (want.traffic, want.wasted, want.useful, want.tue,
                    want.transient_errors, want.retries, want.failed_syncs))


def backends():
    for backend in BACKENDS:
        got = measure(Cell(backend_profile(backend), churn("paper", 6)))
        want = rigs.run_backend_cell(backend, "paper", files=6)
        rest = got.rest
        yield ((rest.total_ops() / 6, rest.total_ops(), rest.put, rest.get,
                rest.delete, rest.list, rest.put_bytes, got.stored_bytes,
                got.tue, got.update_bytes, got.server.shards_sealed,
                got.server.shard_compactions, got.client.bundle_commits),
               (want.rest_ops_per_file, want.rest_ops, want.put_ops,
                want.get_ops, want.delete_ops, want.list_ops, want.put_bytes,
                want.stored_bytes, want.tue, want.update_bytes,
                want.shards_sealed, want.shard_compactions,
                want.bundle_commits))


def strategies():
    for workload in STRATEGY_WORKLOADS:
        for strategy in STRATEGIES:
            got = run_strategy_cell(strategy, workload, "mn", files=2,
                                    audit=False)
            want = rigs.run_strategy_cell(strategy, workload, "mn", files=2)
            yield ((got.traffic, got.update_bytes, got.tue,
                    got.client.files_synced, got.strategy_payload,
                    got.round_trips, got.cpu_units),
                   (want.traffic, want.update_bytes, want.tue, want.files,
                    want.strategy_payload, want.round_trips,
                    want.cpu_units))


def tradeoffs():
    for service in SERVICES:
        priced = cell(service, mixed)
        got = measure(priced)
        want = rigs.measure_costs(priced.profile, rigs.mixed_workload)
        yield ((got.traffic, got.update_bytes, got.tue, got.stored_bytes,
                got.logical_bytes, got.rest.total_ops(),
                got.sync_transactions) + cpu_seconds(priced, got),
               (want.traffic_bytes, want.data_update_bytes, want.tue,
                want.stored_bytes, want.logical_bytes, want.rest_operations,
                want.sync_transactions, want.client_cpu_seconds,
                want.server_cpu_seconds))


@pytest.mark.parametrize("grid", [faults, backends, strategies, tradeoffs],
                         ids=["exp8", "exp10", "exp11", "s7"])
def test_cells_read_what_the_rigs_read(grid):
    pairs = list(grid())
    assert pairs
    for got, want in pairs:
        assert got == want
