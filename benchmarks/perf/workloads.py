"""The six workloads: inputs from a seed, one pass, and what the pass proved.

Every workload is a closed loop with one driver: the harness calls
``run_pass`` and waits for it, as a simulator user waits for each call.
Each class follows the same protocol —

* ``setup(tracer)`` builds the inputs from the seed (counted in ``setup_s``);
* ``run_pass(tracer)`` does the program's work and returns raw results;
* ``summarise(raw)`` runs outside the timed region: it counts the ops (which
  are defined by the inputs, never by what the program happened to do),
  checks outputs, and returns the simulated numbers the digest covers;
* ``verify(summary)`` runs once after timing, for checks that need a second,
  independent execution (pool vs sequential, ``run_strategy_cell``);
* ``layers(...)`` turns the traced pass into per-layer metrics;
* ``close()`` releases what ``setup`` started.

``tracer`` is :data:`tracing.NULL_TRACER` on untraced passes, so the timed
passes and the traced pass share this code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import time
from multiprocessing import resource_tracker
from typing import Any, Dict, List, NamedTuple, Tuple

from repro import SERVICES, AccessMethod, SyncSession, service_profile
from repro.client import AdaptiveSelector, make_strategy
from repro.cloud import CloudServer
from repro.content import Content, random_content, text_content
from repro.core import (
    backend_profile,
    generate_mix,
    run_strategy_cell,
    strategy_link,
    strategy_profile,
)
from repro.fleet import Fleet, schedule_writer_workload
from repro.obs import AuditViolation, audit_hub, recording
from repro.simnet import Simulator
from repro.trace import (
    ReplayPool,
    generate_trace,
    iter_trace_shards,
    replay_trace,
)
from repro.units import KB

import probes
from tracing import NULL_TRACER, POP, estimate_waste

#: Input sizes.  ``standard`` is what BENCHMARK.json's numbers mean: each is
#: sized so one pass takes about a second on the 2-core reference sandbox and
#: a run fits ~10 passes in its 10 measured seconds.  ``smoke`` only has to
#: execute every code path quickly.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "standard": {
        "trace-gen": {"scale": 0.2},
        "replay-seq": {"scale": 0.1},
        "replay-pool": {"scale": 0.1},
        "fleet-fanout": {"clients": 1000},
        "sync-create": {"files": 96},
        "sync-edit": {"files": 1},
    },
    "smoke": {
        "trace-gen": {"scale": 0.01},
        "replay-seq": {"scale": 0.01},
        "replay-pool": {"scale": 0.01},
        "fleet-fanout": {"clients": 40},
        "sync-create": {"files": 8},
        "sync-edit": {"files": 1},
    },
}

REPLAY_SERVICES = ("Dropbox", "UbuntuOne", "GoogleDrive")


class Summary(NamedTuple):
    ops: int                 # input-defined units of work in one pass
    sim: Any                 # simulated results; canonical JSON -> digest
    traffic: int             # TUE numerator (simulated bytes)
    update: int              # TUE denominator (simulated bytes)
    attempted: int           # output checks made on this pass
    failed: int              # ... and how many of them failed

    @property
    def tue(self) -> float:
        return self.traffic / self.update

    @property
    def digest(self) -> str:
        text = json.dumps(self.sim, sort_keys=True, default=str)
        return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


class Layers(NamedTuple):
    metrics: Dict[str, float]    # per-layer metric name -> value
    attempted: int = 0           # checks the probes made ...
    failed: int = 0              # ... and how many failed


def slug(profile_name: str) -> str:
    return profile_name.lower().replace("/", "-")


def pool_workers() -> int:
    """No more workers than cores this process may run on, at most 4."""
    return min(len(os.sched_getaffinity(0)), 4)


def timed_audit(audit, *args) -> Tuple[bool, float]:
    """(passed, host seconds) of one conservation audit."""
    start = time.perf_counter()
    try:
        audit(*args)
        passed = True
    except AuditViolation:
        passed = False
    return passed, time.perf_counter() - start


class Workload:
    """What a workload need not say: nothing to build, verify or release."""

    name = ""

    def __init__(self, seed: int, size: Dict[str, Any]):
        self.seed = seed
        self.size = size

    def setup(self, tracer) -> None:
        pass

    def verify(self, summary: Summary) -> Tuple[int, int]:
        return 0, 0

    def close(self) -> None:
        pass


# -- trace-gen ----------------------------------------------------------------

class TraceGen(Workload):
    """Generation is the workload; its warm-up pass is all the set-up."""

    name = "trace-gen"

    def run_pass(self, tracer):
        with tracer.span("trace.generator.generate"):
            return generate_trace(scale=self.size["scale"], seed=self.seed)

    def summarise(self, trace) -> Summary:
        digest = hashlib.blake2b(digest_size=16)
        for record in trace:
            digest.update(repr((
                record.user, record.path, record.size,
                record.compressed_size, record.created_at,
                record.modified_at, record.modify_count,
                record.content_id)).encode())
            digest.update(record.segments.tobytes())
        total, compressed = trace.total_bytes(), trace.total_compressed_bytes()
        sim = {"files": len(trace), "bytes": total, "compressed": compressed,
               "records": digest.hexdigest()}
        # A generated trace moves no traffic; the one simulated ratio it has
        # is what a compress-only, overhead-free sync of it would ship per
        # byte of update, so that stands in for TUE here.
        return Summary(len(trace), sim, compressed, total, 0, 0)

    def layers(self, tracer, trace, summary) -> Layers:
        start = time.perf_counter()
        streamed = sum(len(shard) for shard in iter_trace_shards(
            scale=self.size["scale"], seed=self.seed))
        stream_busy = time.perf_counter() - start
        return Layers({
            "trace.generator.busy_s": tracer.total("trace.generator.generate"),
            "trace.generator.files": len(trace),
            "trace.generator.stream_busy_s": stream_busy,
        }, attempted=1, failed=int(streamed != len(trace)))


# -- replay-seq / replay-pool -------------------------------------------------

class ReplaySeq(Workload):
    name = "replay-seq"
    SPAN = "trace.replay.run"
    BUSY = "trace.replay.busy_s."

    def __init__(self, seed: int, size: Dict[str, Any]):
        super().__init__(seed, size)
        self.profiles = [service_profile(service, AccessMethod.PC)
                         for service in REPLAY_SERVICES]

    def setup(self, tracer) -> None:
        with tracer.span("trace.generator.generate"):
            self.trace = generate_trace(scale=self.size["scale"],
                                        seed=self.seed)

    def _replay(self, profile):
        return replay_trace(self.trace, profile, seed=self.seed)

    def run_pass(self, tracer):
        reports = []
        for profile in self.profiles:
            with tracer.span(self.SPAN, slug(profile.name)):
                reports.append(self._replay(profile))
        return reports

    def summarise(self, reports) -> Summary:
        return Summary(
            ops=len(self.trace) * len(reports),
            sim=[dataclasses.asdict(report) for report in reports],
            traffic=sum(report.traffic_bytes for report in reports),
            update=sum(report.data_update_bytes for report in reports),
            attempted=0, failed=0)

    def layers(self, tracer, reports, summary) -> Layers:
        out = {
            "trace.generator.busy_s": tracer.total("trace.generator.generate"),
            "trace.generator.files": len(self.trace),
            "trace.replay.files": len(self.trace),
        }
        for span in tracer.spans:
            if span.name == self.SPAN:
                out[self.BUSY + span.detail] = span.duration
        return Layers(out)

    def close(self) -> None:
        self.trace = None


class ReplayPooled(ReplaySeq):
    """The same trace and profiles through one persistent fork pool."""

    name = "replay-pool"
    SPAN = "trace.replay.pool_run"
    BUSY = "trace.replay.pool_busy_s."
    pool = None

    def setup(self, tracer) -> None:
        super().setup(tracer)
        with tracer.span("trace.replay.pool_fork"):
            self.pool = ReplayPool(self.trace, workers=pool_workers())
        self.workers = self.pool.worker_count

    def _replay(self, profile):
        return self.pool.replay(profile, seed=self.seed)

    def verify(self, summary: Summary) -> Tuple[int, int]:
        """Pooled reports must equal the sequential ones byte for byte."""
        self.sequential_busy = {}
        failed = 0
        for profile, pooled in zip(self.profiles, summary.sim):
            start = time.perf_counter()
            report = replay_trace(self.trace, profile, seed=self.seed)
            self.sequential_busy[slug(profile.name)] = \
                time.perf_counter() - start
            failed += json.dumps(dataclasses.asdict(report)) \
                != json.dumps(pooled)
        return len(self.profiles), failed

    def layers(self, tracer, reports, summary) -> Layers:
        out = super().layers(tracer, reports, summary).metrics
        pooled = sum(seconds for name, seconds in out.items()
                     if name.startswith(self.BUSY))
        out["trace.replay.pool_fork_s"] = tracer.total("trace.replay.pool_fork")
        out["trace.replay.pool_workers"] = self.workers
        # verify() ran the sequential replays in this same process.
        for name, seconds in self.sequential_busy.items():
            out[ReplaySeq.BUSY + name] = seconds
        # With fewer than two live workers the "pool" runs in-process and
        # the ratio would only measure protocol overhead: claim nothing.
        if self.workers >= 2:
            out["trace.replay.pool_speedup"] = \
                sum(self.sequential_busy.values()) / pooled
        self.close()    # reap the workers so their CPU time is readable
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        out["trace.replay.pool_cpu_s"] = reaped.ru_utime + reaped.ru_stime
        return Layers(out)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
            # Forking the pool also started multiprocessing's resource
            # tracker, a helper that would outlive this run by a moment:
            # stop it and wait, so every process the run started has ended.
            stop = getattr(resource_tracker._resource_tracker, "_stop", None)
            if stop is not None:
                stop()
        super().close()


# -- fleet-fanout -------------------------------------------------------------

class FleetFanout(Workload):
    """The fleet is rebuilt inside every pass; there is nothing to set up."""

    name = "fleet-fanout"
    WRITERS = 4
    FILES_PER_WRITER = 2
    FILE_SIZE = 16 * KB

    def _build(self, **options) -> Fleet:
        fleet = Fleet("GoogleDrive", clients=self.size["clients"],
                      seed=self.seed, **options)
        schedule_writer_workload(
            fleet, writers=self.WRITERS,
            files_per_writer=self.FILES_PER_WRITER,
            file_size=self.FILE_SIZE, seed=self.seed)
        return fleet

    def run_pass(self, tracer):
        with tracer.span("fleet.build"):
            fleet = self._build()
        log = tracer.watch_sim(fleet.sim)
        with tracer.span("simnet.clock.step"):
            while fleet.sim.step():
                pass
        with tracer.span("fleet.report"):
            report = fleet.report()
        return fleet, report, log

    def summarise(self, raw) -> Summary:
        fleet, report, _ = raw
        commits = self.WRITERS * self.FILES_PER_WRITER
        return Summary(
            # A delivery is one commit reaching one client: fixed by the
            # inputs, so coalescing simulator events cannot look like a
            # slowdown.
            ops=self.size["clients"] * commits,
            sim=dataclasses.asdict(report),
            traffic=report.traffic_bytes, update=report.update_bytes,
            attempted=1, failed=int(not fleet.converged()))

    def layers(self, tracer, raw, summary) -> Layers:
        fleet, report, log = raw
        events = log.count(POP)
        step_busy = tracer.total("simnet.clock.step")
        out = {
            "fleet.build_busy_s": tracer.total("fleet.build"),
            "fleet.report_busy_s": tracer.total("fleet.report"),
            "fleet.deliveries": summary.ops,
            "simnet.clock.events": events,
            "simnet.clock.step_busy_s": step_busy,
            "simnet.clock.events_per_s": events / step_busy,
        }
        out.update(probes.queues(log))
        out.update(probes.wire([member.meter for member in fleet.members]))

        # The same fleet sharded into 4 event domains must report the same
        # bytes; the untraced workload is single-queue.
        sharded = self._build(domains=4)
        start = time.perf_counter()
        sharded_events = 0
        while sharded.sim.step():
            sharded_events += 1
        out["simnet.domains.events_per_s"] = \
            sharded_events / (time.perf_counter() - start)
        out["simnet.domains.cross_messages"] = sharded.sim.cross_messages
        parity = sharded.report() == report
        out["simnet.domains.parity"] = int(parity)

        recorded = self._build(record=True)
        recorded.run_until_idle()
        audited, out["fleet.audit_busy_s"] = timed_audit(recorded.audit)
        out["obs.spans"] = recorded.trace_hub.span_count
        return Layers(out, attempted=2,
                      failed=int(not parity) + int(not audited))


# -- sync-create / sync-edit --------------------------------------------------

class Rig(NamedTuple):
    """One session with the parts the read-out needs beside it."""

    session: SyncSession
    server: CloudServer          # the real one, not the timing proxy
    log: Any                     # simulator push/pop log (traced passes)

    @classmethod
    def build(cls, profile, tracer, **options) -> "Rig":
        """A ``SyncSession`` assembled as its defaults would, with the
        server and simulator passed in so a traced pass can put proxies
        there."""
        server = CloudServer(
            dedup=profile.dedup,
            storage_chunk_size=profile.storage_chunk_size,
            name=profile.name, backend=profile.storage_backend)
        sim = Simulator()
        log = tracer.watch_sim(sim)
        session = SyncSession(profile, sim=sim, server=tracer.server(server),
                              **options)
        return cls(session, server, log)

    def sim(self) -> Dict[str, Any]:
        """The simulated numbers of the finished session."""
        ops = self.server.objects.ops
        stats = self.session.client.stats
        return {
            "traffic": self.session.total_traffic,
            "update": self.session.data_update_bytes,
            "report": dataclasses.asdict(self.session.traffic_report()),
            "files_synced": stats.files_synced,
            "retries": stats.retries,
            "rest_ops": ops.total_ops(),
            "put_bytes": ops.put_bytes,
            "stored_bytes": self.server.objects.stored_bytes,
            "shards_sealed": self.server.stats.shards_sealed,
            "meter_records": len(self.session.meter.records),
            "cpu_units": sum(tally.cpu_units for tally in
                             self.session.client.strategy_ledger.values()),
        }


def _session_summary(ops: int, sims, attempted: int, failed: int) -> Summary:
    return Summary(ops, sims,
                   traffic=sum(sim["traffic"] for sim in sims),
                   update=sum(sim["update"] for sim in sims),
                   attempted=attempted, failed=failed)


def _session_layers(tracer, sims, rigs) -> Dict[str, float]:
    """Per-layer metrics every session-driving workload shares."""
    def total(key: str) -> int:
        return sum(sim[key] for sim in sims)

    upload = sum(tracer.total("client.engine." + call, self_time=True)
                 for call in ("create_file", "write_file", "advance",
                              "run_until_idle"))
    log = [entry for rig in rigs for entry in rig.log]
    events = log.count(POP)
    # The step loops of a session run inside advance/run_until_idle.
    step_busy = (tracer.total("client.engine.advance")
                 + tracer.total("client.engine.run_until_idle"))
    out = {
        "client.engine.upload_self_s": upload,
        "client.engine.download_self_s":
            tracer.total("client.engine.download", self_time=True),
        "client.engine.files_synced": total("files_synced"),
        "client.engine.retries": total("retries"),
        "cloud.server.busy_s": tracer.total("cloud.server."),
        "cloud.server.calls": tracer.count("cloud.server."),
        "cloud.server.commit_busy_s": tracer.total("cloud.server.commit"),
        "cloud.server.reconcile_busy_s":
            tracer.total("cloud.server.reconcile")
            + tracer.total("cloud.server.apply_reconciled"),
        "cloud.store.rest_ops": total("rest_ops"),
        "cloud.store.put_bytes": total("put_bytes"),
        "cloud.store.stored_bytes": total("stored_bytes"),
        "cloud.packshard.shards_sealed": total("shards_sealed"),
        "client.strategies.sim_cpu_units": total("cpu_units"),
        "simnet.clock.events": events,
        "simnet.clock.step_busy_s": step_busy,
        "simnet.clock.events_per_s": events / step_busy,
    }
    out.update(probes.queues(log))
    out.update(probes.wire([rig.session.meter for rig in rigs]))
    return out


class SyncCreate(Workload):
    name = "sync-create"
    ADVANCE_EVERY = 8

    def __init__(self, seed: int, size: Dict[str, Any]):
        super().__init__(seed, size)
        self.profiles = [service_profile(service, AccessMethod.PC)
                         for service in SERVICES]
        self.profiles.append(backend_profile("packshard"))

    def setup(self, tracer) -> None:
        # The size multiset is part of the workload's definition, like a
        # client count: Experiment 10's ``paper`` mix at its default seed.
        # The run's seed decides every byte and the creation order.  With a
        # handful of files holding most of the bytes, drawing the sizes (or
        # which files are text, or which are downloaded) from the seed too
        # would make one seed's pass twice another's work.
        sizes = sorted(generate_mix("paper", self.size["files"]),
                       reverse=True)
        files = []
        for rank, size in enumerate(sizes):
            content_seed = 1000 * self.seed + rank
            # Down the size ranking: R T T R ..., so each kind gets half
            # the files and half the bytes; ranks 1, 4 of every 8 are
            # downloaded, one text and one random.
            if rank % 4 in (1, 2):
                with tracer.span("content.text"):
                    content = text_content(size, seed=content_seed)
            else:
                with tracer.span("content.random"):
                    content = random_content(size, seed=content_seed)
            files.append((content, rank % 8 in (1, 4)))
        random.Random(self.seed).shuffle(files)
        self.contents: List[Content] = [content for content, _ in files]
        self.paths = [f"f{index:04d}.bin" for index in range(len(files))]
        self.downloaded = [index for index, (_, wanted) in enumerate(files)
                           if wanted]

    def _one_session(self, profile, tracer) -> Tuple[Rig, List[Content]]:
        rig = Rig.build(profile, tracer)
        session = rig.session
        for index, (path, content) in enumerate(
                zip(self.paths, self.contents)):
            with tracer.span("client.engine.create_file"):
                session.create_file(path, content)
            if index % self.ADVANCE_EVERY == self.ADVANCE_EVERY - 1:
                with tracer.span("client.engine.advance"):
                    session.advance(5.0)
        with tracer.span("client.engine.run_until_idle"):
            session.run_until_idle()
        downloads = []
        for index in self.downloaded:
            with tracer.span("client.engine.download"):
                downloads.append(session.download(self.paths[index]))
        return rig, downloads

    def run_pass(self, tracer):
        return [self._one_session(profile, tracer)
                for profile in self.profiles]

    def summarise(self, raw) -> Summary:
        expected = [self.contents[index] for index in self.downloaded]
        failed = 0
        for _, downloads in raw:
            failed += sum(got.data != want.data
                          for got, want in zip(downloads, expected))
            failed += abs(len(expected) - len(downloads))
        return _session_summary(
            ops=len(raw) * (len(self.contents) + len(expected)),
            sims=[rig.sim() for rig, _ in raw],
            attempted=len(raw) * len(expected), failed=failed)

    def layers(self, tracer, raw, summary) -> Layers:
        out = _session_layers(tracer, summary.sim, [rig for rig, _ in raw])
        out.update({
            "content.random_busy_s": tracer.total("content.random"),
            "content.text_busy_s": tracer.total("content.text"),
            "content.bytes": sum(c.size for c in self.contents),
        })
        out.update(probes.compress(
            self.profiles, self.contents,
            [self.contents[index] for index in self.downloaded]))
        out.update(probes.fixed_chunking(
            self.contents,
            [profile.storage_chunk_size for profile in self.profiles]))

        # Span recording and its audit, measured on this workload because
        # it has a plain (unrecorded) form to compare against.
        start = time.perf_counter()
        self.run_pass(NULL_TRACER)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        with recording() as hub:
            self.run_pass(NULL_TRACER)
        recorded = time.perf_counter() - start
        audited, out["obs.audit_busy_s"] = timed_audit(audit_hub, hub)
        out["obs.spans"] = hub.span_count
        out["obs.record_overhead_ratio"] = recorded / plain
        return Layers(out, attempted=1, failed=int(not audited))

    def close(self) -> None:
        self.contents = []


class EditCell(NamedTuple):
    recipe: str
    strategy: str
    rig: Rig
    hub: Any                     # the cell's TraceHub
    audited: bool


class SyncEdit(Workload):
    """Experiment 11's ``scatter-edit`` and ``clone`` recipes, re-stated on
    the public API so the driver can time each call; ``verify`` holds every
    cell's bytes to ``run_strategy_cell`` for the same arguments."""

    name = "sync-edit"
    STRATEGIES = ("fixed-delta", "cdc-delta", "set-reconcile", "adaptive")
    LINK = "mn"
    STEP = 30.0

    def setup(self, tracer) -> None:
        """Pre-build every file version both recipes will sync."""
        seed, files = self.seed, self.size["files"]

        def fresh(size: int, content_seed: int) -> Content:
            with tracer.span("content.random"):
                return random_content(size, seed=content_seed)

        # scatter-edit: create, then two rounds of three 120-byte patches.
        rng = random.Random(900_001 * seed + 17)
        docs = [(f"docs/doc-{i}.bin",
                 fresh(192 * KB + 32 * KB * i, 11 * seed + i))
                for i in range(files)]
        scatter: List[Tuple[str, str, Content]] = [
            ("create", path, content) for path, content in docs]
        scatter.append(("idle", "", None))
        current = dict(docs)
        self.pairs: List[Tuple[Content, Content]] = []
        for _ in range(2):
            for path, _ in docs:
                data = bytearray(current[path].data)
                for _ in range(3):
                    at = rng.randrange(0, len(data) - 120)
                    data[at:at + 120] = bytes(
                        rng.getrandbits(8) for _ in range(120))
                edited = Content(bytes(data))
                self.pairs.append((current[path], edited))
                scatter.append(("write", path, edited))
                current[path] = edited
            scatter.append(("idle", "", None))

        # clone: create bases, then a 1 KB-prefixed copy of each.
        bases = [(f"docs/base-{i}.bin",
                  fresh(128 * KB + 32 * KB * i, 13 * seed + i))
                 for i in range(files)]
        clone: List[Tuple[str, str, Content]] = [
            ("create", path, content) for path, content in bases]
        clone.append(("idle", "", None))
        for i, (_, base) in enumerate(bases):
            prefix = fresh(1 * KB, 101 * seed + i).data
            copy = Content(prefix + base.data)
            self.pairs.append((base, copy))
            clone.append(("create", f"docs/copy-{i}.bin", copy))
        self.scripts = {"scatter-edit": scatter, "clone": clone}
        self.versions = [content for _, _, content in scatter + clone
                         if content is not None]

    def _strategy(self, name: str, tracer):
        if name == "adaptive":
            return AdaptiveSelector(candidates=[
                tracer.strategy(candidate)
                for candidate in AdaptiveSelector().candidates])
        return tracer.strategy(make_strategy(name))

    def _one_cell(self, recipe: str, strategy: str, tracer) -> EditCell:
        with recording() as hub:
            rig = Rig.build(
                strategy_profile(), tracer,
                link_spec=strategy_link(self.LINK),
                strategy=self._strategy(strategy, tracer))
            session = rig.session
            for action, path, content in self.scripts[recipe]:
                if action == "idle":
                    with tracer.span("client.engine.run_until_idle"):
                        session.run_until_idle()
                    continue
                if action == "create":
                    with tracer.span("client.engine.create_file"):
                        session.create_file(path, content)
                else:
                    with tracer.span("client.engine.write_file"):
                        session.write_file(path, content)
                with tracer.span("client.engine.advance"):
                    session.advance(self.STEP)
            with tracer.span("client.engine.run_until_idle"):
                session.run_until_idle()
        # Experiments 10/11 always run audited; so does this workload.
        with tracer.span("obs.audit"):
            audited, _ = timed_audit(audit_hub, hub)
        return EditCell(recipe, strategy, rig, hub, audited)

    def run_pass(self, tracer):
        return [self._one_cell(recipe, strategy, tracer)
                for recipe in self.scripts for strategy in self.STRATEGIES]

    def summarise(self, raw) -> Summary:
        sims = []
        for cell in raw:
            sims.append(dict(cell.rig.sim(),
                             cell=f"{cell.recipe}/{cell.strategy}"))
        versions = sum(1 for script in self.scripts.values()
                       for action, _, _ in script if action != "idle")
        return _session_summary(
            ops=versions * len(self.STRATEGIES), sims=sims,
            attempted=len(raw),
            failed=sum(not cell.audited for cell in raw))

    def verify(self, summary: Summary) -> Tuple[int, int]:
        failed = 0
        for sim in summary.sim:
            recipe, strategy = sim["cell"].split("/")
            cell = run_strategy_cell(strategy, recipe, self.LINK,
                                     files=self.size["files"], seed=self.seed,
                                     audit=False)
            failed += (cell.traffic, cell.update_bytes) \
                != (sim["traffic"], sim["update"])
        return len(summary.sim), failed

    def layers(self, tracer, raw, summary) -> Layers:
        out = _session_layers(tracer, summary.sim, [cell.rig for cell in raw])
        out.update({
            "content.random_busy_s": tracer.total("content.random"),
            "content.bytes": sum(c.size for c in self.versions),
            "client.strategies.estimate_busy_s":
                tracer.total("client.strategies.estimate"),
            "client.strategies.estimate_calls":
                tracer.count("client.strategies.estimate"),
            "client.strategies.transfer_busy_s":
                tracer.total("client.strategies.transfer"),
            "client.strategies.transfer_calls":
                tracer.count("client.strategies.transfer"),
            "client.strategies.estimate_waste": estimate_waste(tracer),
            "obs.spans": sum(cell.hub.span_count for cell in raw),
            "obs.audit_busy_s": tracer.total("obs.audit"),
        })
        profile = strategy_profile()
        out.update(probes.compress([profile], self.versions, []))
        out.update(probes.fixed_chunking(
            self.versions, [profile.storage_chunk_size]))
        out.update(probes.cdc_chunking(self.versions))
        delta_metrics, attempted, failed = probes.delta(self.pairs)
        out.update(delta_metrics)
        return Layers(out, attempted, failed)

    def close(self) -> None:
        self.versions = []
        self.pairs = []


WORKLOADS = {cls.name: cls for cls in (
    TraceGen, ReplaySeq, ReplayPooled, FleetFanout, SyncCreate, SyncEdit)}
