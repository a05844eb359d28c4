"""Probes: a layer's public function, called standalone on exactly the
inputs a workload produced, and timed.

A probe is the fallback where no seam lets a span be recorded in situ
(compression, chunking, delta coding, the event queue, packetisation
arithmetic).  It measures the layer's cost on the workload's data, not the
layer's share of the pass: a cache inside the program can make the in-situ
cost smaller than the probe's.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chunking import cdc_spans, chunk_data
from repro.delta import (
    DEFAULT_BLOCK_SIZE,
    apply_cdc_delta,
    apply_delta,
    compute_cdc_delta,
    compute_delta,
    compute_signature,
)
from repro.simnet import (
    Channel,
    Event,
    Link,
    Simulator,
    TrafficMeter,
    make_event_queue,
    mn_link,
)

from tracing import POP

Metrics = Dict[str, float]


def _timed(function, *args):
    start = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - start


def compress(profiles, uploads, downloads) -> Metrics:
    """Each profile's upload policy over what the workload uploads, and its
    download policy over what the workload downloads."""
    busy = 0.0
    calls = bytes_in = bytes_out = 0
    for profile in profiles:
        for policy, contents in ((profile.upload_compression, uploads),
                                 (profile.download_compression, downloads)):
            if not policy.enabled:
                continue
            for content in contents:
                wire, seconds = _timed(policy.compress, content.data)
                busy += seconds
                calls += 1
                bytes_in += content.size
                bytes_out += len(wire)
    return {
        "compress.busy_s": busy,
        "compress.calls": calls,
        "compress.bytes_in": bytes_in,
        "compress.ratio": bytes_out / bytes_in if bytes_in else 0.0,
    }


def fixed_chunking(contents, chunk_sizes: Iterable[Optional[int]]) -> Metrics:
    """Fixed-size chunking + fingerprinting as the full-file route does it:
    one pass per profile, whole-file units where the profile has no size."""
    busy = 0.0
    for chunk_size in chunk_sizes:
        for content in contents:
            _, seconds = _timed(chunk_data, content.data,
                                chunk_size or max(content.size, 1))
            busy += seconds
    return {"chunking.fixed_busy_s": busy}


def cdc_chunking(contents) -> Metrics:
    busy = 0.0
    total = 0
    for content in contents:
        _, seconds = _timed(cdc_spans, content.data)
        busy += seconds
        total += content.size
    return {
        "chunking.cdc_busy_s": busy,
        "chunking.cdc_bytes": total,
        "chunking.cdc_mb_per_s": total / 1e6 / busy if busy else 0.0,
    }


def delta(pairs) -> Tuple[Metrics, int, int]:
    """Both delta codecs over each old -> new pair; also checks that each
    delta applied to the old bytes gives the new bytes."""
    busy = {"signature": 0.0, "compute": 0.0, "cdc_compute": 0.0,
            "apply": 0.0}
    literal = new_bytes = failed = 0
    for old, new in pairs:
        signature, seconds = _timed(compute_signature, old.data,
                                    DEFAULT_BLOCK_SIZE)
        busy["signature"] += seconds
        fixed, seconds = _timed(compute_delta, signature, new.data)
        busy["compute"] += seconds
        cdc, seconds = _timed(compute_cdc_delta, old.data, new.data)
        busy["cdc_compute"] += seconds
        rebuilt, seconds = _timed(apply_delta, old.data, fixed)
        busy["apply"] += seconds
        cdc_rebuilt, seconds = _timed(apply_cdc_delta, old.data, cdc)
        busy["apply"] += seconds
        failed += (rebuilt != new.data) + (cdc_rebuilt != new.data)
        literal += fixed.literal_bytes
        new_bytes += new.size
    metrics = {f"delta.{name}_busy_s": seconds
               for name, seconds in busy.items()}
    # Literal bytes are the ones the match search failed to avoid sending.
    metrics["delta.literal_share"] = literal / new_bytes if new_bytes else 0.0
    return metrics, 2 * len(pairs), failed


def queues(log: Sequence[float]) -> Metrics:
    """The pass's own push/pop sequence through each event queue."""
    out = {}
    for kind, metric in (("calendar", "simnet.clock.queue_busy_s"),
                         ("heap", "simnet.clock.heap_queue_busy_s")):
        queue = make_event_queue(kind)
        start = time.perf_counter()
        for seq, entry in enumerate(log):
            if entry == POP:
                queue.pop()
            else:
                queue.push(Event(entry, seq, None, ()))
        out[metric] = time.perf_counter() - start
    return out


def wire(meters: List[TrafficMeter]) -> Metrics:
    """Packetisation arithmetic over every payload size the meters saw."""
    payloads = [record.payload for meter in meters
                for record in meter.records if record.payload]
    channel = Channel(Simulator(), Link(mn_link()), TrafficMeter())
    start = time.perf_counter()
    for payload in payloads:
        Link.wire_cost(payload)
    wire_cost = time.perf_counter() - start
    start = time.perf_counter()
    for payload in payloads:
        channel.estimate_exchange(up_payload=payload)
    estimate = time.perf_counter() - start
    return {
        "simnet.link.wire_cost_busy_s": wire_cost,
        "simnet.protocol.estimate_busy_s": estimate,
        "simnet.meter.records": sum(len(meter.records) for meter in meters),
    }
