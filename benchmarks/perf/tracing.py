"""Host-time spans recorded from outside the program.

The benchmark never edits ``src/``: a span is either timed in situ around a
call the driver itself makes, or around a call that crosses a timing proxy
injected at a seam the program already has (``SyncSession(server=,
strategy=)``, ``AdaptiveSelector(candidates=)``).  Spans stay in memory for
the whole pass and are written out once, at the end.

Untraced passes go through :data:`NULL_TRACER`, so the timed end-to-end
passes and the traced pass run the very same driver code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.client import SyncStrategy

#: Marker for "pop" in a simulator operation log (pushes are event times,
#: which are never negative).
POP = -1.0


class Span:
    __slots__ = ("id", "name", "detail", "start", "end", "parent")

    def __init__(self, id: int, name: str, detail: Optional[str],
                 start: float, parent: Optional[int]):
        self.id = id
        self.name = name
        self.detail = detail
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "detail": self.detail,
                "start": self.start, "end": self.end, "parent": self.parent}


class Tracer:
    """A stack of open spans; the one on top is the parent of the next."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, detail: Optional[str] = None) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, detail, time.perf_counter(), parent)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    # -- proxies ------------------------------------------------------------

    def server(self, server: Any) -> Any:
        return TimedServer(server, self)

    def strategy(self, strategy: SyncStrategy) -> SyncStrategy:
        return TimedStrategy(strategy, self)

    def watch_sim(self, sim: Any) -> List[float]:
        """Log every push (its event time) and pop of ``sim``'s queue.

        ``Fleet`` builds its own simulator and has no ``sim=`` seam, so the
        two public methods are wrapped on the instance; every caller looks
        them up on the instance, which the push/pop balance check in the
        smoke test confirms.
        """
        log: List[float] = []
        schedule, step = sim.schedule, sim.step

        def logged_schedule(delay, callback, *args):
            event = schedule(delay, callback, *args)
            log.append(event.time)
            return event

        def logged_step():
            log.append(POP)
            if step():
                return True
            log.pop()
            return False

        sim.schedule = logged_schedule
        sim.step = logged_step
        return log

    # -- read-out -----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """span id -> duration minus the part its child spans cover."""
        own = {span.id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def total(self, prefix: str, self_time: bool = False) -> float:
        own = self.self_times() if self_time else None
        return sum(own[span.id] if own is not None else span.duration
                   for span in self.spans if span.name.startswith(prefix))

    def count(self, prefix: str) -> int:
        return sum(1 for span in self.spans if span.name.startswith(prefix))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


class NullTracer:
    """Same surface as :class:`Tracer`; records nothing, injects nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str, detail: Optional[str] = None) -> _NullSpan:
        return self._span

    def server(self, server: Any) -> Any:
        return server

    def strategy(self, strategy: SyncStrategy) -> SyncStrategy:
        return strategy

    def watch_sim(self, sim: Any) -> None:
        return None


NULL_TRACER = NullTracer()


class TimedServer:
    """Forwards to a ``CloudServer``; every public call is one span."""

    def __init__(self, inner: Any, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._timed: Dict[str, Any] = {}

    def __getattr__(self, attr: str) -> Any:
        timed = self._timed.get(attr)
        if timed is not None:
            return timed
        value = getattr(self._inner, attr)
        if attr.startswith("_") or not callable(value):
            return value
        tracer, name = self._tracer, "cloud.server." + attr

        def timed(*args, **kwargs):
            with tracer.span(name):
                return value(*args, **kwargs)

        self._timed[attr] = timed
        return timed


class TimedStrategy(SyncStrategy):
    """Forwards to a strategy; ``estimate`` and ``transfer`` are spans."""

    def __init__(self, inner: SyncStrategy, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.wire_names = inner.wire_names

    def applicable(self, client, change, content) -> bool:
        return self.inner.applicable(client, change, content)

    def estimate(self, client, change, content):
        with self.tracer.span("client.strategies.estimate", self.name):
            return self.inner.estimate(client, change, content)

    def transfer(self, client, change, content, lightweight=False,
                 in_batch=False) -> float:
        with self.tracer.span("client.strategies.transfer", self.name):
            return self.inner.transfer(client, change, content,
                                       lightweight=lightweight,
                                       in_batch=in_batch)

    def resolve(self, client, change, content) -> SyncStrategy:
        chosen = self.inner.resolve(client, change, content)
        if chosen is self.inner:
            return self
        if isinstance(chosen, TimedStrategy):
            return chosen
        return TimedStrategy(chosen, self.tracer)

    def basis_block_size(self, profile):
        return self.inner.basis_block_size(profile)


def estimate_waste(tracer: Tracer) -> float:
    """Estimate time spent on candidates that were not then chosen, as a
    share of all estimate time (0.0 when nothing was estimated)."""
    pending: List[Span] = []
    wasted = total = 0.0
    for span in tracer.spans:
        if span.name == "client.strategies.estimate":
            pending.append(span)
            total += span.duration
        elif span.name == "client.strategies.transfer":
            wasted += sum(est.duration for est in pending
                          if est.detail != span.detail)
            pending = []
    return wasted / total if total else 0.0
