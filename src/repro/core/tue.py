"""The TUE metric (Eq. 1) and traffic decomposition reports.

    TUE = total data sync traffic / data update size

When compression is in play, the paper defines the data update size as the
*compressed* size of the altered bits (footnote 2); :func:`tue` leaves the
choice of denominator to the caller (``HIGH_COMPRESSION.wire_size`` prices
the footnote-2 variant).

:func:`tue` is the one zero-update rule every ``tue`` property applies:
traffic against no update is infinitely inefficient (``inf``) and no
traffic at all is undefined (``nan``), the two cases
:func:`~repro.reporting.fmt_tue` renders.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simnet import TrafficMeter


def tue(total_sync_traffic: int, data_update_size: int) -> float:
    """Traffic Usage Efficiency — Eq. 1 of the paper.

    ``inf`` for traffic against a zero update, ``nan`` for neither; only a
    negative count raises.
    """
    if data_update_size < 0:
        raise ValueError("data update size cannot be negative")
    if total_sync_traffic < 0:
        raise ValueError("sync traffic cannot be negative")
    if data_update_size == 0:
        return float("inf") if total_sync_traffic else float("nan")
    return total_sync_traffic / data_update_size


@dataclass(frozen=True)
class TrafficReport:
    """A complete TUE readout for one experiment run.

    ``up_wasted`` / ``down_wasted`` decompose the totals above into the
    failure-induced component (retransmissions under loss bursts, aborted
    sends, restart-from-zero re-sends, rejected requests).  They are a
    *subset* of payload+overhead, never additive, so every pre-existing TUE
    number is unchanged when no faults are injected (both are then zero).
    """

    up_payload: int
    up_overhead: int
    down_payload: int
    down_overhead: int
    data_update_size: int
    up_wasted: int = 0
    down_wasted: int = 0

    @property
    def total(self) -> int:
        return (self.up_payload + self.up_overhead
                + self.down_payload + self.down_overhead)

    @property
    def overhead(self) -> int:
        return self.up_overhead + self.down_overhead

    @property
    def payload(self) -> int:
        return self.up_payload + self.down_payload

    @property
    def wasted(self) -> int:
        """Failure-induced bytes (already included in :attr:`total`)."""
        return self.up_wasted + self.down_wasted

    @property
    def useful(self) -> int:
        """Bytes the sync protocol would have moved on a healthy network."""
        return self.total - self.wasted

    @property
    def tue(self) -> float:
        return tue(self.total, self.data_update_size)

    @property
    def useful_tue(self) -> float:
        """TUE of the useful component alone — the healthy-network baseline."""
        return tue(self.useful, self.data_update_size)

    @property
    def overhead_fraction(self) -> float:
        return self.overhead / self.total if self.total else 0.0

    @staticmethod
    def from_meter(meter: TrafficMeter, data_update_size: int) -> "TrafficReport":
        return TrafficReport(
            up_payload=meter.up.payload,
            up_overhead=meter.up.overhead,
            down_payload=meter.down.payload,
            down_overhead=meter.down.overhead,
            data_update_size=data_update_size,
            up_wasted=meter.up.wasted,
            down_wasted=meter.down.wasted,
        )
