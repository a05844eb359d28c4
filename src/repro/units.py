"""Size, rate, and time unit helpers shared across the library.

The paper (and the rsync / dedup literature it builds on) uses binary
multiples: ``1 KB == 1024 bytes``.  All byte quantities in this code base
follow that convention.  Bandwidth is expressed in bits per second, matching
how the paper reports link speeds ("20 Mbps", "1.6 Mbps").
"""

from __future__ import annotations

B = 1
KB = 1024
MB = 1024 * KB
GB = 1024 * MB

Kbps = 1_000
Mbps = 1_000_000

MSEC = 1e-3
SEC = 1.0

def fmt_size(nbytes: float) -> str:
    """Render a byte count the way the paper's tables do (e.g. ``1.28 M``)."""
    value = float(nbytes)
    for unit, scale in (("G", GB), ("M", MB), ("K", KB)):
        if value >= scale:
            return f"{value / scale:.2f} {unit}"
    return f"{value:.0f} B"
