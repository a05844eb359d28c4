"""Per-byte gear-hash CDC — the oracle for ``repro.chunking.cdc``.

This is the loop ``cdc_spans`` was before it became a windowed numpy
kernel: one table lookup + shift per byte over a Python integer folded to
64 bits, accumulator reset at every cut.  It lives here (imported by
nothing under ``src/``, sharing nothing with it — table and mask are
rebuilt from their definitions) because its arithmetic cannot wrap, cast
or reorder; the differential tests in ``test_cdc.py`` require the kernel
to return exactly these spans.  Unlike the kernel it accepts ``min_size``
below the window width.
"""

import random
from typing import List, Tuple

_GEAR_RNG = random.Random("repro-gear-table")
_GEAR = tuple(_GEAR_RNG.getrandbits(64) for _ in range(256))
_MASK64 = (1 << 64) - 1


def reference_cdc_spans(data: bytes, min_size: int, avg_size: int,
                        max_size: int) -> List[Tuple[int, int]]:
    if not 0 < min_size <= avg_size <= max_size:
        raise ValueError("need 0 < min_size <= avg_size <= max_size")
    n = len(data)
    if n == 0:
        return [(0, 0)]
    mask = (1 << max(avg_size.bit_length() - 1, 1)) - 1
    gear = _GEAR
    spans = []
    start = 0
    fp = 0
    position = 0
    while position < n:
        fp = ((fp << 1) + gear[data[position]]) & _MASK64
        position += 1
        length = position - start
        if length >= max_size or (length >= min_size and (fp & mask) == 0):
            spans.append((start, length))
            start = position
            fp = 0
    if start < n:
        spans.append((start, n - start))
    return spans
