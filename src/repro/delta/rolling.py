"""rsync's weak checksum (the Adler-32 variant from the tech report).

The incremental data sync (IDS) mechanism the paper observes in Dropbox and
SugarSync PC clients "works according to the rsync algorithm" (§4.3).  This
module implements the weak checksum exactly as rsync defines it:

    a(k, l) = sum(X_i)            mod 2^16     for i in [k, l]
    b(k, l) = sum((l - i + 1)·X_i) mod 2^16
    s(k, l) = a + 2^16 · b

once for a whole block (:func:`weak_checksum`) and, where the sender must
slide the window one byte at a time, for every start in a bounded range at
once (:func:`window_digests`).  The byte-at-a-time ``RollingChecksum`` the
scan used to step lives in ``tests/reference_delta.py`` as the oracle.
"""

from __future__ import annotations

import numpy as np

_M16 = 0xFFFF
#: Below this block size the pure-Python loop beats numpy's ~2.5 µs setup
#: (re-measured for PR 22: 48 B is a tie, 64 B 3.2 vs 2.6 µs, 256 B 16 vs 4).
_VECTOR_THRESHOLD = 64


def weak_checksum(data: bytes) -> int:
    """Compute the weak checksum of a whole block, vectorised when large."""
    length = len(data)
    if length >= _VECTOR_THRESHOLD:
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        a = int(arr.sum())
        b = int(np.dot(np.arange(length, 0, -1, dtype=np.uint64), arr))
    else:
        a = b = 0
        for index, byte in enumerate(data):
            a += byte
            b += (length - index) * byte
    return ((b & _M16) << 16) | (a & _M16)


def window_digests(data: bytes, start: int, stop: int,
                   block_size: int) -> np.ndarray:
    """``weak_checksum(data[k:k + block_size])`` for every ``start <= k < stop``.

    Two prefix sums over the bytes the windows cover, S1 of ``X_i`` and S2
    of ``i·X_i`` (``i`` from ``start``), give ``a_k = S1[k+B] − S1[k]`` and
    ``b_k = (k+B)·a_k − (S2[k+B] − S2[k])``.  All of it is ``uint32``, whose
    wraparound is exact mod 2^16; the final shift drops ``b``'s high half.
    """
    count = stop - start
    covered = count + block_size - 1
    arr = np.frombuffer(data, dtype=np.uint8, count=covered, offset=start)
    s1 = np.zeros(covered + 1, dtype=np.uint32)
    np.cumsum(arr, dtype=np.uint32, out=s1[1:])
    s2 = np.zeros(covered + 1, dtype=np.uint32)
    np.cumsum(arr * np.arange(covered, dtype=np.uint32), out=s2[1:])
    a = s1[block_size:] - s1[:count]
    b = (np.arange(block_size, block_size + count, dtype=np.uint32) * a
         - (s2[block_size:] - s2[:count]))
    return (b << 16) | (a & _M16)
