"""Statistical twin of the paper's collected trace (§3.1).

The original trace (153 users, 222,632 files, Jul 2013 – Mar 2014, six
services) is no longer downloadable, so this generator synthesises a trace
matching every aggregate the paper publishes:

* per-service user and file counts (Table 2);
* the original/compressed size CDFs of Figure 2 (median 7.5 KB / 3.2 KB,
  mean 962 KB / 732 KB, max 2.0 GB / 1.97 GB);
* 77 % of files smaller than 100 KB; 66 % of those created in batches (§4.1);
* 84 % of files modified at least once (§4.3);
* 52 % of files effectively compressible; overall compression ratio 1.31,
  i.e. compression saves 24 % of bytes (§5.1);
* full-file duplicate ratio ≈ 18.8 % of bytes, with block-level dedup only
  trivially better (§5.2, Figure 5).

Sizes follow a clipped log-normal (heavy right tail: a 7.5 KB median
coexisting with a ~1 MB mean forces σ ≈ 3), compressibility is
class-conditional on size (small document-like files compress far better
than large media files — which is what makes the compressed median drop to
~3.2 KB while the byte-weighted saving stays at ~24 %), and duplication is
popularity-weighted with a small near-duplicate (shared-prefix) population
that gives block-level dedup its slim edge over full-file.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import (Callable, Dict, Generator, Iterator, List, NamedTuple,
                    Optional, Tuple, Union)

import numpy as np

from ..units import GB, KB, MB
from .schema import UNIT_SIZE, Trace

#: Table 2 of the paper.
SERVICE_USERS = {
    "GoogleDrive": 33, "OneDrive": 24, "Dropbox": 55,
    "Box": 13, "UbuntuOne": 13, "SugarSync": 15,
}
SERVICE_FILES = {
    "GoogleDrive": 32677, "OneDrive": 17903, "Dropbox": 106493,
    "Box": 19995, "UbuntuOne": 27281, "SugarSync": 18283,
}

#: Trace collection window: Jul 2013 → Mar 2014, in seconds.
TRACE_SPAN = 236 * 24 * 3600.0

_SMALL = 100 * KB

#: Size model: log-normal around the paper's 7.5 KB median, σ tuned so the
#: clipped mean lands near 962 KB (validated in tests/test_trace.py).
_SIZE_MU = float(np.log(7.5 * KB))
_SIZE_SIGMA = 3.17
_SIZE_MAX = 2 * GB

#: Compressibility classes: (probability compressible | small/large,
#: compressible-ratio range, incompressible-ratio range).
_P_COMPRESSIBLE_SMALL = 0.56
_P_COMPRESSIBLE_LARGE = 0.37
_RATIO_COMPRESSIBLE_SMALL = (0.18, 0.50)
_RATIO_COMPRESSIBLE_LARGE = (0.25, 0.52)
_RATIO_INCOMPRESSIBLE = (0.935, 1.0)

#: Duplication model.  Sources are capped in size: users duplicate documents
#: and media, not half-terabyte archives — and the cap keeps the
#: byte-weighted duplicate ratio stable across trace scales.
_P_DUPLICATE = 0.22
_P_NEAR_DUPLICATE = 0.050
_NEAR_SHARE_RANGE = (0.3, 0.9)
_DUP_SOURCE_MAX = 512 * MB

#: Modification model (84 % modified at least once).
_P_MODIFIED = 0.84

#: Burst model for creation times (drives the 66 % batchable statistic).
_P_SOLO_CREATE = 0.86
_BURST_MAX = 24
_BURST_SPACING = (0.05, 2.0)

_EXTENSIONS_COMPRESSIBLE = ("txt", "csv", "doc", "xls", "htm", "log", "xml", "tex")
_EXTENSIONS_INCOMPRESSIBLE = ("jpg", "png", "mp3", "mp4", "zip", "pdf", "gz", "apk")


@dataclass
class GeneratorConfig:
    """Knobs for the trace generator; defaults reproduce the paper's trace."""

    scale: float = 1.0          # shrink user/file counts (tests use < 1)
    seed: int = 42
    services: Optional[Dict[str, Tuple[int, int]]] = None  # name -> (users, files)

    def service_plan(self) -> Dict[str, Tuple[int, int]]:
        """Service -> (users, files), refused with a ``ValueError`` when
        the generator cannot honour it."""
        plan = self.services
        if plan is None:
            if not (math.isfinite(self.scale) and self.scale > 0):
                raise ValueError(f"trace scale must be finite and > 0, "
                                 f"got {self.scale!r}")
            plan = {name: (max(1, round(SERVICE_USERS[name] * self.scale)),
                           max(1, round(SERVICE_FILES[name] * self.scale)))
                    for name in SERVICE_USERS}
        for name, (n_users, n_files) in plan.items():
            if n_users < 1 or n_files < 0:
                raise ValueError(f"{name}: a service needs >= 1 user and "
                                 f">= 0 files, got {n_users} users and "
                                 f"{n_files} files")
        return plan


class _Pool(NamedTuple):
    """Prior originals, kept for duplicate sampling: five ``int64`` columns.

    The duplicate/near-duplicate draw needs an original's size, compressed
    size, content id and segment ids, and almost every original's ids are
    one run: ``first`` and ``count`` rebuild them as
    ``range(first, first + count)``.  Only a near-duplicate whose shared
    prefix and fresh tail are not one run keeps its ids, in ``spliced``
    under its index, with ``first`` -1.  That is 40 B an original, where
    an ``ndarray`` per original held 328 B, and what bounds
    :func:`iter_trace_shards`' memory by a service rather than the trace.
    ``array`` columns, not lists of objects: an object per original, once
    freed, leaves holes that a later replay does not fill (+1.3 MB peak
    RSS replaying scale 0.1).
    """

    sizes: array
    compressed_sizes: array
    content_ids: array
    firsts: array
    counts: array
    spliced: Dict[int, np.ndarray]


def _activity_cdf(n_users: int) -> np.ndarray:
    """CDF of the per-burst user draw.  Zipf-ish activity: a few heavy
    users own most files (observed in every storage-trace study the paper
    builds on).  Normalised step for step as ``Generator.choice(n, p=)``
    does, so :func:`_draw_index` over it *is* that draw."""
    weights = 1.0 / np.arange(1, n_users + 1) ** 0.7
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """``rng.choice(len(cdf), p=weights)`` without the per-call wrapper:
    same single ``random()``, same inverse-CDF lookup (a draw equal to a
    CDF edge belongs to the bin above it)."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _draw_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` as numpy computes it, minus the wrapper."""
    return lo + (hi - lo) * rng.random()


def _bounded_draw(rng: np.random.Generator) -> Callable[[int], int]:
    """``int(rng.integers(n))`` for ``1 <= n < 2**32``, minus the wrapper.

    numpy draws it by Lemire's multiply-and-reject over ``next_uint32``
    (nothing at all when ``n == 1``), and PCG64 serves ``next_uint32``
    the low half of a raw 64-bit word, holding the high half for the next
    32-bit draw.  ``random``, ``lognormal``, ``geometric`` and
    ``exponential`` read whole words and never touch that half, so the
    closure holds it instead.  That is exact only while it replaces every
    ``integers`` call on ``rng`` and is the only one on ``rng``: a second
    closure would hold a second half-word.
    """
    raw = rng.bit_generator.random_raw
    held: Optional[int] = None

    def draw(n: int) -> int:
        nonlocal held
        if n == 1:
            return 0
        while True:
            if held is None:
                word = raw()
                held, word = word >> 32, word & 0xFFFFFFFF
            else:
                word, held = held, None
            product = word * n
            low = product & 0xFFFFFFFF
            if low >= n or low >= (0x100000000 - n) % n:
                return product >> 32

    return draw


def _user_names(service: str, n_users: int) -> List[str]:
    return [f"{service.lower()}-user{idx:03d}" for idx in range(n_users)]


def _service_records(service: str, n_users: int, n_files: int,
                     rng: np.random.Generator, draw: Callable[[int], int],
                     pool: _Pool, index: int,
                     next_segment: int) -> Generator[tuple, None, int]:
    """Yield one service's records' fields in creation order, the first at
    global ``index`` and fresh 128 KB segment ids from ``next_segment`` on;
    return the next free segment id.  A record's ids are a ``range`` when
    they are one run, which :meth:`Trace.from_fields` expands.

    This is the single code path behind :func:`generate_trace` and
    :func:`iter_trace_shards`, so they consume the identical RNG stream and
    produce identical records at the same seed.  ``draw`` is ``rng``'s one
    :func:`_bounded_draw`, shared by every service.
    """
    random, lognormal = rng.random, rng.lognormal
    sizes, compressed_sizes, content_ids, firsts, counts, spliced = pool
    users = _user_names(service, n_users)
    activity = _activity_cdf(n_users)
    files_left = n_files
    while files_left > 0:
        user = users[_draw_index(rng, activity)]
        burst = 1 if random() < _P_SOLO_CREATE else 2 + draw(_BURST_MAX - 1)
        burst = min(burst, files_left)
        start = float(random() * TRACE_SPAN)
        offset = 0.0
        for _ in range(burst):
            offset += _draw_uniform(rng, *_BURST_SPACING)
            created_at = start + offset
            # One pool pick serves both copy kinds: below _P_DUPLICATE the
            # source is copied whole, in the next _P_NEAR_DUPLICATE its
            # prefix is shared.
            roll = random()
            source = -1
            if sizes and roll < _P_DUPLICATE + _P_NEAR_DUPLICATE:
                source = draw(len(sizes))
                if sizes[source] > _DUP_SOURCE_MAX:
                    source = -1
            duplicate = source >= 0 and roll < _P_DUPLICATE
            segment_ids: Union[range, np.ndarray]
            if duplicate:
                size, compressed = sizes[source], compressed_sizes[source]
                first = firsts[source]
                segment_ids = (range(first, first + counts[source])
                               if first >= 0 else spliced[source])
                content_id = content_ids[source]
            else:
                shared = 0
                if source >= 0 and counts[source] >= 2:
                    lo, hi = _NEAR_SHARE_RANGE
                    shared = max(1, int(counts[source]
                                        * (lo + (hi - lo) * random())))
                # At least the shared prefix: the fresh tail is never < 0.
                size = max(min(max(int(lognormal(_SIZE_MU, _SIZE_SIGMA)), 1),
                               _SIZE_MAX), shared * UNIT_SIZE)
                fresh = max(1, -(-size // UNIT_SIZE)) - shared
                first, count = next_segment, fresh
                next_segment += fresh
                if shared:
                    prefix = firsts[source]
                    segment_ids = np.concatenate([
                        np.arange(prefix, prefix + shared, dtype=np.int64)
                        if prefix >= 0 else spliced[source][:shared],
                        np.arange(first, first + fresh, dtype=np.int64)])
                    # Ids only ever grow, so the first and last tell a run.
                    first, count = int(segment_ids[0]), len(segment_ids)
                    if int(segment_ids[-1]) - first != count - 1:
                        first = -1
                if first >= 0:
                    segment_ids = range(first, first + count)
                small = size < _SMALL
                if random() < (_P_COMPRESSIBLE_SMALL if small
                               else _P_COMPRESSIBLE_LARGE):
                    lo, hi = (_RATIO_COMPRESSIBLE_SMALL if small
                              else _RATIO_COMPRESSIBLE_LARGE)
                else:
                    lo, hi = _RATIO_INCOMPRESSIBLE
                compressed = max(1, int(size * (lo + (hi - lo) * random())))
                content_id = index

            modify_count = 0
            modified_at = created_at
            if random() < _P_MODIFIED:
                modify_count = 1 + int(rng.geometric(0.35))
                # Clamp to the collection window (§3.1): nothing is observed
                # modified after Mar 2014.  Late-window creations keep
                # modified_at == created_at rather than running past the span.
                modified_at = min(
                    created_at + float(rng.exponential(14 * 24 * 3600.0)),
                    TRACE_SPAN)
                modified_at = max(modified_at, created_at)

            # Every size is clamped to >= 1, so no zero guard is needed.
            extensions = (_EXTENSIONS_COMPRESSIBLE if compressed / size < 0.9
                          else _EXTENSIONS_INCOMPRESSIBLE)
            yield (user, service,
                   f"{user}/f{index:07d}.{extensions[draw(len(extensions))]}",
                   size, compressed, created_at, modified_at, modify_count,
                   segment_ids, content_id)
            if not duplicate:
                if first < 0:
                    spliced[len(sizes)] = segment_ids
                sizes.append(size)
                compressed_sizes.append(compressed)
                content_ids.append(content_id)
                firsts.append(first)
                counts.append(count)
            index += 1
        files_left -= burst
    return next_segment


def _plan_records(plan: Dict[str, Tuple[int, int]],
                  seed: int) -> Iterator[tuple]:
    rng = np.random.default_rng(seed)
    draw = _bounded_draw(rng)
    pool = _Pool(*(array("q") for _ in range(5)), {})
    index = next_segment = 0
    for service, (n_users, n_files) in sorted(plan.items()):
        next_segment = yield from _service_records(
            service, n_users, n_files, rng, draw, pool, index, next_segment)
        index += n_files


def generate_trace(scale: float = 1.0, seed: int = 42,
                   config: Optional[GeneratorConfig] = None) -> Trace:
    """Generate the statistical twin trace.

    ``scale`` < 1 produces a proportionally smaller trace with the same
    distributions (unit tests use ``scale≈0.02``; benches use 1.0), its
    records written straight into columns.
    """
    config = config or GeneratorConfig(scale=scale, seed=seed)
    plan = config.service_plan()
    return Trace.from_fields(_plan_records(plan, config.seed),
                             sum(files for _, files in plan.values()))


def iter_trace_shards(scale: float = 1.0, seed: int = 42,
                      shard_users: int = 8,
                      config: Optional[GeneratorConfig] = None) -> Iterator[Trace]:
    """Stream the statistical twin trace as per-user-group shards.

    Yields :class:`Trace` shards whose records are *identical* to
    ``generate_trace(scale, seed)`` at the same seed (validated in
    tests/test_replay_parallel.py): every user's files land in exactly one
    shard, each shard covers at most ``shard_users`` consecutive users of
    one service, and records keep their generation order within a shard.

    Memory stays bounded by one service's columns, the shard being handed
    out and the duplicate pool (40 B an original), instead of the whole
    trace: at full scale the stream peaks at about 83 MB RSS against
    97 MB for :func:`generate_trace`.
    ``shard_users`` and the plan are checked here, before the first shard
    is asked for.
    """
    if shard_users < 1:
        raise ValueError("shard_users must be >= 1")
    config = config or GeneratorConfig(scale=scale, seed=seed)
    return _plan_shards(config.service_plan(), config.seed, shard_users)


def _plan_shards(plan: Dict[str, Tuple[int, int]], seed: int,
                 shard_users: int) -> Iterator[Trace]:
    records = _plan_records(plan, seed)
    for service, (n_users, n_files) in sorted(plan.items()):
        group_of = {user: idx // shard_users
                    for idx, user in enumerate(_user_names(service, n_users))}
        # The service's trace lives in the callee alone, so it is freed
        # before the next service is built.
        yield from _group_shards(
            Trace.from_fields(itertools.islice(records, n_files), n_files),
            group_of, -(-n_users // shard_users))


def _group_shards(rows: Trace, group_of: Dict[str, int],
                  n_groups: int) -> Iterator[Trace]:
    """``rows`` one user group at a time, groups in order, each group's
    rows in generation order (the argsort is stable)."""
    groups = np.array([group_of[user] for user in rows.user_names],
                      np.int64)[rows.user_code]
    order = np.argsort(groups, kind="stable")
    ends = np.bincount(groups, minlength=n_groups).cumsum().tolist()
    for lo, hi in zip([0] + ends, ends):
        if hi > lo:
            yield rows.take(order[lo:hi])
