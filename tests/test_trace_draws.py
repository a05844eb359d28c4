"""Oracles for the draws the trace path makes itself.

Three generator calls were replaced by the arithmetic they perform,
because their per-call wrappers cost several times the draw.  The numpy
calls stay here as the reference: each replacement must return the same
value *and leave the stream in the same state* (the next ``random()`` is
equal), on every interpreter and numpy release CI runs.  The replay draws
each user's modification fractions in blocks from a per-user Philox
stream; the reference is that stream read one scalar at a time.
"""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.trace.generator import (
    _activity_cdf,
    _bounded_draw,
    _draw_index,
    _draw_uniform,
)
from repro.trace.replay import (
    _MOD_FRACTION_LOG_MU,
    _MOD_FRACTION_LOG_SIGMA,
    _draw_fractions,
)


# -- replay: per-user modification fractions -------------------------------------

def scalar_stream(seed, user):
    """A user's fractions, one clamped scalar ``lognormal`` at a time from
    Philox keyed by the blake2b of ``replay:{seed}:{user}``."""
    key = hashlib.blake2b(f"replay:{seed}:{user}".encode(), digest_size=16)
    generator = np.random.Generator(np.random.Philox(
        key=int.from_bytes(key.digest(), "big")))
    while True:
        yield min(1.0, float(generator.lognormal(_MOD_FRACTION_LOG_MU,
                                                 _MOD_FRACTION_LOG_SIGMA)))


def scalar_fractions(seed, users, counts):
    """Consecutive records' fractions in record order, each record taking
    the next ``count`` values of its user's stream."""
    streams = {}
    fractions = []
    for user, count in zip(users, counts):
        stream = streams.setdefault(user, scalar_stream(seed, user))
        fractions.extend(next(stream) for _ in range(count))
    return fractions


def block_fractions(seed, users, counts, cuts):
    """The replay's draws over consecutive blocks, split before each of
    ``cuts``, with one stream table kept across blocks as the kernel does."""
    streams = {}
    bounds = [0, *sorted(set(cut for cut in cuts if 0 < cut < len(users))),
              len(users)]
    fractions = []
    for lo, hi in zip(bounds, bounds[1:]):
        block = _draw_fractions(streams, seed, users[lo:hi],
                                np.array(counts[lo:hi], dtype=np.int64))
        assert block.dtype == np.float64
        fractions.extend(block.tolist())
    return fractions


records = st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2", "user/ü"]),
                             st.integers(min_value=1, max_value=30)),
                   min_size=1, max_size=40)


@given(seed=st.integers(min_value=-2 ** 63, max_value=2 ** 63),
       pairs=records,
       cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=6))
@example(seed=0, pairs=[("u0", 1)], cuts=[])
@example(seed=3, pairs=[("u0", 14), ("u1", 2), ("u0", 3), ("u1", 1)],
         cuts=[1, 3])
@example(seed=42, pairs=[("u1", 5), ("u0", 5), ("u1", 5)], cuts=[2])
@settings(max_examples=200, deadline=None)
def test_block_draws_equal_the_scalar_user_stream(seed, pairs, cuts):
    """Interleaved users, blocks cut anywhere: every record reads the next
    values of its own user's stream, in record order."""
    users = [user for user, _ in pairs]
    counts = [count for _, count in pairs]
    assert block_fractions(seed, users, counts, cuts) \
        == scalar_fractions(seed, users, counts)


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1,
                      max_size=8))
@settings(max_examples=100, deadline=None)
def test_chunked_draws_equal_one_call(seed, sizes):
    """One user's fractions drawn in chunks equal one call for the total:
    a block boundary never moves a user's draws."""
    chunked = block_fractions(seed, ["u"] * len(sizes), sizes,
                              range(1, len(sizes)))
    whole = _draw_fractions({}, seed, ["u"], np.array([sum(sizes)]))
    assert chunked == whole.tolist()


def test_users_never_share_a_stream():
    """Two users' records interleaved draw what each would alone."""
    mixed = _draw_fractions({}, 7, ["a", "b", "a"], np.array([2, 3, 1]))
    alone_a = _draw_fractions({}, 7, ["a"], np.array([3]))
    alone_b = _draw_fractions({}, 7, ["b"], np.array([3]))
    assert mixed.tolist() == [*alone_a[:2], *alone_b, alone_a[2]]


def test_mod_fractions_clamp_is_exercised():
    """~1 in 20,000 draws exceeds 1.0 (3.9 sigma): make sure the sample
    above is not the only thing standing between the clamp and deletion."""
    fractions = _draw_fractions({}, 0, ["clamp"], np.array([56_000])).tolist()
    assert max(fractions) == 1.0
    assert fractions.count(1.0) < len(fractions) / 1000


# -- generator: per-burst user draw ----------------------------------------------

def _activity_weights(n_users):
    weights = 1.0 / np.arange(1, n_users + 1) ** 0.7
    return weights / weights.sum()


@pytest.mark.parametrize("n_users", [1, 2, 13, 55, 1650])
@pytest.mark.parametrize("seed", [42, 7])
def test_inverse_cdf_draw_equals_generator_choice(n_users, seed):
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = _activity_cdf(n_users)
    weights = _activity_weights(n_users)
    for _ in range(300):
        assert _draw_index(ours, cdf) \
            == int(reference.choice(n_users, p=weights))
    assert ours.random() == reference.random()


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_draw_on_a_cdf_edge_belongs_to_the_bin_above():
    """``random()`` is in [0, 1), so bin ``i`` is ``[cdf[i-1], cdf[i])``:
    numpy's ``side="right"``.  No real stream lands on an edge within the
    life of this repository, so the golden cannot see this; a fixed draw
    can."""
    cdf = np.array([0.25, 0.5, 1.0])
    assert _draw_index(_FixedDraw(0.0), cdf) == 0
    assert _draw_index(_FixedDraw(0.25), cdf) == 1
    assert _draw_index(_FixedDraw(0.5), cdf) == 2
    assert _draw_index(_FixedDraw(np.nextafter(1.0, 0.0)), cdf) == 2


# -- generator: affine uniform draws -----------------------------------------------

@pytest.mark.parametrize("lo, hi", [(0.05, 2.0), (0.18, 0.50), (0.25, 0.52),
                                    (0.935, 1.0), (0.3, 0.9), (-3.0, 1e9)])
@pytest.mark.parametrize("seed", [42, 7])
def test_affine_draw_equals_generator_uniform(lo, hi, seed):
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(300):
        value = _draw_uniform(ours, lo, hi)
        assert type(value) is float
        assert value == float(reference.uniform(lo, hi))
    assert ours.random() == reference.random()


# -- generator: bounded integer draws ----------------------------------------------

#: Whole-word draws the generator makes between its bounded ones.
WHOLE_WORD_DRAWS = {
    "random": lambda rng: rng.random(),
    "lognormal": lambda rng: rng.lognormal(8.9, 3.17),
    "geometric": lambda rng: int(rng.geometric(0.35)),
}
REJECTING_BOUND = 2 ** 31 + 1   # rejects almost half of all 32-bit words


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       steps=st.lists(st.tuples(
           st.integers(min_value=1, max_value=2 ** 32 - 1),
           st.sampled_from([None, *WHOLE_WORD_DRAWS])), max_size=40))
@example(seed=0, steps=[(REJECTING_BOUND, None)] * 4)
@example(seed=42, steps=[(8, None), (1, "random"), (1, None), (23, "lognormal"),
                         (1, "geometric"), (8, None)])
@example(seed=7, steps=[(2 ** 32 - 1, "random"), (2, None), (3, "geometric")])
@settings(max_examples=200, deadline=None)
def test_bounded_draw_equals_generator_integers(seed, steps):
    """Equal values, and an equal stream afterwards: the next ``random()``
    reads the next whole word, the next ``integers(7)`` the held half."""
    ours = np.random.default_rng(seed)
    reference = copy.deepcopy(ours)
    draw = _bounded_draw(ours)
    for n, between in steps:
        value = draw(n)
        assert type(value) is int
        assert value == int(reference.integers(n))
        if between is not None:
            assert WHOLE_WORD_DRAWS[between](ours) \
                == WHOLE_WORD_DRAWS[between](reference)
    assert ours.random() == reference.random()
    assert draw(7) == int(reference.integers(7))


class _CountingWords:
    """A ``Generator`` stand-in exposing only the raw words, counted."""

    def __init__(self, seed):
        self.bit_generator = self
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self.words = 0

    def random_raw(self):
        self.words += 1
        return self._raw()


def test_bound_of_one_draws_nothing():
    counting = _CountingWords(42)
    draw = _bounded_draw(counting)
    assert [draw(1) for _ in range(5)] == [0] * 5
    assert counting.words == 0


def test_rejecting_example_runs_the_rejection_loop():
    """Four accepted draws read two words; the committed ``seed=0``
    example above reads more, so the loop is not left untested to chance."""
    counting = _CountingWords(0)
    draw = _bounded_draw(counting)
    for _ in range(4):
        draw(REJECTING_BOUND)
    assert counting.words > 2
