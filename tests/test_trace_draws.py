"""Oracles for the draws the trace path spells out itself.

Four library calls were replaced by the arithmetic they perform, because
their per-call wrappers cost several times the draw.  The stdlib / numpy
calls stay here as the reference: each replacement must return the same
value *and leave the stream in the same state* (the next ``random()`` is
equal), on every interpreter and numpy release CI runs.
"""

import copy
import math
import random

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


# -- replay: per-record modification fractions ---------------------------------

def stdlib_fractions(key, count):
    """The draws ``random.Random(key)`` makes as a fresh generator."""
    rng = random.Random(key)
    return [min(1.0, rng.lognormvariate(_MOD_FRACTION_LOG_MU,
                                        _MOD_FRACTION_LOG_SIGMA))
            for _ in range(count)]


def reseeded(seed, name):
    """The generator the replay builds once per call and re-seeds."""
    return random.Random(f"replay:{seed}:{name}")


@given(seed=st.integers(min_value=-2 ** 63, max_value=2 ** 63),
       name=st.text(max_size=24),
       index=st.integers(min_value=0, max_value=2 ** 40),
       count=st.integers(min_value=0, max_value=40))
@example(seed=0, name="Dropbox/pc", index=0, count=1)
@example(seed=3, name="UbuntuOne/mobile", index=17, count=14)
@example(seed=42, name="GoogleDrive/web", index=2 ** 31 + 5, count=3)
@example(seed=7, name="a/b/c", index=2 ** 31, count=14)
@settings(max_examples=200, deadline=None)
def test_mod_fractions_equal_clamped_stdlib_lognormvariate(seed, name, index,
                                                           count):
    fractions = _draw_fractions(reseeded(seed, name), f"replay:{seed}:{name}:",
                                [index], [count])
    assert fractions.dtype == np.float64
    assert fractions.tolist() \
        == stdlib_fractions(f"replay:{seed}:{name}:{index}", count)


@given(seed=st.integers(min_value=-2 ** 63, max_value=2 ** 63),
       name=st.text(max_size=24),
       start=st.integers(min_value=0, max_value=2 ** 40),
       counts=st.lists(st.integers(min_value=0, max_value=40), max_size=8))
@example(seed=0, name="Dropbox/pc", start=0, counts=[1, 1, 1, 1, 1, 1])
@example(seed=42, name="UbuntuOne/pc", start=2 ** 31 - 2, counts=[3, 0, 14])
@settings(max_examples=100, deadline=None)
def test_reseeded_draws_equal_stdlib_over_consecutive_records(seed, name,
                                                              start, counts):
    """One generator re-seeded per record draws, record after record, what
    a fresh ``Random(key)`` per record would — flattened in record order."""
    indices = range(start, start + len(counts))
    expected = [fraction for index, count in zip(indices, counts)
                for fraction in stdlib_fractions(
                    f"replay:{seed}:{name}:{index}", count)]
    assert _draw_fractions(reseeded(seed, name), f"replay:{seed}:{name}:",
                           indices, counts).tolist() == expected


def _first_attempt_rejects(key):
    """Does the Kinderman–Monahan loop of ``Random(key)`` throw away its
    first (u1, u2) pair?"""
    rng = random.Random(key)
    u1, u2 = rng.random(), 1.0 - rng.random()
    z = random.NV_MAGICCONST * (u1 - 0.5) / u2
    return z * z / 4.0 > -math.log(u2)


def test_record_after_a_rejected_pair_starts_its_own_stream():
    """The record before has consumed an extra pair of ``random()`` calls;
    the next record's draws must not see it."""
    prefix = "replay:0:Dropbox/pc:"
    rejecting = next(index for index in range(100)
                     if _first_attempt_rejects(f"{prefix}{index}"))
    indices, counts = [rejecting, rejecting + 1], [1, 3]
    expected = stdlib_fractions(f"{prefix}{rejecting}", 1) \
        + stdlib_fractions(f"{prefix}{rejecting + 1}", 3)
    assert _draw_fractions(reseeded(0, "Dropbox/pc"), prefix, indices,
                           counts).tolist() == expected


def test_mod_fractions_clamp_is_exercised():
    """~1 in 20,000 draws exceeds 1.0 (3.9 sigma): make sure the sample
    above is not the only thing standing between the clamp and deletion."""
    fractions = _draw_fractions(reseeded(0, "clamp"), "replay:0:clamp:",
                                range(4000), [14] * 4000).tolist()
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
