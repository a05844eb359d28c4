"""Oracles for the draws the trace path spells out itself.

Three library calls were replaced by the arithmetic they perform, because
their per-call wrappers cost several times the draw.  The stdlib / numpy
calls stay here as the reference: each replacement must return the same
value *and leave the stream in the same state* (the next ``random()`` is
equal), on every interpreter and numpy release CI runs.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.trace.generator import _activity_cdf, _draw_index, _draw_uniform
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
