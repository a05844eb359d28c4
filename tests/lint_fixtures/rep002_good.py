# reprolint: module=repro.trace.fixture
"""Good: every RNG is constructed with an explicit seed."""
import random

import numpy as np
from numpy.random import PCG64DXSM, SeedSequence


def draw_sizes(count, seed):
    rng = random.Random(seed)
    generator = np.random.default_rng(seed)
    return [rng.random() for _ in range(count)], generator.integers(10)


def bit_generators(seed, key):
    return [np.random.Generator(np.random.Philox(key=key)),
            np.random.PCG64(seed), PCG64DXSM(seed), np.random.MT19937(seed),
            np.random.SFC64(seed), SeedSequence(seed)]
