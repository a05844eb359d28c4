# reprolint: module=repro.trace.fixture
"""Bad: unseeded constructors and process-global RNG draws."""
import random

import numpy as np
from numpy.random import PCG64DXSM, SeedSequence


def draw_sizes(count):
    rng = random.Random()  # expect: REP002
    generator = np.random.default_rng()  # expect: REP002
    jitter = np.random.normal(0.0, 1.0)  # expect: REP002
    base = random.randint(1, 10)  # expect: REP002
    return [rng.random() + jitter + base for _ in range(count)], generator


def bit_generators():
    return [np.random.Generator(np.random.Philox()),  # expect: REP002
            np.random.PCG64(),  # expect: REP002
            PCG64DXSM(),  # expect: REP002
            np.random.MT19937(),  # expect: REP002
            np.random.SFC64(),  # expect: REP002
            SeedSequence()]  # expect: REP002
