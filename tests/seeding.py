"""The Generator a test draws from when it names its stream by an int seed.

Every sampler of ``hcmsim`` takes a ``numpy.random.Generator`` and draws
from it as given; ``hcmsim.core.stream_gen`` derives the program's own.
"""

import numpy as np


def philox(seed: int) -> np.random.Generator:
    """Philox keyed through ``SeedSequence(seed)``, which is how
    ``Philox(int)`` seeds itself."""
    return np.random.Generator(np.random.Philox(seed))
