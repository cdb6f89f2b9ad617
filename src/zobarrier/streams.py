"""Counter-keyed random streams.

Every random draw in the package is a pure function of a
(master_seed, key...) tuple rather than of call order, so runs are
bitwise reproducible and independent of evaluation order or parallelism
degree. Distinct domain tags keep e.g. measurement-noise streams from
ever colliding with direction-sampling streams under the same seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream domains.
DOMAIN_NOISE = 1
DOMAIN_DIRECTIONS = 2
DOMAIN_OUTPUT = 3
DOMAIN_MC = 4

# Side tags for measurement noise: values at the current iterate vs. at
# the displaced sample points.
SIDE_BASE = 0
SIDE_PERTURBED = 1


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator keyed by (master_seed, *key).

    A pure function of its arguments: the same tuple always yields a
    generator producing the identical value sequence.
    """
    words = [int(master_seed) & _MASK64]
    words.extend(int(part) & _MASK64 for part in key)
    return np.random.default_rng(np.random.SeedSequence(words))

