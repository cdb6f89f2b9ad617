"""Counter-keyed random streams.

Every random draw in the package is a pure function of a
(master_seed, key...) tuple rather than of call order, so runs are
bitwise reproducible and independent of evaluation order or parallelism
degree. Distinct domain tags keep e.g. measurement-noise streams from
ever colliding with direction-sampling streams under the same seed.

Each key names one Philox4x64-10 stream (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011). For substream(seed, domain,
part1, part2) the 128-bit Philox key is (seed, domain) and the 256-bit
counter starts at (0, len(key), part1, part2), low word first; missing
parts are 0 and a missing domain is 0. Draws advance only the low word,
so two keys never share a counter block within 2^64 blocks of draws
(2^66 64-bit outputs), and the length word keeps substream(s), substream(s, 0)
and substream(s, 0, 0) apart. Every word is taken modulo 2^64.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ContractViolationError

_MASK64 = (1 << 64) - 1
# Key parts after the domain that the counter holds (its two high words).
_MAX_PARTS = 2

# Stream domains.
DOMAIN_NOISE = 1
DOMAIN_DIRECTIONS = 2
DOMAIN_OUTPUT = 3
DOMAIN_MC = 4

# Side tags for measurement noise: values at the current iterate vs. at
# the displaced sample points.
SIDE_BASE = 0
SIDE_PERTURBED = 1


class _Key(ISeedSequence):
    """Hands Philox its two key words as they are.

    Philox asks its seed sequence for two uint64 words; passing them this
    way skips the SeedSequence (and OS entropy) that `Philox(key=...)`
    still builds and discards."""

    __slots__ = ("_words",)

    def __init__(self, words: tuple[int, int]):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self._words, dtype=np.uint64)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """A fresh generator keyed by (master_seed, *key).

    A pure function of its arguments: the same tuple always yields a
    generator producing the identical value sequence, and generators for
    distinct tuples (modulo 2^64) draw from disjoint (key, counter) ranges.
    The key holds at most a domain and two parts.
    """
    if len(key) > 1 + _MAX_PARTS:
        raise ContractViolationError(
            f"a stream key holds at most {1 + _MAX_PARTS} parts, got {len(key)}"
        )
    domain = int(key[0]) & _MASK64 if key else 0
    counter = [0, len(key), 0, 0]
    for i, part in enumerate(key[1:], start=2):
        counter[i] = int(part) & _MASK64
    # A uint64 array: a list with a word >= 2^63 would pass through float64.
    counter = np.array(counter, dtype=np.uint64)
    bitgen = np.random.Philox(_Key((int(master_seed) & _MASK64, domain)), counter=counter)
    return np.random.Generator(bitgen)
