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

The per-iteration tables (measurement noise and sampling directions)
are paged: `TablePages` draws the tables of several consecutive
iterations from one stream, so a small table does not pay for a
generator of its own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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
    # uint64 arrays: a list with a word >= 2^63 would pass through float64.
    key_words = np.array([int(master_seed) & _MASK64, domain], dtype=np.uint64)
    bitgen = np.random.Philox(key=key_words, counter=np.array(counter, dtype=np.uint64))
    return np.random.Generator(bitgen)


# Values drawn per page of small per-iteration tables (see TablePages).
PAGE_VALUES = 4096


class TablePages:
    """Iteration k's (rows, cols) table of a paged stream, read from a
    cached page.

    A page holds the tables of per_page = max(1, PAGE_VALUES // (rows *
    cols)) consecutive iterations. With page, slot = divmod(k, per_page),
    page `page` is fill(substream(seed, domain, page, side + 2 * rows *
    cols), per_page * rows, cols), and k's table is its rows
    slot * rows : (slot + 1) * rows, served as a view of the page, which
    holds fill's values in an immutable buffer: no view of it can be made
    writable. So a table is a pure function of (seed, domain, k, side,
    rows, cols): the order in which tables are asked for does not matter,
    and the two sides, and tables of different value counts, read
    different streams. The last page drawn is kept, so asking for k = 1,
    2, ... builds one generator per page, not one per table. A table of
    more than PAGE_VALUES / 2 values is a page of its own, not kept.
    """

    __slots__ = ("_fill", "_key", "_page")

    def __init__(self, fill: Callable[[np.random.Generator, int, int], np.ndarray]):
        self._fill = fill  # fill(rng, rows, cols) -> a new (rows, cols) array
        self._key: tuple | None = None
        self._page: np.ndarray | None = None

    def table(
        self, master_seed: int, domain: int, iteration: int, side: int, rows: int, cols: int
    ) -> np.ndarray:
        # An empty table counts as one value, so it still has a page.
        per_page = max(1, PAGE_VALUES // max(1, rows * cols))
        page, slot = divmod(iteration, per_page)
        key = (master_seed, domain, page, side, rows, cols)
        if key != self._key:
            rng = substream(master_seed, domain, page, side + 2 * rows * cols)
            values = self._fill(rng, per_page * rows, cols)
            values = np.frombuffer(values.tobytes()).reshape(values.shape)
            if per_page == 1:
                # A run asks for each iteration once, so keeping a
                # one-table page would only hold memory.
                return values
            self._key, self._page = key, values
        return self._page[slot * rows : (slot + 1) * rows]
