import numpy as np
import pytest

from zobarrier.errors import ContractViolationError
from zobarrier.streams import (
    DOMAIN_DIRECTIONS,
    DOMAIN_MC,
    DOMAIN_NOISE,
    DOMAIN_OUTPUT,
    SIDE_BASE,
    SIDE_PERTURBED,
    substream,
)


def test_same_key_same_sequence():
    a = substream(123, 4, 5).standard_normal(10)
    b = substream(123, 4, 5).standard_normal(10)
    assert np.array_equal(a, b)


def test_different_keys_differ():
    a = substream(123, 4, 5).standard_normal(10)
    b = substream(123, 4, 6).standard_normal(10)
    c = substream(124, 4, 5).standard_normal(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_prefix_property():
    # Drawing a larger block from the same key extends the same sequence;
    # the batched oracle relies on this to serve single values.
    small = substream(7, 1).standard_normal(6)
    large = substream(7, 1).standard_normal((5, 3)).ravel()
    assert np.array_equal(small, large[:6])


def test_negative_seed_masked():
    a = substream(-1).standard_normal(3)
    b = substream(-1).standard_normal(3)
    assert np.array_equal(a, b)



def test_key_shapes_map_to_own_streams():
    s = 2026
    keys = [
        (s,),
        (s, 0),
        (s, 0, 0),
        (s, DOMAIN_OUTPUT),
        (s, DOMAIN_DIRECTIONS, 1),
        (s, DOMAIN_DIRECTIONS, 2),
        (s, DOMAIN_NOISE, 1, SIDE_BASE),
        (s, DOMAIN_NOISE, 1, SIDE_PERTURBED),
        (s, DOMAIN_NOISE, 2, SIDE_BASE),
        (s, DOMAIN_MC, 0),
        (s, DOMAIN_MC, 1),
        (s, DOMAIN_MC, 2, 0),
        (s, DOMAIN_MC, 2, 1),
        (s, DOMAIN_MC, 3),
        (s + 1, DOMAIN_NOISE, 1, SIDE_BASE),
    ]
    states, draws = set(), set()
    for key in keys:
        state = substream(*key).bit_generator.state["state"]
        states.add((tuple(state["key"].tolist()), tuple(state["counter"].tolist())))
        draws.add(tuple(substream(*key).standard_normal(4).tolist()))
    assert len(states) == len(draws) == len(keys)

    # Key (seed, domain), counter (0, number of key parts, part1, part2).
    state = substream(s, DOMAIN_MC, 2, 5).bit_generator.state["state"]
    assert state["key"].tolist() == [s, DOMAIN_MC]
    assert state["counter"].tolist() == [0, 3, 2, 5]

    with pytest.raises(ContractViolationError):
        substream(s, DOMAIN_MC, 2, 5, 1)

    # Every word is taken modulo 2^64, and words of 2^63 and above stay exact.
    state = substream(-1, -2, -3, 2**63 + 1).bit_generator.state["state"]
    assert state["key"].tolist() == [2**64 - 1, 2**64 - 2]
    assert state["counter"].tolist() == [0, 3, 2**64 - 3, 2**63 + 1]
    for masked, plain in [
        ((s, DOMAIN_NOISE, -1, SIDE_BASE), (s, DOMAIN_NOISE, 2**64 - 1, SIDE_BASE)),
        ((s, DOMAIN_NOISE, 2**64 + 3, SIDE_BASE), (s, DOMAIN_NOISE, 3, SIDE_BASE)),
        ((-s, DOMAIN_OUTPUT), (2**64 - s, DOMAIN_OUTPUT)),
        ((s, DOMAIN_MC - 2**64), (s, DOMAIN_MC)),
    ]:
        assert np.array_equal(
            substream(*masked).standard_normal(3), substream(*plain).standard_normal(3)
        )

    # Two live generators of one (seed, domain) do not alias: interleaved
    # draws equal separate draws.
    a = substream(s, DOMAIN_NOISE, 7, SIDE_BASE)
    b = substream(s, DOMAIN_NOISE, 7, SIDE_PERTURBED)
    c = substream(s, DOMAIN_NOISE, 7, SIDE_BASE)
    mixed = [g.standard_normal(5) for _ in range(3) for g in (a, b, c)]
    for offset, key in enumerate([(7, SIDE_BASE), (7, SIDE_PERTURBED), (7, SIDE_BASE)]):
        alone = substream(s, DOMAIN_NOISE, *key).standard_normal(15)
        assert np.array_equal(np.concatenate(mixed[offset::3]), alone)
