import numpy as np

from zobarrier.streams import substream


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

