import numpy as np
import pytest

from zobarrier.errors import ContractViolationError
from zobarrier.estimator import sphere_sample
from zobarrier.oracle import MeasurementOracle, NoiseModel
from zobarrier.problems import analytic_problem
from zobarrier.streams import (
    DOMAIN_DIRECTIONS,
    DOMAIN_MC,
    DOMAIN_NOISE,
    DOMAIN_OUTPUT,
    PAGE_VALUES,
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
    # Drawing a larger block from the same key extends the same sequence.
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


# -- paged tables ------------------------------------------------------------

# linear-ball-demo's tables: n = 16 rows of 2 values, 128 iterations a page.
N, COLS = 16, 2
PER_PAGE = PAGE_VALUES // (N * COLS)


def directions_of(noise):
    """An oracle on linear-ball (d = 2), for its direction tables."""
    return MeasurementOracle(analytic_problem("linear-ball"), noise)


def test_a_table_is_its_rows_of_the_page_stream():
    noise = NoiseModel(sigma=0.5, master_seed=9)
    oracle = directions_of(noise)
    assert PER_PAGE == 128
    for k in (1, 127, 128, 129, 300):
        page, slot = divmod(k, PER_PAGE)
        rows = slice(slot * N, (slot + 1) * N)
        for side in (SIDE_BASE, SIDE_PERTURBED):
            rng = substream(9, DOMAIN_NOISE, page, side + 2 * N * COLS)
            want = rng.normal(0.0, 0.5, size=(PER_PAGE * N, COLS))[rows]
            assert np.array_equal(noise.draw(k, side, N, COLS), want)
        rng = substream(9, DOMAIN_DIRECTIONS, page, 2 * N * COLS)
        want = sphere_sample(COLS, PER_PAGE * N, rng)[rows]
        assert np.array_equal(oracle.directions(9, k, N), want)
    # A table of more than half a page has a page to itself.
    rng = substream(9, DOMAIN_NOISE, 40, SIDE_PERTURBED + 2 * 2048 * 3)
    want = rng.normal(0.0, 0.5, size=(2048, 3))
    assert np.array_equal(noise.draw(40, SIDE_PERTURBED, 2048, 3), want)


def test_measurement_order_does_not_matter_across_a_page_boundary():
    # Iteration 127 ends page 0; 128 and 129 start page 1.
    problem = analytic_problem("linear-ball")
    x = np.array([0.1, -0.2])
    tables = []
    for order in ((127, 128, 129), (129, 127, 128)):
        oracle = MeasurementOracle(problem, NoiseModel(sigma=0.3, master_seed=4))
        got = {}
        for k in order:
            dirs = oracle.directions(4, k, N)
            got[k] = (oracle.measure_base(x, N, k), oracle.measure_perturbed(x, dirs, 0.01, k))
        tables.append(got)
    for k in (127, 128, 129):
        for a, b in zip(tables[0][k], tables[1][k]):
            assert np.array_equal(a, b)


def test_sides_and_table_sizes_never_share_values():
    noise = NoiseModel(sigma=1.0, master_seed=3)
    drawn = [
        np.concatenate([noise.draw(k, side, rows, COLS).ravel() for k in range(1, 300)])
        for side in (SIDE_BASE, SIDE_PERTURBED)
        for rows in (N, N // 2)
    ]
    values = np.concatenate(drawn)
    assert len(np.unique(values)) == len(values)


def test_consecutive_iterations_in_a_page_get_fresh_tables():
    noise = NoiseModel(sigma=1.0, master_seed=5)
    oracle = directions_of(noise)
    for k in range(1, PER_PAGE - 1):
        for side in (SIDE_BASE, SIDE_PERTURBED):
            a, b = noise.draw(k, side, N, COLS), noise.draw(k + 1, side, N, COLS)
            assert not np.intersect1d(a, b).size
        a, b = oracle.directions(5, k, N), oracle.directions(5, k + 1, N)
        assert not np.intersect1d(a, b).size


def test_a_served_table_cannot_be_written():
    # Each table is read-only, so a caller cannot change the cached page
    # that later iterations (here 3 and 4 share page 0) are served from.
    noise = NoiseModel(sigma=1.0, master_seed=8)
    oracle = directions_of(noise)

    def serve(k):
        return [
            noise.draw(k, SIDE_BASE, N, COLS),
            noise.draw(k, SIDE_PERTURBED, 2048, 3),
            NoiseModel(sigma=0.0).draw(k, SIDE_BASE, N, COLS),
            oracle.directions(8, k, N),
            oracle.directions(8, k, 2048),
        ]

    fresh = [t.copy() for t in serve(3)] + [t.copy() for t in serve(4)]
    for table in serve(3):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            table += 1.0
    for a, b in zip(fresh, serve(3) + serve(4)):
        assert np.array_equal(a, b)


def test_alternating_table_shapes_on_one_side_draw_the_tables_of_fresh_models():
    # A model keeps one page per side, so each change of shape draws a page
    # again; every table is the one a fresh model draws.
    noise = NoiseModel(sigma=1.0, master_seed=6)
    for k in (1, 2, 127, 128, 3, 300):
        for side in (SIDE_BASE, SIDE_PERTURBED):
            for rows in (N, N // 2, N, 2048):
                want = NoiseModel(sigma=1.0, master_seed=6).draw(k, side, rows, COLS)
                assert np.array_equal(noise.draw(k, side, rows, COLS), want)
