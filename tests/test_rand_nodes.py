import math

import numpy as np
import pytest
from scipy import stats

from randstep.rand_nodes import NodeStream, TimeGrid, check_seed

from oracles import grid_node, node, numpy_taus

# regression values recorded from the first verified run (Philox keyed by
# SeedSequence(42, spawn_key=(replica,)))
FIRST_DRAWS_R0 = [0.2197435513325704, 0.45619347566841584, 0.18398429463748722]
FIRST_DRAWS_R1 = [0.7731546279295569, 0.42403653009372955, 0.014303936083175706]

# seeds and replicas at the edges of the one- and two-word entropy encodings
SEEDS = [0, 1, 42, 2017, 2**32 - 1, 2**32, 2**64 - 1]
REPLICAS = [0, 1, 2, 31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def test_same_seed_identical_draws():
    a = NodeStream(123, [5]).taus(1000)
    b = NodeStream(123, [5]).taus(1000)
    assert np.array_equal(a, b)


def test_recorded_first_draws():
    assert NodeStream(42, [0]).taus(3).tolist() == FIRST_DRAWS_R0
    assert NodeStream(42, [1]).taus(3).tolist() == FIRST_DRAWS_R1


def test_replicas_differ():
    assert FIRST_DRAWS_R0[0] != FIRST_DRAWS_R1[0]


def test_first_draw_mean_over_replicas():
    draws = NodeStream(42, range(10_000)).taus(1)
    # CLT bound for U(0,1): 3 standard errors with Var = 1/12
    assert abs(draws.mean() - 0.5) <= 3.0 / math.sqrt(12.0 * 10_000)


def test_draw_range_and_variance():
    draws = NodeStream(7, [0]).taus(100_000)
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.var() - 1.0 / 12.0) <= 0.05 / 12.0


def test_kolmogorov_smirnov_uniform():
    draws = NodeStream(2024, [0]).taus(10_000)
    statistic = stats.kstest(draws, "uniform").statistic
    # 1% critical value for n = 10^4
    assert statistic < 1.628 / math.sqrt(10_000)


def test_substream_correlation_low():
    a = NodeStream(42, [0]).taus(2000)
    b = NodeStream(42, [1]).taus(2000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_node_stream_validation():
    with pytest.raises(ValueError):
        NodeStream(-1, [0])
    with pytest.raises(ValueError):
        NodeStream(2**64, [0])
    with pytest.raises(ValueError):
        NodeStream(0, [-3])
    with pytest.raises(ValueError, match="integers"):
        NodeStream(1.5, [0])
    # a replica of 2^64 would need a third entropy word; no sweep reaches one
    with pytest.raises(ValueError, match="64-bit"):
        NodeStream(0, [1, 2**64])
    with pytest.raises(ValueError, match="integers"):
        NodeStream(0, [2.0])
    # operator.index(True) is 1: a bool seed or replica once ran as 1
    for seed, replicas in ((True, [0]), (False, [0]), (0, [True]), (0, [np.True_])):
        with pytest.raises(ValueError, match="integers"):
            NodeStream(seed, replicas)
    with pytest.raises(ValueError):
        check_seed(True)
    assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_match_numpy_per_replica(seed):
    for count in (1, 3, 4, 5, 256):
        block = NodeStream(seed, REPLICAS).taus(count).reshape(len(REPLICAS), count)
        for row, replica in zip(block, REPLICAS):
            assert np.array_equal(row, numpy_taus(seed, replica, count)), (replica, count)
    # a one-replica stream keeps the shape of numpy's (count,) array
    assert NodeStream(seed, [REPLICAS[-1]]).taus(5).shape == (5,)


def test_every_call_draws_from_the_start():
    # a stream keeps no position: a second call repeats the first, across
    # Philox's four-word blocks
    stream = NodeStream(2017, REPLICAS)
    first = stream.taus(5)
    assert np.array_equal(stream.taus(5), first)


def test_row_does_not_depend_on_its_block():
    alone = NodeStream(42, [7]).taus(9)
    for block in ([7, 0], [3, 7, 2**40], [7] * 3, list(range(40))):
        rows = NodeStream(42, block).taus(9).reshape(len(block), 9)
        assert np.array_equal(rows[block.index(7)], alone)
    # an empty block draws nothing
    assert NodeStream(42, []).taus(5).shape == (0,)


def test_grid_nodes_exact():
    assert TimeGrid(4).nodes().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # the right endpoint N/N is exactly 1 for a non-dyadic step size too
    odd = TimeGrid(3)
    assert odd.nodes()[3] == 1.0
    assert odd.nodes().tolist() == [grid_node(odd, n) for n in range(4)]
    with pytest.raises(IndexError):
        grid_node(odd, 4)
    with pytest.raises(ValueError):
        TimeGrid(0)


def test_grid_refuses_non_integer_steps():
    # TimeGrid(2.5).nodes() ran past 1 and its random_nodes raised TypeError
    for steps in (2.5, np.float64(4.0), True, "4", None):
        with pytest.raises(ValueError, match="positive integer"):
            TimeGrid(steps)
    assert TimeGrid(np.int64(4)).nodes().tolist() == TimeGrid(4).nodes().tolist()


def test_node_examples():
    grid = TimeGrid(4)
    assert node(grid, 1, 0.5) == 0.125
    assert node(grid, 3, 0.0) == 0.5
    with pytest.raises(IndexError):
        node(grid, 0, 0.5)
    with pytest.raises(IndexError):
        node(grid, 5, 0.5)
    with pytest.raises(ValueError):
        node(grid, 1, 1.0)


def test_node_stays_inside_interval():
    grid = TimeGrid(7)
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        tau = float(rng.random())
        xi = node(grid, n, tau)
        assert grid_node(grid, n - 1) <= xi < grid_node(grid, n)
    # tau just below one must not round onto the right endpoint
    tau_max = math.nextafter(1.0, 0.0)
    for n in range(1, 8):
        assert node(grid, n, tau_max) < grid_node(grid, n)


def test_mean_node_first_interval():
    grid = TimeGrid(2)
    vals = np.array([node(grid, 1, tau) for tau in NodeStream(42, range(10_000)).taus(1)])
    stderr = 0.5 / math.sqrt(12.0 * vals.size)
    assert abs(vals.mean() - 0.25) <= 3 * stderr


def test_node_matrix_pure_function_of_seed():
    def matrix(master):
        grid = TimeGrid(16)
        return np.array(
            [
                [node(grid, n, tau) for n, tau in
                 enumerate(NodeStream(master, [r]).taus(16), start=1)]
                for r in range(4)
            ]
        )

    assert np.array_equal(matrix(42), matrix(42))
    assert not np.array_equal(matrix(42), matrix(43))


def test_draws_of_a_shorter_grid_are_a_prefix():
    # residual_study draws each replica's longest grid once and gives every
    # shorter grid a prefix: that must equal a fresh stream's draws
    longest = NodeStream(42, [3]).taus(256)
    for n in range(4, 9):
        assert np.array_equal(longest[: 2**n], NodeStream(42, [3]).taus(2**n))


def test_random_nodes_rows_depend_only_on_their_replica():
    # a PDE batch with lo > 0 draws replicas lo..hi-1 alone
    grid = TimeGrid(16)
    whole = grid.random_nodes(42, range(8))
    assert whole.shape == (8, 16)
    assert np.array_equal(grid.random_nodes(42, range(3, 8)), whole[3:])


def test_nodes_from_taus_match_scalar_rule():
    grid = TimeGrid(16)
    taus = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)] * 5 + [0.25])
    xi = grid.nodes_from_taus(taus)
    assert xi.tolist() == [node(grid, n, taus[n - 1]) for n in range(1, 17)]
    assert np.all(xi < grid.nodes()[1:])
    block = np.stack([taus, taus[::-1]])
    assert np.array_equal(grid.nodes_from_taus(block)[1], grid.nodes_from_taus(taus[::-1]))
