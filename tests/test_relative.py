"""Relative gains, the edge-sum adjoint pair and pairwise decompositions."""

import numpy as np
import pytest
from conftest import (
    approximation_transfer,
    chain3_controller,
    entry_sum,
    random_connected_graph,
    scaled,
    verify_adjoint_identity,
)

from locrel.consensus import static_consensus_gain
from locrel.errors import DisconnectedGraph, NotRelative
from locrel.graphs import Graph, laplacian, path_graph, ring_graph
from locrel.rational import RationalEntry, RationalMatrix
from locrel.relative import (
    edge_sum_adjoint,
    is_relative,
    relative_decompose,
    relative_decompose_rational,
)


def kernel_values(form, r, s):
    """Values at s of the edge kernels of output r, as an n x n array."""
    return RationalMatrix(form.kernels[r]).evaluate(s)


def test_is_relative_static_examples():
    assert is_relative(static_consensus_gain(5))
    assert is_relative(-laplacian(ring_graph(6)))
    assert not is_relative(np.eye(3))
    assert is_relative(np.zeros((2, 4)))


def test_is_relative_random_row_centering(rng):
    M = rng.standard_normal((4, 6))
    assert not is_relative(M)
    assert is_relative(M - M.mean(axis=1, keepdims=True))


def test_is_relative_rational():
    assert is_relative(approximation_transfer(4, -10.0))
    assert is_relative(RationalMatrix.from_real(static_consensus_gain(4)))
    assert not is_relative(chain3_controller())
    assert not is_relative(RationalMatrix.from_real(np.eye(3)))


def test_edge_sum_operator_row_sums(rng):
    # the edge-sum operator takes a skew edge matrix to its row sums, and
    # edge_sum_adjoint is its adjoint: <M, adjoint(v)> = <M 1, v>
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(M.sum(axis=1), [1.0, -1.0])
    g = ring_graph(6)
    Q = rng.standard_normal((6, 6))
    M = (Q - Q.T) * g.adjacency
    v = rng.standard_normal(6)
    assert np.sum(M * edge_sum_adjoint(g, v)) == pytest.approx(M.sum(axis=1) @ v, abs=1e-12)


def test_edge_sum_adjoint_two_nodes():
    g = Graph(np.ones((2, 2), dtype=bool))
    M = edge_sum_adjoint(g, [1.0, -1.0])
    assert np.allclose(M, [[0.0, 1.0], [-1.0, 0.0]])


def test_edge_sum_adjoint_respects_support():
    g = path_graph(3)
    M = edge_sum_adjoint(g, [3.0, 0.0, -3.0])
    assert M[0, 2] == 0.0 and M[2, 0] == 0.0
    assert np.allclose(M, -M.T)


def test_adjoint_identity_small_graphs(rng):
    for g in (ring_graph(3), ring_graph(7), path_graph(4)):
        assert verify_adjoint_identity(g) < 1e-12
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(2, 12)), rng)
        assert verify_adjoint_identity(g) < 1e-12


def test_decompose_two_node_pair():
    g = Graph(np.ones((2, 2), dtype=bool))
    M = relative_decompose([1.0, -1.0], g)
    assert np.allclose(M, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_decompose_ring4_consensus_row():
    # k is the first row of the static consensus gain on a 4-ring; the
    # minimum-norm representation only uses the two edges at node 0
    k = np.array([-2.0, 1.0, 0.0, 1.0])
    M = relative_decompose(k, ring_graph(4))
    want = np.array(
        [
            [0.0, -1.0, 0.0, -1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.allclose(M, want, atol=1e-10)


def test_decompose_round_trip_property(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = random_connected_graph(n, rng)
        k = rng.standard_normal(n)
        k -= k.mean()
        M = relative_decompose(k, g)
        assert np.allclose(M, -M.T, atol=1e-12)
        assert not np.any(M[~g.adjacency])
        assert np.allclose(M.sum(axis=1), k, atol=1e-10)


def test_decompose_is_minimum_norm(rng):
    # any edge-supported skew perturbation with zero row sums is
    # orthogonal to the returned matrix, so it can only grow the norm
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(n, rng)
        k = rng.standard_normal(n)
        k -= k.mean()
        M = relative_decompose(k, g)
        Q = rng.standard_normal((n, n))
        Q = (Q - Q.T) * g.adjacency
        np.fill_diagonal(Q, 0.0)
        P = Q - relative_decompose(Q.sum(axis=1), g)
        assert np.linalg.norm(M + P) >= np.linalg.norm(M) - 1e-10


def test_decompose_rejects_nonzero_sum():
    with pytest.raises(NotRelative):
        relative_decompose([1.0, 0.0], Graph(np.ones((2, 2), dtype=bool)))


def test_decompose_rejects_disconnected():
    adj = np.eye(4, dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    with pytest.raises(DisconnectedGraph):
        relative_decompose([1.0, -1.0, 2.0, -2.0], Graph(adj))


def test_rational_decompose_static_ring():
    g = ring_graph(4)
    K = RationalMatrix.from_real(static_consensus_gain(4))
    form = relative_decompose_rational(K, g)
    for r in range(4):
        row = kernel_values(form, r, 1.7).sum(axis=1)
        assert np.allclose(row, K.evaluate(1.7)[r], atol=1e-10)


def test_rational_decompose_dynamic_ring(rng):
    g = ring_graph(4)
    K = approximation_transfer(4, -10.0)
    form = relative_decompose_rational(K, g)
    for s in (1.0, 0.4 + 1.1j, 3.0 - 0.6j):
        Ks = K.evaluate(s)
        for r in range(4):
            assert np.allclose(kernel_values(form, r, s).sum(axis=1), Ks[r], atol=1e-9)
    y = rng.standard_normal(4)
    u = K.evaluate(2.0) @ y
    for r in range(4):
        # output r is the sum over i < j of kernel (i, j) times y_i - y_j
        terms = np.triu(kernel_values(form, r, 2.0), 1) * (y[:, None] - y[None, :])
        assert np.sum(terms) == pytest.approx(u[r], abs=1e-9)


def test_rational_decompose_zero_matrix():
    g = ring_graph(3)
    form = relative_decompose_rational(
        RationalMatrix.from_real(np.zeros((3, 3))), g
    )
    doc = form.to_json()
    assert doc["nodes"] == 3
    assert doc["terms"] == []


def test_rational_decompose_rejects_nonrelative():
    with pytest.raises(NotRelative):
        relative_decompose_rational(chain3_controller(), path_graph(3))


def test_rational_decompose_kernel_skewness():
    g = ring_graph(5)
    K = approximation_transfer(5, -3.0)
    form = relative_decompose_rational(K, g)
    for grid in form.kernels:
        for i in range(5):
            assert grid[i][i].is_zero()
            for j in range(5):
                if not g.adjacency[i, j]:
                    assert grid[i][j].is_zero()
                diff = entry_sum(grid[i][j], grid[j][i])
                assert diff.is_zero() or abs(diff.evaluate(1.3)) < 1e-10


def test_rational_decompose_keeps_complex_gains():
    # the kernels of a complex relative gain reproduce it, imaginary part included
    f = RationalEntry([1.0 + 2.0j], [1.0, 1.0])
    K = RationalMatrix([[f, scaled(-1.0, f)], [scaled(-1.0, f), f]])
    form = relative_decompose_rational(K, path_graph(2))
    s = 0.7 + 0.3j
    want = K.evaluate(s)
    assert abs(want[0, 0] - (0.772 + 1.040j)) < 1e-3
    for r in range(2):
        got = kernel_values(form, r, s).sum(axis=1)
        np.testing.assert_allclose(got, want[r], rtol=0.0, atol=1e-12)


def test_static_checks_keep_complex_gains():
    # an imaginary part is part of the row sum, for arrays and lists alike
    assert not is_relative(np.array([[1j, 0.0]]))
    assert not is_relative([[1j, 0.0]])
    assert is_relative([[1j, -1j], [2.0 + 1j, -2.0 - 1j]])
    k = np.array([1.0 + 2.0j, -1.0 - 2.0j])
    M = relative_decompose(k, path_graph(2))
    np.testing.assert_allclose(M.sum(axis=1), k, rtol=0.0, atol=1e-12)
    with pytest.raises(NotRelative):
        relative_decompose([1j, 0.0], path_graph(2))


def test_static_checks_read_real_gains_as_real(rng):
    # a real gain, or a complex one with no imaginary part, stays on the real route
    k = rng.standard_normal(5)
    k -= k.mean()
    graph = ring_graph(5)
    M = relative_decompose(k, graph)
    assert M.dtype == float
    assert np.array_equal(relative_decompose(k.astype(complex), graph), M)
    assert np.array_equal(edge_sum_adjoint(graph, k.astype(complex)), edge_sum_adjoint(graph, k))


def test_pairwise_form_json_terms():
    g = ring_graph(4)
    form = relative_decompose_rational(
        RationalMatrix.from_real(static_consensus_gain(4)), g
    )
    doc = form.to_json()
    assert doc["nodes"] == 4
    for item in doc["terms"]:
        assert set(item) == {"n", "i", "j", "kernel"}
        assert item["i"] < item["j"]
        assert g.adjacency[item["i"], item["j"]]
        assert set(item["kernel"]) == {"num", "den"}
