"""Graph, partition and pattern primitives."""

import networkx as nx
import numpy as np
import pytest

import locrel.graphs as graphs
from locrel.errors import DisconnectedGraph
from locrel.graphs import (
    Graph,
    Partition,
    StructurePattern,
    b_hops,
    graph_from_json,
    graph_to_json,
    is_connected,
    laplacian,
    path_graph,
    require_connected,
    ring_graph,
    torus_graph,
)


def random_connected_graph(n, rng, extra_edge_prob=0.3):
    """A random spanning tree plus extra edges; always connected."""
    adj = np.eye(n, dtype=bool)
    order = rng.permutation(n)
    for i in range(1, n):
        j = order[rng.integers(0, i)]
        adj[order[i], j] = adj[j, order[i]] = True
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_prob:
                adj[i, j] = adj[j, i] = True
    return Graph(adj)


def test_graph_forces_self_loops_and_symmetry():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    g = Graph(adj)
    assert np.all(np.diag(g.adjacency))
    with pytest.raises(ValueError):
        bad = np.zeros((3, 3), dtype=bool)
        bad[0, 1] = True
        Graph(bad)
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3), dtype=bool))


def test_graph_adjacency_is_write_protected():
    g = ring_graph(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 2] = True


def test_neighbors_of_a_ring_node():
    g = ring_graph(5)
    assert np.flatnonzero(g.adjacency[0]).tolist() == [0, 1, 4]


def test_partition_offsets_and_slices():
    p = Partition((2, 0, 3))
    assert p.total == 5
    assert p.n_blocks == 3
    assert list(p.offsets()) == [0, 2, 2, 5]
    assert p.block_slice(2) == slice(2, 5)
    assert Partition.scalar(4).block_sizes == (1, 1, 1, 1)
    assert Partition((2.0, np.int64(1))).block_sizes == (2, 1)
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_structure_pattern_validates_block_counts():
    g = ring_graph(3)
    StructurePattern(g, Partition((1, 2, 1)), Partition((2, 2, 2)))
    with pytest.raises(ValueError):
        StructurePattern(g, Partition((1, 2)), Partition.scalar(3))
    pat = StructurePattern.scalar(g)
    assert pat.row_partition.block_sizes == (1, 1, 1)


def test_b_hops_on_a_ring():
    g = ring_graph(6)
    h2 = b_hops(g, 2)
    # two hops on a 6-ring reach everything except the antipode
    expected = np.ones((6, 6), dtype=bool)
    for i in range(6):
        expected[i, (i + 3) % 6] = False
    assert np.array_equal(h2.adjacency, expected)
    h0 = b_hops(g, 0)
    assert np.array_equal(h0.adjacency, np.eye(6, dtype=bool))
    with pytest.raises(ValueError):
        b_hops(g, -1)


def test_b_hops_matches_boolean_matrix_power():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(n, rng)
        b = int(rng.integers(0, 4))
        power = np.eye(n, dtype=bool)
        for _ in range(b):
            power = power @ g.adjacency
        assert np.array_equal(b_hops(g, b).adjacency, power.astype(bool))


@pytest.mark.parametrize("seed", range(6))
def test_b_hops_matches_networkx_shortest_paths(seed):
    # the breadth-first expansion against networkx's distances, cut off at b
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    g = random_connected_graph(n, rng, extra_edge_prob=float(rng.uniform(0.0, 0.3)))
    oracle = nx.from_numpy_array(g.adjacency.astype(int))
    for b in range(5):
        want = np.zeros((n, n), dtype=bool)
        for i, reached in nx.all_pairs_shortest_path_length(oracle, cutoff=b):
            want[i, list(reached)] = True
        assert np.array_equal(b_hops(g, b).adjacency, want)


def test_b_hops_in_column_batches(monkeypatch):
    # a batch of one column at a time gives the same graph
    rng = np.random.default_rng(3)
    g = random_connected_graph(12, rng)
    want = [b_hops(g, b).adjacency for b in range(4)]
    monkeypatch.setattr(graphs, "EXPANSION_BLOCK_ELEMENTS", 1)
    assert all(np.array_equal(b_hops(g, b).adjacency, w) for b, w in enumerate(want))


def test_connectivity_checks():
    assert is_connected(ring_graph(5))
    isolated = Graph(np.eye(4, dtype=bool))
    assert not is_connected(isolated)
    with pytest.raises(DisconnectedGraph):
        require_connected(isolated)
    require_connected(path_graph(6))


def test_laplacian_rows_sum_to_zero_exactly():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_connected_graph(int(rng.integers(3, 10)), rng)
        L = laplacian(g)
        assert np.array_equal(L @ np.ones(g.n), np.zeros(g.n))
        assert np.array_equal(L, L.T)
        # off-diagonal entries are -1 on edges, 0 elsewhere
        off = L - np.diag(np.diag(L))
        assert set(np.unique(off)) <= {-1.0, 0.0}


def test_ring_laplacian_spectrum():
    n = 8
    L = laplacian(ring_graph(n))
    eig = np.sort(np.linalg.eigvalsh(L))
    expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.allclose(eig, expected, atol=1e-12)


def test_named_graph_constructors():
    r = ring_graph(3)
    p = path_graph(3)
    # at three nodes the ring is complete
    assert np.all(r.adjacency)
    assert not p.adjacency[0, 2]
    with pytest.raises(ValueError):
        ring_graph(2)
    t1 = torus_graph(5, 1)
    assert np.array_equal(t1.adjacency, ring_graph(5).adjacency)
    t2 = torus_graph(3, 2)
    assert t2.n == 9
    # node (0,0) touches (0,1), (0,2), (1,0), (2,0) and itself
    assert np.flatnonzero(t2.adjacency[0]).tolist() == [0, 1, 2, 3, 6]
    with pytest.raises(ValueError):
        torus_graph(2, 2)


def loop_path_graph(n):
    """The path on n nodes, an edge at a time."""
    adj = np.eye(n, dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = True
        adj[i + 1, i] = True
    return Graph(adj)


def loop_torus_graph(n, d):
    """The torus, a node at a time: every node joined to its 2d cyclic neighbours."""
    size = n**d
    adj = np.eye(size, dtype=bool)
    strides = [n ** (d - 1 - k) for k in range(d)]
    for node in range(size):
        index = [node // s % n for s in strides]
        for axis in range(d):
            for step in (-1, 1):
                other = list(index)
                other[axis] = (other[axis] + step) % n
                adj[node, sum(c * s for c, s in zip(other, strides))] = True
    return Graph(adj)


def loop_edges(graph):
    """The edge list of ``graph_to_json``, a pair at a time."""
    return [[i, j] for i in range(graph.n) for j in range(i + 1, graph.n) if graph.adjacency[i, j]]


def test_graph_builders_match_their_loops():
    graphs_ = [(path_graph(n), loop_path_graph(n)) for n in range(1, 30)]
    graphs_ += [(torus_graph(n, d), loop_torus_graph(n, d)) for n in range(3, 9) for d in (1, 2, 3)]
    rng = np.random.default_rng(17)
    graphs_ += [(g, g) for g in (random_connected_graph(int(rng.integers(1, 12)), rng) for _ in range(20))]
    for got, want in graphs_:
        assert got == want
        doc = graph_to_json(got)
        assert doc == {"n": want.n, "edges": loop_edges(want)}
        assert all(type(i) is int for edge in doc["edges"] for i in edge)
    assert graph_to_json(Graph(np.eye(3)))["edges"] == []


def test_hop_closure_composes():
    # composing closures multiplies the radii; adding radii corresponds
    # to the boolean product of the two closed adjacencies
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = random_connected_graph(int(rng.integers(4, 10)), rng)
        b1 = int(rng.integers(1, 3))
        b2 = int(rng.integers(1, 3))
        composed = b_hops(b_hops(g, b1), b2).adjacency
        assert np.array_equal(composed, b_hops(g, b1 * b2).adjacency)
        summed = (b_hops(g, b1).adjacency @ b_hops(g, b2).adjacency).astype(bool)
        assert np.array_equal(summed, b_hops(g, b1 + b2).adjacency)


def test_connectivity_matches_fiedler_eigenvalue():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        adj = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    adj[i, j] = adj[j, i] = True
        g = Graph(adj)
        fiedler = np.sort(np.linalg.eigvalsh(laplacian(g)))[1] if n > 1 else 1.0
        assert is_connected(g) == bool(fiedler > 1e-9)


def test_graph_json_round_trip():
    rng = np.random.default_rng(11)
    g = random_connected_graph(7, rng)
    doc = graph_to_json(g)
    assert doc["n"] == 7
    g2 = graph_from_json(doc)
    assert np.array_equal(g.adjacency, g2.adjacency)
    # duplicate and reversed edges are tolerated
    g3 = graph_from_json({"n": 3, "edges": [[0, 1], [1, 0], [0, 1]]})
    assert g3.adjacency[0, 1] and g3.adjacency[1, 0] and not g3.adjacency[0, 2]
    # integral numbers of any type are counts
    assert graph_from_json({"n": 3.0, "edges": [[np.int64(0), 2.0]]}).adjacency[0, 2]
    with pytest.raises(ValueError):
        graph_from_json({"n": 3, "edges": [[0, 5]]})


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3.9},
        {"n": True},
        {"n": "3"},
        {"n": 3, "edges": [[0.7, 1.2]]},
        {"n": 3, "edges": [[True, 2]]},
    ],
)
def test_graph_json_counts_must_be_integers(doc):
    # these used to be truncated: n = 3.9 made a 3-node graph, [0.7, 1.2] the edge (0, 1)
    with pytest.raises(ValueError, match="integer"):
        graph_from_json(doc)


@pytest.mark.parametrize("sizes", [(1.5, 2.9, True), (1, True), (np.bool_(True),), (1, "2")])
def test_partition_sizes_must_be_integers(sizes):
    # (1.5, 2.9, True) used to become (1, 2, 1)
    with pytest.raises(ValueError, match="integer"):
        Partition(sizes)
