"""Structure notions: pattern checks, witnesses and the realization builder."""

import numpy as np
import pytest
from conftest import (
    chain3_controller,
    chain3_phi_u,
    chain_pattern,
    random_connected_graph,
    random_tf_structured,
)

from locrel.consensus import proper_approximation, static_consensus_gain, static_gain_realization
from locrel.errors import ImproperEntry, NotTFStructured
from locrel.graphs import Graph, Partition, StructurePattern, path_graph, ring_graph
from locrel.rational import RationalEntry, RationalMatrix
from locrel.statespace import StateSpace, tf_of
from locrel.structure import (
    RealizationStructure,
    _block_maxima,
    build_structured_realization,
    check_realization_structure,
    is_graph_structured,
    is_tf_structured,
    tridiag_counterexample,
)
from locrel.tolerances import EXACT as ZERO_BLOCK_TOL


def test_static_ring_gain_is_graph_structured():
    Ks = static_consensus_gain(5)
    pat = StructurePattern.scalar(ring_graph(5))
    assert is_graph_structured(Ks, pat)


def test_dense_matrix_is_not_ring_structured():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    pat = StructurePattern.scalar(ring_graph(5))
    assert not is_graph_structured(M, pat)


def test_zero_matrix_is_structured_for_any_pattern():
    pat = StructurePattern.scalar(path_graph(4))
    assert is_graph_structured(np.zeros((4, 4)), pat)


def test_chain_controller_is_not_tf_structured():
    K = chain3_controller()
    pat = chain_pattern(3)
    assert not is_tf_structured(K, pat)
    assert not K[0, 2].is_zero() and not K[2, 0].is_zero()


def test_chain_phi_u_is_tf_structured():
    assert is_tf_structured(chain3_phi_u(), chain_pattern(3))


def test_diagonal_rational_is_tf_structured_anywhere():
    rng = np.random.default_rng(1)
    g = random_connected_graph(4, rng)
    H = RationalMatrix(
        [
            [
                RationalEntry([1.0], [float(i + 1), 1.0]) if i == j else RationalEntry.zero()
                for j in range(4)
            ]
            for i in range(4)
        ]
    )
    assert is_tf_structured(H, StructurePattern.scalar(g))


def test_static_gain_realization_structured_but_not_network():
    flags = check_realization_structure(
        static_gain_realization(5), StructurePattern.scalar(ring_graph(5))
    )
    assert flags.structured
    assert not flags.network


def test_proper_approximation_realization_is_network_realizable():
    flags = check_realization_structure(
        proper_approximation(5, -3.0), StructurePattern.scalar(ring_graph(5))
    )
    assert flags.structured
    assert flags.network
    assert flags.output_side_diagonal


def test_tridiag_counterexample_realization_is_network_realizable():
    cx = tridiag_counterexample(3)
    flags = check_realization_structure(cx.system, cx.pattern)
    assert flags.structured
    assert flags.network


def test_tridiag_counterexample_transfer_is_dense():
    # n = 26 used to fail in rational conversion; the verdict never converts
    for n in (3, 4, 26):
        cx = tridiag_counterexample(n)
        assert not cx.tf_structured
    G0 = tridiag_counterexample(3).system.evaluate(0.0)
    assert G0[0, 2] == pytest.approx(0.25, abs=1e-12)


def test_tridiag_counterexample_with_full_graph_is_structured():
    cx = tridiag_counterexample(3)
    full = StructurePattern.scalar(Graph(np.ones((3, 3), dtype=bool)))
    assert is_tf_structured(tf_of(cx.system), full)
    assert is_tf_structured(cx.system, full)


def test_builder_rejects_unstructured_input():
    with pytest.raises(NotTFStructured):
        build_structured_realization(chain3_controller(), chain_pattern(3))


def test_builder_rejects_improper_entries():
    H = RationalMatrix([[RationalEntry([0.0, 1.0])]])
    g = Graph(np.ones((1, 1), dtype=bool))
    with pytest.raises(ImproperEntry):
        build_structured_realization(H, StructurePattern.scalar(g))


def test_builder_on_chain_phi_u():
    H = chain3_phi_u()
    pat = chain_pattern(3)
    sys = build_structured_realization(H, pat, "rows")
    flags = check_realization_structure(sys, pat)
    assert flags.structured
    # strictly proper input: D = 0 is block diagonal, so network too
    assert flags.network
    assert np.max(np.abs(sys.D)) == 0.0
    for s in (1.0, 0.5 + 1.0j):
        assert np.allclose(sys.evaluate(s), H.evaluate(s), atol=1e-10)


def test_builder_on_static_identity():
    H = RationalMatrix.from_real(np.eye(3))
    pat = chain_pattern(3)
    sys = build_structured_realization(H, pat)
    assert sys.n_states == 0
    assert np.allclose(sys.D, np.eye(3))


def test_builder_on_decoupled_diagonal():
    H = RationalMatrix(
        [
            [RationalEntry([1.0], [1.0, 1.0]), RationalEntry.zero()],
            [RationalEntry.zero(), RationalEntry([1.0], [2.0, 1.0])],
        ]
    )
    g = Graph(np.eye(2, dtype=bool))
    sys = build_structured_realization(H, StructurePattern.scalar(g))
    assert sys.n_states == 2
    assert np.allclose(sys.A, np.diag([-1.0, -2.0]))
    for s in (0.7, 2.0 - 0.5j):
        assert np.allclose(sys.evaluate(s), H.evaluate(s), atol=1e-12)


def test_builder_round_trip_on_random_structured_matrices(rng):
    for _ in range(12):
        n = int(rng.integers(2, 7))
        pat = StructurePattern.scalar(random_connected_graph(n, rng))
        H = random_tf_structured(pat, rng, max_deg=2)
        sys = build_structured_realization(H, pat, "rows")
        assert check_realization_structure(sys, pat).structured
        for _ in range(10):
            s = complex(rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0))
            ref = H.evaluate(s)
            assert np.max(np.abs(sys.evaluate(s) - ref)) < 1e-8 * (
                1.0 + np.max(np.abs(ref))
            )


def test_orientation_duality(rng):
    pat = StructurePattern.scalar(random_connected_graph(4, rng))
    H = random_tf_structured(pat, rng, max_deg=2)
    rows = build_structured_realization(H, pat, "rows")
    cols = build_structured_realization(H, pat, "columns")
    # block diagonal: structured on the graph with no edges
    empty = Graph(np.eye(4, dtype=bool))
    rows_c = StructurePattern(empty, rows.out_partition, rows.state_partition)
    cols_b = StructurePattern(empty, cols.state_partition, cols.in_partition)
    assert is_graph_structured(rows.C, rows_c) and is_graph_structured(cols.B, cols_b)
    for s in (0.9, 1.1 + 0.8j):
        assert np.allclose(rows.evaluate(s), cols.evaluate(s), atol=1e-9)


def _block_maxima_loop(matrix, row_part, col_part):
    """Reference: one np.max per nonempty block."""
    ro, co = row_part.offsets(), col_part.offsets()
    out = np.zeros((row_part.n_blocks, col_part.n_blocks))
    for i in range(row_part.n_blocks):
        for j in range(col_part.n_blocks):
            block = matrix[ro[i] : ro[i + 1], co[j] : co[j + 1]]
            if block.size:
                out[i, j] = np.max(np.abs(block))
    return out


def test_block_maxima_match_loop_with_empty_blocks(rng):
    cases = [((0, 2, 0, 0, 1, 0), (1, 0, 3)), ((0, 0), (2, 1)), ((2,), (0, 0, 0))]
    for _ in range(30):
        k = int(rng.integers(1, 6))
        cases.append(
            (tuple(rng.integers(0, 3, size=k)), tuple(rng.integers(0, 3, size=k)))
        )
    for rows, cols in cases:
        row_part, col_part = Partition(rows), Partition(cols)
        M = rng.standard_normal((row_part.total, col_part.total))
        np.testing.assert_array_equal(
            _block_maxima(M, row_part, col_part), _block_maxima_loop(M, row_part, col_part)
        )


def test_zero_size_state_blocks_in_realization_check():
    # node 1 has no states; its rows and columns of A are empty
    part = Partition((1, 0, 2))
    scalar = Partition.scalar(3)
    A = np.array([[-1.0, 0.0, 0.0], [0.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    B = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    sys = StateSpace(A, B, B.T, np.zeros((3, 3)), part, scalar, scalar)
    flags = check_realization_structure(sys, StructurePattern.scalar(Graph(np.eye(3))))
    assert flags.structured and flags.network
    A[0, 1] = 0.5  # couples node 0 to node 2, not an edge of the empty graph
    sys = StateSpace(A, B, B.T, np.zeros((3, 3)), part, scalar, scalar)
    assert not check_realization_structure(
        sys, StructurePattern.scalar(Graph(np.eye(3)))
    ).structured


def per_matrix_structure(sys, pattern):
    """Reference flags: each test reads one matrix's block maxima against its mask."""

    def conforms(M, row_part, col_part, allowed):
        scale = max(np.max(np.abs(M)) if M.size else 0.0, 1.0)
        return not np.any(_block_maxima(M, row_part, col_part)[~allowed] > ZERO_BLOCK_TOL * scale)

    sp = sys.state_partition
    ip = sys.in_partition or pattern.col_partition
    op = sys.out_partition or pattern.row_partition
    adj, eye = pattern.graph.adjacency, np.eye(pattern.graph.n, dtype=bool)
    structured = (
        conforms(sys.A, sp, sp, adj)
        and conforms(sys.B, sp, ip, adj)
        and conforms(sys.C, op, sp, adj)
        and conforms(sys.D, op, ip, adj)
    )
    in_diag = conforms(sys.B, sp, ip, eye) and conforms(sys.D, op, ip, eye)
    out_diag = conforms(sys.C, op, sp, eye) and conforms(sys.D, op, ip, eye)
    return RealizationStructure(structured, structured and (in_diag or out_diag), in_diag, out_diag)


def random_block_sparse(rng, row_part, col_part):
    """A matrix whose blocks are zero, large, or one entry at 0.5 or 2 times the zero tolerance.

    The tolerance is ZERO_BLOCK_TOL times max(|M|, 1), which the large
    blocks set before the small entries go in.
    """
    M = np.zeros((row_part.total, col_part.total))
    kinds = rng.choice(4, size=(row_part.n_blocks, col_part.n_blocks), p=(0.4, 0.2, 0.2, 0.2))
    for (i, j), kind in np.ndenumerate(kinds):
        if kind == 3:
            block = M[row_part.block_slice(i), col_part.block_slice(j)]
            block[...] = rng.standard_normal(block.shape)
    scale = max(np.max(np.abs(M)) if M.size else 0.0, 1.0)
    for (i, j), kind in np.ndenumerate(kinds):
        block = M[row_part.block_slice(i), col_part.block_slice(j)]
        if kind in (1, 2) and block.size:
            factor = (0.5, 2.0)[kind - 1] * rng.choice((-1.0, 1.0))
            block.flat[rng.integers(block.size)] = factor * ZERO_BLOCK_TOL * scale
    return M


def test_structure_flags_match_the_per_matrix_check(rng):
    seen = set()
    for trial in range(300):
        n = int(rng.integers(1, 5))
        graph = random_connected_graph(n, rng, extra_edge_prob=0.2)
        sp, ip, op = (Partition(tuple(rng.integers(0, 3, size=n))) for _ in range(3))
        pattern = StructurePattern(graph, op, ip)
        A, B = random_block_sparse(rng, sp, sp), random_block_sparse(rng, sp, ip)
        C, D = random_block_sparse(rng, op, sp), random_block_sparse(rng, op, ip)
        # every other system leaves its input and output partitions to the pattern
        sides = (ip, op) if trial % 2 else (None, None)
        sys = StateSpace(A, B, C, D, sp, *sides)
        got = check_realization_structure(sys, pattern)
        assert got == per_matrix_structure(sys, pattern)
        seen.add(got)
    assert len(seen) >= 4  # the draws reach several flag combinations
