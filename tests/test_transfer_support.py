"""Transfer-entry zero test on realizations, checked against exact arithmetic."""

import tracemalloc
from unittest import mock

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import locrel.sls as sls
import locrel.statespace as statespace
import locrel.structure as structure
from locrel.consensus import proper_approximation, static_gain_realization
from locrel.graphs import Graph, Partition, StructurePattern, b_hops, ring_graph
from locrel.relative import is_relative
from locrel.sls import Plant, closed_loops_of, implementation_realization_sf
from locrel.statespace import (
    StateSpace,
    _column_subspaces,
    _invariant_subspaces,
    tf_of,
)
from locrel.structure import (
    check_realization_structure,
    is_tf_structured,
    transfer_support,
    tridiag_counterexample,
)
from locrel.tolerances import MATCH
from locrel.tolerances import ZERO as INPUT_ZERO_TOL

_S = sympy.symbols("s")
_POLY = sympy.ZZ[_S]


def _exact_support(A, B, C, D):
    """Nonzero pattern of C (sI - A)^-1 B + D in exact integer arithmetic.

    Solves (sI - A) X = den B over Z[s]; entry (i, j) is the zero function
    exactly when the numerator C_i X_j + D_ij den is the zero polynomial.
    """
    p, m = D.shape
    if A.shape[0] == 0:
        return D != 0

    def over_poly(M):
        return DomainMatrix.from_Matrix(sympy.Matrix(M)).convert_to(_POLY)

    n = A.shape[0]
    resolvent = over_poly(_S * sympy.eye(n) - sympy.Matrix(A.tolist()))
    X, den = resolvent.solve_den(over_poly(B.tolist()), method="charpoly")
    num = over_poly(C.tolist()) * X + over_poly(D.tolist()) * den
    return np.array([[v != _POLY.zero for v in row] for row in num.to_list()])


def _block_mask(adj, row_sizes, col_sizes):
    rows = np.repeat(np.arange(adj.shape[0]), row_sizes)
    cols = np.repeat(np.arange(adj.shape[0]), col_sizes)
    return adj[np.ix_(rows, cols)]


@st.composite
def block_sparse_realizations(draw):
    """Small integer realizations whose A, B, C, D conform to a random graph."""
    nodes = draw(st.integers(1, 4))
    states = draw(st.lists(st.integers(0, 2), min_size=nodes, max_size=nodes))
    upper = draw(
        st.lists(st.booleans(), min_size=nodes * nodes, max_size=nodes * nodes)
    )
    adj = np.array(upper, dtype=bool).reshape(nodes, nodes)
    graph = Graph(adj | adj.T)
    ones = (1,) * nodes

    def matrix(row_sizes, col_sizes):
        shape = (sum(row_sizes), sum(col_sizes))
        values = draw(
            st.lists(
                st.integers(-2, 2), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
            )
        )
        M = np.array(values, dtype=np.int64).reshape(shape)
        return M * _block_mask(graph.adjacency, row_sizes, col_sizes)

    A, B = matrix(states, states), matrix(states, ones)
    C, D = matrix(ones, states), matrix(ones, ones)
    pattern = StructurePattern.scalar(graph)
    return A, B, C, D, Partition(tuple(states)), pattern


@settings(max_examples=60, deadline=None)
@given(block_sparse_realizations())
def test_support_matches_exact_transfer(realization):
    A, B, C, D, state_part, pattern = realization
    sys = StateSpace(A, B, C, D, state_partition=state_part)
    want = _exact_support(A, B, C, D)
    np.testing.assert_array_equal(transfer_support(sys), want)
    allowed = pattern.graph.adjacency
    assert is_tf_structured(sys, pattern) == (not np.any(want & ~allowed))


def _krylov_support(sys):
    """The support by the Krylov test alone, on every input column.

    The reference the certificate stages must reproduce: D_ij beyond ZERO,
    or C_i Q beyond MATCH times max(max |C_i|, 1) on the reachable subspace
    Q of a live column B_j.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    support = np.abs(D) > INPUT_ZERO_TOL
    c_tol = MATCH * np.maximum(np.max(np.abs(C), axis=1, initial=0.0), 1.0)
    live = np.flatnonzero(np.max(np.abs(B), axis=0, initial=0.0) > INPUT_ZERO_TOL)
    if live.size:
        for group, Q in _column_subspaces(A, B[:, live], a_norm=np.linalg.norm(A)):
            for j, basis in zip(live[group], Q):
                support[:, j] |= np.max(np.abs(C @ basis), axis=1, initial=0.0) > c_tol
    return support


def _unimodular(rng, n):
    """A dense integer matrix with an integer inverse: L U, both unit triangular."""
    L = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n, dtype=np.int64)
    T = L @ U
    return T, np.round(np.linalg.inv(T)).astype(np.int64)


@settings(max_examples=80, deadline=None)
@given(block_sparse_realizations(), st.integers(0, 2**32 - 1))
def test_certificates_match_krylov_alone(realization, seed):
    # the sparse realization and a dense one of the same transfer matrix:
    # an integer similarity T leaves the exact support as it is, but its
    # zeros are no longer structural, so the Krylov stage decides them
    A, B, C, D, state_part, pattern = realization
    T, Tinv = _unimodular(np.random.default_rng(seed), A.shape[0])
    want = _exact_support(A, B, C, D)
    allowed = pattern.graph.adjacency
    for system in ((A, B, C, D), (T @ A @ Tinv, T @ B, C @ Tinv, D)):
        sys = StateSpace(*system)
        np.testing.assert_array_equal(transfer_support(sys), _krylov_support(sys))
        np.testing.assert_array_equal(transfer_support(sys), want)
        assert is_tf_structured(sys, pattern) == (not np.any(want & ~allowed))


@st.composite
def krylov_starts(draw):
    """A with a known invariant subspace, and start blocks V inside it.

    A = T [[A1, X], [0, A2]] T' for an orthogonal T, so the first r columns
    of T span an A-invariant subspace that holds V.  V has 1 to 4 columns,
    some of them combinations of earlier ones, with scales four orders of
    magnitude apart.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    m = draw(st.integers(1, 4))
    dependent = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    scales = draw(
        st.lists(st.sampled_from([1e-2, 1e-1, 1.0, 1e1, 1e2]), min_size=m, max_size=m)
    )
    rng = np.random.default_rng(seed)
    T = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = rng.standard_normal((n, n))
    M[r:, :r] = 0.0
    V1 = rng.standard_normal((r, m))
    for j in range(1, m):
        if dependent[j]:
            V1[:, j] = V1[:, :j] @ rng.standard_normal(j)
    return T @ M @ T.T, T[:, :r] @ V1 * np.array(scales)


def _one_subspace(A, V, norms=None):
    """The basis ``_invariant_subspaces`` grows for one item (A, V)."""
    ((_, _, Q),) = _invariant_subspaces([(A[None], V[None])], norms)
    return Q[0]


def _krylov_rank(A, V):
    """Numerical rank of [V, A V, ..., A^(n-1) V] with A and V scaled to norm one."""
    A = A / np.linalg.norm(A, 2)
    blocks = [V / np.linalg.norm(V, 2)]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv[0]))


@settings(max_examples=200, deadline=None)
@given(krylov_starts())
def test_invariant_subspace_of_a_start_block(case):
    A, V = case
    Q = _one_subspace(A, V)
    k = Q.shape[1]
    assert np.max(np.abs(Q.T @ Q - np.eye(k))) < 1e-12
    assert np.linalg.norm(V - Q @ (Q.T @ V)) < 1e-8 * np.linalg.norm(V)
    assert np.linalg.norm(A @ Q - Q @ (Q.T @ A @ Q)) < 1e-8 * np.linalg.norm(A)
    assert k == _krylov_rank(A, V)


@st.composite
def column_starts(draw):
    """A state matrix and start columns for the batched Krylov kernel.

    Columns are random, zero, at or below INPUT_ZERO_TOL, or in the null
    space of A (a Krylov image that vanishes in exact arithmetic); A may
    have an invariant subspace that holds some columns.  Half the draws
    pass per-column floors and a norm for A, some large enough to stop a
    column at once.  The batch budget is drawn too, so batches split.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 7))
    m = draw(st.integers(1, 6))
    A = rng.standard_normal((n, n)) * draw(st.sampled_from([1e-2, 1.0, 1e2]))
    r = draw(st.integers(0, n))
    A[r:, :r] = 0.0
    if n and draw(st.booleans()):
        A[:, 0] = A[:, 1:] @ rng.standard_normal(n - 1) if n > 1 else 0.0
    null = np.linalg.svd(A)[2][-1] if n else np.zeros(0)
    kinds = draw(
        st.lists(st.sampled_from(["random", "inside", "zero", "tiny", "null"]), min_size=m, max_size=m)
    )
    V = np.zeros((n, m))
    for j, kind in enumerate(kinds):
        if kind == "random":
            V[:, j] = rng.standard_normal(n) * draw(st.sampled_from([1e-2, 1.0, 1e2]))
        elif kind == "inside":
            V[:r, j] = rng.standard_normal(r)
        elif kind == "tiny":
            V[:, j] = rng.standard_normal(n) * INPUT_ZERO_TOL * draw(st.sampled_from([1e-3, 0.5, 1.0]))
        elif kind == "null":
            V[:, j] = null * draw(st.sampled_from([1.0, 3.0]))
    norms = None
    if draw(st.booleans()):
        v_norms = np.linalg.norm(V, axis=0) * 10.0 ** rng.uniform(-1.0, 11.0, m)
        norms = v_norms, np.linalg.norm(A) * 10.0 ** rng.uniform(0.0, 10.0)
    budget = draw(st.sampled_from([1, 16, 64, statespace.KRYLOV_BLOCK_ELEMENTS]))
    return A, V, norms, budget


@settings(max_examples=300, deadline=None)
@given(column_starts())
def test_column_subspaces_match_one_column_subspaces(case):
    A, V, norms, budget = case
    v_norms, a_norm = (None, None) if norms is None else norms
    with mock.patch.object(statespace, "KRYLOV_BLOCK_ELEMENTS", budget):
        found = {}
        for cols, Q in _column_subspaces(A, V, v_norms=v_norms, a_norm=a_norm):
            assert Q.shape == (cols.size, A.shape[0], Q.shape[2])
            found.update(zip(cols.tolist(), Q))
    assert sorted(found) == list(range(V.shape[1]))
    for j, Q in found.items():
        want = _one_subspace(A, V[:, [j]], norms=None if norms is None else (a_norm, v_norms[j]))
        assert Q.shape == want.shape
        assert np.max(np.abs(Q @ Q.T - want @ want.T), initial=0.0) < 1e-10
        assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1])), initial=0.0) < 1e-12


def test_column_subspaces_of_a_vanishing_krylov_image():
    # the case below, with a zero column and a column of norm INPUT_ZERO_TOL beside it
    A = np.array([[3.0, 0.0, -1.0], [2.0, -1.0, 0.0], [0.0, 3.0, -2.0]])
    b = np.array([1.0, 2.0, 3.0])
    V = np.column_stack([b, np.zeros(3), b * INPUT_ZERO_TOL / np.linalg.norm(b)])
    dims = {}
    for cols, Q in _column_subspaces(A, V):
        dims.update((j, Q.shape[2]) for j in cols.tolist())
    assert dims == {0: 1, 1: 0, 2: 1}


def _ring_closed_loops(n):
    """The gap report's closed loops of K_s and K_a on n integrators, with their 1-hop pattern.

    Each is the ``closed_loops_of`` pair of dx = u + w under the controller;
    its phi_x is (sI - K(s))^-1.
    """
    plant = Plant(A=np.zeros((n, n)), B1=np.eye(n), B2=np.eye(n))
    controllers = (static_gain_realization(n), proper_approximation(n, -10.0))
    pattern = StructurePattern.scalar(b_hops(ring_graph(n), 1))
    return [closed_loops_of(plant, K) for K in controllers], pattern


def test_ring_loops_grow_no_single_column_subspace(monkeypatch):
    # every one-vector Krylov start goes through the batched kernel
    single = []

    def counting(stacks, *args, **kwargs):
        stacks = list(stacks)
        single.extend(V for _, V in stacks if V.shape[2] == 1)
        return _invariant_subspaces(stacks, *args, **kwargs)

    monkeypatch.setattr(statespace, "_invariant_subspaces", counting)
    monkeypatch.setattr(sls, "_invariant_subspaces", counting)
    cl = _ring_closed_loops(16)[0][1]  # the K_a loop
    assert transfer_support(cl.phi_x).any() and transfer_support(cl.phi_u).any()
    implementation_realization_sf(cl)
    assert not single


def test_support_of_a_large_system_stays_in_bounded_memory():
    # one basis vector per column: a padded n x n basis per column would
    # take n^3 doubles, 64 GB here
    n = 2000
    sys = StateSpace(np.diag(-1.0 - np.arange(n) / n), np.eye(n), np.eye(n), np.zeros((n, n)))
    tracemalloc.start()
    try:
        support = transfer_support(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(support, np.eye(n, dtype=bool))
    assert peak < 64 * 2**20


def _hidden_mode_system():
    """Dense realization with one entry cancelled by a hidden mode.

    In coordinates z = T^-1 x the first input reaches only z1 and the first
    output sees only z2, while z2 does not depend on z1, so entry (0, 0)
    is zero; the second input and output touch every state.  The similarity
    T makes A, B and C dense.
    """
    A0 = np.array([[-1.0, 2.0, 1.0], [0.0, -3.0, 0.0], [0.0, 1.0, -2.0]])
    B0 = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    C0 = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    T = np.array([[2.0, 1.0, 3.0], [3.0, 3.0, 1.0], [3.0, 1.0, 2.0]])
    Tinv = np.linalg.inv(T)
    return StateSpace(T @ A0 @ Tinv, T @ B0, C0 @ Tinv, np.zeros((2, 2)))


def test_hidden_mode_zero_in_dense_realization():
    sys = _hidden_mode_system()
    for M in (sys.A, sys.B, sys.C):
        assert np.all(np.abs(M) > 0.05)
    want = np.array([[False, True], [True, True]])
    np.testing.assert_array_equal(transfer_support(sys), want)
    for s in (0.5, 1.0 + 2.0j):
        assert abs(sys.evaluate(s)[0, 0]) < 1e-12
    assert not tf_of(sys)[0, 1].is_zero() and tf_of(sys)[0, 0].is_zero()


def test_unobservable_mode_zero_in_dense_realization():
    # the dual system: entry (0, 0) now vanishes through an unobservable mode
    g = _hidden_mode_system()
    dual = StateSpace(g.A.T, g.C.T, g.B.T, g.D.T)
    np.testing.assert_array_equal(
        transfer_support(dual), np.array([[False, True], [True, True]])
    )


def test_hidden_mode_zeros_are_left_to_krylov(monkeypatch):
    # the zero of a hidden or an unobservable mode is reachable in the graph
    # of A and has no witness, so Krylov decides it, as it did alone
    g = _hidden_mode_system()
    widths = _counting_krylov(monkeypatch)
    for sys in (g, StateSpace(g.A.T, g.C.T, g.B.T, g.D.T)):
        widths.clear()
        np.testing.assert_array_equal(transfer_support(sys), _krylov_support(sys))
        assert widths == [1]


def test_rounding_in_a_vanishing_krylov_image_is_not_a_direction():
    # A b = 0 exactly, but A applied to the unit vector b / |b| leaves
    # rounding behind; C b = 0, so the entry is zero
    A = np.array([[3.0, 0.0, -1.0], [2.0, -1.0, 0.0], [0.0, 3.0, -2.0]])
    b = np.array([[1.0], [2.0], [3.0]])
    assert _one_subspace(A, b).shape[1] == 1
    sys = StateSpace(A, b, np.array([[2.0, -1.0, 0.0]]), np.zeros((1, 1)))
    assert not transfer_support(sys).any()


def test_small_feedthrough_beside_a_large_one_is_a_response():
    # D_01 is tiny beside D_00 but no rounding: every check calls it nonzero
    D = np.array([[1e3, 1e-8], [0.0, 1.0]])
    static = StateSpace(
        np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D,
        state_partition=Partition((0, 0)),
    )
    np.testing.assert_array_equal(
        transfer_support(static), np.array([[True, True], [False, True]])
    )
    pattern = StructurePattern.scalar(Graph(np.zeros((2, 2), dtype=bool)))
    assert not is_tf_structured(static, pattern)
    assert not is_tf_structured(tf_of(static), pattern)
    assert not check_realization_structure(static, pattern).structured


def test_scaling_one_input_or_output_keeps_the_support():
    # both inputs drive the mode output 0 cannot see; D_01 alone joins them
    g = _hidden_mode_system()
    sys = StateSpace(g.A, g.B[:, [0, 0]], g.C, np.array([[0.0, 1e-8], [0.0, 1e3]]))
    want = np.array([[False, True], [True, True]])
    np.testing.assert_array_equal(transfer_support(sys), want)
    for k in range(2):
        for factor in (1e4, 1e-1):
            out = np.ones((2, 1))
            out[k] = factor
            scaled_out = StateSpace(sys.A, sys.B, out * sys.C, out * sys.D)
            np.testing.assert_array_equal(transfer_support(scaled_out), want)
            scaled_in = StateSpace(sys.A, sys.B * out.T, sys.C, sys.D * out.T)
            np.testing.assert_array_equal(transfer_support(scaled_in), want)


def test_support_of_static_and_empty_systems():
    static = StateSpace.static(np.array([[0.0, 2.0], [1e-14, 0.0]]))
    np.testing.assert_array_equal(
        transfer_support(static), np.array([[False, True], [False, False]])
    )
    silent = StateSpace(-np.eye(2), np.zeros((2, 1)), np.ones((3, 2)), np.zeros((3, 1)))
    assert not transfer_support(silent).any()


def test_tridiag_support_is_dense():
    cx = tridiag_counterexample(5)
    assert transfer_support(cx.system).all()


def _relative_cases(rng):
    yield proper_approximation(4, -10.0)
    yield tridiag_counterexample(4).system
    g = _hidden_mode_system()
    # B 1 is the first input of g, which the first output of g cannot see
    B = np.column_stack([g.B[:, 0] + g.B[:, 1], -g.B[:, 1]])
    yield StateSpace(g.A, B, g.C[:1], np.zeros((1, 2)))
    yield StateSpace(g.A, B, g.C, np.zeros((2, 2)))
    # relative with terms of 1e7: the row sums of B and D are rounding, not zero
    B, D = 1e7 * rng.standard_normal((3, 3)), 1e7 * rng.standard_normal((2, 3))
    B -= B.mean(axis=1, keepdims=True)
    D -= D.mean(axis=1, keepdims=True)
    yield StateSpace(-np.eye(3), B, rng.standard_normal((2, 3)), D)
    for _ in range(6):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        B = rng.standard_normal((n, m))
        D = rng.standard_normal((2, m))
        if rng.random() < 0.5:
            B -= B.mean(axis=1, keepdims=True)
            D -= D.mean(axis=1, keepdims=True)
        yield StateSpace(
            rng.standard_normal((n, n)) - 3.0 * np.eye(n), B, rng.standard_normal((2, n)), D
        )


def test_is_relative_state_space_matches_rational(rng):
    verdicts = []
    for sys in _relative_cases(rng):
        verdict = is_relative(sys)
        assert verdict == is_relative(tf_of(sys))
        verdicts.append(verdict)
    assert verdicts[:5] == [True, False, True, False, True]
    assert any(verdicts[5:]) and not all(verdicts[5:])


def _dense_similar(sys, seed=0):
    """The same transfer matrix from dense A, B and C: an orthogonal similarity."""
    n = sys.n_states
    T = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return StateSpace(T @ sys.A @ T.T, T @ sys.B, sys.C @ T.T, sys.D)


def _counting_krylov(monkeypatch):
    """Record the width of every start block the structure stages send to Krylov."""
    widths = []

    def counting(A, V, **kwargs):
        widths.append(V.shape[1])
        return _column_subspaces(A, V, **kwargs)

    monkeypatch.setattr(structure, "_column_subspaces", counting)
    return widths


def test_pattern_check_grows_doubling_column_groups(monkeypatch):
    # groups of 1, 2, 4, ... columns: a conforming map takes log2(m) passes
    # and the first off-pattern group ends the check.  Dense realizations
    # leave every off-pattern entry to Krylov: each is reachable in the
    # graph of A, and no Markov parameter clears WITNESS
    widths = _counting_krylov(monkeypatch)
    n = 32
    ring = StructurePattern.scalar(ring_graph(n))
    assert is_tf_structured(_dense_similar(proper_approximation(n, -10.0)), ring)
    assert widths == [1, 2, 4, 8, 16, 1]
    for col, want in ((n - 1, [1, 2, 4, 8, 16, 1]), (0, [1]), (5, [1, 2, 4])):
        widths.clear()
        B = np.eye(n)
        # input col reaches the opposite node with a gain between MATCH and
        # WITNESS: a response, but no witness
        B[n // 2, col] = 5e-8
        sys = _dense_similar(StateSpace(-np.eye(n), B, np.eye(n), np.zeros((n, n))))
        assert not is_tf_structured(sys, ring)
        assert widths == want


def test_certificates_decide_the_gap_report_without_krylov(monkeypatch):
    widths = _counting_krylov(monkeypatch)
    n = 32
    ring = StructurePattern.scalar(ring_graph(n))
    # every off-pattern entry of K_a is a structural zero
    assert is_tf_structured(proper_approximation(n, -10.0), ring)
    np.testing.assert_array_equal(transfer_support(proper_approximation(n, -10.0)), ring.graph.adjacency)
    # the closed loops have D = 0, so their off-pattern entry is a witness
    loops, pattern = _ring_closed_loops(n)
    for cl in loops:
        assert not np.any(cl.phi_x.D)
        assert not is_tf_structured(cl.phi_x, pattern)
    assert widths == []
    # the static K_s has no states: its feedthrough decides every entry
    assert is_tf_structured(static_gain_realization(n), ring)
    assert widths == []


def test_witness_exponent_matches_the_hop_distance(monkeypatch):
    # on the K_a loop the entry two hops off first appears in C A^4 B, a
    # path through K_s, the pole, K_s and the pole again: four Markov steps
    # find it, three leave it to Krylov
    widths = _counting_krylov(monkeypatch)
    loops, pattern = _ring_closed_loops(16)
    monkeypatch.setattr(structure, "MARKOV_STEPS", 4)
    assert not is_tf_structured(loops[1].phi_x, pattern)
    assert widths == []
    monkeypatch.setattr(structure, "MARKOV_STEPS", 3)
    assert not is_tf_structured(loops[1].phi_x, pattern)
    assert widths == [1]


def test_ring_closed_loop_support_in_column_batches(monkeypatch):
    # batches of one column give the same support as one batch, and as Krylov alone
    cl = _ring_closed_loops(8)[0][1]  # the K_a loop
    want = [_krylov_support(H) for H in (cl.phi_x, cl.phi_u)]
    for H, support in zip((cl.phi_x, cl.phi_u), want):
        np.testing.assert_array_equal(transfer_support(H), support)
    monkeypatch.setattr(structure, "EXPANSION_BLOCK_ELEMENTS", 1)
    for H, support in zip((cl.phi_x, cl.phi_u), want):
        np.testing.assert_array_equal(transfer_support(H), support)
