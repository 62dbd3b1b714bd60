"""Shared helpers: random structured test instances and reference oracles."""

import numpy as np
import pytest
import scipy.linalg

from locrel.consensus import static_consensus_gain
from locrel.graphs import Graph, StructurePattern, laplacian, path_graph
from locrel.rational import RationalEntry, RationalMatrix, padd, pmul
from locrel.relative import edge_sum_adjoint
from locrel.tolerances import EXACT


def h2_norm_squared(sys):
    """Squared H2 norm of a stable strictly proper realization, from its Gramian.

    trace(B' Q B) with A' Q + Q A + C' C = 0: the Lyapunov reference for
    the package's per-entry, per-frequency and deflated H2 norms.
    """
    assert not np.any(sys.D), "the H2 norm needs zero feedthrough"
    if sys.n_states == 0:
        return 0.0
    assert np.max(np.linalg.eigvals(sys.A).real) < 0, "the H2 norm needs a Hurwitz A"
    Q = scipy.linalg.solve_continuous_lyapunov(sys.A.T, -sys.C.T @ sys.C)
    return float(np.trace(sys.B.T @ Q @ sys.B))


def entry_sum(a, b):
    """The rational entry a + b by coefficient arithmetic.

    Over a's denominator where the two denominators agree to a relative
    EXACT, else over their product, uncancelled.
    """
    if a.den.size == b.den.size and np.allclose(a.den, b.den, rtol=EXACT, atol=0.0):
        return RationalEntry(padd(a.num, b.num), a.den)
    return RationalEntry(padd(pmul(a.num, b.den), pmul(b.num, a.den)), pmul(a.den, b.den))


def scaled(alpha, e):
    """The rational entry alpha e."""
    return RationalEntry(alpha * e.num, e.den)


def approximation_transfer(n, a):
    """Closed form -a/(s - a) K_s of ``consensus.proper_approximation(n, a)``."""
    Ks = static_consensus_gain(n)
    return RationalMatrix([[RationalEntry([-a * k], [-a, 1.0]) for k in row] for row in Ks])


def verify_adjoint_identity(graph):
    """Largest deviation of the row sums of ``edge_sum_adjoint`` from half the Laplacian.

    Summing the rows of the adjoint's edge matrix acts as L/2; this checks
    it on every coordinate direction.
    """
    row_sums = np.stack([edge_sum_adjoint(graph, e).sum(axis=1) for e in np.eye(graph.n)], axis=1)
    return float(np.max(np.abs(row_sums - 0.5 * laplacian(graph))))


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


def random_proper_entry(rng, max_deg=2, stable=True):
    """Random proper entry; stable denominators keep samples off poles."""
    dn = int(rng.integers(1, max_deg + 1))
    nn = int(rng.integers(0, dn + 1))
    num = rng.standard_normal(nn + 1)
    den = np.ones(1)
    for _ in range(dn):
        if stable:
            den = pmul(den, np.array([float(rng.uniform(0.5, 3.0)), 1.0]))
        else:
            den = pmul(den, np.array([float(rng.uniform(-3.0, 3.0)), 1.0]))
    return RationalEntry(num, den)


def random_tf_structured(pattern, rng, max_deg=2, strictly_proper=False):
    """Random rational matrix supported on the pattern's edges."""
    n = pattern.graph.n
    adj = pattern.graph.adjacency
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            if adj[i, j]:
                e = random_proper_entry(rng, max_deg)
                if strictly_proper and not e.is_strictly_proper():
                    e = RationalEntry(e.num[:-1] if e.num.size > 1 else e.num, e.den)
                    if not e.is_strictly_proper():
                        e = RationalEntry([1.0], e.den)
                row.append(e)
            else:
                row.append(RationalEntry.zero())
        grid.append(row)
    return RationalMatrix(grid, pattern.row_partition, pattern.col_partition)


def chain_pattern(n=3):
    return StructurePattern.scalar(path_graph(n))


def chain3_phi_u():
    """Input closed loop of the three-node chain design."""
    zero = RationalEntry.zero()
    lag1 = RationalEntry([1.0], [1.0, 1.0])
    lag2 = RationalEntry([1.0], [2.0, 1.0])
    return RationalMatrix(
        [[zero, lag1, zero], [lag1, zero, lag2], [zero, lag2, zero]]
    )


def chain3_phi_x():
    """State closed loop of the three-node chain design: (I + phi_u)/s."""
    n = 3
    phi_u = chain3_phi_u()
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            e = phi_u[i, j]
            if i == j:
                e = entry_sum(e, RationalEntry([1.0]))
            den_s = np.concatenate(([0.0], e.den))
            row.append(RationalEntry(e.num, den_s))
        grid.append(row)
    return RationalMatrix(grid)


def chain3_controller():
    """Dense rational gain whose chain closed loops are sparse."""
    p1 = np.array([1.0, 1.0])
    p2 = np.array([2.0, 1.0])
    p1sq = np.convolve(p1, p1)
    p2sq = np.convolve(p2, p2)
    delta = np.convolve(p1sq, p2sq)
    delta[: p1sq.size] -= p1sq
    delta[: p2sq.size] -= p2sq
    m = [
        [-p2sq, np.convolve(p1, p2sq), -np.convolve(p1, p2)],
        [np.convolve(p1, p2sq), -p1sq - p2sq, np.convolve(p1sq, p2)],
        [-np.convolve(p1, p2), np.convolve(p1sq, p2), -p1sq],
    ]
    grid = [
        [RationalEntry(np.concatenate(([0.0], m[i][j])), delta) for j in range(3)]
        for i in range(3)
    ]
    return RationalMatrix(grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
