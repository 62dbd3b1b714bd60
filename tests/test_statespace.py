"""State-space realizations, interconnections and H2 norms."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import approximation_transfer, h2_norm_squared

from locrel.errors import (
    NonzeroFeedthrough,
    NotHurwitz,
    RationalConversionFailed,
    SingularAtS,
)
from locrel.consensus import proper_approximation
from locrel.graphs import Partition
from locrel.rational import RationalEntry, RationalMatrix, pdeg, pmul, ptrim
from locrel.sls import Plant, closed_loops_of, recover_controller_sf
import locrel.statespace as statespace
from locrel.statespace import (
    StateSpace,
    _root_abscissa,
    batch_h2_squared,
    block_diag,
    interleave_node_states,
    parallel,
    permute_states,
    realize_rational,
    scalar_h2_squared,
    series,
    tf_of,
)
from locrel.structure import tridiag_counterexample
from locrel.tolerances import HYPOTHESIS, negligible


def random_stable_system(rng, n_states, n_in=None, n_out=None):
    n_in = n_in or n_states
    n_out = n_out or n_states
    A = rng.standard_normal((n_states, n_states))
    A = A - (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.5, 1.5)) * np.eye(
        n_states
    )
    return StateSpace(
        A,
        rng.standard_normal((n_states, n_in)),
        rng.standard_normal((n_out, n_states)),
        np.zeros((n_out, n_in)),
    )


def test_dimension_validation():
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    sys = StateSpace.static(np.ones((2, 3)))
    assert sys.n_states == 0
    assert sys.shape == (2, 3)


def test_integrator_evaluation():
    sys = StateSpace(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
    assert sys.evaluate(2.0)[0, 0] == pytest.approx(0.5)
    with pytest.raises(SingularAtS):
        sys.evaluate(0.0)


def test_tf_of_simple_systems():
    integ = StateSpace(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
    lag = StateSpace(-np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
    biased = StateSpace(
        np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), 3.0 * np.ones((1, 1))
    )
    # 1/(s + 1), (3s + 1)/s and 1/s, ascending coefficients
    cases = ((lag, [1.0], [1.0, 1.0]), (biased, [1.0, 3.0], [0.0, 1.0]), (integ, [1.0], [0.0, 1.0]))
    for sys, num, den in cases:
        entry = tf_of(sys)[0, 0]
        assert (entry.num.size, entry.den.size) == (len(num), len(den))
        np.testing.assert_allclose(entry.num, num, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(entry.den, den, rtol=0.0, atol=1e-12)


def test_tf_of_matches_resolvent_evaluation():
    rng = np.random.default_rng(4)
    for _ in range(6):
        n = int(rng.integers(1, 9))
        sys = random_stable_system(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        H = tf_of(sys)
        for _ in range(10):
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
            ref = sys.evaluate(s)
            got = H.evaluate(s)
            assert np.max(np.abs(got - ref)) < 1e-8 * (1.0 + np.max(np.abs(ref)))


def test_conversion_is_verified(monkeypatch):
    # a wrong characteristic polynomial of an entry's minimal part is
    # caught against the frequency response, not returned
    rng = np.random.default_rng(9)
    sys = random_stable_system(rng, 5, 2, 3)
    tf_of(sys)
    exact = statespace.char_poly

    def perturbed(A):
        q, mats = exact(A)
        q = q.copy()
        q[..., 1] *= 1.0 + 1e-4
        return q, mats

    monkeypatch.setattr(statespace, "char_poly", perturbed)
    with pytest.raises(RationalConversionFailed):
        tf_of(sys)


def test_tf_of_refuses_the_26_state_chain():
    # the degree-25 coefficient form loses accuracy there; the frequency
    # check refuses it rather than return an unverified matrix
    with pytest.raises(RationalConversionFailed):
        tf_of(tridiag_counterexample(26).system)


@pytest.mark.parametrize("n", range(8, 21))
def test_tf_of_chain_entries_have_minimal_degree(n):
    # tridiag(1, -2, 1) has the distinct eigenvalues -2 + 2 cos(k pi / (n+1))
    # with eigenvectors sin(i k pi / (n+1)), i, k = 1..n, so entry (i, j)
    # has a pole for each mode k with (n+1) dividing neither i k nor j k
    H = tf_of(tridiag_counterexample(n).system)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            degree = sum(1 for k in range(1, n + 1) if (i * k) % (n + 1) and (j * k) % (n + 1))
            assert pdeg(H[i - 1, j - 1].den) == degree, (i, j)


@pytest.mark.parametrize("n", range(4, 17))
def test_tf_of_proper_approximation_is_the_closed_form(n):
    H, want = tf_of(proper_approximation(n, -10.0)), approximation_transfer(n, -10.0)
    for i in range(n):
        for j in range(n):
            got, ref = H[i, j], want[i, j]
            assert (got.num.size, got.den.size) == (ref.num.size, ref.den.size), (i, j)
            np.testing.assert_allclose(got.num, ref.num, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(got.den, ref.den, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", range(4, 14))
def test_recovered_ring_controller_converts_to_first_order_entries(n):
    # the recovered controller is -a/(s - a) K_s on its n - 1 observable
    # modes, so no entry has more than the one pole a
    plant = Plant(A=np.zeros((n, n)), B1=np.eye(n), B2=np.eye(n))
    K = recover_controller_sf(closed_loops_of(plant, proper_approximation(n, -10.0)))
    H = tf_of(K)
    assert max(pdeg(H[i, j].den) for i in range(n) for j in range(n)) <= 1


def test_series_of_two_integrators():
    integ = StateSpace(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
    double = series(integ, integ)
    assert double.n_states == 2
    assert double.evaluate(2.0)[0, 0] == pytest.approx(0.25)


def test_parallel_cancellation():
    rng = np.random.default_rng(5)
    G = random_stable_system(rng, 3, 2, 2)
    minusG = StateSpace(G.A, G.B, -G.C, -G.D)
    Z = parallel(G, minusG)
    for s in (0.9, 1.7 + 0.4j):
        assert np.max(np.abs(Z.evaluate(s))) < 1e-12


@pytest.mark.parametrize(
    "shapes",
    [
        [(3, 3), (2, 2)],  # parallel and the stacked SLS residual
        [(0, 0), (4, 4)],
        [(4, 4), (0, 0)],
        [(0, 0), (0, 0)],
        [(2, 2), (0, 0), (1, 1), (3, 3)],  # row realization: A blocks
        [(1, 2), (1, 0), (1, 1), (1, 3)],  # row realization: C blocks
        [(1, 0)],
        [(1, 0), (1, 0)],
        [(0, 0)],
    ],
)
def test_block_diag_matches_scipy_bitwise(shapes):
    rng = np.random.default_rng(len(shapes))
    blocks = [rng.standard_normal(shape) for shape in shapes]
    if blocks[0].size:
        blocks[0][0, 0] = -0.0
    want = scipy.linalg.block_diag(*blocks)
    got = block_diag(*blocks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_h2_norm_of_first_order_lags():
    # the package's route (the entry of tf_of, then scalar_h2_squared) and
    # the Lyapunov oracle both give the closed forms 1/2 and 9/4
    lag = StateSpace(-np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
    lag2 = StateSpace(
        -2.0 * np.ones((1, 1)), 3.0 * np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1))
    )
    for sys, want in ((lag, 0.5), (lag2, 2.25)):
        assert scalar_h2_squared(tf_of(sys)[0, 0]) == pytest.approx(want, abs=1e-12)
        assert h2_norm_squared(sys) == pytest.approx(want, abs=1e-12)


def test_h2_norm_guards():
    # the package's route refuses what has no finite H2 norm
    unstable = StateSpace(
        np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1))
    )
    with pytest.raises(NotHurwitz):
        scalar_h2_squared(tf_of(unstable)[0, 0])
    feedthrough = StateSpace(
        -np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1))
    )
    with pytest.raises(NonzeroFeedthrough):
        scalar_h2_squared(tf_of(feedthrough)[0, 0])


def quadrature_h2_squared(sys, w_max=1e4, n_points=200001):
    """(1/pi) integral of trace(G* G) over [0, w_max] plus an asymptotic tail.

    For strictly proper G the integrand decays like K/w^2 with
    K = trace((C B)' (C B)), so the tail beyond w_max contributes about
    K/(pi w_max).  G(i w) = C (i w I - A)^-1 B comes from one batched
    solve over all frequencies.
    """
    w = np.linspace(0.0, w_max, n_points)
    # nonuniform refinement near zero where the integrand varies fastest
    w = np.concatenate((np.linspace(0.0, 10.0, 20001), w[w > 10.0]))
    resolvent = 1j * w[:, None, None] * np.eye(sys.n_states) - sys.A
    G = sys.C @ np.linalg.solve(resolvent, sys.B.astype(complex)) + sys.D
    vals = np.sum(np.abs(G) ** 2, axis=(1, 2))
    integral = np.trapezoid(vals, w) / np.pi
    CB = sys.C @ sys.B
    tail = float(np.trace(CB.T @ CB)) / (np.pi * w_max)
    return integral + tail


def test_h2_norm_against_frequency_quadrature():
    rng = np.random.default_rng(8)
    sys = random_stable_system(rng, 4, 2, 2)
    lyap = h2_norm_squared(sys)
    quad = quadrature_h2_squared(sys)
    assert abs(lyap - quad) < 1e-5 * max(1.0, lyap)


def test_h2_scaling_under_static_series():
    rng = np.random.default_rng(9)
    G = random_stable_system(rng, 3, 2, 2)
    c = -1.7
    scaled = series(G, StateSpace.static(c * np.eye(2)))
    assert h2_norm_squared(scaled) == pytest.approx(c**2 * h2_norm_squared(G), rel=1e-10)


def test_scalar_h2_matches_state_space():
    entry = RationalEntry([3.0], [2.0, 1.0])  # 3/(s+2)
    assert scalar_h2_squared(entry) == pytest.approx(2.25, abs=1e-12)
    # complex first-order pole: |c|^2 / (2 |Re p|)
    entry_c = RationalEntry(np.array([2.0 + 0.0j]), np.array([1.0 - 1.0j, 1.0]))
    assert scalar_h2_squared(entry_c) == pytest.approx(4.0 / 2.0, abs=1e-10)
    with pytest.raises(NotHurwitz):
        scalar_h2_squared(RationalEntry([1.0], [-1.0, 1.0]))
    with pytest.raises(NonzeroFeedthrough):
        scalar_h2_squared(RationalEntry([1.0, 1.0], [2.0, 1.0]))


def residue_h2_squared(num, den):
    """Squared H2 norm of num/den as an exact residue sum in mpmath.

    On the imaginary axis |H(s)|^2 = H(s) conj(H(-conj s)).  Closing the
    contour to the left encloses only the poles p of H, each simple here,
    so the norm is the sum of num(p) / den'(p) * conj(H(-conj p)).
    """
    with mpmath.workdps(40):
        num = [mpmath.mpc(complex(c)) for c in num]
        den = [mpmath.mpc(complex(c)) for c in den]
        slope = [j * den[j] for j in range(1, len(den))]

        def value(c, s):
            return mpmath.polyval(c[::-1], s)

        total = mpmath.mpc(0)
        for p in mpmath.polyroots(den[::-1], maxsteps=100, extraprec=100):
            q = -mpmath.conj(p)
            mirror = mpmath.conj(value(num, q) / value(den, q))
            total += value(num, p) / value(slope, p) * mirror
        return float(mpmath.re(total))


def random_stable_entries(rng, degree, count):
    """Complex entries of one degree, poles at real parts -3 to -0.1."""
    dens, nums = [], []
    for _ in range(count):
        poles = -rng.uniform(0.1, 3.0, degree) + 2j * rng.standard_normal(degree)
        dens.append(np.poly(poles)[::-1])
        nums.append(rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
    return np.array(nums), np.array(dens)


def test_batch_h2_matches_exact_residue_sum():
    rng = np.random.default_rng(21)
    for degree in range(1, 9):
        nums, dens = random_stable_entries(rng, degree, 10)
        got = batch_h2_squared(nums, dens)
        for value, num, den in zip(got, nums, dens):
            want = residue_h2_squared(num, den)
            assert abs(value - want) <= 1e-12 * want


def test_batch_h2_shared_denominator_sums_rows():
    rng = np.random.default_rng(22)
    nums, dens = random_stable_entries(rng, 3, 6)
    other = rng.standard_normal(nums.shape) + 1j * rng.standard_normal(nums.shape)
    stacked = batch_h2_squared(np.stack((nums, other), axis=1), dens)
    apart = batch_h2_squared(nums, dens) + batch_h2_squared(other, dens)
    assert np.allclose(stacked, apart, rtol=1e-13, atol=0.0)
    # a zero numerator costs nothing, whatever its denominator
    unstable = np.array([[-1.0, 1.0]])
    assert batch_h2_squared(np.zeros((1, 1)), unstable)[0] == 0.0


def test_batch_h2_first_failing_entry_decides():
    # (s + 1)/(s + 2) is not strictly proper; 1/(s - 1) is not stable
    improper = ([1.0, 1.0], [2.0, 1.0])
    unstable = ([1.0, 0.0], [-1.0, 1.0])
    stable = ([1.0, 0.0], [2.0, 1.0])
    for order, error in (
        ((stable, improper, unstable), NonzeroFeedthrough),
        ((stable, unstable, improper), NotHurwitz),
    ):
        nums = np.array([num for num, _ in order])
        dens = np.array([den for _, den in order])
        with pytest.raises(error):
            batch_h2_squared(nums, dens)
        with pytest.raises(error):
            for num, den in order:
                scalar_h2_squared(RationalEntry(num, den))


def test_closed_form_root_abscissa_matches_eigenvalues():
    rng = np.random.default_rng(23)
    for degree in (1, 2):
        dens = []
        for _ in range(200):
            # real parts at least 1e-3 from the imaginary axis, on both sides
            re = rng.choice((-1.0, 1.0), degree) * 10.0 ** rng.uniform(-3, 1, degree)
            roots = re + 1j * rng.standard_normal(degree)
            if rng.random() < 0.5:  # real coefficients: real roots or a conjugate pair
                roots = re if degree == 1 or rng.random() < 0.5 else re[0] + np.array([1j, -1j])
            dens.append(np.poly(roots)[::-1])
        dens = np.array(dens)
        want = np.array([np.max(np.roots(d[::-1]).real) for d in dens])
        got = _root_abscissa(dens)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
        nums = np.ones((dens.shape[0], 1))
        for num, den, abscissa in zip(nums, dens, want):
            if abscissa >= -1e-9:
                with pytest.raises(NotHurwitz):
                    batch_h2_squared(num[None], den[None])
            else:
                assert batch_h2_squared(num[None], den[None])[0] > 0.0
    # d0 = 0 puts a root at zero; d1 = 0 gives roots +-sqrt(-d0)
    exact = np.array([[0.0, 3.0, 1.0], [0.0, -2.0 + 1j, 1.0], [4.0, 0.0, 1.0], [-9.0, 0.0, 1.0], [2j, 0.0, 1.0]])
    assert list(_root_abscissa(exact)) == [0.0, 2.0, 0.0, 3.0, 1.0]
    for den in exact:
        with pytest.raises(NotHurwitz):
            batch_h2_squared(np.ones((1, 1)), den[None])


def test_realize_rational_round_trip_rows_and_columns():
    rng = np.random.default_rng(10)
    entries = [
        [RationalEntry([1.0], [1.0, 1.0]), RationalEntry([2.0], pmul([2.0, 1.0], [3.0, 1.0]))],
        [RationalEntry.zero(), RationalEntry([1.0, 1.0], [2.0, 3.0, 1.0])],
    ]
    H = RationalMatrix(entries)
    for orientation in ("rows", "columns"):
        sys = realize_rational(H, orientation)
        # state count is the sum of denominator degrees
        assert sys.n_states == 1 + 2 + 2
        for _ in range(5):
            s = complex(rng.uniform(0.3, 2.5), rng.uniform(-2.0, 2.0))
            assert np.allclose(sys.evaluate(s), H.evaluate(s), atol=1e-9)


def test_realize_rational_groups_states_by_orientation():
    H = RationalMatrix(
        [
            [RationalEntry([1.0], [1.0, 1.0]), RationalEntry([1.0], [2.0, 1.0])],
            [RationalEntry.zero(), RationalEntry([1.0], [3.0, 1.0])],
        ]
    )
    rows = realize_rational(H, "rows")
    assert rows.state_partition.block_sizes == (2, 1)
    cols = realize_rational(H, "columns")
    assert cols.state_partition.block_sizes == (1, 2)


def _realize_entry(entry):
    """Controllable canonical realization of one proper rational entry, entry by entry."""
    entry.require_proper()
    if np.iscomplexobj(entry.num) and not negligible(entry.num.imag, entry.num, HYPOTHESIS):
        raise ValueError("cannot realize an entry with complex coefficients")
    den = ptrim(entry.den)
    k = pdeg(den)
    if k == 0:
        d = entry.num[0] / den[0] if not entry.is_zero() else 0.0
        return (
            np.zeros((0, 0)),
            np.zeros((0, 1)),
            np.zeros((1, 0)),
            np.array([[float(np.real(d))]]),
        )
    num = np.zeros(k + 1)
    nn = ptrim(entry.num)
    num[: nn.size] = np.real(nn)
    d = num[k]  # denominator is monic, so the feedthrough is the top ratio
    strictly = num[:k] - d * np.real(den[:k])
    A = np.zeros((k, k))
    A[:-1, 1:] = np.eye(k - 1)
    A[-1, :] = -np.real(den[:k])
    B = np.zeros((k, 1))
    B[-1, 0] = 1.0
    C = strictly.reshape(1, k)
    D = np.array([[d]])
    return A, B, C, D


def _realize_rational_reference(H, orientation):
    """realize_rational as two mirrored branches, one per orientation."""
    p, m = H.shape
    pieces = [[_realize_entry(H[i, j]) for j in range(m)] for i in range(p)]
    dims = [[pieces[i][j][0].shape[0] for j in range(m)] for i in range(p)]
    if orientation == "rows":
        off = H.row_partition.offsets()
        blocks = range(H.row_partition.n_blocks)
        sizes = [sum(dims[i][j] for i in range(off[b], off[b + 1]) for j in range(m)) for b in blocks]
        order = [(i, j) for b in blocks for i in range(off[b], off[b + 1]) for j in range(m)]
    else:
        off = H.col_partition.offsets()
        blocks = range(H.col_partition.n_blocks)
        sizes = [sum(dims[i][j] for j in range(off[b], off[b + 1]) for i in range(p)) for b in blocks]
        order = [(i, j) for b in blocks for j in range(off[b], off[b + 1]) for i in range(p)]
    total = sum(sizes)
    A, B, C, D = np.zeros((total, total)), np.zeros((total, m)), np.zeros((p, total)), np.zeros((p, m))
    pos = 0
    for i, j in order:
        Aij, Bij, Cij, Dij = pieces[i][j]
        k = dims[i][j]
        A[pos : pos + k, pos : pos + k] = Aij
        B[pos : pos + k, j : j + 1] = Bij
        C[i : i + 1, pos : pos + k] = Cij
        D[i, j] = Dij[0, 0]
        pos += k
    return (A, B, C, D), tuple(sizes)


def _random_partition(rng, total):
    """Block sizes summing to total, zero-size blocks included."""
    cuts = np.sort(rng.integers(0, total + 1, size=int(rng.integers(0, 4))))
    return Partition(tuple(int(v) for v in np.diff(np.concatenate([[0], cuts, [total]]))))


def test_realize_rational_matches_mirrored_branches_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(60):
        p, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        entries = []
        for _ in range(p):
            row = []
            for _ in range(m):
                k = int(rng.integers(0, 4))
                num = rng.standard_normal(int(rng.integers(1, k + 2))) * (rng.uniform() < 0.8)
                row.append(RationalEntry(num, np.append(rng.uniform(0.5, 2.0, k), 1.0)))
            entries.append(row)
        H = RationalMatrix(entries, _random_partition(rng, p), _random_partition(rng, m))
        for orientation in ("rows", "columns"):
            sys = realize_rational(H, orientation)
            mats, sizes = _realize_rational_reference(H, orientation)
            assert sys.state_partition.block_sizes == sizes
            for got, want in zip((sys.A, sys.B, sys.C, sys.D), mats):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_interleave_permutation(groups):
    """The node-major permutation as nested loops over nodes and subsystems."""
    counts = [list(g.block_sizes) for g in groups]
    sub_offsets = np.concatenate([[0], np.cumsum([sum(c) for c in counts])]).astype(int)
    perm = []
    for node in range(len(counts[0])):
        for k, c in enumerate(counts):
            start = sub_offsets[k] + sum(c[:node])
            perm.extend(range(start, start + c[node]))
    return perm


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    st.integers(1, 5).flatmap(
        lambda nodes: st.lists(
            st.lists(st.integers(0, 3), min_size=nodes, max_size=nodes), min_size=1, max_size=5
        )
    )
)
def test_interleave_matches_the_nested_loops(sizes):
    # zero-size blocks included; the states carry their stacked index, so the
    # permutation can be read off the diagonal of A
    groups = [Partition(tuple(s)) for s in sizes]
    total = sum(map(sum, sizes))
    index = np.arange(total, dtype=float)
    sys = StateSpace(np.diag(index), index[:, None], index[None, :], np.zeros((1, 1)))
    merged = interleave_node_states(sys, groups)
    want = reference_interleave_permutation(groups)
    assert np.diagonal(merged.A).tolist() == want and merged.B[:, 0].tolist() == want
    assert merged.state_partition == Partition(tuple(map(sum, zip(*sizes))))


def test_interleave_node_states():
    # two stacked subsystems, each carrying one state per node; the
    # node-major reordering leaves the transfer matrix untouched
    rng = np.random.default_rng(12)
    sys = random_stable_system(rng, 4, 2, 2)
    groups = [Partition((1, 1)), Partition((1, 1))]
    merged = interleave_node_states(sys, groups)
    assert merged.state_partition.block_sizes == (2, 2)
    # subsystem-major (s1n1, s1n2, s2n1, s2n2) -> node-major
    assert np.allclose(merged.A, sys.A[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])])
    for s in (0.8, 1.2 + 0.5j):
        assert np.allclose(merged.evaluate(s), sys.evaluate(s), atol=1e-12)


def test_permute_states_matches_dense_permutation_products():
    # indexing gives bitwise what P A P', P B and C P' gave, signed zeros
    # included: the products leave every zero unsigned
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 17):
        A, B, C = (rng.standard_normal(shape) for shape in ((n, n), (n, 3), (2, n)))
        for M in (A, B, C):
            M[rng.random(M.shape) < 0.3] = -0.0
            M[rng.random(M.shape) < 0.1] = 0.0
        sys = StateSpace(A, B, C, np.zeros((2, 3)))
        perm = rng.permutation(n)
        P = np.eye(n)[perm]
        got = permute_states(sys, perm)
        for a, b in ((got.A, P @ A @ P.T), (got.B, P @ B), (got.C, C @ P.T)):
            assert a.tobytes() == b.tobytes()
        assert not np.any(np.signbit(got.A[got.A == 0.0]))


def test_state_space_json_round_trip():
    rng = np.random.default_rng(13)
    sys = random_stable_system(rng, 3, 2, 2)
    sys = StateSpace(
        sys.A,
        sys.B,
        sys.C,
        sys.D,
        state_partition=Partition((1, 2)),
        in_partition=Partition.scalar(2),
        out_partition=Partition.scalar(2),
    )
    doc = sys.to_json()
    back = StateSpace.from_json(doc)
    assert np.allclose(back.A, sys.A)
    assert back.state_partition.block_sizes == (1, 2)
    for s in (0.9, 1.4 - 0.6j):
        assert np.allclose(back.evaluate(s), sys.evaluate(s), atol=1e-14)


def poles_at(points):
    """One input, one output and a 2 x 2 block with the poles p and conj(p) for each point p."""
    n = 2 * len(points)
    A = np.zeros((n, n))
    for i, p in enumerate(points):
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[p.real, p.imag], [-p.imag, p.real]]
    return StateSpace(A, np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)))


@pytest.mark.parametrize(
    "points, checked",
    [
        # every check point a pole: tf_of used to return this conversion unchecked
        (statespace._TF_CHECK_POINTS, statespace._TF_SPARE_POINTS),
        (statespace._TF_CHECK_POINTS[:1], statespace._TF_CHECK_POINTS[1:] + statespace._TF_SPARE_POINTS[:1]),
    ],
)
def test_tf_of_checks_three_points_that_are_not_poles(monkeypatch, points, checked):
    sys = poles_at(points)
    calls = []
    evaluate = RationalMatrix.evaluate
    monkeypatch.setattr(RationalMatrix, "evaluate", lambda self, s: calls.append(s) or evaluate(self, s))
    H = tf_of(sys)
    assert calls == list(checked)
    assert pdeg(H[0, 0].den) == sys.n_states
    for s in (0.3 + 0.2j, -2.0):
        assert np.allclose(evaluate(H, s), sys.evaluate(s), rtol=1e-9)


def test_tf_of_refuses_a_system_with_too_few_points_to_check():
    spares = statespace._TF_SPARE_POINTS
    for points in (statespace._TF_CHECK_POINTS + spares, statespace._TF_CHECK_POINTS + spares[1:]):
        with pytest.raises(RationalConversionFailed, match="poles at the check points"):
            tf_of(poles_at(points))
