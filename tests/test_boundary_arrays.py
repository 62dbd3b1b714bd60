"""The rational boundary crossed in array passes.

``tf_of`` converts every entry of one minimal dimension together,
``RationalMatrix.evaluate`` evaluates all entries at once (an entry's
``evaluate`` is its one-entry case) and ``realize_rational`` places every
companion block by index.  The entry-by-entry routines these replaced
are kept here as references: conversions and realizations must match them
bit for bit, values to 1e-15 relative, and every error must have the same
class and message, raised by the same first failing entry.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locrel.statespace as statespace
from locrel.errors import LocrelError, RationalConversionFailed, SingularAtS
from locrel.graphs import Partition
from locrel.rational import (
    RationalEntry,
    RationalMatrix,
    _as_coeffs,
    padd,
    pdeg,
    pscale,
    ptrim,
)
from locrel.sls import Plant, closed_loops_of
from locrel.statespace import StateSpace, _column_subspaces, realize_rational, tf_of
from locrel.structure import tridiag_counterexample
from locrel.tolerances import EXACT, HYPOTHESIS, VERIFY, negligible

# -- the entry-by-entry references ------------------------------------------------


def reference_pval(c, s):
    result = 0.0 + 0.0j
    for coeff in _as_coeffs(c)[::-1]:
        result = result * s + coeff
    return result


def reference_entry_value(entry, s):
    dval = reference_pval(entry.den, s)
    scale = max(np.max(np.abs(entry.den)), 1.0) * max(1.0, abs(s)) ** pdeg(entry.den)
    if abs(dval) <= EXACT * scale:
        raise SingularAtS(f"rational entry has a pole at s = {s}")
    return reference_pval(entry.num, s) / dval


def reference_evaluate(H, s):
    p, m = H.shape
    out = np.zeros((p, m), dtype=complex)
    for i in range(p):
        for j in range(m):
            out[i, j] = reference_entry_value(H[i, j], s)
    return out


def reference_char_poly(A):
    n = A.shape[0]
    coeffs_desc = [1.0]
    mats = []
    N = np.eye(n)
    for k in range(1, n + 1):
        mats.append(N)
        AN = A @ N
        a = -np.trace(AN) / k
        coeffs_desc.append(a)
        N = AN + a * np.eye(n)
    return np.array(coeffs_desc[::-1], dtype=float), mats


def reference_siso_entry(A, b, c, d):
    k = A.shape[0]
    if k == 0:
        return RationalEntry([float(d)]) if d != 0.0 else RationalEntry([])
    q, mats = reference_char_poly(A)
    num = np.zeros(k)
    for idx, Nk in enumerate(mats):
        num[k - 1 - idx] = c @ Nk @ b
    num = ptrim(num)
    if d != 0.0:
        num = padd(num, pscale(q, d))
    return RationalEntry(num, q)


def reference_tf_of(sys):
    if sys.n_states == 0:
        return RationalMatrix.from_real(sys.D, sys.out_partition, sys.in_partition)
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    a_norm, c_norms = np.linalg.norm(A), np.linalg.norm(C, axis=1)
    entries = [[None] * sys.n_inputs for _ in range(sys.n_outputs)]
    for cols, Q in _column_subspaces(A, B):
        for j, Qj in zip(cols, Q):
            Aj, bj, Cj = Qj.T @ A @ Qj, Qj.T @ B[:, j], C @ Qj
            for rows, P in _column_subspaces(Aj.T, Cj.T, v_norms=c_norms, a_norm=a_norm):
                for i, Pi in zip(rows, P):
                    entries[i][j] = reference_siso_entry(
                        Pi.T @ Aj @ Pi, Pi.T @ bj, Cj[i] @ Pi, D[i, j]
                    )
    result = RationalMatrix(entries, sys.out_partition, sys.in_partition)
    for s in statespace._TF_CHECK_POINTS:
        try:
            want = sys.evaluate(s)
        except SingularAtS:
            continue
        if not negligible(reference_evaluate(result, s) - want, want, VERIFY):
            raise RationalConversionFailed(
                f"{sys.n_states}-state system lost accuracy during rational conversion"
            )
    return result


def reference_realize_entry(entry):
    """The parent's per-entry realization, with the realness rule on both parts."""
    entry.require_proper()
    for part in (entry.num, entry.den):
        if np.iscomplexobj(part) and not negligible(part.imag, part, HYPOTHESIS):
            raise ValueError("cannot realize an entry with complex coefficients")
    den = ptrim(entry.den)
    k = pdeg(den)
    if k == 0:
        d = entry.num[0] / den[0] if not entry.is_zero() else 0.0
        return np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.array([[float(np.real(d))]])
    num = np.zeros(k + 1)
    nn = ptrim(entry.num)
    num[: nn.size] = np.real(nn)
    d = num[k]
    A = np.zeros((k, k))
    A[:-1, 1:] = np.eye(k - 1)
    A[-1, :] = -np.real(den[:k])
    B = np.zeros((k, 1))
    B[-1, 0] = 1.0
    return A, B, (num[:k] - d * np.real(den[:k])).reshape(1, k), np.array([[d]])


def reference_realize_rational(H, orientation):
    p, m = H.shape
    pieces = [[reference_realize_entry(H[i, j]) for j in range(m)] for i in range(p)]
    dims = np.array([[piece[0].shape[0] for piece in row] for row in pieces], dtype=int)
    by_rows = orientation == "rows"
    part = H.row_partition if by_rows else H.col_partition
    order = [(i, j) for i in range(p) for j in range(m)]
    if not by_rows:
        order.sort(key=lambda ij: ij[1])
    line_dims = dims.sum(axis=1 if by_rows else 0)
    sizes = [int(line_dims[part.block_slice(b)].sum()) for b in range(part.n_blocks)]
    total = sum(sizes)
    A, B, C, D = np.zeros((total, total)), np.zeros((total, m)), np.zeros((p, total)), np.zeros((p, m))
    pos = 0
    for i, j in order:
        Aij, Bij, Cij, Dij = pieces[i][j]
        k = Aij.shape[0]
        A[pos : pos + k, pos : pos + k] = Aij
        B[pos : pos + k, j : j + 1] = Bij
        C[i : i + 1, pos : pos + k] = Cij
        D[i, j] = Dij[0, 0]
        pos += k
    return (A, B, C, D), tuple(sizes)


# -- comparisons ----------------------------------------------------------------


def outcome(call, *args):
    try:
        return "value", call(*args)
    except (LocrelError, ValueError) as exc:
        return "error", (type(exc), str(exc))


def assert_same_error(got, want):
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]


def bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def assert_same_entries(H, R):
    assert H.shape == R.shape
    for i in range(H.shape[0]):
        for j in range(H.shape[1]):
            assert bits(H[i, j].num) == bits(R[i, j].num), (i, j)
            assert bits(H[i, j].den) == bits(R[i, j].den), (i, j)


def assert_same_values(H, s):
    got, want = outcome(H.evaluate, s), outcome(reference_evaluate, H, s)
    assert_same_error(got, want)
    if got[0] == "value":
        assert np.all(np.abs(got[1] - want[1]) <= 1e-15 * np.abs(want[1]))
    return got


# -- strategies ------------------------------------------------------------------


@st.composite
def realizations(draw):
    """1-9 states, 1-4 inputs and outputs, with zero entries, hidden modes and feedthrough."""
    n, m, p = draw(st.integers(1, 9)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["dense", "repeated poles", "chain"]))
    if form == "dense":
        A = rng.standard_normal((n, n)) - rng.uniform(0.0, 2.0) * np.eye(n)
    elif form == "repeated poles":  # many entries share one minimal dimension
        A = np.diag(rng.choice([-0.5, -1.0, -2.0], n))
    else:
        A = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    density = draw(st.sampled_from([0.4, 0.7, 1.0]))
    B = rng.standard_normal((n, m)) * (rng.random((n, m)) < density)
    C = rng.standard_normal((p, n)) * (rng.random((p, n)) < density)
    hidden = draw(st.sampled_from(["none", "unreachable", "unobservable"]))
    if hidden == "unreachable":
        A[0, 1:], B[0] = 0.0, 0.0
    elif hidden == "unobservable":
        A[1:, 0], C[:, 0] = 0.0, 0.0
    D = rng.standard_normal((p, m)) * (rng.random((p, m)) < 0.5) * draw(st.booleans())
    return StateSpace(A, B, C, D)


ROOTS = (-0.5, -1.0, -2.0, 0.0, 1.5)
half_integers = st.integers(-4, 4).map(lambda k: k / 2.0)


@st.composite
def rational_entries(draw, s0):
    """Degrees 0-3: zero, proper, improper and complex entries, and poles at s0."""
    kind = draw(st.sampled_from(["zero", "proper", "improper", "complex", "pole"]))
    if kind == "zero":
        return RationalEntry.zero()
    roots = [draw(st.sampled_from(ROOTS)) for _ in range(draw(st.integers(0, 3)))]
    if kind == "pole":
        roots = [s0, np.conj(s0)] if np.iscomplex(s0) else [s0]
    den = np.polynomial.polynomial.polyfromroots(roots) if roots else np.ones(1)
    k = len(roots)
    size = draw(st.integers(k + 2, k + 3) if kind == "improper" else st.integers(1, k + 1))
    num = np.array([draw(half_integers) for _ in range(size)])
    num[-1] = num[-1] or 1.0
    if kind == "complex":
        imag = draw(st.sampled_from([0.5, 1e-12])) * 1j
        if draw(st.booleans()):
            num = num + imag
        else:
            den = den + imag
    return RationalEntry(num, den)


def _partition(draw, total):
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=3)))
    return Partition(tuple(int(v) for v in np.diff([0, *cuts, total])))


@st.composite
def rational_matrices(draw):
    p, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    s0 = draw(st.sampled_from([0.5, -1.0 + 2.0j, 0.0]))
    entries = [[draw(rational_entries(s0)) for _ in range(m)] for _ in range(p)]
    return RationalMatrix(entries, _partition(draw, p), _partition(draw, m)), s0


# -- properties ------------------------------------------------------------------

POINTS = (0.83 + 1.37j, 2.0, -0.4 + 0.9j)


def check_tf_of(sys):
    got, want = outcome(tf_of, sys), outcome(reference_tf_of, sys)
    assert_same_error(got, want)
    if got[0] == "value":
        assert_same_entries(got[1], want[1])
        for s in POINTS:
            assert_same_values(got[1], s)
    return got


def check_rational(H, s0):
    """Realizations bitwise, values to 1e-15, properness; the outcomes seen."""
    seen = set()
    for orientation in ("rows", "columns"):
        got = outcome(realize_rational, H, orientation)
        want = outcome(reference_realize_rational, H, orientation)
        assert_same_error(got, want)
        if got[0] == "value":
            sys, (mats, sizes) = got[1], want[1]
            assert sys.state_partition.block_sizes == sizes
            for a, b in zip((sys.A, sys.B, sys.C, sys.D), mats):
                assert bits(a) == bits(b)
        seen.add(("realize", got[0] if got[0] == "value" else got[1][0].__name__))
    for s in (s0, 1.3 - 0.4j):
        got = assert_same_values(H, s)
        seen.add(("evaluate", got[0] if got[0] == "value" else got[1][0].__name__))
    entries = [e for row in H.entries for e in row]
    assert H.is_proper() == all(e.is_proper() for e in entries)
    assert H.is_strictly_proper() == all(e.is_strictly_proper() for e in entries)
    return seen


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(realizations())
def test_tf_of_matches_the_entry_by_entry_conversion(sys):
    check_tf_of(sys)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_matrices())
def test_evaluate_and_realize_match_the_entry_by_entry_routines(case):
    check_rational(*case)


def test_the_draws_reach_every_outcome():
    seen = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(rational_matrices())
    def record_rational(case):
        seen.update(check_rational(*case))

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(realizations())
    def record_tf_of(sys):
        got = check_tf_of(sys)
        if got[0] == "value":
            H = got[1]
            degrees = [pdeg(H[i, j].den) for i in range(H.shape[0]) for j in range(H.shape[1])]
            seen.update(("tf_of degree", k) for k in degrees)
            seen.add(("tf_of shared dimension", len(degrees) > len(set(degrees))))
            seen.add(("tf_of hidden mode", max(degrees) < sys.n_states))
            seen.add(("tf_of feedthrough", bool(np.any(sys.D))))

    record_rational()
    record_tf_of()
    for kind in ("value", "ImproperEntry", "ValueError"):
        assert ("realize", kind) in seen
    for kind in ("value", "SingularAtS"):
        assert ("evaluate", kind) in seen
    for k in range(10):
        assert ("tf_of degree", k) in seen
    for flag in ("shared dimension", "hidden mode", "feedthrough"):
        assert (f"tf_of {flag}", True) in seen


# -- the benchmark's and the test suite's systems, and the call counts -------------


@pytest.mark.parametrize("n", range(8, 21))
def test_tf_of_chains_match_the_reference(n):
    check_tf_of(tridiag_counterexample(n).system)


def test_one_char_poly_call_per_minimal_dimension(monkeypatch):
    exact, dims = statespace.char_poly, []

    def counted(A):
        dims.append(A.shape[-1])
        return exact(A)

    monkeypatch.setattr(statespace, "char_poly", counted)
    for n in (8, 11, 15):
        dims.clear()
        H = tf_of(tridiag_counterexample(n).system)
        degrees = {pdeg(e.den) for row in H.entries for e in row}
        assert sorted(dims) == sorted(degrees) and len(degrees) > 1


def test_matrix_evaluate_calls_no_entry_evaluate(monkeypatch):
    sys = tridiag_counterexample(8).system
    H = tf_of(sys)
    want = reference_evaluate(H, 1.0 + 1.0j)

    def refused(self, s):
        raise AssertionError("RationalEntry.evaluate called")

    monkeypatch.setattr(RationalEntry, "evaluate", refused)
    assert np.all(np.abs(H.evaluate(1.0 + 1.0j) - want) <= 1e-15 * np.abs(want))
    tf_of(sys)


def test_the_pole_test_scales_with_the_point_and_the_degree():
    # den = (s - 1000)(s + 1): at s = 1000 + 1e-7, |den(s)| ~ 1e-4 is under
    # EXACT max(max|den|, 1) |s|^2 ~ 1e-3, though above EXACT max(max|den|, 1) |s|
    H = RationalMatrix([[RationalEntry([1.0], [-1000.0, -999.0, 1.0])]])
    for s in (1000.0 + 1e-7, 1000.0 + 1e-5):
        assert_same_values(H, s)
    with pytest.raises(SingularAtS):
        H.evaluate(1000.0 + 1e-7)


# -- realness of both parts ---------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [RationalEntry([1.0], [0.5 + 1j, 1.0]), RationalEntry([1.0 + 0.5j], [0.5, 1.0])],
)
def test_an_imaginary_part_in_either_part_is_not_realized(entry):
    with pytest.raises(ValueError, match="cannot realize an entry with complex coefficients"):
        realize_rational(RationalMatrix([[entry]]))


def test_a_complex_rational_gain_has_no_closed_loops():
    # the parent realized -1/(s + 2) here, dropping 3j, and returned real poles
    plant = Plant(np.zeros((1, 1)), np.eye(1), np.eye(1))
    gain = RationalMatrix([[RationalEntry([-1.0], [2.0 + 3j, 1.0])]])
    with pytest.raises(ValueError, match="cannot realize an entry with complex coefficients"):
        closed_loops_of(plant, gain)


def test_imaginary_parts_below_hypothesis_still_realize():
    tiny = 0.1 * HYPOTHESIS * 1j
    sys = realize_rational(RationalMatrix([[RationalEntry([2.0 + tiny], [0.5 + tiny, 1.0])]]))
    assert (sys.A.tolist(), sys.B.tolist(), sys.C.tolist(), sys.D.tolist()) == (
        [[-0.5]],
        [[1.0]],
        [[2.0]],
        [[0.0]],
    )
