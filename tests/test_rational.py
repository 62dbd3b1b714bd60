"""Rational function arithmetic in ascending coefficient order."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import entry_sum

from locrel.errors import CommonDenominatorTruncated, DegreeCapExceeded
from locrel.rational import (
    DEGREE_CAP,
    RationalEntry,
    RationalMatrix,
    cancel_common_factors,
    common_denominator,
    distinct_denominators,
    entry_array,
    padd,
    pdeg,
    pdiv,
    pis_zero,
    pmul,
    ptrim,
    pval,
    trim_rows,
    try_exact_divide,
)
from locrel.relative import is_relative
from locrel.tolerances import ZERO as ZERO_REL_TOL


def random_entry(rng, max_deg=2, stable=False):
    """Random proper rational entry with real coefficients."""
    dn = int(rng.integers(1, max_deg + 1))
    nn = int(rng.integers(0, dn + 1))
    num = rng.standard_normal(nn + 1)
    if stable:
        den = np.ones(1)
        for _ in range(dn):
            den = pmul(den, np.array([float(rng.uniform(0.5, 3.0)), 1.0]))
    else:
        den = np.concatenate((rng.standard_normal(dn), [1.0]))
    return RationalEntry(num, den)


def entries_match(a, b, points=(0.7, 1.3 + 0.9j, -2.6, 0.4 - 1.1j), tol=1e-9):
    for s in points:
        va, vb = a.evaluate(s), b.evaluate(s)
        scale = max(abs(va), abs(vb), 1.0)
        if abs(va - vb) > tol * scale:
            return False
    return True


def test_polynomial_helpers():
    assert list(ptrim(np.array([1.0, 2.0, 0.0, 0.0]))) == [1.0, 2.0]
    assert pis_zero(np.array([0.0, 1e-18]))
    assert not pis_zero(np.array([0.0, 1.0]))
    assert list(padd([1.0, 1.0], [0.0, 0.0, 2.0])) == [1.0, 1.0, 2.0]
    assert list(pmul([1.0, 1.0], [2.0, 1.0])) == [2.0, 3.0, 1.0]
    assert pval([1.0, 0.0, 1.0], 2.0) == 5.0
    assert pdeg(np.array([3.0])) == 0
    assert pdeg(np.array([1.0, 2.0, 1.0])) == 2


def test_exact_division_tools():
    q, r = pdiv(pmul([1.0, 1.0], [2.0, 1.0]), [1.0, 1.0])
    assert list(q) == [2.0, 1.0]
    assert pis_zero(r)
    got = try_exact_divide(pmul([1.0, 2.0, 1.0], [3.0, 1.0]), [3.0, 1.0])
    assert got is not None and list(got) == [1.0, 2.0, 1.0]
    assert try_exact_divide([1.0, 1.0], [2.0, 1.0]) is None


def test_cancel_shared_factors_real_roots():
    # (s+1)(s+2) / (s+1)(s+3) -> (s+2)/(s+3)
    num = pmul([1.0, 1.0], [2.0, 1.0])
    den = pmul([1.0, 1.0], [3.0, 1.0])
    cn, cd = cancel_common_factors(num, den)
    assert pdeg(cn) == 1 and pdeg(cd) == 1
    e = RationalEntry(cn, cd)
    assert entries_match(e, RationalEntry([2.0, 1.0], [3.0, 1.0]))


def test_cancel_shared_factors_complex_pair():
    # a complex pair shared by num and den must cancel without leaving
    # complex coefficients behind
    pair = np.array([2.0, 0.4, 1.0])  # s^2 + 0.4 s + 2, roots off the axis
    num = pmul(pair, [1.0, 1.0])
    den = pmul(pair, [5.0, 1.0])
    cn, cd = cancel_common_factors(num, den)
    assert np.isrealobj(np.asarray(cn)) and np.isrealobj(np.asarray(cd))
    assert pdeg(cn) == 1 and pdeg(cd) == 1
    assert entries_match(RationalEntry(cn, cd), RationalEntry([1.0, 1.0], [5.0, 1.0]))


def test_entry_basics():
    e = RationalEntry([1.0], [0.0, 1.0])  # 1/s
    assert e.is_strictly_proper() and e.is_proper() and not e.is_zero()
    assert e.evaluate(2.0) == 0.5
    assert RationalEntry.zero().is_zero()
    assert RationalEntry.constant(1.0).evaluate(123.0) == 1.0
    s = RationalEntry([0.0, 1.0])
    assert s.evaluate(3.0 + 1.0j) == 3.0 + 1.0j
    assert not s.is_proper()
    # monic normalization of the denominator
    e2 = RationalEntry([2.0], [0.0, 2.0])
    assert e2.den[-1] == 1.0
    assert e2.evaluate(4.0) == 0.25


def test_degree_cap_guards_runaway_growth():
    den = np.concatenate((np.zeros(DEGREE_CAP // 2 + 1), [1.0]))
    with pytest.raises(DegreeCapExceeded):
        pmul(den, den)


def test_json_round_trip():
    e = RationalEntry([1.0, 0.5], [2.0, 3.0, 1.0])
    doc = e.to_json()
    assert doc == {"num": [1.0, 0.5], "den": [2.0, 3.0, 1.0]}
    assert entries_match(RationalEntry.from_json(doc), e)


def test_matrix_construction_and_indexing():
    M = RationalMatrix.from_real(np.array([[1.0, 2.0], [0.0, -1.0]]))
    assert M.shape == (2, 2)
    assert M[0, 1].evaluate(9.0) == 2.0
    I2 = RationalMatrix.from_real(np.eye(2))
    assert np.allclose(I2.evaluate(1.7), np.eye(2))
    with pytest.raises(ValueError):
        RationalMatrix([[1.0], [1.0, 1.0]])


def test_matrix_ops_match_pointwise():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        A = RationalMatrix([[random_entry(rng) for _ in range(n)] for _ in range(n)])
        B = RationalMatrix([[random_entry(rng) for _ in range(n)] for _ in range(n)])
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5))
        va, vb = A.evaluate(s), B.evaluate(s)
        prod = A.matmul(B)
        assert np.allclose(prod.evaluate(s), va @ vb, atol=1e-7 * max(1.0, np.max(np.abs(va @ vb))))


def test_matrix_inverse_round_trip():
    # entries drawn over a small shared pool of denominator factors, the
    # shape transfer-matrix computations produce; fully generic random
    # denominators make polynomial inversion ill-conditioned by nature
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        factors = [np.array([float(rng.uniform(0.5, 3.0)), 1.0]) for _ in range(2)]
        def entry(i, j):
            num = rng.standard_normal(int(rng.integers(1, 3)))
            den = np.ones(1)
            for f in factors:
                if rng.random() < 0.6:
                    den = pmul(den, f)
            return entry_sum(RationalEntry(num, den), RationalEntry.constant(3.0 * (i == j)))
        A = RationalMatrix([[entry(i, j) for j in range(n)] for i in range(n)])
        inv = A.inverse()
        s = complex(rng.uniform(0.4, 2.2), rng.uniform(-1.5, 1.5))
        prod = A.matmul(inv).evaluate(s)
        assert np.allclose(prod, np.eye(n), atol=1e-7)


def poly_det(grid):
    """Determinant of a polynomial matrix by its own memoized minor expansion."""
    n = len(grid)
    if n == 1:
        return ptrim(grid[0][0])
    cache = {}

    def minor(rows, cols):
        key = (rows, cols)
        if key in cache:
            return cache[key]
        if len(rows) == 1:
            result = ptrim(grid[rows[0]][cols[0]])
        else:
            result = np.zeros(1)
            for pos, j in enumerate(cols):
                a = grid[rows[0]][j]
                if pis_zero(a):
                    continue
                term = pmul(a, minor(rows[1:], cols[:pos] + cols[pos + 1 :]))
                result = padd(result, term if pos % 2 == 0 else -term)
        cache[key] = result
        return result

    return minor(tuple(range(n)), tuple(range(n)))


def poly_adjugate(grid):
    """adj[i][j] = (-1)^(i+j) M_ji, each minor a determinant of its own submatrix."""
    n = len(grid)
    if n == 1:
        return [[np.ones(1)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[grid[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            m = poly_det(sub)
            adj[i][j] = m if (i + j) % 2 == 0 else -np.asarray(m)
    return adj


def reference_inverse(A):
    """Entries adj(N) q / det(N) of A = N / q, by a determinant per minor."""
    m = A.shape[0]
    q, nums = common_denominator(e for row in A.entries for e in row)
    grid = [nums[i * m : (i + 1) * m] for i in range(m)]
    det = poly_det(grid)
    if pis_zero(det):
        raise ZeroDivisionError("rational matrix is identically singular")
    adj = poly_adjugate(grid)
    return [[RationalEntry(pmul(adj[i][j], q), det) for j in range(m)] for i in range(m)]


@st.composite
def square_matrices(draw):
    """Square matrices of one to four rows over a shared pool of denominators.

    Entries may be zero (either sign), complex or improper, with coefficients
    that round, so that products and sums taken in another order differ in
    their last bits; a drawn row may repeat another or be zero, which makes
    the matrix singular.
    """
    n = draw(st.integers(1, 4))
    is_complex = draw(st.booleans())
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        den = np.ones(1)
        for k in draw(st.lists(st.sampled_from([0.0, 0.5, 0.7, 1.0, 3.0]), max_size=2)):
            den = np.convolve(den, [k, 1.0])
        pool.append(den)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            den = draw(st.sampled_from(pool))
            num = np.array(draw(st.lists(st.sampled_from([-2.0, -0.3, -0.0, 0.0, 1.0, 1 / 3]), min_size=1, max_size=den.size + 1)))
            if is_complex and draw(st.booleans()):
                num = num + 1j * draw(st.sampled_from([0.5, -1.0]))
            row.append(RationalEntry(num, den))
        rows.append(row)
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = list(rows[0]) if draw(st.booleans()) else [RationalEntry.zero()] * n
    return RationalMatrix(rows)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(square_matrices())
def test_inverse_matches_a_determinant_per_minor_bit_for_bit(A):
    try:
        want = reference_inverse(A)
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError, match=f"^{exc}$"):
            A.inverse()
        return
    got = A.inverse()
    assert got.shape == A.shape
    assert (got.row_partition, got.col_partition) == (A.col_partition, A.row_partition)
    for g, w in zip((e for row in got.entries for e in row), (e for row in want for e in row)):
        assert (_bits(g.num), _bits(g.den)) == (_bits(w.num), _bits(w.den))


def test_the_inverse_draws_reach_singular_complex_and_four_row_matrices():
    seen = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(square_matrices())
    def record(A):
        try:
            reference_inverse(A)
        except ZeroDivisionError:
            seen.add("singular")
        entries = [e for row in A.entries for e in row]
        seen.update(
            name
            for name, reached in (
                ("complex", any(np.iscomplexobj(e.num) for e in entries)),
                ("improper", not A.is_proper()),
                ("zero", any(e.is_zero() for e in entries)),
                ("four rows", A.shape[0] == 4),
            )
            if reached
        )

    record()
    assert seen == {"singular", "complex", "improper", "zero", "four rows"}


def _exact_entry(e):
    """An entry with float coefficients of small denominators as an exact sympy expression."""
    def poly(coeffs):
        return sum(sympy.Rational(float(c)).limit_denominator(10**6) * _S**k for k, c in enumerate(coeffs))

    return poly(e.num) / poly(e.den)


def test_matmul_and_inverse_equal_the_exact_results():
    rng = np.random.default_rng(29)
    dens = [np.ones(1), np.array([1.0, 1.0]), np.array([2.0, 1.0]), np.array([0.0, 1.0])]
    inverted = 0
    for _ in range(10):
        n, m = (int(x) for x in rng.integers(1, 4, 2))
        A, B = (
            RationalMatrix([[RationalEntry(rng.integers(-3, 4, 2).astype(float), dens[rng.integers(4)]) for _ in range(c)] for _ in range(n)])
            for c in (n, m)
        )
        exact_a, exact_b = (sympy.Matrix([[_exact_entry(e) for e in row] for row in M.entries]) for M in (A, B))
        product, want = A.matmul(B), exact_a * exact_b
        assert product.shape == (n, m)
        assert all(sympy.cancel(_exact_entry(product[i, j]) - want[i, j]) == 0 for i in range(n) for j in range(m))
        try:
            inverse = A.inverse()
        except ZeroDivisionError:
            assert sympy.simplify(exact_a.det()) == 0
            continue
        want = exact_a.inv()
        assert all(sympy.cancel(_exact_entry(inverse[i, j]) - want[i, j]) == 0 for i in range(n) for j in range(n))
        inverted += 1
    assert inverted >= 8


def test_common_denominator_absorbs_divisible_factors():
    # when one denominator divides another, only the larger one is kept
    e1 = RationalEntry([1.0], pmul([0.0, 1.0], [1.0, 1.0]))  # 1/(s(s+1))
    e2 = RationalEntry([1.0], pmul(pmul([0.0, 1.0], [1.0, 1.0]), [2.0, 1.0]))
    q, nums = common_denominator([e1, e2])
    assert pdeg(q) == 3
    for j, e in enumerate((e1, e2)):
        rebuilt = RationalEntry(nums[j], q)
        assert entries_match(rebuilt, e)


def test_common_denominator_rebuilds_distinct_factors():
    e1 = RationalEntry([1.0], [1.0, 1.0])
    e2 = RationalEntry([2.0], [3.0, 1.0])
    e3 = RationalEntry.constant(5.0)
    q, nums = common_denominator([e1, e2, e3])
    assert pdeg(q) == 2
    for j, e in enumerate((e1, e2, e3)):
        rebuilt = RationalEntry(nums[j], q)
        assert entries_match(rebuilt, e)


def test_common_denominator_too_wide_to_trim_is_an_error():
    # nine distinct quadratics with poles between 1 and 8: the product's
    # coefficients span more than 1e10, so trimming would drop its leading 1
    rng = np.random.default_rng(3)
    row = [RationalEntry([1.0], [a * b, a + b, 1.0]) for a, b in rng.uniform(1, 8, (9, 2))]
    with pytest.raises(CommonDenominatorTruncated, match="degree 18"):
        common_denominator(row)
    with pytest.raises(CommonDenominatorTruncated):
        is_relative(RationalMatrix([row]))


_S = sympy.symbols("s")


def _exact(coeffs):
    """Ascending float coefficients as an exact sympy polynomial in s."""
    return sympy.Poly([sympy.Rational(float(c)) for c in coeffs[::-1]], _S)


@st.composite
def factored_entries(draw):
    """Integer numerators over products of (s + k), k in 1..5.

    Small pools make some denominators repeat and some divide others.
    """
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        roots = draw(st.lists(st.integers(1, 5), max_size=3))
        num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=len(roots) + 1))
        den = np.ones(1)
        for k in roots:
            den = np.convolve(den, [float(k), 1.0])
        entries.append(RationalEntry(np.array(num, dtype=float), den))
    return entries


@settings(max_examples=100, deadline=None)
@given(factored_entries())
def test_common_denominator_is_exact(entries):
    q, nums = common_denominator(entries)
    q_exact = _exact(q)
    assert q_exact.LC() == 1
    for e, num in zip(entries, nums):
        den = _exact(e.den)
        assert q_exact.rem(den).is_zero
        # num / q - e.num / den cancels to zero
        assert (_exact(num) * den - _exact(e.num) * q_exact).is_zero
    assert pdeg(q) <= sum(pdeg(d) for d in distinct_denominators(entries))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalEntry([1.0], [0.0])


# -- batch construction --------------------------------------------------------


@st.composite
def coefficient_rows(draw, width, is_complex):
    """Rows whose leading coefficients sit at and around the trimming rules."""
    part = st.one_of(
        st.floats(-4.0, 4.0, allow_nan=False),
        st.sampled_from([0.0, 1.0, -3.0, 1e-11, -5e-11, ZERO_REL_TOL]),
    )
    row = np.array(draw(st.lists(part, min_size=width, max_size=width)), dtype=float)
    if is_complex:
        row = row + 1j * np.array(draw(st.lists(part, min_size=width, max_size=width)))
    scale = float(np.max(np.abs(row)))
    edge = ZERO_REL_TOL * scale
    lead = draw(
        st.sampled_from(
            [
                None,
                edge,
                np.nextafter(edge, np.inf),
                np.nextafter(edge, 0.0),
                -edge,
                0.5 * ZERO_REL_TOL,
                0.0,
            ]
        )
    )
    if lead is not None and width > 1:
        # magnitude exactly at, just above or just below ZERO_REL_TOL of the row
        row[-1] = lead
        if draw(st.booleans()):
            row[-2] = lead
    return row


@st.composite
def row_batches(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    is_complex = draw(st.booleans())
    num_width = draw(st.integers(1, 4))
    den_width = draw(st.integers(1, 3))
    count = int(np.prod(shape))
    nums = np.array([draw(coefficient_rows(num_width, is_complex)) for _ in range(count)])
    shared = draw(st.booleans())
    den_rows = 1 if shared else count
    dens = np.array([draw(coefficient_rows(den_width, draw(st.booleans()))) for _ in range(den_rows)])
    if draw(st.booleans()):
        # over the degree cap, somewhere in the batch
        wide = np.zeros(dens.shape[:-1] + (DEGREE_CAP + 2,), dtype=dens.dtype)
        wide[..., :den_width] = dens
        wide[draw(st.integers(0, den_rows - 1)), -1] = draw(st.sampled_from([1.0, 1e-12]))
        dens = wide
    nums = nums.reshape(shape + nums.shape[-1:])
    dens = dens.reshape((dens.shape[-1],) if shared else shape + dens.shape[-1:])
    return nums, dens


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


@settings(max_examples=300, deadline=None)
@given(row_batches())
def test_entry_array_matches_the_constructor_bit_for_bit(batch):
    nums, dens = batch
    dens_b = np.broadcast_to(dens, nums.shape[:-1] + dens.shape[-1:])
    want, error = [], None
    for idx in np.ndindex(nums.shape[:-1]):
        try:
            want.append(RationalEntry(nums[idx], dens_b[idx]))
        except (ZeroDivisionError, DegreeCapExceeded) as exc:
            error = type(exc)
            break
    if error is not None:
        with pytest.raises(error) as info:
            entry_array(nums, dens)
        assert type(info.value) is error
        return
    got = entry_array(nums, dens)
    assert got.shape == nums.shape[:-1]
    for g, w in zip(got.reshape(-1), want):
        assert type(g) is RationalEntry
        assert _bits(g.num) == _bits(w.num)
        assert _bits(g.den) == _bits(w.den)
        assert g.num.flags.owndata and g.den.flags.owndata


def test_entry_array_errors_follow_the_first_failing_row():
    nums = np.ones((3, 2))
    wide = np.ones(DEGREE_CAP + 2)
    dens = np.array([[1.0] + [0.0] * (DEGREE_CAP + 1), wide, np.zeros(DEGREE_CAP + 2)])
    with pytest.raises(DegreeCapExceeded):
        entry_array(nums, dens)
    with pytest.raises(ZeroDivisionError):
        entry_array(nums, dens[[0, 2, 1]])
    # a zero numerator is 0 / 1 whatever its denominator's degree
    nums[1] = 1e-11
    assert entry_array(nums[:2], dens[:2])[1].den.tolist() == [1.0]


def test_trim_rows_follows_ptrim():
    rows = np.array(
        [[1.0, 2.0, 1e-11], [0.0, 0.0, 0.0], [1e-12, 0.0, 0.0], [3.0, 0.0, 3e-10], [np.inf, 1.0, 2.0]]
    )
    trimmed, degree = trim_rows(rows)
    for row, got, k in zip(rows, trimmed, degree):
        want = ptrim(row)
        assert k == want.size - 1
        assert np.array_equal(got[: k + 1], want)
        assert not np.any(got[k + 1 :])


def test_matrix_builders_are_bitwise_per_entry():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((4, 3))
    M[1, 2] = 0.0
    M[2, 0] = 1e-12
    built = RationalMatrix.from_real(M)
    for i, j in np.ndindex(M.shape):
        want = RationalEntry.constant(M[i, j])
        assert _bits(built[i, j].num) == _bits(want.num)
        assert _bits(built[i, j].den) == _bits(want.den)
