"""Batched rational rows against the per-entry routes they replaced.

``common_denominator`` divides once per bitwise-distinct denominator,
``common_denominators`` once per distinct tuple of them across rows, and
``relative_decompose_rational`` builds the kernels of rows sharing a common
denominator in one batch.  The per-entry and per-row routes are kept here as
oracles: every answer must match them bit for bit, and so must the error
raised, at the same row.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import entry_sum, scaled

import locrel.rational as rational
import locrel.relative as relative
from locrel.errors import CommonDenominatorTruncated, DegreeCapExceeded, NotRelative
from locrel.graphs import Graph, laplacian, path_graph, require_connected, ring_graph
from locrel.rational import (
    DEGREE_CAP,
    RationalEntry,
    RationalMatrix,
    _cancellable_rows,
    cancel_common_factors,
    common_denominator,
    common_denominators,
    distinct_denominators,
    entry_array,
    padd,
    pdeg,
    pdiv,
    pis_zero,
    pmul,
    ptrim,
    try_exact_divide,
)
from locrel.relative import (
    _laplacian_pinv,
    _row_coefficients,
    edge_sum_adjoint,
    is_relative,
    relative_decompose_rational,
)
from locrel.tolerances import ZERO, negligible


# -- per-entry oracles -----------------------------------------------------------


def per_entry_common_denominator(entries):
    """One division of q by every entry's denominator, entry by entry."""
    entries = list(entries)
    q = np.ones(1)
    for f in sorted(distinct_denominators(entries), key=pdeg, reverse=True):
        if try_exact_divide(q, f, rel_tol=1e-9) is None:
            q = np.convolve(q, f)
            if q.size - 1 > DEGREE_CAP:
                raise DegreeCapExceeded("common denominator degree exceeds the cap")
    if ptrim(q).size < q.size:
        raise CommonDenominatorTruncated("trimming would drop the leading 1")
    nums = []
    for e in entries:
        factor = try_exact_divide(q, e.den, rel_tol=1e-9)
        if factor is None:
            factor, _ = pdiv(q, e.den)
        nums.append(np.zeros(1) if e.is_zero() else pmul(e.num, factor))
    return q, nums


def per_entry_row_coefficients(row):
    common, nums = per_entry_common_denominator(row)
    coeffs = np.zeros((len(nums), max(num.size for num in nums)), dtype=complex)
    for j, num in enumerate(nums):
        coeffs[j, : num.size] = num
    return common, coeffs


def per_entry_is_relative(K, tol=1e-10):
    for row in K.entries:
        _, coeffs = per_entry_row_coefficients(row)
        scale = max(np.max(np.abs(coeffs)), 1.0)
        if np.max(np.abs(coeffs.sum(axis=0))) > tol * scale:
            return False
    return True


def per_entry_decompose(K, graph):
    """Edge kernels entry by entry, each through cancellation."""
    require_connected(graph)
    m = K.shape[1]
    if m != graph.n:
        raise ValueError("gain column count must match the node count")
    if not per_entry_is_relative(K):
        raise NotRelative("rational gain rows must sum to the zero function")
    Lp = _laplacian_pinv(graph)
    off = graph.adjacency & ~np.eye(m, dtype=bool)
    kernels = []
    for row in K.entries:
        common, nums = per_entry_row_coefficients(row)
        deg = nums.shape[1]
        grid = [[RationalEntry.zero() for _ in range(m)] for _ in range(m)]
        is_complex = np.any(nums.imag)
        num_grid = np.zeros((m, m, deg), dtype=complex if is_complex else float)
        for pwr in range(deg):
            c = nums[:, pwr] if is_complex else nums[:, pwr].real
            if np.any(c):
                w = 2.0 * (Lp @ c)
                # edge_sum_adjoint reads its vector as real
                num_grid[:, :, pwr] = (
                    0.5 * off * np.subtract.outer(w, w) if is_complex else edge_sum_adjoint(graph, w)
                )
        for i in range(m):
            for j in range(m):
                coeffs = ptrim(num_grid[i, j])
                if pis_zero(coeffs):
                    continue
                grid[i][j] = RationalEntry(*cancel_common_factors(coeffs, common))
        kernels.append(grid)
    return kernels


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type is part of the answer
        return type(exc)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- common denominators ---------------------------------------------------------

# monic factors: real and complex-conjugate poles, a pole at 0, small and
# large poles; two poles near -1e5 make q too wide to trim
FACTORS = [
    np.array([1.0, 1.0]),
    np.array([2.0, 1.0]),
    np.array([0.5, 1.0]),
    np.array([0.0, 1.0]),
    np.array([5.0, 2.0, 1.0]),
    np.array([3.0, 1.0]),
    np.array([40.0, 1.0]),
    np.array([1e-3, 1.0]),
]
WIDE = [np.array([2e5, 1.0]), np.array([3e5, 1.0])]


@st.composite
def denominator_pools(draw, is_complex, factors=FACTORS + WIDE):
    """Products of subsets of a few factors, so some divide others, and
    near duplicates of them: within 1e-9, but not bitwise equal."""
    chosen = draw(st.lists(st.integers(0, len(factors) - 1), min_size=1, max_size=4))
    pool = []
    for _ in range(draw(st.sampled_from([1, 1, 2, 3, 4]))):
        den = np.ones(1)
        for k in chosen:
            if draw(st.booleans()):
                den = np.convolve(den, factors[k])
        if is_complex and draw(st.booleans()):
            den = den.astype(complex)
            den[0] += 1j * draw(st.sampled_from([0.0, -0.0, 0.5]))
        pool.append(den)
    for den in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)):
        if den.size > 1:
            near = den.copy()
            k = int(np.argmax(np.abs(den[:-1])))
            # "edge" sits at the edge of allclose, where q / near leaves a remainder
            shift = draw(st.sampled_from([1e-14, 4e-10, "edge", "edge"]))
            if shift == "edge":
                near[k] += 1e-9 * abs(den[k]) + 0.9e-12
            else:
                near[k] *= 1.0 + shift
            pool.append(near)
    return pool


@st.composite
def rational_rows(draw, size=None):
    is_complex = draw(st.booleans())
    pool = draw(denominator_pools(is_complex))
    width = size or draw(st.integers(1, 8))
    row = []
    for _ in range(width):
        den = pool[draw(st.integers(0, len(pool) - 1))]
        if draw(st.integers(0, 4)) == 0:
            row.append(RationalEntry([draw(st.sampled_from([0.0, -0.0]))], den))
            continue
        coeffs = draw(
            st.lists(
                st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-5.0, 5.0, allow_nan=False)),
                min_size=1,
                max_size=den.size,
            )
        )
        num = np.array(coeffs, dtype=complex if is_complex else float)
        if is_complex and draw(st.booleans()):
            num = num + 1j * draw(st.sampled_from([-0.0, 0.25]))
        row.append(RationalEntry(num, den))
    return row


def assert_same_common_denominator(row):
    want = outcome(per_entry_common_denominator, row)
    got = outcome(common_denominator, row)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert same_bits(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert same_bits(a, b)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_rows())
def test_common_denominator_matches_per_entry_route(row):
    assert_same_common_denominator(row)


def test_common_denominator_parity_in_fixed_cases():
    # a close duplicate that is not an exact factor of q takes the pdiv fallback
    base = np.convolve([1.0, 1.0], [2.0, 1.0])
    near = np.array([1.0 + 1.0009e-9, 1.0])
    row = [RationalEntry([1.0, -0.0], [1.0, 1.0]), RationalEntry([-0.0, 2.0], near)]
    assert len(distinct_denominators(row)) == 1
    assert try_exact_divide(np.array([1.0, 1.0]), near, rel_tol=1e-9) is None
    assert_same_common_denominator(row)
    # a factor of 1 leaves the numerator's zeros unsigned, as the product does
    q, nums = common_denominator([RationalEntry([-0.0, -2.0], base)])
    assert np.signbit(nums[0]).tolist() == [False, True]
    # a complex q over a real denominator: the factor 1 is complex, and so
    # is the numerator
    row = [RationalEntry([1.0], np.array([1.0, 1.0], dtype=complex)), RationalEntry([2.0], [1.0, 1.0])]
    assert np.iscomplexobj(common_denominator(row)[1][1])
    assert_same_common_denominator(row)
    # divisible denominators and zero entries
    assert_same_common_denominator(
        [RationalEntry([1.0], [1.0, 1.0]), RationalEntry([3.0], base), RationalEntry.zero()]
    )
    # nine distinct quadratics: too wide to trim on both routes
    rng = np.random.default_rng(3)
    row = [RationalEntry([1.0], [a * b, a + b, 1.0]) for a, b in rng.uniform(1, 8, (9, 2))]
    assert outcome(common_denominator, row) is CommonDenominatorTruncated
    assert_same_common_denominator(row)


def test_common_denominator_divides_once_per_denominator(monkeypatch):
    den = np.convolve([1.0, 1.0], [5.0, 2.0, 1.0])
    row = [RationalEntry([float(k), 1.0], den) for k in range(64)]
    calls = []
    original = rational.try_exact_divide

    def counting(num, factor, rel_tol=1e-8):
        calls.append(np.array(num))
        return original(num, factor, rel_tol)

    monkeypatch.setattr(rational, "try_exact_divide", counting)
    q, nums = common_denominator(row)
    # one call while q is built (from 1), one for the factor q / den
    assert sum(same_bits(num, q) for num in calls) == 1
    assert len(calls) == 2
    assert all(same_bits(num, e.num) for num, e in zip(nums, row))


# -- pairwise-difference decompositions ----------------------------------------------


def tree_graph(parents):
    n = len(parents) + 1
    adj = np.eye(n, dtype=bool)
    for child, parent in enumerate(parents, start=1):
        adj[child, parent] = adj[parent, child] = True
    return Graph(adj)


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["ring", "path", "tree"]))
    n = draw(st.integers(3 if kind == "ring" else 2, 7))
    if kind == "ring":
        return ring_graph(n)
    if kind == "path":
        return path_graph(n)
    return tree_graph([draw(st.integers(0, child - 1)) for child in range(1, n)])


@st.composite
def relative_gains(draw, graph):
    """Rows built from edge flows f (e_i - e_j), so every row sums to zero.

    On trees the minimum-norm kernels are the flows themselves, which
    often share a factor with the row's common denominator.
    """
    n = graph.n
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if graph.adjacency[i, j]]
    is_complex = draw(st.booleans())
    pool = draw(denominator_pools(is_complex, FACTORS))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = [RationalEntry.zero() for _ in range(n)]
        for _ in range(draw(st.integers(0, 3))):
            i, j = edges[draw(st.integers(0, len(edges) - 1))]
            den = pool[draw(st.integers(0, len(pool) - 1))]
            num = np.array(
                draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0]), min_size=1, max_size=den.size))
            )
            if is_complex:
                num = num + 0.5j
            flow = RationalEntry(num, den)
            row[i] = entry_sum(row[i], flow)
            row[j] = entry_sum(row[j], scaled(-1.0, flow))
        rows.append(row)
    return RationalMatrix(rows)


def assert_same_kernels(form, want):
    assert not isinstance(form, type), form
    assert len(form.kernels) == len(want)
    for grid_got, grid_want in zip(form.kernels, want):
        for row_got, row_want in zip(grid_got, grid_want):
            for a, b in zip(row_got, row_want):
                assert same_bits(a.num, b.num) and same_bits(a.den, b.den)


def assert_same_decomposition(K, graph):
    want = outcome(per_entry_decompose, K, graph)
    got = outcome(relative_decompose_rational, K, graph)
    if isinstance(want, type):
        assert got is want
        return
    assert_same_kernels(got, want)
    assert is_relative(K) == per_entry_is_relative(K)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_decomposition_matches_per_entry_route(data):
    graph = data.draw(graphs())
    assert_same_decomposition(data.draw(relative_gains(graph)), graph)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_is_relative_matches_per_entry_route(data):
    row = data.draw(rational_rows(size=data.draw(st.integers(2, 5))))
    K = RationalMatrix([row])
    assert outcome(is_relative, K) == outcome(per_entry_is_relative, K)


def benchmark_ring_gain(n, rng):
    """The relative gain -p/(s + p) L_w of the benchmark's relative instances."""
    pole = float(rng.uniform(0.5, 3.0))
    weights = rng.uniform(0.5, 2.0, n)
    L = np.zeros((n, n))
    for i, w in enumerate(weights):
        j = (i + 1) % n
        L[[i, j], [i, j]] += w
        L[[i, j], [j, i]] -= w
    den = np.array([pole, 1.0])
    return RationalMatrix([[RationalEntry([-pole * L[i, j]], den) for j in range(n)] for i in range(n)])


def test_decomposition_parity_where_kernels_cancel():
    # on the 3-node path the 0-1 kernel is the flow 1/(s+1): the row's
    # common denominator (s+1)(s+2) cancels down to it
    lag1, lag2 = RationalEntry([1.0], [1.0, 1.0]), RationalEntry([1.0], [2.0, 1.0])
    row = [lag1, entry_sum(lag2, scaled(-1.0, lag1)), scaled(-1.0, lag2)]
    K = RationalMatrix([row, [scaled(-1.0, e) for e in row], [RationalEntry.zero()] * 3])
    assert_same_decomposition(K, path_graph(3))
    kernel = relative_decompose_rational(K, path_graph(3)).kernels[0][0][1]
    assert kernel.den.tolist() == [1.0, 1.0]
    # numerators s L: the constant column of every row is zero
    L = laplacian(ring_graph(5))
    K = RationalMatrix([[RationalEntry([0.0, -L[i, j]], [1.0, 1.0]) for j in range(5)] for i in range(5)])
    assert_same_decomposition(K, ring_graph(5))
    rng = np.random.default_rng(1)
    for n in (4, 6, 8):
        assert_same_decomposition(benchmark_ring_gain(n, rng), ring_graph(n))


def test_decomposition_of_benchmark_ring_builds_no_entry_one_by_one(monkeypatch):
    K = benchmark_ring_gain(8, np.random.default_rng(8))
    calls = []
    original = RationalEntry.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RationalEntry, "__init__", counting)
    form = relative_decompose_rational(K, ring_graph(8))
    assert calls == []
    assert len(form.kernels) == 8


def test_decomposition_rejects_nonrelative_like_per_entry_route():
    K = RationalMatrix([[RationalEntry([1.0], [1.0, 1.0]), RationalEntry.zero()]] * 2)
    with pytest.raises(NotRelative):
        relative_decompose_rational(K, path_graph(2))
    assert_same_decomposition(K, path_graph(2))


# -- rows over shared denominators ----------------------------------------------


def per_row_common_denominator(entries):
    """One row on its own: the single-row routine before rows shared their divisions."""
    entries = list(entries)
    keys = [e.den.tobytes() for e in entries]
    unique = dict(zip(keys, entries))
    q = np.ones(1)
    for f in sorted(distinct_denominators(unique.values()), key=pdeg, reverse=True):
        if try_exact_divide(q, f, rel_tol=1e-9) is None:
            q = np.convolve(q, f)
            if q.size - 1 > DEGREE_CAP:
                raise DegreeCapExceeded(f"common denominator degree exceeds the cap {DEGREE_CAP}")
    if ptrim(q).size < q.size:
        raise CommonDenominatorTruncated(
            f"the common denominator has degree {q.size - 1} and a largest "
            f"coefficient of {np.max(np.abs(q)):.2e}; trimming at "
            f"{ZERO:g} of it would drop its leading 1"
        )
    factors = {}
    for key, e in unique.items():
        factor = try_exact_divide(q, e.den, rel_tol=1e-9)
        if factor is None:
            factor, _ = pdiv(q, e.den)
        factors[key] = factor
    nums = []
    for key, e in zip(keys, entries):
        factor = factors[key]
        unit = factor.dtype == float and factor.tolist() == [1.0]
        nums.append(np.zeros(1) if e.is_zero() else e.num + 0.0 if unit else pmul(e.num, factor))
    return q, nums


def per_row_coefficients(K):
    for row in K.entries:
        common, nums = per_row_common_denominator(row)
        coeffs = np.zeros((len(nums), max(num.size for num in nums)), dtype=complex)
        for j, num in enumerate(nums):
            coeffs[j, : num.size] = num
        if not negligible(coeffs.sum(axis=0), coeffs, ZERO):
            raise NotRelative("rational gain rows must sum to the zero function")
        yield common, coeffs


def per_row_decompose(K, graph):
    """Edge kernels row by row: one entry_array and one _cancellable_rows per row."""
    require_connected(graph)
    rows = list(per_row_coefficients(K))
    Lp = _laplacian_pinv(graph)
    off = graph.adjacency & ~np.eye(graph.n, dtype=bool)
    kernels = []
    for common, coeffs in rows:
        coeffs = coeffs if np.any(coeffs.imag) else coeffs.real
        V = 2.0 * np.stack([Lp @ c for c in coeffs.T], axis=-1)
        num_grid = 0.5 * off[:, :, None] * (V[:, None] - V[None, :])
        grid = entry_array(num_grid, common)
        live = _cancellable_rows(num_grid, common) & ~pis_zero(num_grid)
        for i, j in zip(*np.nonzero(live)):
            grid[i, j] = RationalEntry(*cancel_common_factors(num_grid[i, j], common))
        kernels.append(grid.tolist())
    return kernels


def rows_until_error(rows):
    """The items of an iterator, and the type and message of the error that ended it."""
    items = []
    try:
        for item in rows:
            items.append(item)
    except Exception as exc:  # the error and its row are part of the answer
        return items, (type(exc), str(exc))
    return items, None


def assert_same_rows(got, want):
    (got_items, got_error), (want_items, want_error) = got, want
    assert got_error == want_error
    assert len(got_items) == len(want_items)
    for (q, nums), (q_want, nums_want) in zip(got_items, want_items):
        assert same_bits(q, q_want)
        assert len(nums) == len(nums_want)
        for a, b in zip(nums, nums_want):
            assert same_bits(a, b)


def assert_rows_match_per_row_route(K, graph):
    assert_same_rows(
        rows_until_error(common_denominators(K.entries)),
        rows_until_error(per_row_common_denominator(row) for row in K.entries),
    )
    assert_same_rows(rows_until_error(_row_coefficients(K)), rows_until_error(per_row_coefficients(K)))
    want = outcome(per_row_decompose, K, graph)
    got = outcome(relative_decompose_rational, K, graph)
    assert is_relative(K) == (want is not NotRelative)
    if isinstance(want, type):
        assert got is want
        return
    assert_same_kernels(got, want)


# a constant, a pole at 0 (where every kernel is flagged for cancellation),
# real and complex-conjugate poles
ROW_DENOMINATORS = [
    np.array([2.0]),
    np.array([0.0, 1.0]),
    np.array([1.0, 1.0]),
    np.array([2.0, 1.0]),
    np.array([5.0, 2.0, 1.0]),
    np.convolve([1.0, 1.0], [2.0, 1.0]),
    np.convolve([1.0, 1.0], [5.0, 2.0, 1.0]),
]


@st.composite
def relative_row(draw, width):
    """A row over 1-3 of ROW_DENOMINATORS whose entries sum to zero per denominator.

    Each denominator owns two or more columns, the last of which carries
    minus the sum of the others; columns no denominator owns stay zero.
    The numerators may all carry the factor s + 1, which then divides
    their kernels and, for most denominators here, the common denominator.
    """
    count = draw(st.integers(1, min(3, width // 2)))
    dens = draw(st.lists(st.sampled_from(ROW_DENOMINATORS), min_size=count, max_size=count, unique_by=lambda d: d.tobytes()))
    columns = draw(st.permutations(range(width)))
    owner = [i // 2 if i < 2 * count else draw(st.integers(-1, count - 1)) for i in range(width)]
    is_complex = draw(st.booleans())
    shared = np.array([1.0, 1.0]) if draw(st.booleans()) else np.ones(1)
    row = [RationalEntry.zero() for _ in range(width)]
    for k, den in enumerate(dens):
        group = [col for col, who in zip(columns, owner) if who == k]
        total = np.zeros(1)
        for col in group[:-1]:
            num = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0]), min_size=1, max_size=2)))
            if is_complex:
                num = num + draw(st.sampled_from([0.5j, -0.25j]))
            num = np.convolve(num, shared)
            row[col] = RationalEntry(num, den)
            total = padd(total, num)
        row[group[-1]] = RationalEntry(-total, den)
    return row


@st.composite
def relative_matrices(draw):
    """Rows with different denominator sets on a ring or path, real and complex
    rows mixed; a later row may repeat an earlier one or be made non-relative."""
    width = draw(st.integers(4, 7))
    graph = ring_graph(width) if draw(st.booleans()) else path_graph(width)
    rows = [draw(relative_row(width)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if len(rows) > 1 and draw(st.booleans()):
        r = draw(st.integers(1, len(rows) - 1))
        col = draw(st.integers(0, width - 1))
        rows[r] = list(rows[r])
        rows[r][col] = entry_sum(rows[r][col], RationalEntry([1.0], [3.0, 1.0]))
    return RationalMatrix(rows), graph


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relative_matrices())
def test_rows_match_per_row_route(case):
    assert_rows_match_per_row_route(*case)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(rational_rows(size=4), min_size=1, max_size=4))
def test_common_denominators_match_per_row_route_where_rows_fail(rows):
    # rows over near-duplicate and too-wide denominators: the same q, the
    # same numerators, and the same error at the same row
    assert_same_rows(
        rows_until_error(common_denominators(rows)),
        rows_until_error(per_row_common_denominator(row) for row in rows),
    )


def test_rows_share_divisions_and_batches_in_fixed_cases(monkeypatch):
    base = np.convolve([1.0, 1.0], [2.0, 1.0])
    lag, zero = RationalEntry([1.0, 1.0], base), RationalEntry.zero()
    complex_lag, integrator = RationalEntry([1.0 + 0.5j], [1.0, 1.0]), RationalEntry([1.0], [0.0, 1.0])
    # rows 0 and 2 share their denominators in the same order, and each of
    # their kernels has the numerator factor s + 1 of the common denominator;
    # row 1 is complex, row 3 has a pole at 0
    rows = [
        [lag, scaled(-1.0, lag), zero, zero],
        [complex_lag, zero, scaled(-1.0, complex_lag), zero],
        [scaled(2.0, lag), zero, scaled(-2.0, lag), zero],
        [integrator, zero, zero, scaled(-1.0, integrator)],
    ]
    K, graph = RationalMatrix(rows), ring_graph(4)
    assert_rows_match_per_row_route(K, graph)
    calls = {"divide": 0, "entry_array": 0, "cancel": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(rational, "try_exact_divide", counting("divide", rational.try_exact_divide))
    monkeypatch.setattr(relative, "entry_array", counting("entry_array", entry_array))
    monkeypatch.setattr(relative, "cancel_common_factors", counting("cancel", cancel_common_factors))
    form = relative_decompose_rational(K, graph)
    # three denominator tuples, (base,), (s + 1,) and (s,), since a zero entry
    # over 1 stays out of them, with two divisions each: one while q is built
    # and one factor (four rows on their own would take eight); one batch of
    # kernels each
    assert calls["divide"] == 6
    assert calls["entry_array"] == 3
    assert calls["cancel"] > 0
    # the shared factor cancels in the kernels of rows 0 and 2
    assert form.kernels[0][0][1].den.tolist() == [2.0, 1.0]
    assert form.kernels[2][0][1].den.tolist() == [2.0, 1.0]
    # a non-relative row after relative ones: NotRelative, after the rows before it
    broken = RationalMatrix(rows[:2] + [[lag, zero, zero, zero]] + rows[3:])
    assert_rows_match_per_row_route(broken, graph)
    assert len(rows_until_error(_row_coefficients(broken))[0]) == 2


def test_rows_with_the_same_denominators_in_another_order_keep_their_own_q():
    # q is the product in order of appearance, so the order changes its last
    # bits: rows share a q only when their denominators come in the same order
    lags = [RationalEntry([1.0], [pole, 1.0]) for pole in (1.95, 0.88, 0.22)]
    rows = [lags, lags[::-1], lags[1:] + lags[:1], lags]
    got, error = rows_until_error(common_denominators(rows))
    assert_same_rows((got, error), rows_until_error(per_row_common_denominator(row) for row in rows))
    assert got[0][0].tobytes() != got[1][0].tobytes()


def test_rows_share_q_wherever_their_zero_entries_fall(monkeypatch):
    # a zero entry over 1 stays out of a row's denominators, so rows that
    # differ only in where their zeros fall share one q and one division per
    # denominator; a numerator that is zero only after normalization keeps
    # its denominator (s + 0.1), which enters q as it does row by row
    lag, zero = RationalEntry([1.0], [2.0, 1.0]), RationalEntry.zero()
    tiny = RationalEntry([5e-10], [1.0, 10.0])
    assert tiny.is_zero() and tiny.den.size == 2
    rows = [
        [zero, lag, scaled(-1.0, lag)],
        [lag, zero, scaled(-1.0, lag)],
        [lag, scaled(-1.0, lag), zero],
        [zero, zero, zero],
        [tiny, lag, scaled(-1.0, lag)],
        [lag, tiny, scaled(-1.0, lag)],
    ]
    assert_rows_match_per_row_route(RationalMatrix(rows), ring_graph(3))
    calls = []
    divide = rational.try_exact_divide

    def counting(*args, **kwargs):
        calls.append(1)
        return divide(*args, **kwargs)

    monkeypatch.setattr(rational, "try_exact_divide", counting)
    got = [q for q, _ in common_denominators(rows[:3])]
    # one tuple, (s + 2,): one division while q is built and one factor
    assert len(calls) == 2
    assert all(same_bits(q, [2.0, 1.0]) for q in got)
    # the rows of the benchmark's ring gain -p/(s + p) L_w form one group too
    calls.clear()
    K = benchmark_ring_gain(8, np.random.default_rng(3))
    assert_rows_match_per_row_route(K, ring_graph(8))
    calls.clear()
    list(common_denominators(K.entries))
    assert len(calls) == 2


def test_entry_array_zero_entries_own_their_arrays():
    grid = entry_array(np.zeros((3, 2)), np.array([2.0, 1.0]))
    for i, entry in enumerate(grid):
        assert same_bits(entry.num, np.zeros(1)) and same_bits(entry.den, np.ones(1))
        for other in grid[i + 1 :]:
            assert not np.shares_memory(entry.den, other.den)
            assert not np.shares_memory(entry.num, other.num)
