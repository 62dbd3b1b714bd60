"""The spatial H2 sums over half the spectrum for real kernels.

For real taps the symbols at f and -f are complex conjugates with equal
H2 norms, so ``SIClosedLoops.h2_squared`` and ``si_h2_squared_parseval``
visit one frequency of each conjugate pair with weight 2 and each
self-conjugate frequency with weight 1, and the Parseval sum is one
Gramian over the common denominator.  The full-grid routines these
replaced are kept here as references: every value must match them to
1e-12 relative, with the same error class.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from locrel.errors import LocrelError
from locrel.rational import RationalEntry
from locrel.spatial import (
    ConvKernelArray,
    _pair_weights,
    _symbol_coeffs,
    dft_symbol,
    si_closed_loops,
    si_h2_squared_parseval,
    spatial_feasibility,
)
from locrel.statespace import batch_h2_squared


def reference_parseval(kernel):
    """One moment solve per frequency, summed over the whole grid."""
    coeffs, common = _symbol_coeffs(kernel)
    num = coeffs.reshape(-1, coeffs.shape[-1])
    den = np.broadcast_to(common, (num.shape[0], common.size))
    return float(np.sum(batch_h2_squared(num, den))) / kernel.n**kernel.d


def reference_h2_squared(loops, gamma):
    """Every frequency but mode 0, grouped by loop degree, each with weight 1."""
    width = loops.phi_x_num.shape[-1]
    num = loops.phi_x_num.reshape(-1, 1, width)
    if gamma > 0:
        num = np.concatenate((num, gamma * loops.phi_u_num.reshape(-1, 1, width)), axis=1)
    den = loops.cl_den.reshape(-1, loops.cl_den.shape[-1])
    degree = loops.degree.reshape(-1)
    total = 0.0
    for k in np.unique(degree[1:]):
        rows = 1 + np.flatnonzero(degree[1:] == k)
        total += float(np.sum(batch_h2_squared(num[rows], den[rows, : k + 1])))
    return total / loops.n**loops.d


def reference_excluded_offsets(d, n, b):
    half, lo = n // 2, -((n - 1) // 2)
    return [
        tuple(o)
        for o in itertools.product(range(lo, half + 1), repeat=d)
        if max(map(abs, o)) > b
    ]


def has_complex_tap(kernel):
    return any(np.any(np.imag(e.num)) or np.any(np.imag(e.den)) for _, e in kernel.taps())


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except LocrelError as exc:
        return "error", type(exc)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] is want[1]
    else:
        assert abs(got[1] - want[1]) <= 1e-12 * abs(want[1]), (got[1], want[1])


def same_bits(got, want):
    for g, w in zip(got.reshape(-1), want.reshape(-1)):
        for a, b in ((g.num, w.num), (g.den, w.den)):
            assert (a.dtype.str, a.shape, a.tobytes()) == (b.dtype.str, b.shape, b.tobytes())
            assert a.flags.owndata


def per_entry(nums, dens):
    out = np.empty(nums.shape[:-1], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = RationalEntry(nums[idx], dens[idx] if dens.ndim > 1 else dens)
    return out


# n per dimension: odd and even sizes, kept small enough for n^d to stay cheap
SIZES = {1: (3, 4, 5, 6, 7, 8, 11, 12), 2: (3, 4, 5, 6), 3: (3, 4, 5)}

half_integers = st.integers(-6, 6).map(lambda k: k / 2.0)


@st.composite
def coefficients(draw, length, is_complex):
    real = [draw(half_integers) for _ in range(length)]
    if not is_complex:
        return real
    return [r + 1j * draw(half_integers) for r in real]


@st.composite
def tap(draw, is_complex):
    """A tap from roots: stable, unstable or marginal poles, proper or not."""
    roots = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.0, 0.5, 1.5]), max_size=2))
    if is_complex and roots and draw(st.booleans()):
        roots[0] = roots[0] + 1j * draw(st.sampled_from([-1.0, 0.5]))
    den = np.polynomial.polynomial.polyfromroots(roots) if roots else np.ones(1)
    num = draw(coefficients(draw(st.integers(1, len(roots) + 2)), is_complex))
    if not any(num):
        num[0] = 1.0
    return RationalEntry(num, den)


@st.composite
def kernels(draw, is_complex=None):
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from(SIZES[d]))
    if is_complex is None:
        is_complex = draw(st.booleans())
    offsets = st.tuples(*[st.integers(-(n - 1) // 2, n // 2)] * d)
    kernel = ConvKernelArray(d, n)
    for offset in draw(st.lists(offsets, min_size=1, max_size=4, unique=True)):
        kernel.set_tap(offset, draw(tap(is_complex)))
    return kernel, is_complex


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kernels(), st.sampled_from([0.0, 1.0, 2.5]))
def test_weighted_spectrum_matches_the_full_grid(case, gamma):
    kernel, is_complex = case
    assert_same_outcome(
        outcome(si_h2_squared_parseval, kernel), outcome(reference_parseval, kernel)
    )
    coeffs, common = _symbol_coeffs(kernel)
    same_bits(dft_symbol(kernel), per_entry(coeffs, common))
    loops = outcome(si_closed_loops, kernel)
    if loops[0] == "error":
        return
    loops = loops[1]
    assert_same_outcome(
        outcome(loops.h2_squared, gamma), outcome(reference_h2_squared, loops, gamma)
    )
    same_bits(loops.phi_x_symbols, per_entry(loops.phi_x_num, loops.cl_den))
    # a tap with an imaginary part gives weight 1 everywhere
    if has_complex_tap(kernel):
        assert np.all(_pair_weights(kernel) == 1.0)


def test_the_property_reaches_values_and_every_error_class():
    seen = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(kernels(), st.sampled_from([0.0, 1.0]))
    def record(case, gamma):
        kernel, is_complex = case
        is_complex = has_complex_tap(kernel)
        got = outcome(si_h2_squared_parseval, kernel)
        seen.add(("parseval", is_complex, got[0] if got[0] == "value" else got[1].__name__))
        loops = outcome(si_closed_loops, kernel)
        if loops[0] == "value":
            got = outcome(loops[1].h2_squared, gamma)
            seen.add(("loops", got[0] if got[0] == "value" else got[1].__name__))

    record()
    for is_complex in (False, True):
        for kind in ("value", "NotHurwitz", "NonzeroFeedthrough"):
            assert ("parseval", is_complex, kind) in seen
    for kind in ("value", "NotHurwitz", "NonzeroFeedthrough"):
        assert ("loops", kind) in seen


def test_the_first_nonzero_symbol_decides_the_parseval_error():
    # constant taps +1 and -1 cancel at frequency 0 only, so the first
    # nonzero symbol is proper and every later one improper; an unstable
    # pole makes that first symbol fail first, as NotHurwitz
    kernel = ConvKernelArray(
        1, 6, {(0,): 1.0, (1,): -1.0, (2,): RationalEntry([1.0], [-1.0, 1.0])}
    )
    assert outcome(reference_parseval, kernel)[1].__name__ == "NotHurwitz"
    assert_same_outcome(outcome(si_h2_squared_parseval, kernel), outcome(reference_parseval, kernel))
    stable = ConvKernelArray(1, 6, {(0,): 1.0, (1,): -1.0, (2,): RationalEntry([1.0], [1.0, 1.0])})
    assert outcome(si_h2_squared_parseval, stable)[1].__name__ == "NonzeroFeedthrough"


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_pair_weights_visit_each_conjugate_pair_once(d, n):
    kernel = ConvKernelArray(d, n, {(0,) * d: RationalEntry([1.0], [1.0, 1.0])})
    weights = _pair_weights(kernel)
    assert weights.shape == (n,) * d
    assert weights.sum() == n**d
    assert set(np.unique(weights).tolist()) <= {0.0, 1.0, 2.0}
    for f in np.ndindex(weights.shape):
        mirror = tuple(-i % n for i in f)
        assert weights[f] + weights[mirror] == 2.0
        # self-conjugate: every index 0 or n/2
        assert (weights[f] == 1.0) == (mirror == f) == all(2 * i % n == 0 for i in f)
    # an imaginary part in a numerator or in a denominator
    for num, den in (([1.0j], [1.0, 1.0]), ([1.0], [1.0 + 1.0j, 1.0])):
        complex_kernel = ConvKernelArray(d, n, {(0,) * d: RationalEntry(num, den)})
        assert np.all(_pair_weights(complex_kernel) == 1.0)


def test_the_weighted_sums_visit_half_the_grid(monkeypatch):
    import locrel.spatial as spatial

    rows = []

    def counting(num, den):
        rows.append(np.asarray(num).shape[0])
        return batch_h2_squared(num, den)

    monkeypatch.setattr(spatial, "batch_h2_squared", counting)
    # diffusive taps 1/(s + 1) at the six neighbours, -6/(s + 1) at the origin
    taps = {off: RationalEntry([1.0], [1.0, 1.0]) for off in itertools.permutations((1, 0, 0))}
    taps.update({off: RationalEntry([1.0], [1.0, 1.0]) for off in itertools.permutations((-1, 0, 0))})
    taps[0, 0, 0] = RationalEntry([-6.0], [1.0, 1.0])
    kernel = ConvKernelArray(3, 5, taps)
    si_closed_loops(kernel).h2_squared(1.0)
    # 124 nonzero frequencies of 5^3, in 62 conjugate pairs
    assert sum(rows) == 62
    rows.clear()
    # the symbol at frequency 0 vanishes, so the lead symbol weighs 2
    assert_same_outcome(outcome(si_h2_squared_parseval, kernel), outcome(reference_parseval, kernel))
    # one entry per weight class (1 and 2), and the first nonzero symbol ahead of them
    assert rows == [3]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_feasibility_offsets_are_the_itertools_enumeration(d):
    for n in range(3, {1: 30, 2: 14, 3: 9}[d]):
        for b in range(1, (n - 1) // 2):
            if 2 * b + 1 >= n:
                continue
            got = spatial_feasibility(d, n, b).excluded_offsets
            want = reference_excluded_offsets(d, n, b)
            assert got == want
            assert all(type(c) is int for off in got for c in off)
