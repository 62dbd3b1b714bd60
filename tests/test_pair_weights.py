"""The spatial H2 sums over the orbits of the reflections that fix the taps.

A reflection f -> s f of the torus that maps every tap to a bit-for-bit
equal tap fixes every symbol, and for real taps so does -s, which conjugates
them.  ``SIClosedLoops.h2_squared`` and ``si_h2_squared_parseval`` visit one
frequency of each orbit, weighted by the orbit's size; for real taps that
only f -> -f fixes, the orbits are the conjugate pairs.  ``si_h2_squared``
solves the taps of each denominator degree together.  The full-grid and
per-tap routines these replaced are kept here as references: every value
must match them to 1e-12 relative, with the same error class.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from locrel.errors import LocrelError, NonzeroFeedthrough, NotHurwitz, UnstableKernelEntry
from locrel.rational import RationalEntry
from locrel.spatial import (
    ConvKernelArray,
    _orbit_weights,
    _symbol_coeffs,
    dft_symbol,
    si_closed_loops,
    si_h2_squared,
    si_h2_squared_parseval,
    spatial_feasibility,
)
from locrel.statespace import batch_h2_squared, scalar_h2_squared


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


def reference_si_h2_squared(kernel):
    """One scalar solve per tap, added in canonical order."""
    total = 0.0
    for offset, entry in kernel.taps():
        try:
            total += scalar_h2_squared(entry)
        except LocrelError as exc:
            raise UnstableKernelEntry(f"tap at offset {offset} has no finite H2 norm: {exc}") from exc
    return total


def pair_weights(kernel):
    """The conjugate-pair weights: 2 on the first of each pair (f, -f), 1 where f = -f."""
    n, d = kernel.n, kernel.d
    flat = np.arange(n**d).reshape((n,) * d)
    return np.sign(flat[np.ix_(*[-np.arange(n) % n] * d)] - flat) + 1.0


def pair_parseval(kernel):
    """The Parseval sum over conjugate pairs, as it was computed before orbits."""
    coeffs, common = _symbol_coeffs(kernel)
    num = coeffs.reshape(-1, coeffs.shape[-1])
    weight = pair_weights(kernel).reshape(-1)
    live = np.flatnonzero(weight * np.any(num, axis=1))
    classes = [live[:1]] + [live[1:][weight[live[1:]] == w] for w in (1.0, 2.0)]
    stacked = np.zeros((3, live.size, num.shape[1]), dtype=num.dtype)
    for entry, rows in zip(stacked, classes):
        entry[: rows.size] = num[rows]
    norms = batch_h2_squared(stacked, np.broadcast_to(common, (3, common.size)))
    total = np.sum(weight[live[:1]]) * norms[0] + norms[1] + 2.0 * norms[2]
    return float(total) / kernel.n**kernel.d


def same_entry(a, b):
    return all(
        (x.dtype.str, x.tobytes()) == (y.dtype.str, y.tobytes())
        for x, y in ((a.num, b.num), (a.den, b.den))
    )


def reflection_fixes(kernel, s):
    """True when f -> s f maps every tap to a bit-for-bit equal tap."""
    return all(
        same_entry(kernel.tap([si * o for si, o in zip(s, offset)]), entry)
        for offset, entry in kernel.taps()
    )


def reference_orbit_weights(kernel):
    """Orbit sizes on each orbit's smallest index, by enumerating every orbit."""
    n, d = kernel.n, kernel.d
    real = not has_complex_tap(kernel)
    group = [
        s
        for s in itertools.product((1, -1), repeat=d)
        if reflection_fixes(kernel, s) or real and reflection_fixes(kernel, [-si for si in s])
    ]
    weights = np.zeros((n,) * d)
    for f in itertools.product(range(n), repeat=d):
        weights[min(tuple(si * fi % n for si, fi in zip(s, f)) for s in group)] += 1.0
    return weights


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


@st.composite
def mirrored_kernels(draw):
    """Kernels mirror-symmetric across the drawn axes, and perhaps under f -> -f."""
    kernel, is_complex = draw(kernels())
    d, n = kernel.d, kernel.n
    mirrored = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    signs = [s for s in itertools.product((1, -1), repeat=d) if all(m or si == 1 for m, si in zip(mirrored, s))]
    if draw(st.booleans()):
        signs += [tuple(-si for si in s) for s in signs]
    symmetric = ConvKernelArray(d, n)
    for offset, entry in kernel.taps():
        images = [[si * o for si, o in zip(s, offset)] for s in signs]
        if all(symmetric.tap(image).is_zero() for image in images):
            for image in images:
                symmetric.set_tap(image, entry)
    return symmetric, is_complex


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(kernels(), mirrored_kernels()), st.sampled_from([0.0, 1.0, 2.5]))
def test_weighted_spectrum_matches_the_full_grid(case, gamma):
    kernel, is_complex = case
    weights = _orbit_weights(kernel)
    assert np.array_equal(weights, reference_orbit_weights(kernel))
    assert weights.sum() == kernel.n**kernel.d
    assert_same_outcome(
        outcome(si_h2_squared_parseval, kernel), outcome(reference_parseval, kernel)
    )
    got, want = outcome(si_h2_squared, kernel), outcome(reference_si_h2_squared, kernel)
    assert got == want or got[0] == want[0] == "value" and got[1] == pytest.approx(want[1], rel=1e-12)
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
    # all ones when no reflection fixes the taps
    fixing = [s for s in itertools.product((1, -1), repeat=kernel.d) if reflection_fixes(kernel, s)]
    assert np.all(weights == 1.0) == (has_complex_tap(kernel) and len(fixing) == 1)


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
    # one tap off every axis: only the identity maps it to itself
    kernel = ConvKernelArray(d, n, {(1,) * d: RationalEntry([1.0], [1.0, 1.0])})
    weights = _orbit_weights(kernel)
    assert weights.shape == (n,) * d
    assert weights.sum() == n**d
    assert set(np.unique(weights).tolist()) <= {0.0, 1.0, 2.0}
    for f in np.ndindex(weights.shape):
        mirror = tuple(-i % n for i in f)
        assert weights[f] + weights[mirror] == 2.0
        # self-conjugate: every index 0 or n/2
        assert (weights[f] == 1.0) == (mirror == f) == all(2 * i % n == 0 for i in f)
    assert np.array_equal(weights, pair_weights(kernel))
    # an imaginary part in a numerator or in a denominator
    for num, den in (([1.0j], [1.0, 1.0]), ([1.0], [1.0 + 1.0j, 1.0])):
        complex_kernel = ConvKernelArray(d, n, {(1,) * d: RationalEntry(num, den)})
        assert np.all(_orbit_weights(complex_kernel) == 1.0)


@pytest.mark.parametrize("d, n", [(1, 5), (1, 6), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_each_orbit_size_sits_on_its_smallest_index(d, n):
    # the origin-only tap is fixed by every reflection: orbits are products
    # of the per-axis orbits {0}, {k, n - k} and, for even n, {n/2}
    kernel = ConvKernelArray(d, n, {(0,) * d: RationalEntry([1.0], [1.0, 1.0])})
    weights = _orbit_weights(kernel)
    for f in np.ndindex(weights.shape):
        orbit = set(itertools.product(*[{i, -i % n} for i in f]))
        assert weights[f] == (len(orbit) if f == min(orbit) else 0.0)
    assert weights.sum() == n**d
    complex_kernel = ConvKernelArray(d, n, {(0,) * d: RationalEntry([1.0j], [1.0, 1.0])})
    assert np.array_equal(_orbit_weights(complex_kernel), weights)


def diffusion(d, n, mirror_value):
    """Taps 1/(s + 1) at +e_i and mirror_value/(s + 1) at -e_i on every axis."""
    taps = {}
    for axis in range(d):
        for step, value in ((1, 1.0), (-1, mirror_value)):
            taps[tuple(step if i == axis else 0 for i in range(d))] = RationalEntry([value], [1.0, 1.0])
    return ConvKernelArray(d, n, taps)


@pytest.mark.parametrize("d, n", [(1, 7), (2, 6), (3, 5)])
def test_a_mirrored_tap_one_ulp_apart_falls_back_to_the_pair_weights(d, n):
    exact = diffusion(d, n, 1.0)
    assert np.array_equal(_orbit_weights(exact), reference_orbit_weights(exact))
    assert np.max(_orbit_weights(exact)) == 2.0**d
    ulp = diffusion(d, n, np.nextafter(1.0, 2.0))
    assert np.array_equal(_orbit_weights(ulp), pair_weights(ulp))


@pytest.mark.parametrize("d, n", [(1, 7), (1, 8), (2, 5), (2, 6), (3, 4), (3, 5)])
def test_kernels_fixed_only_by_negation_keep_the_pair_sums_bit_for_bit(d, n):
    rng = np.random.default_rng(10 * d + n)
    checked = 0
    for _ in range(8):
        offsets = {tuple(int(o) for o in rng.integers(-1, 2, size=d)) for _ in range(4)}
        pole = rng.uniform(1.0, 3.0)
        taps = {off: RationalEntry([rng.uniform(-0.5, 0.5)], [pole, 1.0]) for off in offsets}
        taps[(0,) * d] = RationalEntry([-10.0], [pole, 1.0])  # a stable closed loop
        kernel = ConvKernelArray(d, n, taps)
        # f -> -f may fix the taps too, but no reflection of some axes only
        if any(len(set(s)) > 1 and reflection_fixes(kernel, s) for s in itertools.product((1, -1), repeat=d)):
            continue
        checked += 1
        assert np.array_equal(_orbit_weights(kernel), pair_weights(kernel))
        assert si_h2_squared_parseval(kernel) == pair_parseval(kernel)
        loops = si_closed_loops(kernel)
        got = loops.h2_squared(1.3)
        loops._weights = pair_weights(kernel)
        assert got == loops.h2_squared(1.3)
    assert checked >= 4


@pytest.mark.parametrize(
    "first, cause",
    [
        (RationalEntry([1.0], [-1.0, 0.0, 1.0]), NotHurwitz),
        (RationalEntry([1.0, 0.0, 1.0], [1.0, 2.0, 1.0]), NonzeroFeedthrough),
    ],
)
def test_si_h2_squared_names_the_first_failing_tap_across_degrees(first, cause):
    # the second-order tap at -1 comes first in canonical order, while the
    # first-order taps, the unstable one at +1 among them, are solved first
    taps = {(-1,): first, (0,): RationalEntry([1.0], [1.0, 1.0]), (1,): RationalEntry([1.0], [-1.0, 1.0])}
    kernel = ConvKernelArray(1, 5, taps)
    with pytest.raises(UnstableKernelEntry, match=r"^tap at offset \(-1,\) ") as got:
        si_h2_squared(kernel)
    assert type(got.value.__cause__) is cause
    with pytest.raises(UnstableKernelEntry) as want:
        reference_si_h2_squared(kernel)
    assert str(got.value) == str(want.value)


def test_the_weighted_sums_visit_each_orbit_once(monkeypatch):
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
    # all eight reflections fix the taps: per axis the orbits {0}, {1, 4} and
    # {2, 3}, so 3^3 orbits, of which 26 leave out the origin
    assert sum(rows) == 26
    rows.clear()
    # the symbol at frequency 0 vanishes, so the lead symbol weighs 2
    assert_same_outcome(outcome(si_h2_squared_parseval, kernel), outcome(reference_parseval, kernel))
    # the first nonzero symbol, then one entry per weight class (2, 4 and 8)
    assert rows == [4]
    rows.clear()
    # the taps share one denominator degree: one batch
    assert_same_outcome(outcome(si_h2_squared, kernel), outcome(reference_si_h2_squared, kernel))
    assert rows == [7]


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
