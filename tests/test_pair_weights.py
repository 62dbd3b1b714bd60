"""The spatial H2 sums over the orbits of the reflections that fix the taps.

A reflection f -> s f of the torus that maps every tap to a bit-for-bit
equal tap fixes every symbol, and for real taps so does -s, which conjugates
them.  ``SIClosedLoops.h2_squared`` and ``si_h2_squared_parseval`` visit one
frequency of each orbit, weighted by the orbit's size; for real taps that
only f -> -f fixes, the orbits are the conjugate pairs.  ``si_h2_squared``
solves the taps of each denominator degree together.  The full-grid and
per-tap routines these replaced are kept here as references: every value
must match them to 1e-12 relative, with the same error class.

``si_closed_loops`` forms its loops once per orbit of equal symbols, at the
orbit's smallest frequency, and gathers them onto the grid; ``_symbol_coeffs``
trims the symbol rows there too, and ``dft_symbol`` and the loops' object
arrays gather one shared entry per orbit.  The full-grid predecessors of
``si_closed_loops``, ``_symbol_coeffs`` and ``dft_symbol`` are kept here too.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from locrel.errors import (
    ConstraintViolated,
    LocrelError,
    NonzeroFeedthrough,
    NotHurwitz,
    SymbolPoleClash,
    UnstableKernelEntry,
)
from locrel.rational import RationalEntry, _values, common_denominator, entry_array, pis_zero, trim_rows
from locrel.spatial import (
    ConvKernelArray,
    SIClosedLoops,
    _orbit_representatives,
    _symbol_coeffs,
    dft_symbol,
    si_closed_loops,
    si_h2_squared,
    si_h2_squared_parseval,
    spatial_feasibility,
)
from locrel.statespace import batch_h2_squared, scalar_h2_squared
from locrel.tolerances import MATCH, ZERO


def full_grid_symbol_coeffs(kernel):
    """The symbol numerators trimmed at every frequency, each from its own FFT row: (coeffs, common)."""
    taps = kernel.taps()
    common, numerators = common_denominator(entry for _, entry in taps)
    deg = max([len(num) for num in numerators], default=1)
    coeff_grid = np.zeros((kernel.n,) * kernel.d + (deg,), dtype=complex)
    for (offset, _), num in zip(taps, numerators):
        coeff_grid[tuple(o % kernel.n for o in offset)][: len(num)] = num
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.fft.fftn(coeff_grid, axes=tuple(range(kernel.d)))
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("kernel symbol coefficients must be finite")
    coeffs, _ = trim_rows(coeffs)
    coeffs[pis_zero(coeffs)] = 0.0
    return coeffs, common


def symbol_rows(kernel):
    """The symbol rows that ``_symbol_coeffs`` forms, gathered onto the grid: (coeffs, common)."""
    coeffs, common, _, gather = _symbol_coeffs(kernel, _orbit_representatives(kernel)[0])
    return coeffs[gather].reshape((kernel.n,) * kernel.d + coeffs.shape[-1:]), common


def reference_parseval(kernel):
    """One moment solve per frequency, summed over the whole grid."""
    coeffs, common = full_grid_symbol_coeffs(kernel)
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


def orbit_weights(kernel):
    """The orbit sizes that weigh the H2 sums, on the grid."""
    norm = _orbit_representatives(kernel)[1]
    return np.bincount(norm, minlength=norm.size).astype(float).reshape((kernel.n,) * kernel.d)


def pair_weights(kernel):
    """The conjugate-pair weights: 2 on the first of each pair (f, -f), 1 where f = -f."""
    n, d = kernel.n, kernel.d
    flat = np.arange(n**d).reshape((n,) * d)
    return np.sign(flat[np.ix_(*[-np.arange(n) % n] * d)] - flat) + 1.0


def pair_parseval(kernel):
    """The Parseval sum over conjugate pairs, as it was computed before orbits."""
    coeffs, common = full_grid_symbol_coeffs(kernel)
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


@st.composite
def stable_kernels(draw):
    """A drawn kernel with each tap k made k.num[0] / (4 (s + 2)), and -10 / (s + 2) at the origin: stable loops."""
    kernel, is_complex = draw(st.one_of(kernels(), mirrored_kernels()))
    taps = {offset: RationalEntry([entry.num[0] / 4], [2.0, 1.0]) for offset, entry in kernel.taps()}
    taps[(0,) * kernel.d] = RationalEntry([-10.0], [2.0, 1.0])
    return ConvKernelArray(kernel.d, kernel.n, taps), is_complex


# stable kernels so that the H2 comparisons see values, not only errors
SPECTRUM_DRAWS = st.one_of(kernels(), mirrored_kernels(), stable_kernels())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SPECTRUM_DRAWS, st.sampled_from([0.0, 1.0, 2.5]))
def test_weighted_spectrum_matches_the_full_grid(case, gamma):
    kernel, is_complex = case
    weights = orbit_weights(kernel)
    assert np.array_equal(weights, reference_orbit_weights(kernel))
    assert weights.sum() == kernel.n**kernel.d
    assert_same_outcome(
        outcome(si_h2_squared_parseval, kernel), outcome(reference_parseval, kernel)
    )
    got, want = outcome(si_h2_squared, kernel), outcome(reference_si_h2_squared, kernel)
    assert got == want or got[0] == want[0] == "value" and got[1] == pytest.approx(want[1], rel=1e-12)
    same_bits(dft_symbol(kernel), per_entry(*symbol_rows(kernel)))
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


def test_the_spectrum_draws_reach_values():
    values = {"parseval": 0, "si_h2_squared": 0, "loops": 0}

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(SPECTRUM_DRAWS)
    def record(case):
        kernel = case[0]
        for name, fn in (("parseval", si_h2_squared_parseval), ("si_h2_squared", si_h2_squared)):
            values[name] += outcome(fn, kernel)[0] == "value"
        loops = outcome(si_closed_loops, kernel)
        values["loops"] += loops[0] == "value" and outcome(loops[1].h2_squared, 1.0)[0] == "value"

    record()
    assert min(values.values()) >= 50, values


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
    weights = orbit_weights(kernel)
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
        assert np.all(orbit_weights(complex_kernel) == 1.0)


@pytest.mark.parametrize("d, n", [(1, 5), (1, 6), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_each_orbit_size_sits_on_its_smallest_index(d, n):
    # the origin-only tap is fixed by every reflection: orbits are products
    # of the per-axis orbits {0}, {k, n - k} and, for even n, {n/2}
    kernel = ConvKernelArray(d, n, {(0,) * d: RationalEntry([1.0], [1.0, 1.0])})
    weights = orbit_weights(kernel)
    for f in np.ndindex(weights.shape):
        orbit = set(itertools.product(*[{i, -i % n} for i in f]))
        assert weights[f] == (len(orbit) if f == min(orbit) else 0.0)
    assert weights.sum() == n**d
    complex_kernel = ConvKernelArray(d, n, {(0,) * d: RationalEntry([1.0j], [1.0, 1.0])})
    assert np.array_equal(orbit_weights(complex_kernel), weights)


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
    assert np.array_equal(orbit_weights(exact), reference_orbit_weights(exact))
    assert np.max(orbit_weights(exact)) == 2.0**d
    ulp = diffusion(d, n, np.nextafter(1.0, 2.0))
    assert np.array_equal(orbit_weights(ulp), pair_weights(ulp))


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
        assert np.array_equal(orbit_weights(kernel), pair_weights(kernel))
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


def reference_si_closed_loops(kernel):
    """The loops at every frequency, each from its own symbol: (phi_x_num, phi_u_num, cl_den, degree)."""
    coeffs, common = full_grid_symbol_coeffs(kernel)
    width = max(coeffs.shape[-1], common.size + 1)
    num = np.zeros(coeffs.shape[:-1] + (width,), dtype=complex)
    num[..., : coeffs.shape[-1]] = coeffs
    den = np.zeros_like(num)
    den[..., : common.size] = common
    den[~np.any(coeffs, axis=-1)] = np.eye(width)[0]
    s_den = np.concatenate((np.zeros_like(den[..., :1]), den[..., :-1]), axis=-1)
    cl_den = s_den - num
    largest, s_top, num_top = (np.max(np.abs(c), axis=-1) for c in (cl_den, s_den, num))
    clash = largest <= ZERO * np.maximum(np.maximum(s_top, num_top), 1.0)
    if np.any(clash):
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(clash), clash.shape))
        raise SymbolPoleClash(f"closed-loop denominator vanishes identically at frequency {idx}")
    cl_den, degree = trim_rows(cl_den, np.maximum(np.abs(s_den), np.abs(num)))
    lead = np.take_along_axis(cl_den, degree[..., None], axis=-1)
    loops = den / lead, num / lead, cl_den / lead, degree
    residual = reference_affine_residual(loops, 1.0 + 0.7j)
    if residual > MATCH:
        raise ConstraintViolated(f"affine identity violated: residual {residual:.3e}")
    return loops


def reference_affine_residual(loops, s):
    """|s phi_x - phi_u - 1| at every frequency, maximized."""
    phi_x_num, phi_u_num, cl_den, _ = loops
    nums = np.stack((phi_x_num, phi_u_num)).reshape(2, -1, phi_x_num.shape[-1])
    px, pu = _values(nums, cl_den.reshape(-1, cl_den.shape[-1]), s)
    return float(np.max(np.abs(s * px - pu - 1.0)))


def error_of(fn, *args):
    try:
        fn(*args)
    except (LocrelError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def nudged_kernels(draw):
    """A mirrored kernel with the real part of one tap's leading numerator coefficient moved one ulp."""
    kernel, is_complex = draw(mirrored_kernels())
    taps = kernel.taps()
    offset, entry = taps[draw(st.integers(0, len(taps) - 1))]
    num = entry.num.copy()
    num[-1] += np.spacing(num[-1].real)
    kernel.set_tap(offset, RationalEntry(num, entry.den))
    return kernel, is_complex


def loop_cases(kernel):
    """Kind labels of a drawn case, for the coverage test."""
    equal, norm = _orbit_representatives(kernel)
    first = np.unique(equal).size
    error = error_of(si_closed_loops, kernel)
    return {
        ("d", kernel.d),
        ("even" if kernel.n % 2 == 0 else "odd", kernel.d),
        ("complex" if has_complex_tap(kernel) else "real", first < equal.size),
        ("conjugates only", bool(np.any(equal != norm) and np.all(equal == np.arange(equal.size)))),
        ("error", "value" if error is None else error[0].__name__),
        ("h2", None if error else outcome(si_closed_loops(kernel).h2_squared, 1.0)[0]),
    }


@st.composite
def clashing_kernels(draw):
    """Taps s/2 at 0 and -s/2 at e_axis: the symbol is s, and the loop has no denominator, where f_axis = n/2."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from([k for k in SIZES[d] if k % 2 == 0]))
    axis = draw(st.integers(0, d - 1))
    step = tuple(int(i == axis) for i in range(d))
    return ConvKernelArray(d, n, {(0,) * d: RationalEntry([0.0, 0.5]), step: RationalEntry([0.0, -0.5])}), False


LOOP_DRAWS = st.one_of(kernels(), mirrored_kernels(), nudged_kernels(), clashing_kernels(), stable_kernels())


def check_loops_per_orbit(kernel, gamma):
    """si_closed_loops against its full-grid reference, on one kernel."""
    want_error = error_of(reference_si_closed_loops, kernel)
    assert error_of(si_closed_loops, kernel) == want_error
    if want_error is not None:
        return
    want = reference_si_closed_loops(kernel)
    loops = si_closed_loops(kernel)
    got = loops.phi_x_num, loops.phi_u_num, loops.cl_den, loops.degree
    equal, _ = _orbit_representatives(kernel)
    first = np.flatnonzero(equal == np.arange(equal.size))
    assert np.array_equal(loops._rows, first)
    for g, w in zip(got, want):
        g, w = g.reshape(equal.size, -1), w.reshape(equal.size, -1)
        assert g.dtype == w.dtype
        assert np.array_equal(g[first], w[first])
        # off the representatives: a copy of the representative's row
        assert np.array_equal(g, g[equal])
        assert np.all(np.abs(g - w) <= 1e-15 * np.max(np.abs(w), axis=1, keepdims=True))
    by_hand = SIClosedLoops(loops.d, loops.n, *want)
    by_hand._weights = loops._weights
    h2, want_h2 = outcome(loops.h2_squared, gamma), outcome(by_hand.h2_squared, gamma)
    assert h2[0] == want_h2[0] and (h2[1] is want_h2[1] if h2[0] == "error" else h2[1] == want_h2[1])
    # one shared entry per orbit, bit for bit the reference's at the representatives
    for symbols, nums in ((loops.phi_x_symbols, want[0]), (loops.phi_u_symbols, want[1])):
        flat = symbols.reshape(-1)
        assert all(flat[f] is flat[e] for f, e in enumerate(equal))
        same_bits(flat[first], per_entry(*(a.reshape(equal.size, -1)[first] for a in (nums, want[2]))))
    s = 1.7 - 0.8j
    residual = loops.affine_residual(s)
    assert residual == reference_affine_residual([a.reshape(equal.size, -1)[first] for a in want], s)
    loops._rows = None
    assert loops.affine_residual(s) == residual


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(LOOP_DRAWS, st.sampled_from([0.0, 1.0, 2.5]))
def test_loops_per_orbit_match_the_full_grid(case, gamma):
    check_loops_per_orbit(case[0], gamma)


def test_the_loop_draws_reach_every_kind_of_kernel():
    seen = set()

    @settings(max_examples=250, deadline=None, database=None, derandomize=True)
    @given(LOOP_DRAWS)
    def record(case):
        seen.update(loop_cases(case[0]))

    record()
    for d in (1, 2, 3):
        assert {("d", d), ("odd", d), ("even", d)} <= seen
    assert {("real", True), ("real", False), ("complex", True), ("complex", False)} <= seen
    assert ("conjugates only", True) in seen
    assert {("error", "value"), ("error", "SymbolPoleClash"), ("h2", "value"), ("h2", "error")} <= seen


@pytest.mark.parametrize("d, n", [(1, 7), (2, 6), (3, 5)])
def test_a_mirrored_tap_one_ulp_apart_forms_every_loop(d, n):
    exact, ulp = diffusion(d, n, 1.0), diffusion(d, n, np.nextafter(1.0, 2.0))
    assert np.unique(_orbit_representatives(exact)[0]).size < n**d
    # only the identity fixes the nudged taps: f -> -f joins their orbits as a conjugation, no copy
    assert np.array_equal(_orbit_representatives(ulp)[0], np.arange(n**d))
    for kernel in (exact, ulp):
        check_loops_per_orbit(kernel, 1.0)


def test_the_loop_algebra_sees_one_row_per_orbit(monkeypatch):
    import locrel.spatial as spatial

    shapes = {"trim_rows": [], "_values": [], "entry_array": []}

    def counting(name, fn):
        def wrapper(*args):
            shapes[name].append(args[0].shape)
            return fn(*args)

        return wrapper

    for name in shapes:
        monkeypatch.setattr(spatial, name, counting(name, getattr(spatial, name)))
    weights = [1.0 + 0.1 * axis for axis in range(3)]
    taps = {}
    for axis, w in enumerate(weights):
        for step in (1, -1):
            taps[tuple(step if i == axis else 0 for i in range(3))] = RationalEntry([w * 2.0], [2.0, 1.0])
    taps[0, 0, 0] = RationalEntry([-2.0 * sum(weights) * 2.0], [2.0, 1.0])
    kernel = ConvKernelArray(3, 17, taps)
    loops = si_closed_loops(kernel)
    # per axis the orbits {0} and {k, 17 - k}: 9^3 = 729 of the 4,913 frequencies;
    # the symbol rows are trimmed there, then the loop rows
    assert shapes["trim_rows"] == [(729, 1), (729, 3)]
    assert shapes["_values"] == [(2, 729, 3)]
    loops.affine_residual(0.3 + 2.0j)
    assert shapes["_values"][1:] == [(2, 729, 3)]
    assert loops.phi_x_num.shape == (17, 17, 17, 3)
    # each object array is one entry_array pass over the formed rows, gathered onto the grid
    assert loops.phi_x_symbols.shape == loops.phi_u_symbols.shape == (17, 17, 17)
    assert shapes["entry_array"] == [(729, 3), (729, 3)]
    for calls in shapes.values():
        calls.clear()
    assert dft_symbol(kernel).shape == (17, 17, 17)
    assert shapes == {"trim_rows": [(729, 1)], "_values": [], "entry_array": [(729, 1)]}
    shapes["trim_rows"].clear()
    shapes["entry_array"].clear()
    si_h2_squared_parseval(kernel)
    assert shapes == {"trim_rows": [(729, 1)], "_values": [], "entry_array": []}


def test_each_call_finds_the_orbits_once(monkeypatch):
    import locrel.spatial as spatial

    calls = []

    def counting(kernel):
        calls.append(kernel)
        return _orbit_representatives(kernel)

    monkeypatch.setattr(spatial, "_orbit_representatives", counting)
    kernel = diffusion(3, 5, 1.0)
    kernel.set_tap((0, 0, 0), RationalEntry([-10.0], [1.0, 1.0]))
    for call in (dft_symbol, si_closed_loops, si_h2_squared_parseval):
        calls.clear()
        call(kernel)
        assert calls == [kernel], call.__name__
    calls.clear()
    loops = si_closed_loops(kernel)
    loops.h2_squared(1.0), loops.affine_residual(0.5j), loops.phi_x_symbols, loops.phi_u_symbols
    si_h2_squared(kernel)
    assert calls == [kernel]


def full_grid_dft_symbol(kernel):
    """Every frequency's entry from its own FFT row, as one entry_array pass over the grid."""
    return entry_array(*full_grid_symbol_coeffs(kernel))


def full_grid_parseval(kernel):
    """The orbit-weighted Parseval sum read off the full grid of symbol rows."""
    coeffs, common = full_grid_symbol_coeffs(kernel)
    num = coeffs.reshape(-1, coeffs.shape[-1])
    weight = orbit_weights(kernel).reshape(-1)
    live = np.flatnonzero(weight * np.any(num, axis=-1))
    weights = np.r_[np.sum(weight[live[:1]]), np.unique(weight[live[1:]])]
    classes = [live[:1]] + [live[1:][weight[live[1:]] == w] for w in weights[1:]]
    stacked = np.zeros((len(classes), live.size, num.shape[1]), dtype=num.dtype)
    for entry, rows in zip(stacked, classes):
        entry[: rows.size] = num[rows]
    norms = batch_h2_squared(stacked, np.broadcast_to(common, (len(classes), common.size)))
    return float(np.cumsum(weights * norms)[-1]) / kernel.n**kernel.d


def first_error(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the class and message are compared, whatever they are
        return type(exc), str(exc)
    return None


def unchecked_entry(num, den):
    """A tap with the given coefficients, past the constructor's finiteness check."""
    entry = RationalEntry.__new__(RationalEntry)
    entry.num, entry.den = np.array(num, dtype=float), den
    return entry


@st.composite
def extreme_kernels(draw):
    """A mirrored kernel with one tap, or every tap, made huge, infinite or NaN."""
    kernel, is_complex = draw(mirrored_kernels())
    value = draw(st.sampled_from([1e200, 6e307, 1.7e308, np.inf, -np.inf, np.nan]))
    taps = kernel.taps()
    chosen = taps if draw(st.booleans()) else [taps[draw(st.integers(0, len(taps) - 1))]]
    for offset, entry in chosen:
        kernel.set_tap(offset, unchecked_entry([value], entry.den))
    return kernel, is_complex


SYMBOL_DRAWS = st.one_of(kernels(), mirrored_kernels(), nudged_kernels(), stable_kernels(), extreme_kernels())


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(SYMBOL_DRAWS)
def test_symbols_per_orbit_match_the_full_grid(case):
    kernel = case[0]
    want_error = first_error(full_grid_dft_symbol, kernel)
    assert first_error(dft_symbol, kernel) == want_error
    assert first_error(si_h2_squared_parseval, kernel) == first_error(full_grid_parseval, kernel)
    if first_error(full_grid_parseval, kernel) is None:
        assert si_h2_squared_parseval(kernel) == full_grid_parseval(kernel)
    if want_error is not None:
        return
    equal, _ = _orbit_representatives(kernel)
    coeffs, common, first, gather = _symbol_coeffs(kernel, equal)
    want_coeffs, want_common = full_grid_symbol_coeffs(kernel)
    want_rows = want_coeffs.reshape(equal.size, -1)
    assert (common.dtype, common.tobytes()) == (want_common.dtype, want_common.tobytes())
    assert np.array_equal(first, np.unique(equal))
    assert (coeffs.dtype, coeffs.tobytes()) == (want_rows.dtype, want_rows[first].tobytes())
    # off the representatives: the representative's row, within 1e-15 of the frequency's own
    rows = coeffs[gather]
    assert np.all(np.abs(rows - want_rows) <= 1e-15 * np.max(np.abs(want_rows), axis=1, keepdims=True))
    symbols, want = dft_symbol(kernel).reshape(-1), full_grid_dft_symbol(kernel).reshape(-1)
    same_bits(symbols[first], want[first])
    assert all(symbols[f] is symbols[e] for f, e in enumerate(equal))
    assert len({id(entry) for entry in symbols}) == first.size


@pytest.mark.parametrize("d, n", [(1, 1025), (2, 33), (3, 17)])
def test_the_symbols_of_a_relative_diffusion_are_its_fft_within_rounding(d, n):
    # the benchmark's kernels: a relative symbol is small near f = 0, where a copy of the
    # representative's FFT row and the frequency's own row differ by more than 1e-15 of
    # that row (8e-12 here at d = 1, n = 1025); against the largest symbol they agree to 1e-15
    kernel = diffusion(d, n, 1.0)
    kernel.set_tap((0,) * d, RationalEntry([-2.0 * d], [1.0, 1.0]))
    equal, _ = _orbit_representatives(kernel)
    coeffs, common, first, gather = _symbol_coeffs(kernel, equal)
    want = full_grid_symbol_coeffs(kernel)[0].reshape(equal.size, -1)
    assert first.size == ((n + 1) // 2) ** d
    assert coeffs.tobytes() == want[first].tobytes()
    assert np.max(np.abs(coeffs[gather] - want)) <= 1e-15 * np.max(np.abs(want))
    symbols = dft_symbol(kernel).reshape(-1)
    same_bits(symbols[first], full_grid_dft_symbol(kernel).reshape(-1)[first])
    assert len({id(entry) for entry in symbols}) == first.size


def test_the_symbol_draws_reach_every_outcome():
    seen = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(SYMBOL_DRAWS)
    def record(case):
        kernel = case[0]
        error = first_error(dft_symbol, kernel)
        seen.add("value" if error is None else error[0].__name__ + ": " + error[1])
        seen.add(("shared", np.unique(_orbit_representatives(kernel)[0]).size < kernel.n**kernel.d))
        seen.add(("parseval", "value" if first_error(si_h2_squared_parseval, kernel) is None else "error"))

    record()
    assert {"value", "ValueError: kernel symbol coefficients must be finite", ("shared", True), ("shared", False)} <= seen
    assert {("parseval", "value"), ("parseval", "error")} <= seen
