"""Spatially invariant kernels on the torus: DFT, H2, locality certificates."""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import scaled

from locrel.cli import main
from locrel.consensus import ConsensusProblem, consensus_measures, sls_relative_feasibility
from locrel.errors import (
    CommonDenominatorTruncated,
    FeasibilityPreconditionError,
    NonzeroFeedthrough,
    NotHurwitz,
    SingularAtS,
    SymbolPoleClash,
    UnstableKernelEntry,
)
from locrel.rational import RationalEntry, RationalMatrix
from locrel.relative import is_relative
from locrel.spatial import (
    ConvKernelArray,
    _orbit_representatives,
    _symbol_coeffs,
    canonical_offset,
    canonical_offsets,
    circular_sup_distance,
    dft_symbol,
    is_cl_tf_structured_si,
    is_relative_si,
    si_closed_loops,
    si_h2_squared,
    si_h2_squared_parseval,
    spatial_feasibility,
)


def delta_kernel(d, n, value=1.0):
    return ConvKernelArray(d, n, {(0,) * d: RationalEntry.constant(value)})


def ones_kernel(d, n):
    k = ConvKernelArray(d, n)
    for off in canonical_offsets(n, d):
        k.set_tap(off, RationalEntry.constant(1.0))
    return k


def centering_kernel(d, n):
    """delta - (1/n^d) * ones: the deviation-from-average operator."""
    k = ConvKernelArray(d, n)
    w = -1.0 / n**d
    for off in canonical_offsets(n, d):
        k.set_tap(off, RationalEntry.constant(w + (1.0 if all(o == 0 for o in off) else 0.0)))
    return k


def ring_consensus_kernel(n):
    """Taps {+1, -2, +1} at offsets {-1, 0, 1}."""
    return ConvKernelArray(
        1,
        n,
        {
            (0,): RationalEntry.constant(-2.0),
            (1,): RationalEntry.constant(1.0),
            (-1,): RationalEntry.constant(1.0),
        },
    )


def random_stable_kernel(d, n, rng, radius=1):
    k = ConvKernelArray(d, n)
    for off in canonical_offsets(n, d):
        if circular_sup_distance(off, n) <= radius:
            num = [float(rng.standard_normal())]
            den = [float(rng.uniform(0.5, 3.0)), 1.0]
            k.set_tap(off, RationalEntry(num, den))
    return k


def test_canonical_offsets():
    assert canonical_offset((5,), 8) == (-3,)
    assert canonical_offset((4,), 8) == (4,)
    assert canonical_offset((7, 1), 8) == (-1, 1)
    assert canonical_offset((3,), 5) == (-2,)
    assert canonical_offsets(4, 1) == [(-1,), (0,), (1,), (2,)]
    assert len(canonical_offsets(3, 2)) == 9
    assert circular_sup_distance((3, 3), 4) == 1
    assert circular_sup_distance((3,), 8) == 3


def test_kernel_tap_wraparound():
    k = ConvKernelArray(1, 6)
    k.set_tap((-1,), RationalEntry.constant(2.0))
    assert k.tap((5,)).evaluate(0.0) == 2.0
    assert [off for off, _ in k.taps()] == [(-1,)]


def test_kernel_json_round_trip():
    k = ConvKernelArray(
        1,
        8,
        {
            (0,): RationalEntry([1.0], [1.0, 1.0]),
            (1,): RationalEntry([0.5], [2.0, 1.0]),
            (-1,): RationalEntry([0.5], [2.0, 1.0]),
        },
    )
    doc = k.to_json()
    assert doc["d"] == 1 and doc["n"] == 8
    assert all(set(t) == {"offset", "num", "den"} for t in doc["taps"])
    back = ConvKernelArray.from_json(json.loads(json.dumps(doc)))
    for off, entry in k.taps():
        assert np.array_equal(back.tap(off).num, entry.num)
        assert np.array_equal(back.tap(off).den, entry.den)


def apply_kernel(kernel, x, s):
    """Circular convolution with the kernel at s, applied as its symbol in frequency."""
    symbol = np.vectorize(lambda e: e.evaluate(s), otypes=[complex])(dft_symbol(kernel))
    return np.fft.ifftn(symbol * np.fft.fftn(x))


def test_convolve_delta_is_identity(rng):
    x = rng.standard_normal((5, 5))
    out = apply_kernel(delta_kernel(2, 5), x, 1.0)
    assert np.allclose(out, x)


def test_convolve_ones_sums_everything(rng):
    x = rng.standard_normal(6)
    out = apply_kernel(ones_kernel(1, 6), x, 2.0)
    assert np.allclose(out, x.sum())


def test_convolve_shift():
    k = ConvKernelArray(1, 4, {(1,): RationalEntry.constant(1.0)})
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(apply_kernel(k, x, 0.0), np.roll(x, 1))


def test_dft_symbol_examples():
    sym = dft_symbol(delta_kernel(1, 6))
    assert all(sym[(f,)].num.tolist() == sym[(f,)].den.tolist() == [1.0] for f in range(6))
    sym = dft_symbol(ones_kernel(2, 3))
    assert sym[0, 0].evaluate(1.0) == pytest.approx(9.0)
    for idx in itertools.product(range(3), repeat=2):
        if idx != (0, 0):
            assert abs(sym[idx].evaluate(1.0)) < 1e-12
    sym = dft_symbol(centering_kernel(1, 5))
    assert abs(sym[(0,)].evaluate(2.0)) < 1e-12
    for f in range(1, 5):
        assert sym[(f,)].evaluate(2.0) == pytest.approx(1.0)


def test_dft_symbol_ring_kernel_values():
    k = ConvKernelArray(
        1,
        8,
        {
            (0,): RationalEntry([1.0], [1.0, 1.0]),
            (1,): RationalEntry([0.5], [2.0, 1.0]),
            (-1,): RationalEntry([0.5], [2.0, 1.0]),
        },
    )
    sym = dft_symbol(k)
    for f in range(8):
        want = 1.0 / 2.0 + np.cos(2.0 * np.pi * f / 8.0) / 3.0
        assert sym[(f,)].evaluate(1.0) == pytest.approx(want, abs=1e-12)


def test_convolution_theorem(rng):
    for d, n in ((1, 5), (1, 8), (2, 4), (3, 3)):
        k = random_stable_kernel(d, n, rng)
        x = rng.standard_normal((n,) * d) + 1j * rng.standard_normal((n,) * d)
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        # circular convolution: the tap at offset m shifts x by m
        conv = sum(e.evaluate(s) * np.roll(x, off, axis=tuple(range(d))) for off, e in k.taps())
        lhs = np.fft.fftn(conv)
        sym = dft_symbol(k)
        sym_vals = np.zeros((n,) * d, dtype=complex)
        for idx in itertools.product(range(n), repeat=d):
            sym_vals[idx] = sym[idx].evaluate(s)
        rhs = sym_vals * np.fft.fftn(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_si_h2_single_tap():
    k = ConvKernelArray(1, 4, {(0,): RationalEntry([1.0], [1.0, 1.0])})
    assert si_h2_squared(k) == pytest.approx(0.5, abs=1e-12)


def test_si_h2_two_taps():
    k = ConvKernelArray(
        1,
        5,
        {
            (0,): RationalEntry([1.0], [1.0, 1.0]),
            (1,): RationalEntry([1.0], [2.0, 1.0]),
        },
    )
    assert si_h2_squared(k) == pytest.approx(0.75, abs=1e-12)


def test_si_h2_stencil_with_parseval():
    # five taps of 1/(s+3) on the 2-d nearest-neighbor stencil
    k = ConvKernelArray(2, 3)
    entry = RationalEntry([1.0], [3.0, 1.0])
    for off in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        k.set_tap(off, entry)
    assert si_h2_squared(k) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert si_h2_squared_parseval(k) == pytest.approx(5.0 / 6.0, abs=1e-8)


def test_si_h2_parseval_random(rng):
    for d, n in ((1, 6), (2, 4)):
        k = random_stable_kernel(d, n, rng)
        assert si_h2_squared_parseval(k) == pytest.approx(
            si_h2_squared(k), abs=1e-8 * (1.0 + si_h2_squared(k))
        )


def test_si_h2_rejects_unstable_tap():
    k = ConvKernelArray(1, 4, {(0,): RationalEntry([1.0], [-1.0, 1.0])})
    with pytest.raises(UnstableKernelEntry):
        si_h2_squared(k)


def test_is_relative_si_examples():
    n = 6
    diff = ConvKernelArray(
        1, n, {(0,): RationalEntry.constant(1.0), (1,): RationalEntry.constant(-1.0)}
    )
    assert is_relative_si(diff)
    assert not is_relative_si(delta_kernel(1, n))
    assert is_relative_si(centering_kernel(1, n))
    assert is_relative_si(ConvKernelArray(1, n))
    mixed = ConvKernelArray(
        1,
        n,
        {
            (0,): RationalEntry([1.0], [1.0, 1.0]),
            (1,): RationalEntry([-1.0], [2.0, 1.0]),
        },
    )
    assert not is_relative_si(mixed)
    same_den = ConvKernelArray(
        1,
        n,
        {
            (0,): RationalEntry([1.0], [1.0, 1.0]),
            (1,): RationalEntry([-1.0], [1.0, 1.0]),
        },
    )
    assert is_relative_si(same_den)


def circulant_rational_from_kernel(k):
    """One-dimensional kernel laid out as a circulant rational matrix."""
    from locrel.rational import RationalMatrix

    n = k.n
    grid = [[RationalEntry.zero() for _ in range(n)] for _ in range(n)]
    for off, e in k.taps():
        for i in range(n):
            grid[i][(i + off[0]) % n] = e
    return RationalMatrix(grid)


def test_relative_si_matches_circulant_check(rng):
    # one-dimensional kernels are circulant operators; the tap-sum notion
    # must agree with the row-sum notion on the assembled matrix
    n = 7
    lag = RationalEntry([1.0], [1.0, 1.0])
    cases = [
        ring_consensus_kernel(n),
        delta_kernel(1, n),
        centering_kernel(1, n),
        ConvKernelArray(1, n, {(0,): lag, (2,): scaled(-1.0, lag)}),
        ConvKernelArray(1, n, {(0,): lag, (2,): RationalEntry([-1.0], [2.0, 1.0])}),
    ]
    for _ in range(4):
        cases.append(random_stable_kernel(1, n, rng, radius=2))
    for k in cases:
        assert is_relative_si(k) == is_relative(circulant_rational_from_kernel(k))


def test_cl_tf_structured_si_examples():
    assert is_cl_tf_structured_si(delta_kernel(1, 8), 1)
    k = ConvKernelArray(1, 8, {(3,): RationalEntry.constant(1.0)})
    assert not is_cl_tf_structured_si(k, 2)
    assert is_cl_tf_structured_si(k, 3)
    stencil = ConvKernelArray(2, 5)
    for off in itertools.product((-1, 0, 1), repeat=2):
        stencil.set_tap(off, RationalEntry.constant(1.0))
    assert is_cl_tf_structured_si(stencil, 1)


def test_spatial_feasibility_examples():
    cert = spatial_feasibility(1, 8, 1)
    assert cert.infeasible
    assert len(cert.excluded_offsets) == 5
    assert sorted(o[0] for o in cert.excluded_offsets) == [-3, -2, 2, 3, 4]
    cert = spatial_feasibility(2, 5, 1)
    assert cert.infeasible
    assert len(cert.excluded_offsets) == 25 - 9
    cert = spatial_feasibility(3, 4, 1)
    assert cert.infeasible
    assert len(cert.excluded_offsets) == 64 - 27


def test_spatial_feasibility_offsets_are_canonical_int_tuples():
    for d, n, b in ((1, 8, 1), (2, 7, 2), (3, 6, 1), (3, 17, 1)):
        want = [
            off for off in canonical_offsets(n, d) if circular_sup_distance(off, n) > b
        ]
        got = spatial_feasibility(d, n, b).excluded_offsets
        assert got == want
        assert all(type(c) is int for off in got for c in off)


def test_spatial_feasibility_json():
    doc = spatial_feasibility(1, 8, 1).to_json()
    assert doc["verdict"] == "Infeasible"
    assert doc["excludedCount"] == 5
    assert "1/(8 s)" in doc["divergentTerm"]
    assert all(len(o) == 1 for o in doc["excludedOffsets"])


def test_spatial_feasibility_preconditions():
    with pytest.raises(FeasibilityPreconditionError):
        spatial_feasibility(3, 3, 1)  # ball covers the whole torus
    with pytest.raises(FeasibilityPreconditionError):
        spatial_feasibility(1, 5, 2)  # 2b+1 = n
    with pytest.raises(FeasibilityPreconditionError):
        spatial_feasibility(0, 5, 1)
    with pytest.raises(FeasibilityPreconditionError):
        spatial_feasibility(1, 5, 0)


def test_spatial_matches_ring_certificate():
    # one-dimensional verdicts line up with the circulant-rank route
    for n, b in ((6, 2), (8, 1), (8, 3)):
        cert_si = spatial_feasibility(1, n, b)
        prob = ConsensusProblem(
            n=n, b=b, gamma=1.0, c=consensus_measures(n, kinds=("ave",))["ave"]
        )
        cert_ring = sls_relative_feasibility(prob)
        assert cert_si.infeasible and cert_ring.infeasible


def test_si_closed_loops_zero_controller():
    loops = si_closed_loops(ConvKernelArray(1, 4))
    # phi_x = 1/s and phi_u = 0 at every frequency: a delta tap of 1/s
    assert [e.evaluate(2.0) for e in loops.phi_x_symbols] == [0.5] * 4
    assert all(e.is_zero() for e in loops.phi_u_symbols)


def test_si_closed_loops_ring_controller():
    n = 8
    loops = si_closed_loops(ring_consensus_kernel(n))
    s = 1.0
    for f in range(n):
        lam = 2.0 * (1.0 - np.cos(2.0 * np.pi * f / n))
        assert loops.phi_x_symbols[(f,)].evaluate(s) == pytest.approx(
            1.0 / (s + lam), abs=1e-12
        )
    px = np.fft.ifft([e.evaluate(s) for e in loops.phi_x_symbols])
    # the inverse of a banded symbol is dense: every offset carries weight
    assert np.min(np.abs(px)) > 1e-6
    # the control loop stays relative: its taps sum to the symbol at frequency 0
    assert abs(loops.phi_u_symbols[(0,)].evaluate(s)) < 1e-12
    assert loops.affine_residual(0.8 + 1.3j) < 1e-12
    # phi_x at frequency 0 is 1/s: the pole rule of a rational entry refuses s = 0
    with pytest.raises(SingularAtS, match=r"^rational entry has a pole at s = 0\.0$"):
        loops.affine_residual(0.0)


def test_si_closed_loops_h2_matches_ring_h2():
    from locrel.consensus import h2_deflated, static_consensus_gain

    n = 8
    loops = si_closed_loops(ring_consensus_kernel(n))
    for gamma in (0.0, 1.0):
        prob = ConsensusProblem(
            n=n, b=1, gamma=gamma, c=consensus_measures(n, kinds=("ave",))["ave"]
        )
        dense = h2_deflated(prob, static_consensus_gain(n))
        per_site = loops.h2_squared(gamma)
        assert per_site == pytest.approx(dense / n, abs=1e-9)


def test_si_closed_loops_h2_rejects_a_negative_or_non_finite_weight():
    # the ring gain through a low-pass 2/(s + 2): gamma scales phi_u's share
    taps = {(0,): -4.0, (1,): 2.0, (-1,): 2.0}
    kernel = {off: RationalEntry([tap], [2.0, 1.0]) for off, tap in taps.items()}
    loops = si_closed_loops(ConvKernelArray(1, 8, kernel))
    assert loops.h2_squared(0.0) == pytest.approx(0.546875, abs=1e-12)
    assert loops.h2_squared(1.0) == pytest.approx(1.546875, abs=1e-12)
    for gamma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="control weight"):
            loops.h2_squared(gamma)


def test_si_closed_loops_2d_stencil():
    n, d = 3, 2
    k = ConvKernelArray(d, n)
    k.set_tap((0, 0), RationalEntry.constant(-4.0))
    for off in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        k.set_tap(off, RationalEntry.constant(1.0))
    loops = si_closed_loops(k)
    s = 1.5
    for idx in itertools.product(range(n), repeat=d):
        lam = 2.0 * sum(1.0 - np.cos(2.0 * np.pi * f / n) for f in idx)
        assert loops.phi_x_symbols[idx].evaluate(s) == pytest.approx(
            1.0 / (s + lam), abs=1e-12
        )


def test_si_closed_loops_pole_clash():
    # controller symbol k(s) = s makes s - k vanish identically
    k = ConvKernelArray(1, 4, {(0,): RationalEntry([0.0, 1.0])})
    with pytest.raises(SymbolPoleClash):
        si_closed_loops(k)


def test_corpus_kernel_file():
    from pathlib import Path

    path = Path(__file__).parent / "data" / "kernel_ring8.json"
    with open(path) as fh:
        doc = json.load(fh)
    k = ConvKernelArray.from_json(doc["kernel"])
    assert si_h2_squared(k) == pytest.approx(0.625, abs=1e-12)
    assert si_h2_squared_parseval(k) == pytest.approx(0.625, abs=1e-8)


def test_kernel_keeps_only_nonzero_taps(rng):
    k = ConvKernelArray(2, 5)
    offsets = [(2, -1), (0, 0), (-2, 2), (1, 0), (0, 3)]
    for i in rng.permutation(len(offsets)):
        k.set_tap(offsets[i], RationalEntry([1.0 + i], [2.0, 1.0]))
    k.set_tap((1, 0), RationalEntry.zero())
    k.set_tap((4, 4), 0.0)
    scan = [
        (off, k.tap(off)) for off in canonical_offsets(5, 2) if not k.tap(off).is_zero()
    ]
    assert [off for off, _ in k.taps()] == [off for off, _ in scan]
    assert [off for off, _ in k.taps()] == [(-2, 2), (0, -2), (0, 0), (2, -1)]
    assert k.tap((6, 5)).is_zero() and k.tap((5, 5)) is k.tap((0, 0))
    assert k.tap((2, 4)) is k.tap((2, -1))


def test_closed_loop_symbols_are_built_once_on_access():
    loops = si_closed_loops(ring_consensus_kernel(6))
    px = loops.phi_x_symbols
    assert loops.phi_x_symbols is px and loops.phi_u_symbols is loops.phi_u_symbols
    with pytest.raises(AttributeError):
        loops.phi_x_symbols = px


def test_kernel_h2_errors():
    unstable = ConvKernelArray(1, 5, {(0,): RationalEntry([1.0], [-1.0, 1.0])})
    with pytest.raises(NotHurwitz):
        si_h2_squared_parseval(unstable)
    static = ConvKernelArray(1, 5, {(0,): 1.0, (1,): -0.5})
    with pytest.raises(NonzeroFeedthrough):
        si_h2_squared_parseval(static)
    with pytest.raises(UnstableKernelEntry) as info:
        si_h2_squared(static)
    assert isinstance(info.value.__cause__, NonzeroFeedthrough)
    # positive feedback 1/(s - 1) at every frequency but the average
    loops = si_closed_loops(ConvKernelArray(1, 5, {(0,): 1.0}))
    with pytest.raises(NotHurwitz):
        loops.h2_squared(1.0)
    # symbol s - 1 at frequency 2 and -1 elsewhere: the loop denominator is
    # 1 there and s + 1 elsewhere, so phi_x = 1 at frequency 2
    taps = {(m,): RationalEntry([-(m == 0), 0.25 * (-1.0) ** m]) for m in range(4)}
    loops = si_closed_loops(ConvKernelArray(1, 4, taps))
    np.testing.assert_allclose(loops.phi_x_symbols[2].num, [1.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(loops.phi_x_symbols[2].den, [1.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(loops.phi_x_symbols[1].num, [1.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(loops.phi_x_symbols[1].den, [1.0, 1.0], rtol=0.0, atol=1e-12)
    with pytest.raises(NonzeroFeedthrough):
        loops.h2_squared(0.0)


def test_common_denominator_too_wide_to_trim_is_an_error():
    # 22 distinct stable quadratic denominators: their product has degree 44
    # and a largest coefficient near 4e30, so trimming would drop its leading 1
    # and the Parseval route would judge a different, unstable polynomial
    rng = np.random.default_rng(3)
    taps = {}
    for offset in list(itertools.product(range(-1, 2), repeat=3))[:22]:
        p1, p2 = rng.uniform(1.0, 8.0, size=2)
        taps[offset] = RationalEntry([rng.uniform(0.5, 1.5)], [p1 * p2, p1 + p2, 1.0])
    kernel = ConvKernelArray(3, 4, taps)
    assert si_h2_squared(kernel) == pytest.approx(0.15413223736726106, rel=1e-12)
    with pytest.raises(CommonDenominatorTruncated, match="degree 44"):
        si_h2_squared_parseval(kernel)


@pytest.mark.parametrize("value", [np.int64(2), np.float32(1.5), 3, 1.5, 2.0 - 0.5j, 1j, True])
def test_a_number_is_a_constant_tap(value):
    # set_tap and RationalMatrix share one scalar-entry rule
    kernel = ConvKernelArray(1, 5, {(1,): value})
    got, want = kernel.tap((1,)), RationalMatrix([[value]])[0, 0]
    assert [(c.dtype, c.tobytes()) for c in (got.num, got.den)] == [(c.dtype, c.tobytes()) for c in (want.num, want.den)]
    assert got.evaluate(0.5) == complex(value)


@pytest.mark.parametrize("value", ["1.5", b"1", None, [1.0]])
def test_a_tap_that_is_not_a_number_is_refused(value):
    kernel = ConvKernelArray(1, 5)
    with pytest.raises(TypeError, match="as a rational entry"):
        kernel.set_tap((1,), value)
    assert kernel.taps() == []


def test_si_h2_squared_lets_programming_errors_through(monkeypatch):
    import locrel.spatial as spatial

    def broken(entry):
        raise TypeError("broken")

    monkeypatch.setattr(spatial, "scalar_h2_squared", broken)
    with pytest.raises(TypeError):
        si_h2_squared(ring_consensus_kernel(5))


def test_si_closed_loops_pole_clash_names_frequency():
    # taps (s/4) (-1)^m give the symbol s at frequency 2 and 0 elsewhere
    taps = {(m,): RationalEntry([0.0, 0.25 * (-1.0) ** m]) for m in range(4)}
    with pytest.raises(SymbolPoleClash, match=r"frequency \(2,\)"):
        si_closed_loops(ConvKernelArray(1, 4, taps))


def nearest_neighbour_consensus(d, n):
    """Static taps: -2d at the origin and 1 at each nearest neighbour."""
    k = ConvKernelArray(d, n, {(0,) * d: -2.0 * d})
    for axis in range(d):
        for step in (1, -1):
            k.set_tap(tuple(step if a == axis else 0 for a in range(d)), 1.0)
    return k


def consensus_variance(d, n):
    """Per-site variance (1/n^d) sum over f != 0 of 1/(2 lambda_f)."""
    grid = np.meshgrid(*([np.arange(n)] * d), indexing="ij")
    lam = sum(2.0 * (1.0 - np.cos(2.0 * np.pi * f / n)) for f in grid)
    return float(np.sum(1.0 / (2.0 * lam.reshape(-1)[1:]))) / n**d


def test_torus_consensus_variance_scaling():
    # Bamieh, Jovanovic, Mitra & Patterson 2012: the per-site variance of
    # torus consensus grows like n in d = 1, like log n in d = 2, and stays
    # bounded in d = 3.  The smallest symbol, about (2 pi / n)^2, carries the
    # FFT's absolute rounding, hence the tolerance at n = 1025.
    values = {}
    for d, sizes in ((1, (5, 17, 65, 1025)), (2, (8, 16, 32, 64)), (3, (9, 17, 33))):
        for n in sizes:
            loops = si_closed_loops(nearest_neighbour_consensus(d, n))
            values[d, n] = loops.h2_squared(0.0)
            assert values[d, n] == pytest.approx(consensus_variance(d, n), rel=1e-10)
    for n in (5, 17, 65, 1025):
        # sum over f of csc^2(pi f / n) is (n^2 - 1)/3
        assert values[1, n] == pytest.approx((n * n - 1) / (24.0 * n), rel=1e-10)
    # each doubling of n adds log(2) / (4 pi) in d = 2
    for n in (8, 16, 32):
        step = values[2, 2 * n] - values[2, n]
        assert step == pytest.approx(np.log(2.0) / (4.0 * np.pi), rel=0.01)
    # Watson's integral for the simple cubic lattice bounds d = 3 from above
    watson = (
        np.sqrt(6.0)
        / (32.0 * np.pi**3)
        * np.prod([math.gamma(k / 24.0) for k in (1, 5, 7, 11)])
    )
    limit = watson / 12.0
    assert values[3, 9] < values[3, 17] < values[3, 33] < limit
    assert values[3, 33] > 0.95 * limit


def mixed_degree_kernels():
    """Kernels whose taps have denominators of degree 1 and 2."""
    first = RationalEntry([1.0], [1.0, 1.0])
    second = RationalEntry([1.0], [2.0, 3.0, 1.0])  # 1/((s + 1)(s + 2))
    ring = ConvKernelArray(1, 8, {(0,): first, (1,): second})
    torus = ConvKernelArray(
        2,
        5,
        {
            (0, 0): first,
            (1, 0): scaled(0.5, second),
            (0, 1): RationalEntry([-0.3], [3.0, 1.0]),
            (-1, -1): RationalEntry([0.5, 1.0], [5.0, 2.0, 1.0]),
        },
    )
    return ring, torus


def test_mixed_degree_taps_work_in_every_spatial_routine(tmp_path, capsys):
    ring, torus = mixed_degree_kernels()
    assert si_h2_squared(ring) == pytest.approx(0.5 + 1.0 / 12.0, rel=1e-12)
    s0 = 0.4 + 1.3j
    # (s + 1) divides (s + 1)(s + 2), so it adds no degree to the denominator
    for kernel, degree in ((ring, 2), (torus, 5)):
        symbols = dft_symbol(kernel)
        assert symbols[(0,) * kernel.d].den.size - 1 == degree
        got = np.vectorize(lambda e: e.evaluate(s0), otypes=[complex])(symbols)
        taps = np.zeros((kernel.n,) * kernel.d, dtype=complex)
        for off, entry in kernel.taps():
            taps[off] = entry.evaluate(s0)
        assert np.allclose(got, np.fft.fftn(taps), rtol=1e-12, atol=1e-12)
        assert si_h2_squared_parseval(kernel) == pytest.approx(si_h2_squared(kernel), rel=1e-12)
        loops = si_closed_loops(kernel)
        assert loops.phi_x_num.shape[:-1] == (kernel.n,) * kernel.d
        assert not is_relative_si(kernel)
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"kernel": ring.to_json()}))
    assert main(["spatial", "h2", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parsevalH2Squared"] == pytest.approx(doc["h2Squared"], rel=1e-12)


def improper_mixed_degree_controller():
    """Taps of numerator degree above their denominator's, and a constant tap."""
    return ConvKernelArray(
        2,
        6,
        {
            (0, 0): RationalEntry([0.3, 0.0, 0.2], [1.0, 1.0]),
            (1, 0): RationalEntry([1.0, -0.5], [2.0, 3.0, 1.0]),
            (0, -1): 0.7,
        },
    )


def diffusive_torus_kernel(d, n):
    """Relative kernel with taps p w / (s + p) at +-e_axis, the negated sum at 0."""
    pole, weights = 1.7, np.linspace(0.6, 1.4, d)
    taps = {(0,) * d: RationalEntry([-2.0 * weights.sum() * pole], [pole, 1.0])}
    for axis in range(d):
        for step in (1, -1):
            offset = tuple(step if a == axis else 0 for a in range(d))
            taps[offset] = RationalEntry([weights[axis] * pole], [pole, 1.0])
    return ConvKernelArray(d, n, taps)


def _same_bits(got, want):
    assert got.shape == want.shape
    for g, w in zip(got.reshape(-1), want.reshape(-1)):
        for a, b in ((g.num, w.num), (g.den, w.den)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _per_entry(nums, dens):
    out = np.empty(nums.shape[:-1], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = RationalEntry(nums[idx], dens[idx] if dens.ndim > 1 else dens)
    return out


@pytest.mark.parametrize(
    "kernel",
    [
        *mixed_degree_kernels(),
        centering_kernel(2, 4),
        improper_mixed_degree_controller(),
        diffusive_torus_kernel(3, 17),
    ],
    ids=["mixed-ring", "mixed-torus", "centering", "improper", "torus-d3-n17"],
)
def test_symbol_arrays_match_per_entry_construction(kernel):
    symbols = dft_symbol(kernel)
    coeffs, common, _, gather = _symbol_coeffs(kernel, _orbit_representatives(kernel)[0])
    _same_bits(symbols, _per_entry(coeffs[gather].reshape(symbols.shape + (-1,)), common))
    loops = si_closed_loops(kernel)
    _same_bits(loops.phi_x_symbols, _per_entry(loops.phi_x_num, loops.cl_den))
    _same_bits(loops.phi_u_symbols, _per_entry(loops.phi_u_num, loops.cl_den))
    if kernel.d == 2 and kernel.n == 4:
        # the centering kernel's average symbol vanishes: 0 / 1
        assert symbols[0, 0].num.tolist() == [0.0] and symbols[0, 0].den.tolist() == [1.0]


def test_dft_symbol_builds_no_entry_through_the_constructor(monkeypatch):
    kernel = diffusive_torus_kernel(3, 17)
    calls = []
    original = RationalEntry.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RationalEntry, "__init__", counting)
    symbols = dft_symbol(kernel)
    assert symbols.shape == (17, 17, 17)
    assert calls == []
    loops = si_closed_loops(kernel)
    assert loops.phi_x_symbols.shape == loops.phi_u_symbols.shape == (17, 17, 17)
    assert calls == []


@pytest.mark.parametrize("value", [1e308, 1e200])
def test_overflowing_taps_raise_value_error_without_a_warning(value):
    # a tap this large overflows the symbol coefficients (1e308) or the
    # squared H2 norms (both sizes): each is refused where it first
    # appears, rather than returned as inf or NaN
    doc = json.loads((Path(__file__).parent / "data" / "kernel_ring8.json").read_text())
    doc["kernel"]["taps"][1]["num"][0] = value
    kernel = ConvKernelArray.from_json(doc["kernel"])
    symbols, result = "kernel symbol coefficients must be finite", "the result holds a number that is not finite"
    expected = {si_h2_squared: result, si_h2_squared_parseval: result}
    if value == 1e308:
        expected.update({si_h2_squared_parseval: symbols, dft_symbol: symbols, si_closed_loops: symbols})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in expected.items():
            with pytest.raises(ValueError) as info:
                call(kernel)
            assert str(info.value) == message
        if value == 1e200:
            assert all(np.isfinite(e.num).all() for e in dft_symbol(kernel).flat)
            assert np.isfinite(si_closed_loops(kernel).cl_den).all()


def test_symbols_that_overflow_in_the_transform_raise_without_a_warning():
    # each tap is finite, but their sum at frequency 0 is not
    taps = {(1, 0): RationalEntry([1e308], [1.0, 1.0]), (-1, 0): RationalEntry([1e308], [1.0, 1.0])}
    kernel = ConvKernelArray(2, 5, taps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (dft_symbol, si_closed_loops, si_h2_squared_parseval):
            with pytest.raises(ValueError, match="^kernel symbol coefficients must be finite$"):
                call(kernel)


@pytest.mark.parametrize("v", [-3e9, -5e9, -1e10, -1e12, -1e20])
def test_a_large_stable_tap_keeps_the_leading_power_of_its_loop(v):
    # with the offset-0 tap at v/(s + 1) the loop is stable and strictly
    # proper; its denominator's s^k, small beside the tap, was trimmed
    # against the largest coefficient and raised NonzeroFeedthrough from -5e9
    doc = json.loads((Path(__file__).parent / "data" / "kernel_ring8.json").read_text())
    kernel = ConvKernelArray.from_json(doc["kernel"])
    kernel.set_tap((0,), RationalEntry([v], [1.0, 1.0]))
    assert si_closed_loops(kernel).h2_squared(1.0) == pytest.approx(0.4375 * (abs(v) + 1.0), rel=1e-14)


def test_a_large_positive_tap_is_positive_feedback():
    doc = json.loads((Path(__file__).parent / "data" / "kernel_ring8.json").read_text())
    kernel = ConvKernelArray.from_json(doc["kernel"])
    kernel.set_tap((0,), RationalEntry([1e200], [1.0, 1.0]))
    with pytest.raises(NotHurwitz):
        si_closed_loops(kernel).h2_squared(1.0)
