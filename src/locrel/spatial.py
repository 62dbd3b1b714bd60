"""Spatially invariant analysis on the d-dimensional discrete torus.

Controllers and closed loops are convolution operators: a single array
of rational taps indexed by spatial offset acts on signals over Z_n^d.
The spatial DFT turns convolution into multiplication by a frequency
symbol, which decouples H2 norms and closed-loop computations into
independent scalar problems per frequency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyCheckFailed,
    ConstraintViolated,
    FeasibilityPreconditionError,
    SymbolPoleClash,
    UnstableKernelEntry,
)
from .consensus import FeasibilityCertificate
from .rational import RationalEntry, ptrim, try_exact_divide
from .statespace import scalar_h2_squared

__all__ = [
    "ConvKernelArray",
    "SIClosedLoops",
    "canonical_offset",
    "canonical_offsets",
    "circular_sup_distance",
    "convolve",
    "dft_symbol",
    "is_cl_tf_structured_si",
    "is_relative_si",
    "si_closed_loops",
    "si_h2_norm",
    "si_h2_squared",
    "spatial_feasibility",
]


def canonical_offset(offset, n):
    """Map an integer offset tuple into (-floor(n/2), floor(n/2)]^d."""
    out = []
    for o in offset:
        o = int(o) % n
        if o > n // 2:
            o -= n
        out.append(o)
    return tuple(out)


def canonical_offsets(n, d):
    """All canonical offsets of Z_n^d, in row-major grid order."""
    half = n // 2
    lo = -((n - 1) // 2)
    axis = range(lo, half + 1)
    return [tuple(o) for o in itertools.product(axis, repeat=d)]


def circular_sup_distance(offset, n):
    """Sup-norm distance of an offset on the circle of size n per axis."""
    return max(abs(c) for c in canonical_offset(offset, n))


class ConvKernelArray:
    """Rational convolution kernel over the torus Z_n^d.

    Taps are stored densely on the (n,)*d grid indexed by offset modulo
    n; missing taps are the zero transfer function.
    """

    def __init__(self, d, n, taps=None):
        if d < 1:
            raise ValueError("spatial dimension must be positive")
        if n < 3:
            raise ValueError("torus size must be at least 3")
        self.d = int(d)
        self.n = int(n)
        self.table = np.empty((self.n,) * self.d, dtype=object)
        zero = RationalEntry.zero()
        for idx in itertools.product(range(self.n), repeat=self.d):
            self.table[idx] = zero
        if taps:
            for offset, entry in dict(taps).items():
                self.set_tap(offset, entry)

    def _grid_index(self, offset):
        offset = tuple(int(o) for o in offset)
        if len(offset) != self.d:
            raise ValueError("offset dimension mismatch")
        return tuple(o % self.n for o in offset)

    def set_tap(self, offset, entry):
        if not isinstance(entry, RationalEntry):
            entry = RationalEntry.constant(float(entry))
        self.table[self._grid_index(offset)] = entry

    def tap(self, offset):
        return self.table[self._grid_index(offset)]

    def taps(self):
        """Nonzero taps as (canonical offset, entry) pairs."""
        out = []
        for offset in canonical_offsets(self.n, self.d):
            entry = self.tap(offset)
            if not entry.is_zero():
                out.append((offset, entry))
        return out

    def support_radius(self):
        taps = self.taps()
        if not taps:
            return 0
        return max(circular_sup_distance(off, self.n) for off, _ in taps)

    def evaluate_grid(self, s):
        """Complex array of tap values at s, laid out on the offset grid."""
        values = np.zeros((self.n,) * self.d, dtype=complex)
        for idx in itertools.product(range(self.n), repeat=self.d):
            entry = self.table[idx]
            if not entry.is_zero():
                values[idx] = entry.evaluate(s)
        return values

    def to_json(self):
        return {
            "d": self.d,
            "n": self.n,
            "taps": [
                {"offset": list(off), **entry.to_json()}
                for off, entry in self.taps()
            ],
        }

    @classmethod
    def from_json(cls, data):
        kernel = cls(int(data["d"]), int(data["n"]))
        for tap in data.get("taps", []):
            kernel.set_tap(
                tuple(tap["offset"]), RationalEntry(tap["num"], tap["den"])
            )
        return kernel


def convolve(kernel, signal, s):
    """Circularly convolve the kernel (evaluated at s) with a spatial signal."""
    signal = np.asarray(signal, dtype=complex)
    if signal.shape != (kernel.n,) * kernel.d:
        raise ValueError("signal shape does not match the torus")
    out = np.zeros_like(signal)
    for offset, entry in kernel.taps():
        value = entry.evaluate(s)
        out += value * np.roll(signal, shift=offset, axis=tuple(range(kernel.d)))
    return out


def _common_denominator_taps(kernel):
    """Shared monic denominator and per-tap numerators for all taps."""
    taps = kernel.taps()
    dens = []
    for _, entry in taps:
        if not any(np.allclose(entry.den, d, rtol=1e-9, atol=0.0) for d in dens):
            dens.append(entry.den)
    common = np.array([1.0])
    for d in dens:
        common = np.convolve(common, d)
    common = ptrim(common)
    numerators = {}
    for offset, entry in taps:
        q = try_exact_divide(common, entry.den)
        if q is None:
            q = np.array([1.0])
            for d in dens:
                if not np.allclose(d, entry.den, rtol=1e-9, atol=0.0):
                    q = np.convolve(q, d)
        numerators[offset] = ptrim(np.convolve(entry.num, q))
    return common, numerators


def dft_symbol(kernel):
    """Frequency symbols of the kernel as rational functions.

    Returns an object array on the frequency grid; entry f is the scalar
    transfer sum_m k_m(s) exp(-2 pi i <f, m> / n), represented over the
    taps' common denominator (coefficients are complex in general).
    """
    common, numerators = _common_denominator_taps(kernel)
    deg = max([len(num) for num in numerators.values()], default=1)
    coeff_grid = np.zeros((kernel.n,) * kernel.d + (deg,), dtype=complex)
    for offset, num in numerators.items():
        idx = tuple(o % kernel.n for o in offset)
        coeff_grid[idx][: len(num)] = num
    sym_coeffs = np.fft.fftn(coeff_grid, axes=tuple(range(kernel.d)))
    symbols = np.empty((kernel.n,) * kernel.d, dtype=object)
    for idx in itertools.product(range(kernel.n), repeat=kernel.d):
        symbols[idx] = RationalEntry(sym_coeffs[idx], common, simplify=False)
    return symbols


def si_h2_squared(kernel):
    """Squared H2 norm: the sum of squared scalar H2 norms over all taps."""
    total = 0.0
    for offset, entry in kernel.taps():
        try:
            total += scalar_h2_squared(entry)
        except Exception as exc:
            raise UnstableKernelEntry(
                f"tap at offset {offset} has no finite H2 norm: {exc}"
            ) from exc
    return total


def si_h2_norm(kernel):
    return float(np.sqrt(si_h2_squared(kernel)))


def si_h2_squared_parseval(kernel):
    """Same norm computed in frequency: the mean of squared symbol norms."""
    symbols = dft_symbol(kernel)
    total = 0.0
    for idx in itertools.product(range(kernel.n), repeat=kernel.d):
        entry = symbols[idx]
        if entry.is_zero():
            continue
        total += scalar_h2_squared(entry)
    return total / kernel.n**kernel.d


def is_relative_si(kernel, tol=1e-10):
    """True when the taps sum to the zero transfer function."""
    common, numerators = _common_denominator_taps(kernel)
    if not numerators:
        return True
    deg = max(len(num) for num in numerators.values())
    acc = np.zeros(deg)
    scale = 0.0
    for num in numerators.values():
        acc[: len(num)] += np.real(num)
        scale = max(scale, float(np.max(np.abs(num))))
    return bool(np.max(np.abs(acc)) <= tol * max(scale, 1.0))


def is_cl_tf_structured_si(kernel, b):
    """True when every tap beyond circular sup-distance b is zero."""
    return all(
        circular_sup_distance(off, kernel.n) <= b for off, _ in kernel.taps()
    )


def spatial_feasibility(d, n, b, gamma=0.0):
    """Locality infeasibility certificate for relative design on Z_n^d.

    The agents are scalar integrators dx = u + w coupled only through
    the design constraints: closed loops must be b-local convolutions
    and the controller relative.  Removing the unobservable average
    leaves the state closed loop with a tap of -1/(n^d s) at every
    offset outside the locality ball, so any truncation at radius
    b < (n-1)/2 excludes at least one offset and the required tap cannot
    vanish: the design is infeasible (its H2 cost diverges).
    """
    if d < 1 or n < 3 or b < 1:
        raise FeasibilityPreconditionError(
            "need spatial dimension >= 1, torus size >= 3 and radius >= 1"
        )
    if 2 * b + 1 >= n:
        raise FeasibilityPreconditionError(
            f"locality ball of radius {b} already covers the torus of size {n}: "
            "no offsets are excluded and the obstruction is void"
        )
    excluded = [
        off
        for off in canonical_offsets(n, d)
        if circular_sup_distance(off, n) > b
    ]
    count = n**d - (2 * b + 1) ** d
    if len(excluded) != count:
        raise ConsistencyCheckFailed(
            f"enumerated {len(excluded)} excluded offsets, expected {count}"
        )
    note = (
        f"relative feedback leaves the deflated state loop with tap -1/({n**d} s) "
        f"at each of the {count} offsets beyond sup-distance {b}; a b-local design "
        "needs those taps to vanish, so none exists and the cost diverges."
    )
    return FeasibilityCertificate(
        verdict="Infeasible",
        threshold=2 * b + 1,
        rank=None,
        witness=None,
        proof_note=note,
        excluded_offsets=excluded,
        divergent_term=f"-1/({n**d} s) per excluded offset",
    )


@dataclass
class SIClosedLoops:
    """State and control closed-loop symbols of a spatially invariant loop."""

    d: int
    n: int
    phi_x_symbols: np.ndarray
    phi_u_symbols: np.ndarray

    def kernel_at(self, s):
        """Closed-loop taps at s via the inverse DFT of the symbol values."""
        shape = (self.n,) * self.d
        px = np.zeros(shape, dtype=complex)
        pu = np.zeros(shape, dtype=complex)
        for idx in itertools.product(range(self.n), repeat=self.d):
            px[idx] = self.phi_x_symbols[idx].evaluate(s)
            pu[idx] = self.phi_u_symbols[idx].evaluate(s)
        return np.fft.ifftn(px), np.fft.ifftn(pu)

    def h2_squared(self, gamma):
        """Squared deflated H2 norm of (phi_x, gamma phi_u), dropping mode 0."""
        total = 0.0
        for idx in itertools.product(range(self.n), repeat=self.d):
            if all(i == 0 for i in idx):
                continue
            px = self.phi_x_symbols[idx]
            pu = self.phi_u_symbols[idx]
            total += scalar_h2_squared(px)
            if gamma > 0 and not pu.is_zero():
                total += gamma**2 * scalar_h2_squared(pu)
        return total / self.n**self.d

    def affine_residual(self, s):
        """Max over frequencies of |s phi_x - phi_u - 1| at the point s."""
        worst = 0.0
        for idx in itertools.product(range(self.n), repeat=self.d):
            px = self.phi_x_symbols[idx].evaluate(s)
            pu = self.phi_u_symbols[idx].evaluate(s)
            worst = max(worst, abs(s * px - pu - 1.0))
        return worst


def si_closed_loops(controller_kernel):
    """Closed loops of dx = u + w under a spatially invariant controller.

    Per frequency f with controller symbol k(s) = num/den, the loops
    are phi_x = den / (s den - num) and phi_u = num / (s den - num).
    The denominator s den - num must not vanish identically.
    """
    symbols = dft_symbol(controller_kernel)
    n, d = controller_kernel.n, controller_kernel.d
    phi_x = np.empty((n,) * d, dtype=object)
    phi_u = np.empty((n,) * d, dtype=object)
    for idx in itertools.product(range(n), repeat=d):
        entry = symbols[idx]
        num, den = entry.num, entry.den
        s_den = np.concatenate(([0.0], den))
        cl_den = ptrim(
            s_den + np.concatenate((-np.asarray(num), np.zeros(len(s_den) - len(num))))
        )
        scale = max(np.max(np.abs(s_den)), np.max(np.abs(num)), 1.0)
        if np.max(np.abs(cl_den)) <= 1e-10 * scale:
            raise SymbolPoleClash(
                f"closed-loop denominator vanishes identically at frequency {idx}"
            )
        phi_x[idx] = RationalEntry(den, cl_den, simplify=False)
        phi_u[idx] = RationalEntry(num, cl_den, simplify=False)
    loops = SIClosedLoops(d=d, n=n, phi_x_symbols=phi_x, phi_u_symbols=phi_u)
    # the identity s phi_x - phi_u = 1 holds by construction; a sampled
    # residual guards against coefficient bookkeeping mistakes
    residual = loops.affine_residual(1.0 + 0.7j)
    if residual > 1e-8:
        raise ConstraintViolated(f"affine identity violated: residual {residual:.3e}")
    return loops
