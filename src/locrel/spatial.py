"""Spatially invariant analysis on the d-dimensional discrete torus.

Controllers and closed loops are convolution operators: a sparse set of
rational taps indexed by spatial offset acts on signals over Z_n^d.
The spatial DFT turns convolution into multiplication by a frequency
symbol, which decouples H2 norms and closed-loop computations into
independent scalar problems per frequency.  Those problems are solved
together: the symbols are one coefficient array of shape (n,)*d + (deg,)
over the taps' common denominator, and closed loops and per-frequency
H2 norms are batched array operations on it.  For real taps the H2 sums
visit one frequency of each conjugate pair (f, -f) with weight 2, and the
Parseval sum, whose symbols share one denominator, is one Gramian.  Objects of
``RationalEntry`` are built only where a caller asks for them:
``dft_symbol`` and the ``phi_x_symbols`` and ``phi_u_symbols`` of a
closed loop, built on first access.  Each such object array comes from
one batch pass of ``rational.entry_array`` over the coefficient array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyCheckFailed,
    ConstraintViolated,
    FeasibilityPreconditionError,
    LocrelError,
    SingularAtS,
    SymbolPoleClash,
    UnstableKernelEntry,
)
from .consensus import FeasibilityCertificate, _require_control_weight
from .graphs import _integer
from .rational import (
    RationalEntry,
    RationalMatrix,
    common_denominator,
    entry_array,
    pis_zero,
    trim_rows,
)
from .relative import is_relative
from .statespace import batch_h2_squared, scalar_h2_squared
from .tolerances import EXACT, MATCH, ZERO


def canonical_offset(offset, n):
    """Map an integer offset tuple into (-floor(n/2), floor(n/2)]^d."""
    return tuple((int(o) + (n - 1) // 2) % n - (n - 1) // 2 for o in offset)


def _offset_grid(n, d):
    """The canonical offsets of Z_n^d as rows of an int array, in row-major grid order."""
    return np.indices((n,) * d).reshape(d, -1).T - (n - 1) // 2


def canonical_offsets(n, d):
    """All canonical offsets of Z_n^d, in row-major grid order."""
    return list(map(tuple, _offset_grid(n, d).tolist()))


def circular_sup_distance(offset, n):
    """Sup-norm distance of an offset on the circle of size n per axis."""
    return max(abs(c) for c in canonical_offset(offset, n))


class ConvKernelArray:
    """Rational convolution kernel over the torus Z_n^d.

    Nonzero taps are kept in a dict keyed by offset modulo n; missing
    taps are the zero transfer function.
    """

    def __init__(self, d, n, taps=None):
        if d < 1:
            raise ValueError("spatial dimension must be positive")
        if n < 3:
            raise ValueError("torus size must be at least 3")
        self.d = int(d)
        self.n = int(n)
        self._taps = {}
        if taps:
            for offset, entry in dict(taps).items():
                self.set_tap(offset, entry)

    def _grid_index(self, offset):
        if np.ndim(offset) != 1 or len(offset) != self.d:
            raise ValueError(f"offset {offset!r} is not a sequence of length {self.d}")
        return tuple(_integer(o, "an offset") % self.n for o in offset)

    def set_tap(self, offset, entry):
        if not isinstance(entry, RationalEntry):
            entry = RationalEntry.constant(float(entry))
        idx = self._grid_index(offset)
        if entry.is_zero():
            self._taps.pop(idx, None)
        else:
            self._taps[idx] = entry

    def tap(self, offset):
        entry = self._taps.get(self._grid_index(offset))
        return RationalEntry.zero() if entry is None else entry

    def taps(self):
        """Nonzero taps as (canonical offset, entry) pairs, in canonical order."""
        return sorted(
            ((canonical_offset(idx, self.n), entry) for idx, entry in self._taps.items()),
            key=lambda item: item[0],
        )

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
        kernel = cls(_integer(data["d"], "d"), _integer(data["n"], "n"))
        for tap in data.get("taps", []):
            kernel.set_tap(tap["offset"], RationalEntry(tap["num"], tap["den"]))
        return kernel


def _symbol_coeffs(kernel):
    """Symbol numerators on the frequency grid, over the taps' common denominator.

    Returns (coeffs, common): coeffs has shape (n,)*d + (deg,), and
    coeffs[f] holds the ascending numerator of the symbol at frequency f
    over the monic polynomial ``common``, trimmed as ``RationalEntry``
    stores it (a vanishing symbol is exactly zero); ValueError if they overflow.
    """
    taps = kernel.taps()
    common, numerators = common_denominator(entry for _, entry in taps)
    deg = max([len(num) for num in numerators], default=1)
    coeff_grid = np.zeros((kernel.n,) * kernel.d + (deg,), dtype=complex)
    for (offset, _), num in zip(taps, numerators):
        idx = tuple(o % kernel.n for o in offset)
        coeff_grid[idx][: len(num)] = num
    coeffs = np.fft.fftn(coeff_grid, axes=tuple(range(kernel.d)))
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("kernel symbol coefficients must be finite")
    coeffs, _ = trim_rows(coeffs)
    coeffs[pis_zero(coeffs)] = 0.0
    return coeffs, common


def dft_symbol(kernel):
    """Frequency symbols of the kernel as rational functions.

    Returns an object array on the frequency grid; entry f is the scalar
    transfer sum_m k_m(s) exp(-2 pi i <f, m> / n), represented over the
    taps' common denominator (coefficients are complex in general).
    """
    coeffs, common = _symbol_coeffs(kernel)
    return entry_array(coeffs, common)


def si_h2_squared(kernel):
    """Squared H2 norm: the sum of squared scalar H2 norms over all taps."""
    total = 0.0
    for offset, entry in kernel.taps():
        try:
            total += scalar_h2_squared(entry)
        except LocrelError as exc:
            raise UnstableKernelEntry(
                f"tap at offset {offset} has no finite H2 norm: {exc}"
            ) from exc
    return total


def _pair_weights(kernel):
    """Weights that visit each conjugate pair of frequencies once, for real taps.

    Their symbols at f and -f have equal H2 norms: the first of each pair in
    C order weighs 2, the other 0, and a self-conjugate f (every index 0 or
    n/2) 1.  A complex tap makes every weight 1.
    """
    n, d = kernel.n, kernel.d
    if not all(np.isreal(c).all() for e in kernel._taps.values() for c in (e.num, e.den)):
        return np.ones((n,) * d)
    flat = np.arange(n**d).reshape((n,) * d)
    return np.sign(flat[np.ix_(*[-np.arange(n) % n] * d)] - flat) + 1.0


def si_h2_squared_parseval(kernel):
    """Same norm computed in frequency: the mean of squared symbol norms.

    The symbols share the common denominator, so each weight class is the
    stacked numerators of one ``batch_h2_squared`` entry.  The first nonzero
    symbol leads alone, so it decides the error as a per-frequency loop would.
    """
    coeffs, common = _symbol_coeffs(kernel)
    num = coeffs.reshape(-1, coeffs.shape[-1])
    weight = _pair_weights(kernel).reshape(-1)
    live = np.flatnonzero(weight * np.any(num, axis=1))
    classes = [live[:1]] + [live[1:][weight[live[1:]] == w] for w in (1.0, 2.0)]
    stacked = np.zeros((3, live.size, num.shape[1]), dtype=num.dtype)
    for entry, rows in zip(stacked, classes):
        entry[: rows.size] = num[rows]
    norms = batch_h2_squared(stacked, np.broadcast_to(common, (3, common.size)))
    total = np.sum(weight[live[:1]]) * norms[0] + norms[1] + 2.0 * norms[2]
    return float(total) / kernel.n**kernel.d


def is_relative_si(kernel):
    """True when the taps sum to the zero transfer function."""
    taps = [entry for _, entry in kernel.taps()]
    return not taps or is_relative(RationalMatrix([taps]))


def is_cl_tf_structured_si(kernel, b):
    """True when every tap beyond circular sup-distance b is zero."""
    return all(
        circular_sup_distance(off, kernel.n) <= b for off, _ in kernel.taps()
    )


def spatial_feasibility(d, n, b):
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
    # canonical offsets need no second reduction modulo n
    grid = _offset_grid(n, d)
    excluded = list(map(tuple, grid[np.abs(grid).max(axis=1) > b].tolist()))
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


def _polyval(coeffs, s):
    """Values at s of the ascending polynomials along the last axis."""
    return np.polynomial.polynomial.polyval(s, np.moveaxis(coeffs, -1, 0))


@dataclass
class SIClosedLoops:
    """State and control closed-loop symbols of a spatially invariant loop.

    At frequency f, phi_x = phi_x_num[f] / cl_den[f] and
    phi_u = phi_u_num[f] / cl_den[f]: arrays of shape (n,)*d + (width,)
    in ascending powers of s, each cl_den[f] monic of degree degree[f]
    and zero above it.  ``phi_x_symbols`` and ``phi_u_symbols`` give the
    same loops as object arrays of ``RationalEntry``, built on first
    access.
    """

    d: int
    n: int
    phi_x_num: np.ndarray
    phi_u_num: np.ndarray
    cl_den: np.ndarray
    degree: np.ndarray
    _symbols: dict = field(default_factory=dict, init=False, repr=False)
    _weights: np.ndarray = field(default=None, init=False, repr=False)

    def _objects(self, name):
        if name not in self._symbols:
            self._symbols[name] = entry_array(getattr(self, name), self.cl_den)
        return self._symbols[name]

    @property
    def phi_x_symbols(self):
        return self._objects("phi_x_num")

    @property
    def phi_u_symbols(self):
        return self._objects("phi_u_num")

    def _values(self, s):
        """phi_x and phi_u at the point s on the frequency grid."""
        den = _polyval(self.cl_den, s)
        scale = np.maximum(np.max(np.abs(self.cl_den), axis=-1), 1.0)
        scale = scale * max(1.0, abs(s)) ** self.degree
        if np.any(np.abs(den) <= EXACT * scale):
            raise SingularAtS(f"closed loop has a pole at s = {s}")
        return _polyval(self.phi_x_num, s) / den, _polyval(self.phi_u_num, s) / den

    def h2_squared(self, gamma):
        """Squared deflated H2 norm of (phi_x, gamma phi_u), dropping mode 0.

        Both loops share their denominator at each frequency, so one
        Gramian per frequency, or per conjugate pair for real taps, serves
        both.  gamma must be finite and nonnegative (ValueError otherwise).
        """
        _require_control_weight(gamma)
        width = self.phi_x_num.shape[-1]
        num = self.phi_x_num.reshape(-1, 1, width)
        if gamma > 0:
            num = np.concatenate(
                (num, gamma * self.phi_u_num.reshape(-1, 1, width)), axis=1
            )
        den = self.cl_den.reshape(-1, self.cl_den.shape[-1])
        degree = self.degree.reshape(-1)
        weight = np.ones(degree.size) if self._weights is None else self._weights.reshape(-1)
        total = 0.0
        for k in np.unique(degree[1:]):
            rows = 1 + np.flatnonzero((degree[1:] == k) & (weight[1:] > 0))
            total += float(weight[rows] @ batch_h2_squared(num[rows], den[rows, : k + 1]))
        return total / self.n**self.d

    def affine_residual(self, s):
        """Max over frequencies of |s phi_x - phi_u - 1| at the point s."""
        px, pu = self._values(s)
        return float(np.max(np.abs(s * px - pu - 1.0)))


def si_closed_loops(controller_kernel):
    """Closed loops of dx = u + w under a spatially invariant controller.

    Per frequency f with controller symbol k(s) = num/den, the loops
    are phi_x = den / (s den - num) and phi_u = num / (s den - num).
    The denominator s den - num must not vanish identically.
    """
    coeffs, common = _symbol_coeffs(controller_kernel)
    n, d = controller_kernel.n, controller_kernel.d
    width = max(coeffs.shape[-1], common.size + 1)
    num = np.zeros(coeffs.shape[:-1] + (width,), dtype=complex)
    num[..., : coeffs.shape[-1]] = coeffs
    # a vanishing symbol is 0/1, as dft_symbol gives it
    den = np.zeros_like(num)
    den[..., : common.size] = common
    den[~np.any(coeffs, axis=-1)] = np.eye(width)[0]
    s_den = np.concatenate((np.zeros_like(den[..., :1]), den[..., :-1]), axis=-1)
    cl_den = s_den - num
    largest = np.max(np.abs(cl_den), axis=-1)
    scale = np.maximum(np.max(np.abs(s_den), axis=-1), np.max(np.abs(num), axis=-1))
    clash = largest <= ZERO * np.maximum(scale, 1.0)
    if np.any(clash):
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(clash), clash.shape))
        raise SymbolPoleClash(
            f"closed-loop denominator vanishes identically at frequency {idx}"
        )
    cl_den, degree = trim_rows(cl_den)
    lead = np.take_along_axis(cl_den, degree[..., None], axis=-1)
    loops = SIClosedLoops(
        d=d,
        n=n,
        phi_x_num=den / lead,
        phi_u_num=num / lead,
        cl_den=cl_den / lead,
        degree=degree,
    )
    loops._weights = _pair_weights(controller_kernel)
    # the identity s phi_x - phi_u = 1 holds by construction; a sampled
    # residual guards against coefficient bookkeeping mistakes
    residual = loops.affine_residual(1.0 + 0.7j)
    if residual > MATCH:
        raise ConstraintViolated(f"affine identity violated: residual {residual:.3e}")
    return loops
