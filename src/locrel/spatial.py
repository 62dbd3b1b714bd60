"""Spatially invariant analysis on the d-dimensional discrete torus.

Controllers and closed loops are convolution operators: a sparse set of
rational taps indexed by spatial offset acts on signals over Z_n^d.  The
spatial DFT turns convolution into multiplication by a frequency symbol,
which decouples H2 norms and closed-loop computations into independent
scalar problems per frequency.  Those problems are solved together: the
symbols are one coefficient array of shape (n,)*d + (deg,) over the taps'
common denominator, and closed loops and per-frequency H2 norms are batched
array operations on it.  The H2 sums visit one frequency of each orbit of
the reflections f -> s f (s a sign vector) that fix the taps, weighted by
its size; the Parseval sum is one Gramian, the kernel sum one per degree.
Closed loops are formed once per orbit of equal symbols and gathered.
Objects of ``RationalEntry`` are built only where a caller asks for them:
``dft_symbol`` and a closed loop's ``phi_x_symbols`` and ``phi_u_symbols``
(on first access), each one ``rational.entry_array`` pass over the rows of
one frequency per orbit, whose frequencies then share one entry object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyCheckFailed,
    ConstraintViolated,
    FeasibilityPreconditionError,
    LocrelError,
    SymbolPoleClash,
    UnstableKernelEntry,
)
from .consensus import FeasibilityCertificate, _require_control_weight
from .graphs import count, items, member
from .rational import (
    RationalEntry,
    RationalMatrix,
    _coerce_entry,
    _values,
    common_denominator,
    entry_array,
    pis_zero,
    reduce_rows,
    trim_rows,
)
from .relative import is_relative
from .statespace import batch_h2_squared, scalar_h2_squared
from .tolerances import MATCH, ZERO


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
        return tuple(count(o, "an offset") % self.n for o in offset)

    def set_tap(self, offset, entry):
        entry = _coerce_entry(entry)
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
    def from_json(cls, data, path="$.kernel"):
        kernel = cls(*(count(*member(data, path, key)) for key in ("d", "n")))
        for tap in items(*member(data, path, "taps", default=[])):
            offset = [count(*o) for o in items(*member(*tap, "offset"))]
            kernel.set_tap(offset, RationalEntry.from_json(*tap))
        return kernel


def _symbol_coeffs(kernel, equal):
    """Symbol numerators at one frequency per orbit of ``equal``, over the taps' common denominator.

    Returns (coeffs, common, first, gather): coeffs[k], the ascending numerator
    at flat frequency first[k] (the smallest of its orbit in ``equal``, from
    ``_orbit_representatives``) over the monic ``common``, trimmed as
    ``RationalEntry`` stores it (a vanishing symbol is exactly zero), is the
    row of each f with gather[f] = k.  ValueError if a coefficient overflows.
    """
    taps = kernel.taps()
    common, numerators = common_denominator(entry for _, entry in taps)
    deg = max([len(num) for num in numerators], default=1)
    coeff_grid = np.zeros((kernel.n,) * kernel.d + (deg,), dtype=complex)
    for (offset, _), num in zip(taps, numerators):
        idx = tuple(o % kernel.n for o in offset)
        coeff_grid[idx][: len(num)] = num
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, if not finite
        coeffs = np.fft.fftn(coeff_grid, axes=tuple(range(kernel.d)))
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("kernel symbol coefficients must be finite")
    first = np.flatnonzero(equal == np.arange(equal.size))
    coeffs, _ = trim_rows(coeffs.reshape(-1, deg)[first])
    coeffs[pis_zero(coeffs)] = 0.0
    return coeffs, common, first, np.searchsorted(first, equal)


def dft_symbol(kernel):
    """Frequency symbols of the kernel as rational functions.

    Returns an object array on the frequency grid; entry f is the scalar
    transfer sum_m k_m(s) exp(-2 pi i <f, m> / n), represented over the
    taps' common denominator (coefficients are complex in general).  The
    frequencies of an orbit of equal symbols share one entry object.
    """
    coeffs, common, _, gather = _symbol_coeffs(kernel, _orbit_representatives(kernel)[0])
    return entry_array(coeffs, common)[gather].reshape((kernel.n,) * kernel.d)


def si_h2_squared(kernel):
    """Squared H2 norm: the sum of squared scalar H2 norms over all taps, in canonical order.

    The taps of each denominator degree are one ``batch_h2_squared`` call.
    """
    taps = kernel.taps()
    if not taps:
        return 0.0
    nums, dens = RationalMatrix([[entry for _, entry in taps]])._rows()
    sizes = np.array([entry.den.size for _, entry in taps])
    norms = np.zeros(len(taps))
    try:
        for k in np.unique(sizes):
            norms[sizes == k] = batch_h2_squared(nums[sizes == k], dens[sizes == k, :k])
    except (LocrelError, ValueError):
        # a batch names no tap: the first failing one in canonical order decides
        for offset, entry in taps:
            try:
                scalar_h2_squared(entry)
            except LocrelError as exc:
                raise UnstableKernelEntry(
                    f"tap at offset {offset} has no finite H2 norm: {exc}"
                ) from exc
        raise
    return float(np.cumsum(norms)[-1])  # added one at a time, as a loop over the taps


def _orbit_representatives(kernel):
    """The smallest flat index in the orbit of each frequency, under the reflections that fix the taps.

    A reflection f -> s f (mod n), s a sign vector, that maps each tap to a
    bit-for-bit equal tap fixes every symbol.  For real taps, one whose -s
    does conjugates them.  Returns (equal, norm): the representatives under
    the first kind, whose orbits hold equal symbols, and under both, whose
    orbits hold equal H2 norms; ``np.bincount(norm)`` weighs the H2 sums.
    """
    n, d = kernel.n, kernel.d
    taps = {i: [(c.dtype, c.tobytes()) for c in (e.num, e.den)] for i, e in kernel._taps.items()}
    signs = 1 - 2 * np.indices((2,) * d).reshape(d, -1).T  # -signs[j] is signs[-1 - j]
    mirrors = (np.array(list(taps), dtype=int).reshape(-1, d) * signs[:, None] % n).tolist()
    fixes = np.array([dict(zip(map(tuple, m), taps.values())) == taps for m in mirrors])
    real = not any(c.imag.any() for e in kernel._taps.values() for c in (e.num, e.den))
    group = fixes | fixes[::-1] if real else fixes
    # axes[g, i, f_i]: axis i's term of the C-order flat index of s f, for the g-th s of the group
    axes = np.arange(n) * signs[group, :, None] % n * n ** np.arange(d - 1, -1, -1)[:, None]
    axes = axes.astype(np.min_scalar_type(n**d))  # the narrowest integers add fastest
    flat = sum(axes[:, i].reshape((-1,) + (1,) * i + (n,) + (1,) * (d - 1 - i)) for i in range(d))
    return flat[fixes[group]].min(axis=0).reshape(-1), flat.min(axis=0).reshape(-1)


def si_h2_squared_parseval(kernel):
    """Same norm computed in frequency: the mean of squared symbol norms.

    The symbols share the common denominator, so each weight class, in
    ascending weight, is the stacked numerators of one ``batch_h2_squared``
    entry.  The first nonzero symbol leads alone, so it decides the error.
    """
    equal, norm = _orbit_representatives(kernel)
    num, common, first, _ = _symbol_coeffs(kernel, equal)
    weight = np.bincount(norm, minlength=norm.size)[first].astype(float)  # zero off ``first``
    live = np.flatnonzero(weight * reduce_rows(np.logical_or, num))
    weights = np.r_[np.sum(weight[live[:1]]), np.unique(weight[live[1:]])]
    classes = [live[:1]] + [live[1:][weight[live[1:]] == w] for w in weights[1:]]
    stacked = np.zeros((len(classes), live.size, num.shape[1]), dtype=num.dtype)
    for entry, rows in zip(stacked, classes):
        entry[: rows.size] = num[rows]
    norms = batch_h2_squared(stacked, np.broadcast_to(common, (len(classes), common.size)))
    return float(np.cumsum(weights * norms)[-1]) / kernel.n**kernel.d


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
    excluded = list(zip(*grid[reduce_rows(np.maximum, np.abs(grid)) > b].T.tolist()))
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
    """State and control closed-loop symbols of a spatially invariant loop.

    At frequency f, phi_x = phi_x_num[f] / cl_den[f] and
    phi_u = phi_u_num[f] / cl_den[f]: arrays of shape (n,)*d + (width,)
    in ascending powers of s, each cl_den[f] monic of degree degree[f]
    and zero above it; the flat rows ``_rows``, one per orbit of equal
    symbols, are formed and frequency f copies row ``_gather[f]`` of them.
    ``phi_x_symbols`` and ``phi_u_symbols`` give the same loops as object
    arrays of ``RationalEntry``, built on first access, one object per
    orbit shared by its frequencies.
    """

    d: int
    n: int
    phi_x_num: np.ndarray
    phi_u_num: np.ndarray
    cl_den: np.ndarray
    degree: np.ndarray
    _symbols: dict = field(default_factory=dict, init=False, repr=False)
    _weights: np.ndarray = field(default=None, init=False, repr=False)
    _rows: np.ndarray = field(default=None, init=False, repr=False)
    _gather: np.ndarray = field(default=None, init=False, repr=False)

    def _formed(self, *arrays):
        """The flat rows of each array that were formed: ``_rows`` when set, else all."""
        return [a.reshape(-1, a.shape[-1])[slice(None) if self._rows is None else self._rows] for a in arrays]

    def _objects(self, name):
        if name not in self._symbols:
            entries = entry_array(*self._formed(getattr(self, name), self.cl_den))
            self._symbols[name] = (entries if self._rows is None else entries[self._gather]).reshape(self.degree.shape)
        return self._symbols[name]

    @property
    def phi_x_symbols(self):
        return self._objects("phi_x_num")

    @property
    def phi_u_symbols(self):
        return self._objects("phi_u_num")

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
        """Max over frequencies of |s phi_x - phi_u - 1| at the point s, over ``_rows`` when set."""
        *nums, den = self._formed(self.phi_x_num, self.phi_u_num, self.cl_den)
        px, pu = _values(np.stack(nums), den, s)
        return float(np.max(np.abs(s * px - pu - 1.0)))


def si_closed_loops(controller_kernel):
    """Closed loops of dx = u + w under a spatially invariant controller.

    Per frequency f with controller symbol k(s) = num/den, the loops
    are phi_x = den / (s den - num) and phi_u = num / (s den - num).
    The denominator s den - num must not vanish identically.  The loops
    are formed at one frequency per orbit of equal symbols and gathered.
    """
    n, d = controller_kernel.n, controller_kernel.d
    equal, norm = _orbit_representatives(controller_kernel)
    coeffs, common, first, gather = _symbol_coeffs(controller_kernel, equal)
    width = max(coeffs.shape[-1], common.size + 1)
    num = np.zeros(coeffs.shape[:-1] + (width,), dtype=complex)
    num[..., : coeffs.shape[-1]] = coeffs
    # a vanishing symbol is 0/1, as dft_symbol gives it
    den = np.zeros_like(num)
    den[..., : common.size] = common
    den[~reduce_rows(np.logical_or, coeffs)] = np.eye(width)[0]
    s_den = np.concatenate((np.zeros_like(den[..., :1]), den[..., :-1]), axis=-1)
    cl_den = s_den - num
    largest, s_top, num_top = (reduce_rows(np.maximum, np.abs(c)) for c in (cl_den, s_den, num))
    clash = largest <= ZERO * np.maximum(np.maximum(s_top, num_top), 1.0)
    if np.any(clash):
        # each representative leads its orbit, so the first in C order clashes first
        idx = tuple(int(i) for i in np.unravel_index(first[np.argmax(clash)], (n,) * d))
        raise SymbolPoleClash(
            f"closed-loop denominator vanishes identically at frequency {idx}"
        )
    # a leading coefficient is judged against the larger of the terms that formed it
    cl_den, degree = trim_rows(cl_den, np.maximum(np.abs(s_den), np.abs(num)))
    lead = np.take_along_axis(cl_den, degree[..., None], axis=-1)
    rows = (den / lead, num / lead, cl_den / lead, degree)
    loops = SIClosedLoops(d, n, *(a[gather].reshape((n,) * d + a.shape[1:]) for a in rows))
    loops._weights = np.bincount(norm, minlength=norm.size).astype(float).reshape((n,) * d)
    loops._rows, loops._gather = first, gather
    # the identity s phi_x - phi_u = 1 holds by construction; a sampled
    # residual guards against coefficient bookkeeping mistakes
    residual = loops.affine_residual(1.0 + 0.7j)
    if residual > MATCH:
        raise ConstraintViolated(f"affine identity violated: residual {residual:.3e}")
    return loops
