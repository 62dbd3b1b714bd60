"""Rational transfer-function entries and matrices.

Polynomials are stored as coefficient arrays in ascending powers of s.
Denominators are normalized to a leading coefficient of one.  Arithmetic
is plain coefficient convolution with a hard degree cap.  An entry never
cancels common factors itself; ``cancel_common_factors`` does where a
caller asks, by stripping shared powers of s exactly and by a
conservative root-matching test, which batch builders run only on the
entries that ``_cancellable_rows`` flags.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CommonDenominatorTruncated,
    DegreeCapExceeded,
    ImproperEntry,
    SingularAtS,
)
from .graphs import Partition
from .tolerances import EXACT, HYPOTHESIS, MATCH, TINY, ZERO

DEGREE_CAP = 128


def _as_rows(c):
    """A new float array of the coefficients, complex for complex input."""
    arr = np.asarray(c)
    return arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)


def _as_coeffs(c):
    arr = np.atleast_1d(np.asarray(c))
    if arr.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    return _as_rows(arr)


def ptrim(c):
    """Drop leading (highest-order) coefficients that are relatively tiny."""
    c = _as_coeffs(c)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return c[:1] if c.size else np.zeros(1)
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= ZERO * scale:
        keep -= 1
    return c[:keep]


def pis_zero(c):
    """True where every coefficient along the last axis is at most ZERO in size."""
    return np.abs(c).max(axis=-1) <= ZERO


def trim_rows(coeffs):
    """Rows along the last axis as ptrim leaves them, with their degrees.

    The rule of ptrim for every row at once: a leading coefficient is
    dropped while its magnitude is at most ZERO of the row's
    largest, down to one coefficient.  Coefficients above each row's
    degree become zero.
    """
    magnitude = np.abs(coeffs)
    scale = np.max(magnitude, axis=-1, keepdims=True)
    kept = ~(magnitude <= ZERO * scale)
    kept[..., 0] = True
    degree = coeffs.shape[-1] - 1 - np.argmax(kept[..., ::-1], axis=-1)
    above = np.arange(coeffs.shape[-1]) > degree[..., None]
    return np.where(above, 0.0, coeffs), degree


def padd(a, b):
    a, b = _as_coeffs(a), _as_coeffs(b)
    n = max(a.size, b.size)
    dtype = complex if (np.iscomplexobj(a) or np.iscomplexobj(b)) else float
    out = np.zeros(n, dtype=dtype)
    out[: a.size] += a
    out[: b.size] += b
    return ptrim(out)


def pmul(a, b):
    a, b = _as_coeffs(a), _as_coeffs(b)
    if pis_zero(a) or pis_zero(b):
        return np.zeros(1)
    out = np.convolve(a, b)
    if out.size - 1 > DEGREE_CAP:
        raise DegreeCapExceeded(
            f"product degree {out.size - 1} exceeds the cap {DEGREE_CAP}"
        )
    return ptrim(out)


def pscale(a, alpha):
    return ptrim(_as_coeffs(a) * alpha)


def pval(c, s):
    """Evaluate at a (possibly complex) point, ascending coefficients."""
    return _horner(_as_coeffs(c)[None], complex(s))[0]


def pdeg(c):
    return ptrim(c).size - 1


def pdiv(num, den):
    """Polynomial long division; returns (quotient, remainder)."""
    num, den = ptrim(num), ptrim(den)
    if pis_zero(den):
        raise ZeroDivisionError("polynomial division by zero")
    q, r = np.polydiv(num[::-1], den[::-1])
    return ptrim(np.atleast_1d(q)[::-1]), ptrim(np.atleast_1d(r)[::-1])


def try_exact_divide(num, factor, rel_tol=MATCH):
    """Quotient of num / factor when the remainder is relatively tiny, else None."""
    num, factor = ptrim(num), ptrim(factor)
    if pdeg(factor) > pdeg(num):
        return None
    q, r = pdiv(num, factor)
    scale = max(np.max(np.abs(num)), TINY)
    if np.max(np.abs(r)) <= rel_tol * scale:
        return q
    return None


def _strip_shared_monomial(num, den):
    """Remove the exact common power of s from both polynomials."""
    num, den = ptrim(num), ptrim(den)
    n_scale = max(np.max(np.abs(num)), TINY)
    d_scale = max(np.max(np.abs(den)), TINY)
    k = 0
    limit = min(num.size, den.size) - 1
    while (
        k < limit
        and abs(num[k]) <= EXACT * n_scale
        and abs(den[k]) <= EXACT * d_scale
    ):
        k += 1
    if k:
        return num[k:], den[k:]
    return num, den


def _deflate(poly, root):
    """Synthetic division of poly by (s - root); None if the remainder is large."""
    poly = ptrim(poly)
    if poly.size < 2:
        return None
    desc = poly[::-1]
    out = np.zeros(desc.size - 1, dtype=complex)
    acc = desc[0]
    for i in range(1, desc.size):
        out[i - 1] = acc
        acc = desc[i] + acc * root
    scale = max(np.max(np.abs(poly)), TINY)
    if abs(acc) > MATCH * scale * max(1.0, abs(root)):
        return None
    res = out[::-1]
    if not np.iscomplexobj(poly) and np.max(np.abs(res.imag)) <= HYPOTHESIS * max(
        np.max(np.abs(res.real)), TINY
    ):
        res = res.real
    return ptrim(res)


def cancel_common_factors(num, den):
    """Best-effort cancellation of shared roots.

    Shared powers of s are stripped exactly.  Remaining denominator roots
    are matched against the numerator and removed pairwise, but only
    while every division leaves a relatively small remainder; otherwise
    the pair is left in place.  Complex roots of real polynomials are
    removed through their real quadratic factor so real data stays real.
    """
    num, den = _strip_shared_monomial(num, den)
    if pis_zero(num):
        return np.zeros(1), np.ones(1)
    both_real = not (np.iscomplexobj(num) or np.iscomplexobj(den))
    guard = 0
    while pdeg(den) >= 1 and pdeg(num) >= 1 and guard < DEGREE_CAP:
        guard += 1
        den_roots = np.roots(ptrim(den)[::-1])
        num_scale = max(np.max(np.abs(num)), TINY)
        cancelled = False
        for root in den_roots:
            tol = MATCH * max(1.0, abs(root)) ** pdeg(num)
            if abs(pval(num, root)) > tol * num_scale:
                continue
            if both_real and abs(root.imag) > HYPOTHESIS * max(1.0, abs(root)):
                quad = np.array([abs(root) ** 2, -2.0 * root.real, 1.0])
                new_num = try_exact_divide(num, quad)
                new_den = try_exact_divide(den, quad)
            else:
                root_use = root.real if both_real else root
                new_num = _deflate(num, root_use)
                new_den = _deflate(den, root_use)
            if new_num is None or new_den is None:
                continue
            num, den = new_num, new_den
            cancelled = True
            break
        if not cancelled:
            break
    return ptrim(num), ptrim(den)


def _cancellable_rows(nums, den):
    """Rows of nums (last axis) that cancel_common_factors(row, den) may change.

    Only those with a root-matching hit at a root of den (taken with a 10x
    margin for the batch's rounding), or all when den(0) = 0.
    """
    if abs(den[0]) <= EXACT * np.max(np.abs(den)):
        return np.ones(nums.shape[:-1], dtype=bool)
    nums, deg = trim_rows(nums)
    roots = np.roots(ptrim(den)[::-1])
    values = np.polynomial.polynomial.polyval(roots, np.moveaxis(nums, -1, 0))
    scale = np.maximum(np.max(np.abs(nums), axis=-1, keepdims=True), TINY)
    tol = 10 * MATCH * np.maximum(1.0, np.abs(roots)) ** deg[..., None]
    return ~np.all(np.abs(values) > tol * scale, axis=-1)


def distinct_denominators(entries):
    """Denominators of the entries, each kept once, in order of appearance.

    Two denominators are the same when their sizes are equal and their
    coefficients agree to a relative HYPOTHESIS (absolute EXACT).
    """
    distinct = []
    for e in entries:
        d = e.den
        if not any(
            d.size == f.size and np.allclose(d, f, rtol=HYPOTHESIS, atol=EXACT)
            for f in distinct
        ):
            distinct.append(d)
    return distinct


def _denominator_factors(unique):
    """(q, {key: q / den}) for bitwise-distinct denominators keyed by their bytes."""
    q = np.ones(1)
    for f in sorted(distinct_denominators(unique.values()), key=pdeg, reverse=True):
        if try_exact_divide(q, f, rel_tol=HYPOTHESIS) is None:
            q = np.convolve(q, f)
            if q.size - 1 > DEGREE_CAP:
                raise DegreeCapExceeded(
                    f"common denominator degree exceeds the cap {DEGREE_CAP}"
                )
    if ptrim(q).size < q.size:
        raise CommonDenominatorTruncated(
            f"the common denominator has degree {q.size - 1} and a largest "
            f"coefficient of {np.max(np.abs(q)):.2e}; trimming at "
            f"{ZERO:g} of it would drop its leading 1"
        )
    factors = {}
    for key, e in unique.items():
        factor = try_exact_divide(q, e.den, rel_tol=HYPOTHESIS)
        # a den that is not an exact factor of q (close duplicates) falls back
        factors[key] = pdiv(q, e.den)[0] if factor is None else factor
    return q, factors


def common_denominators(rows):
    """(q, nums) for each row of entries in turn: one monic q with row[i] = nums[i] / q.

    The distinct denominators are taken highest degree first, and each is
    multiplied into q unless it already divides q.  Rows whose ordered tuples
    of bitwise-distinct denominators are the same share one q and one division
    of q per denominator, zero entries over a constant left out of both; the
    numerators are formed entry by entry.  The first row that fails raises:
    ``CommonDenominatorTruncated`` when q spans so many magnitudes that
    trimming would drop its leading terms.
    """
    shared = {}
    for entries in rows:
        entries = list(entries)
        keys = [e.den.tobytes() for e in entries]
        zero = [e.is_zero() for e in entries]
        # one entry per bitwise-distinct den, less zeros over a constant, which never enters q
        unique = {k: e for k, e, z in zip(keys, entries, zero) if not (z and e.den.size == 1)}
        if tuple(unique) not in shared:
            shared[tuple(unique)] = _denominator_factors(unique)
        q, factors = shared[tuple(unique)]
        nums = []
        for key, e, z in zip(keys, entries, zero):
            factor = factors.get(key)  # a zero needs none
            # a real factor 1 leaves num as the product would, zeros unsigned
            unit = not z and factor.dtype == float and factor.tolist() == [1.0]
            nums.append(np.zeros(1) if z else e.num + 0.0 if unit else pmul(e.num, factor))
        yield q, nums


def common_denominator(entries):
    """The one-row case of ``common_denominators``: (q, nums) with entries[i] = nums[i] / q."""
    return next(common_denominators([entries]))


class RationalEntry:
    """Scalar proper rational function num(s) / den(s).

    Parameters
    ----------
    num, den : array_like
        Finite ascending coefficient arrays.  The denominator must be
        nonzero and is normalized so that its leading coefficient equals
        one.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1.0,)):
        num, den = _as_coeffs(num), _as_coeffs(den)
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            raise ValueError("rational entry coefficients must be finite")
        num, den = ptrim(num), ptrim(den)
        if pis_zero(den):
            raise ZeroDivisionError("denominator polynomial is zero")
        if pis_zero(num):
            num = np.zeros(1)
            den = np.ones(1)
        lead = den[-1]
        num = num / lead
        den = den / lead
        if num.size - 1 > DEGREE_CAP or den.size - 1 > DEGREE_CAP:
            raise DegreeCapExceeded("rational entry exceeds the degree cap")
        self.num = num
        self.den = den

    @staticmethod
    def zero():
        return RationalEntry([0.0])

    @staticmethod
    def constant(c):
        return RationalEntry([c])

    def is_zero(self):
        return pis_zero(self.num)

    def is_proper(self):
        return pdeg(self.num) <= pdeg(self.den)

    def is_strictly_proper(self):
        return self.is_zero() or pdeg(self.num) < pdeg(self.den)

    def require_proper(self, what="rational entry"):
        if not self.is_proper():
            raise ImproperEntry(
                f"{what} has numerator degree {pdeg(self.num)} > "
                f"denominator degree {pdeg(self.den)}"
            )

    def evaluate(self, s):
        """The value at s: the one-entry case of ``RationalMatrix.evaluate``."""
        return _values(self.num[None], self.den[None], s)[0]

    def __add__(self, other):
        other = _coerce_entry(other)
        if self.den.size == other.den.size and np.allclose(
            self.den, other.den, rtol=EXACT, atol=0.0
        ):
            return RationalEntry(padd(self.num, other.num), self.den)
        num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return RationalEntry(num, pmul(self.den, other.den))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return RationalEntry(pscale(self.num, other), self.den)
        other = _coerce_entry(other)
        return RationalEntry(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def to_json(self):
        return {"num": [float(c) for c in self.num], "den": [float(c) for c in self.den]}

    @staticmethod
    def from_json(data):
        return RationalEntry(data["num"], data["den"])

    def __repr__(self):
        return f"RationalEntry(num={list(self.num)}, den={list(self.den)})"


def entry_array(nums, dens):
    """Object array of RationalEntry(nums[idx], dens[idx]), built in one pass.

    ``nums`` holds ascending numerators along its last axis; the array
    returned has shape ``nums.shape[:-1]``, and ``dens`` broadcasts
    against it.  The rules of ``RationalEntry.__init__`` (finiteness, trim,
    zero test, normalization, degree cap) are applied to all rows with array
    operations, so every entry is bitwise the one the constructor would
    build, and owns its coefficient arrays.  On failure the error is the
    one the first failing row, in C order, would raise there.
    """
    nums, dens = _as_rows(nums), _as_rows(dens)
    shape = nums.shape[:-1]
    dens = np.broadcast_to(dens, shape + dens.shape[-1:])
    num, num_deg = trim_rows(nums)
    den, den_deg = trim_rows(dens)
    num_zero, den_zero = pis_zero(nums), pis_zero(dens)
    nonfinite = ~(np.isfinite(nums).all(axis=-1) & np.isfinite(dens).all(axis=-1))
    over_cap = ~num_zero & ((num_deg > DEGREE_CAP) | (den_deg > DEGREE_CAP))
    failing = (nonfinite | den_zero | over_cap).reshape(-1)
    if np.any(failing):
        first = np.argmax(failing)
        if nonfinite.reshape(-1)[first]:
            raise ValueError("rational entry coefficients must be finite")
        if den_zero.reshape(-1)[first]:
            raise ZeroDivisionError("denominator polynomial is zero")
        raise DegreeCapExceeded("rational entry exceeds the degree cap")
    lead = np.take_along_axis(den, den_deg[..., None], axis=-1)
    num = (num / lead).reshape(-1, num.shape[-1])
    den = (den / lead).reshape(-1, den.shape[-1])
    # rows are copied per group of (numerator, denominator) degrees; zero entries are 0 / 1
    group = np.where(num_zero, -1, num_deg * (DEGREE_CAP + 1) + den_deg).reshape(-1)
    out, new = np.empty(group.size, dtype=object), RationalEntry.__new__
    for key in np.unique(group).tolist():
        rows = np.flatnonzero(group == key)
        if key < 0:
            block = np.zeros((rows.size, 1)), np.ones((rows.size, 1))
        else:
            k, m = divmod(key, DEGREE_CAP + 1)
            block = num[rows, : k + 1], den[rows, : m + 1]
        entries = [new(RationalEntry) for _ in range(rows.size)]
        for entry, a, b in zip(entries, *(map(np.ndarray.copy, x) for x in block)):
            entry.num, entry.den = a, b
        out[rows] = entries
    return out.reshape(shape)


def _horner(rows, z):
    """Values at z of the ascending rows by Horner's rule, rounded as Python's complex type does."""
    re = im = np.zeros(rows.shape[0])  # apart: numpy's complex product may round otherwise
    for c in rows.T[::-1]:
        re, im = re * z.real - im * z.imag + c.real, re * z.imag + im * z.real + c.imag
    return np.stack((re, im), axis=1).view(complex)[:, 0]


def _values(nums, dens, s):
    """nums[i] / dens[i] at s; a pole where |den(s)| <= EXACT max(max|den|, 1) max(1, |s|)^deg."""
    z = complex(s)
    den = _horner(dens, z)
    scale = np.maximum(np.max(np.abs(dens), axis=1), 1.0) * max(1.0, abs(z)) ** trim_rows(dens)[1]
    if np.any(np.abs(den) <= EXACT * scale):
        raise SingularAtS(f"rational entry has a pole at s = {s}")
    return _horner(nums, z) / den


def _coerce_entry(value):
    if isinstance(value, RationalEntry):
        return value
    if isinstance(value, (int, float)):
        return RationalEntry.constant(float(value))
    if isinstance(value, complex):
        return RationalEntry([value])
    raise TypeError(f"cannot interpret {value!r} as a rational entry")


class RationalMatrix:
    """Dense grid of rational entries with row/column block partitions."""

    def __init__(self, entries, row_partition=None, col_partition=None):
        grid = [[_coerce_entry(e) for e in row] for row in entries]
        p = len(grid)
        if p == 0:
            raise ValueError("rational matrix needs at least one row")
        m = len(grid[0])
        if any(len(row) != m for row in grid):
            raise ValueError("ragged rational matrix")
        self.entries = grid
        self.shape = (p, m)
        self.row_partition = row_partition or Partition.scalar(p)
        self.col_partition = col_partition or Partition.scalar(m)
        if self.row_partition.total != p:
            raise ValueError("row partition does not sum to the row count")
        if self.col_partition.total != m:
            raise ValueError("column partition does not sum to the column count")

    @staticmethod
    def from_real(matrix, row_partition=None, col_partition=None):
        matrix = np.asarray(matrix, dtype=float)
        grid = entry_array(matrix[..., None], np.ones(1))
        return RationalMatrix(grid, row_partition, col_partition)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def _rows(self):
        """Numerators and denominators in row-major order, as rows zero-padded to one width."""
        flat = [e for row in self.entries for e in row]
        sizes = np.array([e.num.size for e in flat] + [e.den.size for e in flat], dtype=int)
        coeffs = np.concatenate([e.num for e in flat] + [e.den for e in flat] + [np.zeros(0)])
        rows = np.zeros((sizes.size, sizes.max(initial=1)), dtype=coeffs.dtype)
        rows[np.arange(rows.shape[1]) < sizes[:, None]] = coeffs
        return rows[: len(flat)], rows[len(flat) :]

    def evaluate(self, s):
        """Values at s; SingularAtS where an entry has a pole there."""
        return _values(*self._rows(), s).reshape(self.shape)

    def is_strictly_proper(self):
        nums, dens = self._rows()
        return bool(np.all(pis_zero(nums) | (trim_rows(nums)[1] < trim_rows(dens)[1])))

    def is_proper(self):
        nums, dens = self._rows()
        return bool(np.all(trim_rows(nums)[1] <= trim_rows(dens)[1]))

    def matmul(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError("inner dimension mismatch in rational matmul")
        p, k = self.shape
        m = other.shape[1]
        grid = []
        for i in range(p):
            row = []
            for j in range(m):
                acc = RationalEntry.zero()
                for l in range(k):
                    a = self.entries[i][l]
                    b = other.entries[l][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            grid.append(row)
        return RationalMatrix(grid, self.row_partition, other.col_partition)

    def inverse(self):
        """Exact rational inverse via adjugate over determinant.

        Entries keep the raw adjugate-over-determinant form, which callers
        can reduce exactly by known factors instead of relying on root
        matching.
        """
        p, m = self.shape
        if p != m:
            raise ValueError("only square rational matrices can be inverted")
        q, nums = common_denominator(e for row in self.entries for e in row)
        n_grid = [nums[i * m : (i + 1) * m] for i in range(m)]
        det = _poly_det(n_grid)
        if pis_zero(det):
            raise ZeroDivisionError("rational matrix is identically singular")
        adj = _poly_adjugate(n_grid)
        entries = []
        for i in range(m):
            row = []
            for j in range(m):
                num = pmul(adj[i][j], q)
                row.append(RationalEntry(num, det))
            entries.append(row)
        return RationalMatrix(entries, self.col_partition, self.row_partition)

    def to_json(self):
        return {
            "entries": [[e.to_json() for e in row] for row in self.entries],
            "rowPartition": list(self.row_partition.block_sizes),
            "colPartition": list(self.col_partition.block_sizes),
        }

    @staticmethod
    def from_json(data):
        grid = [[RationalEntry.from_json(e) for e in row] for row in data["entries"]]
        rp = Partition(tuple(data["rowPartition"])) if "rowPartition" in data else None
        cp = Partition(tuple(data["colPartition"])) if "colPartition" in data else None
        return RationalMatrix(grid, rp, cp)


def _poly_det(grid):
    """Determinant of a polynomial matrix by minor expansion with memoization."""
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
            i = rows[0]
            rest = rows[1:]
            result = np.zeros(1)
            for pos, j in enumerate(cols):
                a = grid[i][j]
                if pis_zero(a):
                    continue
                sub = minor(rest, cols[:pos] + cols[pos + 1 :])
                term = pmul(a, sub)
                result = padd(result, term if pos % 2 == 0 else -term)
        cache[key] = result
        return result

    return minor(tuple(range(n)), tuple(range(n)))


def _poly_adjugate(grid):
    """Adjugate of a polynomial matrix: adj[i][j] = (-1)^(i+j) M_ji."""
    n = len(grid)
    if n == 1:
        return [[np.ones(1)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows = tuple(r for r in range(n) if r != j)
            cols = tuple(c for c in range(n) if c != i)
            sub = [[grid[r][c] for c in cols] for r in rows]
            m = _poly_det(sub)
            adj[i][j] = m if (i + j) % 2 == 0 else -_as_coeffs(m)
    return adj
