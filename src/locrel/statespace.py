"""State-space systems, interconnections, and norms.

Systems are kept alongside block partitions of their state, input and
output dimensions so that sparsity checks can be made per node.
Closed loops, the gap report's included, are built in ``sls`` alone
(``closed_loops_of``).  Interconnections never reduce their
realizations: non-minimal modes are harmless for the subspace-based
checks used throughout and keeping them makes the realizations
predictable; ``minimal_realization`` reduces one on request.  Which
transfer entries vanish is decided on the realization
(``structure.transfer_support``), so structure and relativity verdicts
never convert it to rational form.  Three stages run in order: a
structural zero (no path from B_j to C_i in the graph of A; no
tolerance), a Markov witness (a large C_i A^k B_j; WITNESS), and for the
entries left the reachable (Krylov) subspaces grown here (MATCH).
Rational conversion (``tf_of``) has one path for every system: each entry
comes from its own minimal (reachable, then observable) part, whose
numerator and denominator share no root, so nothing is cancelled after
the fact; the parts of one minimal dimension are converted together (one
stacked ``char_poly``), and the result is checked against the frequency
response.  ``realize_rational`` places every entry's controllable
canonical form by index, for the whole matrix at once.

Subspaces grown from one vector each, one per column of B or row of C,
grow together in ``_column_subspaces``: one product with A per Krylov
step for every column, in batches of bounded memory.  That serves the
last stage of ``transfer_support``, the per-entry conversion in ``tf_of``
and the per-row observable step of ``sls._row_realization``.  Subspaces grown
from a block of vectors (``minimal_realization`` and the per-row
reachable step) use ``_invariant_subspace``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    IllPosedFeedback,
    NonzeroFeedthrough,
    NotHurwitz,
    RationalConversionFailed,
    SingularAtS,
)
from .graphs import Partition
from .rational import RationalMatrix, entry_array, trim_rows
from .tolerances import HYPOTHESIS, SINGULAR, TINY, VERIFY, ZERO, negligible


class StateSpace:
    """LTI system (A, B, C, D) with optional node partitions."""

    def __init__(
        self,
        A,
        B,
        C,
        D,
        state_partition=None,
        in_partition=None,
        out_partition=None,
    ):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        D = np.atleast_2d(np.asarray(D, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(
                f"D has shape {D.shape}, expected {(C.shape[0], B.shape[1])}"
            )
        if not all(np.isfinite(M).all() for M in (A, B, C, D)):
            raise ValueError("state-space matrices must be finite")
        self.A, self.B, self.C, self.D = A, B, C, D
        self.n_states = n
        self.n_inputs = B.shape[1]
        self.n_outputs = C.shape[0]
        self.state_partition = state_partition
        self.in_partition = in_partition
        self.out_partition = out_partition

    @property
    def shape(self):
        return (self.n_outputs, self.n_inputs)

    @staticmethod
    def static(D, in_partition=None, out_partition=None):
        """Gain D with no states: one empty state block per input block."""
        D = np.atleast_2d(np.asarray(D, dtype=float))
        p, m = D.shape
        blocks = in_partition.n_blocks if in_partition is not None else 1
        return StateSpace(
            np.zeros((0, 0)),
            np.zeros((0, m)),
            np.zeros((p, 0)),
            D,
            state_partition=Partition((0,) * blocks),
            in_partition=in_partition,
            out_partition=out_partition,
        )

    def evaluate(self, s):
        """Transfer matrix value C (sI - A)^-1 B + D."""
        if self.n_states == 0:
            return self.D.astype(complex)
        M = s * np.eye(self.n_states) - self.A
        try:
            X = np.linalg.solve(M, self.B.astype(complex))
        except np.linalg.LinAlgError as exc:
            raise SingularAtS(f"state matrix resolvent is singular at s = {s}") from exc
        if not negligible(M @ X - self.B, self.B, VERIFY):
            raise SingularAtS(f"resolvent solve did not converge at s = {s}")
        return self.C @ X + self.D

    def to_json(self):
        data = {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
        }
        parts = {}
        if self.state_partition is not None:
            parts["state"] = list(self.state_partition.block_sizes)
        if self.in_partition is not None:
            parts["in"] = list(self.in_partition.block_sizes)
        if self.out_partition is not None:
            parts["out"] = list(self.out_partition.block_sizes)
        if parts:
            data["partitions"] = parts
        return data

    @staticmethod
    def from_json(data):
        parts = data.get("partitions", {})

        def get(name):
            return Partition(tuple(parts[name])) if name in parts else None

        return StateSpace(
            data["A"],
            data["B"],
            data["C"],
            data["D"],
            state_partition=get("state"),
            in_partition=get("in"),
            out_partition=get("out"),
        )

    def __repr__(self):
        return (
            f"StateSpace(states={self.n_states}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs})"
        )


def _concat_partitions(p1, p2):
    if p1 is None or p2 is None:
        return None
    return Partition(p1.block_sizes + p2.block_sizes)


def series(g, h):
    """Cascade u -> g -> h (the output of g drives h)."""
    if h.n_inputs != g.n_outputs:
        raise ValueError("series: h must accept the outputs of g")
    A = np.block(
        [
            [g.A, np.zeros((g.n_states, h.n_states))],
            [h.B @ g.C, h.A],
        ]
    )
    B = np.vstack([g.B, h.B @ g.D])
    C = np.hstack([h.D @ g.C, h.C])
    D = h.D @ g.D
    return StateSpace(
        A,
        B,
        C,
        D,
        state_partition=_concat_partitions(g.state_partition, h.state_partition),
        in_partition=g.in_partition,
        out_partition=h.out_partition,
    )


def block_diag(*blocks):
    """Block-diagonal matrix of 2-D blocks, as ``scipy.linalg.block_diag``.

    A (1, 0) block adds a zero row and no column.
    """
    shapes = np.array([b.shape for b in blocks])
    out = np.zeros(shapes.sum(axis=0), dtype=np.result_type(*(b.dtype for b in blocks)))
    r = c = 0
    for b, (rows, cols) in zip(blocks, shapes):
        out[r : r + rows, c : c + cols] = b
        r, c = r + rows, c + cols
    return out


def parallel(g, h):
    """Sum of two systems sharing inputs and outputs."""
    if g.shape != h.shape:
        raise ValueError("parallel: systems must share input/output dimensions")
    A = block_diag(g.A, h.A)
    B = np.vstack([g.B, h.B])
    C = np.hstack([g.C, h.C])
    D = g.D + h.D
    return StateSpace(
        A,
        B,
        C,
        D,
        state_partition=_concat_partitions(g.state_partition, h.state_partition),
        in_partition=g.in_partition,
        out_partition=g.out_partition,
    )


def inverse(g):
    """Inverse system; requires square invertible feedthrough D."""
    if g.n_outputs != g.n_inputs:
        raise ValueError("only square systems can be inverted")
    if g.n_inputs == 0:
        return g
    if np.linalg.cond(g.D) > SINGULAR:
        raise IllPosedFeedback("system feedthrough is singular; inverse is improper")
    Dinv = np.linalg.inv(g.D)
    return StateSpace(
        g.A - g.B @ Dinv @ g.C,
        g.B @ Dinv,
        -Dinv @ g.C,
        Dinv,
        state_partition=g.state_partition,
        in_partition=g.out_partition,
        out_partition=g.in_partition,
    )


# Matrix elements per batched solve: a block of entries of degree k holds
# block * (2k - 1)^2 of them, so memory stays bounded however many entries
# there are, and the block shrinks as the degree rises.
H2_BLOCK_ELEMENTS = 1 << 18


def _two_sum(a, b):
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_product(a, b):
    p = a * b
    t = (2.0**27 + 1) * a  # splits a double into two halves
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = (2.0**27 + 1) * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _residual(R, x, rhs):
    """rhs - R x for stacked real systems, in about twice the working precision.

    Error-free products and sums (Ogita, Rump & Oishi 2005, SIAM J. Sci.
    Comput. 26(6)); one refinement step with this residual recovers the
    digits an ill-conditioned solve loses.
    """
    acc, err = rhs, np.zeros_like(rhs)
    for j in range(R.shape[2]):
        p, p_err = _two_product(-R[:, :, j], x[:, j : j + 1])
        acc, s_err = _two_sum(acc, p)
        err = err + (p_err + s_err)
    return acc + err


def _root_abscissa(den):
    """Largest real part of the roots of each monic row of ``den``.

    Degrees one and two use closed-form roots: the quadratic's root
    without cancellation, -(d1 + r) / 2 with r = sqrt(d1^2 - 4 d0) signed
    so that it adds to d1, and its partner d0 over that root.  Higher
    degrees take the eigenvalues of the companion matrix.
    """
    k = den.shape[1] - 1
    if k == 1:
        return -den[:, 0].real
    if k == 2:
        d0, d1 = den[:, 0], den[:, 1]
        r = np.sqrt(d1 * d1 - 4.0 * d0 + 0j)
        r = np.where((np.conj(d1) * r).real < 0.0, -r, r)
        big = -(d1 + r) / 2.0
        # big = 0 only when d1 = d0 = 0, where both roots are zero
        small = np.divide(d0, big, out=np.zeros_like(big), where=big != 0.0)
        return np.maximum(big.real, small.real)
    A = np.zeros((den.shape[0], k, k), dtype=np.result_type(den, float))
    A[:, :-1, 1:] = np.eye(k - 1)
    A[:, -1, :] = -den[:, :k]
    return np.max(np.linalg.eigvals(A).real, axis=1)


def batch_h2_squared(num, den):
    """Squared H2 norms of a stack of scalar entries num[i] / den[i].

    ``den`` is an (N, k+1) array of monic denominators of degree k in
    ascending powers of s.  ``num`` is (N, m), or (N, r, m) for r
    numerators over each denominator, whose squared norms are summed (the
    rows of a single-input column).  Coefficients may be complex.  An
    entry whose numerators all vanish has norm zero; every other entry
    must have numerators of degree below k and a Hurwitz denominator.
    The first entry that does not raises ``NonzeroFeedthrough`` or
    ``NotHurwitz``, as a loop of one-entry calls would.

    Each entry is the companion realization (A, e_k, num).  Frequency is
    first rescaled by s = sigma t with sigma = |den_0|^(1/k), which gives
    the scaled denominator a constant term of unit size; the norm is
    sigma times the scaled one.  The controllability Gramian of the
    companion form, A P + P A^H + e_k e_k^H = 0, is a Hankel matrix up to
    unit factors: P[p, q] = 1j^(p-q) m[p+q] with the 2k - 1 real moments
    m[l] = (1/2 pi) int w^l / |den(1j w)|^2 dw.  The last row of the
    Lyapunov equation (the others hold by this structure) is a real
    (2k-1) x (2k-1) system for the moments, solved for a block of entries
    at once and refined once with an accurate residual.  The squared norm
    is num P num^H = sum_l g[l] m[l], where g are the coefficients of
    |num(1j w)|^2 in powers of w.
    """
    return _batch_h2_squared(num, den, None)


def _batch_h2_squared(num, den, abscissa):
    """``batch_h2_squared``, given ``_root_abscissa(den)`` when the caller has it (else None)."""
    den = np.asarray(den)
    num = np.asarray(num)
    if num.ndim == 2:
        num = num[:, None, :]
    N, k = den.shape[0], den.shape[1] - 1
    # numerators and degrees are judged by the rules of pis_zero and ptrim
    row_scale = np.max(np.abs(num), axis=2, initial=0.0)
    zero = row_scale <= ZERO
    num = np.where(zero[..., None], 0.0, num)
    live = np.flatnonzero(~np.all(zero, axis=1))
    high = np.max(np.abs(num[:, :, k:]), axis=2, initial=0.0)
    improper = np.any(high > ZERO * row_scale, axis=1)
    unstable = np.zeros(N, dtype=bool)
    block = max(1, H2_BLOCK_ELEMENTS // max(2 * k - 1, 1) ** 2)
    for lo in range(0, live.size if k else 0, block):
        rows = live[lo : lo + block]
        root = _root_abscissa(den[rows]) if abscissa is None else abscissa[rows]
        unstable[rows] = root >= -HYPOTHESIS
    # the first failing entry decides, as in a loop of one-entry calls
    failing = improper | unstable
    if np.any(failing):
        if improper[np.argmax(failing)]:
            raise NonzeroFeedthrough("H2 norm of a non-strictly-proper entry is infinite")
        raise NotHurwitz("entry denominator has a root with nonnegative real part")
    out = np.zeros(N)
    width = min(k, num.shape[2])
    powers_of_i = 1j ** np.arange(k + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, if not finite
        for lo in range(0, live.size if k else 0, block):
            rows = live[lo : lo + block]
            d = den[rows]
            count = rows.size
            sigma = np.abs(d[:, 0]) ** (1.0 / k)
            scale = sigma[:, None] ** (np.arange(k + 1) - k)
            e = d * scale * powers_of_i
            R = np.zeros((count, 2 * k - 1, 2 * k - 1))
            for j in range(k - 1):
                R[:, 2 * j, j : j + k + 1] = e.real
                R[:, 2 * j + 1, j : j + k + 1] = e.imag
            R[:, -1, k - 1 :] = (e[:, :k] * 1j ** (1 - k)).real
            rhs = np.zeros((count, 2 * k - 1))
            rhs[:, -1] = 0.5
            m = np.linalg.solve(R, rhs[..., None])[..., 0]
            m = m + np.linalg.solve(R, _residual(R, m, rhs)[..., None])[..., 0]
            a = num[rows, :, :width] * (scale[:, None, :width] * powers_of_i[:width])
            outer = np.einsum("nri,nrj->nij", a, a.conj())
            g = np.zeros((count, 2 * k - 1), dtype=outer.dtype)
            for i in range(width):
                g[:, i : i + width] += outer[:, i, :]
            out[rows] = sigma * np.einsum("nl,nl->n", g, m).real
    if not np.all(np.isfinite(out)):
        raise ValueError("the result holds a number that is not finite")
    return out


def scalar_h2_squared(entry):
    """Squared H2 norm of one rational entry; complex coefficients allowed."""
    return float(batch_h2_squared(entry.num[None, :], entry.den[None, :])[0])


def char_poly(A):
    """(q, mats): characteristic polynomials and resolvent adjugates of a stack.

    Faddeev-LeVerrier on every matrix of A (..., n, n) at once: q[...] holds
    the ascending coefficients of det(sI - A), and mats[k] (..., n, n) the
    coefficient of s^(n-1-k) in adj(sI - A).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    q = np.ones(A.shape[:-2] + (n + 1,))
    mats = []
    N = np.broadcast_to(np.eye(n), A.shape)
    for k in range(1, n + 1):
        mats.append(N)
        AN = A @ N
        a = -np.trace(AN, axis1=-2, axis2=-1) / k
        q[..., n - k] = a
        N = AN + a[..., None, None] * np.eye(n)
    return q, mats


def _invariant_subspace(A, V, norms=None):
    """Orthonormal basis of the smallest A-invariant subspace holding range(V).

    Grows the basis one Krylov block at a time.  Each block is projected
    off the basis, and its rank is the number of singular values above
    ZERO of the block norm; the left singular vectors behind them join
    the basis.  (Unpivoted QR is not rank revealing: a small leading
    column hides the later ones.)  Once the blocks are images A @ Q, a
    singular value at most ZERO times the norm of A is captured too: an
    image that vanishes in exact arithmetic leaves rounding of the size
    of A, not a new direction.

    When A and V are projections of larger maps, ``norms`` gives the
    norms of those maps: the rounding a projection leaves is of their
    size, so directions are judged against them rather than against
    what the projection left (which is itself rounding on a part that
    vanishes).
    """
    n = A.shape[0]
    Q = np.zeros((n, 0))
    W = np.atleast_2d(V)
    a_norm, v_norm = norms if norms is not None else (np.linalg.norm(A), 0.0)
    floor, image_floor = ZERO * v_norm, ZERO * a_norm
    while W.shape[1] and Q.shape[1] < n:
        # threshold against the block before orthogonalization, so that a
        # block already inside span(Q) up to rounding terminates the loop
        scale = np.linalg.norm(W)
        if scale <= max(floor, TINY):
            break
        W = W - Q @ (Q.T @ W)
        W = W - Q @ (Q.T @ W)
        U, sv, _ = np.linalg.svd(W, full_matrices=False)
        fresh = U[:, sv > max(ZERO * scale, floor)]
        if not fresh.shape[1]:
            break
        Q = np.hstack([Q, fresh])
        W = A @ fresh
        floor = image_floor
    return Q


# Basis elements per batch of Krylov columns: a batch of g columns at step
# k holds g * n * k of them, so the batch narrows as the subspaces grow and
# no column ever holds room for all n directions in advance.
KRYLOV_BLOCK_ELEMENTS = 1 << 18


def _column_subspaces(A, V, v_norms=None, a_norm=None):
    """``_invariant_subspace(A, V[:, [j]])`` for every column j of V at once.

    Yields (cols, Q), in no fixed order: column indices whose subspaces
    share a dimension k, and their orthonormal bases stacked as a
    (len(cols), n, k) array.  Each Krylov step is one product with A for
    every live column.  The rank rule is ``_invariant_subspace``'s, with
    the SVD of a one-column block read as its norm: a vector joins when
    its norm after projection is above max(ZERO * scale, floor), and its
    column stops once the scale is at most max(floor, TINY).
    ``v_norms`` (one per column) and ``a_norm`` play the part of
    ``_invariant_subspace``'s ``norms``.
    """
    n, m = A.shape[0], V.shape[1]
    image_floor = ZERO * (np.linalg.norm(A) if a_norm is None else a_norm)
    v_floor = ZERO * (np.zeros(m) if v_norms is None else np.asarray(v_norms, dtype=float))
    width = max(1, KRYLOV_BLOCK_ELEMENTS // max(n, 1))
    for lo in range(0, m, width):
        cols = np.arange(lo, min(lo + width, m))
        # a batch: its columns, bases, next Krylov vectors (one per row) and floors
        pending = [(cols, np.zeros((cols.size, n, 0)), V[:, cols].T, v_floor[cols])]
        while pending:
            cols, Q, W, floor = pending.pop()
            while True:
                k = Q.shape[2]
                scale = np.sqrt(np.einsum("ij,ij->i", W, W))
                norm = scale
                if k:
                    # projected off the basis twice, as in _invariant_subspace
                    for _ in range(2):
                        W = W - np.matmul(Q, np.matmul(W[:, None, :], Q)[:, 0, :, None])[:, :, 0]
                    norm = np.sqrt(np.einsum("ij,ij->i", W, W))
                grow = (scale > np.maximum(floor, TINY)) & (norm > np.maximum(ZERO * scale, floor))
                if k == n:
                    grow[:] = False
                if not grow.all():
                    yield cols[~grow], Q[~grow]
                    if not grow.any():
                        break
                    cols, Q, W, norm = cols[grow], Q[grow], W[grow], norm[grow]
                fresh = W / norm[:, None]
                Q = np.concatenate([Q, fresh[:, :, None]], axis=2)
                W = fresh @ A.T
                floor = image_floor
                keep = max(1, KRYLOV_BLOCK_ELEMENTS // (n * (k + 2)))
                if cols.size > keep:
                    pending.append((cols[keep:], Q[keep:], W[keep:], floor))
                    cols, Q, W = cols[:keep], Q[:keep], W[:keep]


def minimal_realization(sys):
    """Minimal realization of a system: its reachable and observable part.

    Orthogonal restrictions to the reachable subspace of (A, B) and then
    to the observable subspace of what remains (the staircase reduction
    of Van Dooren, IEEE TAC 26(1), 1981).  The transfer matrix and the
    input and output partitions are kept; the state partition is not.
    """
    Q = _invariant_subspace(sys.A, sys.B)
    norms = np.linalg.norm(sys.A), np.linalg.norm(sys.C)
    A, B, C = Q.T @ sys.A @ Q, Q.T @ sys.B, sys.C @ Q
    Q = _invariant_subspace(A.T, C.T, norms=norms)
    return StateSpace(
        Q.T @ A @ Q,
        Q.T @ B,
        C @ Q,
        sys.D,
        in_partition=sys.in_partition,
        out_partition=sys.out_partition,
    )


def _transfer_rows(A, b, c, width):
    """Numerators c adj(sI - A) b and denominators det(sI - A) as (N, width) rows, zero above s^k.

    A (N, k, k), b and c (N, k) hold N realizations of one dimension k.
    """
    k = A.shape[-1]
    q, mats = char_poly(A)
    num, den = np.zeros((2, b.shape[0], width))
    den[:, : k + 1] = q
    for idx, Nk in enumerate(mats):
        num[:, k - 1 - idx] = (c[:, None, :] @ Nk @ b[:, :, None])[:, 0, 0]
    return num, den


_TF_CHECK_POINTS = (0.83 + 1.37j, 2.21 - 0.59j, 1.49 + 2.73j)


def _reduced_entries(sys):
    """Every entry of a system from its reachable, then observable, part.

    The reachable subspaces of all input columns grow in one pass; then,
    per column, the observable subspaces of all output rows on that
    column's reduced system grow in one more, judged against the norms
    of A and of each row of C, as ``minimal_realization`` judges its
    observable step.  The parts of each minimal dimension are converted
    together.  They leave no root shared by a numerator and det(sI - A),
    so each entry is built as it stands: by the rules of ``ptrim`` and
    ``padd``, the numerator trimmed plus d det(sI - A) for a nonzero d.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    a_norm, c_norms = np.linalg.norm(A), np.linalg.norm(C, axis=1)
    parts = {}  # minimal dimension: [(rows, cols, A, b, c, d) of a row group]
    for cols, Q in _column_subspaces(A, B):
        for j, Qj in zip(cols, Q):
            Aj, bj, Cj = Qj.T @ A @ Qj, Qj.T @ B[:, j], C @ Qj
            for rows, P in _column_subspaces(Aj.T, Cj.T, v_norms=c_norms, a_norm=a_norm):
                Pt, cj = P.transpose(0, 2, 1), (Cj[rows, None] @ P)[:, 0]
                part = (rows, np.full(rows.size, j), Pt @ Aj @ P, Pt @ bj, cj, D[rows, j])
                parts.setdefault(P.shape[2], []).append(part)
    width = max(parts) + 1
    groups = [tuple(map(np.concatenate, zip(*group))) for group in parts.values()]
    rows, cols, d = (np.concatenate([g[i] for g in groups]) for i in (0, 1, 5))
    num, den = map(np.concatenate, zip(*(_transfer_rows(*g[2:5], width) for g in groups)))
    num = trim_rows(num)[0]
    fed = d != 0.0
    num[fed] = trim_rows((0.0 + num[fed]) + trim_rows(den[fed] * d[fed, None])[0])[0]
    entries = np.empty(sys.shape, dtype=object)
    entries[rows, cols] = entry_array(num, den)
    return entries


def tf_of(sys):
    """Rational transfer matrix of a state-space system.

    Every entry is built from its own minimal part (``_reduced_entries``),
    and the result is checked against the original frequency response.
    """
    if sys.n_states == 0 or 0 in sys.shape:
        return RationalMatrix.from_real(sys.D, sys.out_partition, sys.in_partition)
    result = RationalMatrix(_reduced_entries(sys), sys.out_partition, sys.in_partition)
    for s in _TF_CHECK_POINTS:
        try:
            want = sys.evaluate(s)
        except SingularAtS:
            continue
        if not negligible(result.evaluate(s) - want, want, VERIFY):
            raise RationalConversionFailed(
                f"{sys.n_states}-state system lost accuracy during rational conversion"
            )
    return result


def realize_rational(H, orientation="rows"):
    """Entry-wise canonical realization of a proper rational matrix.

    Each entry of denominator degree k gets k states in controllable
    canonical form, placed by index.  Every entry must be proper
    (ImproperEntry) with numerator and denominator real up to HYPOTHESIS
    (ValueError); the first failing entry in row-major order decides.

    ``rows`` groups the states of all entries belonging to a row block of
    the matrix on that block's node, making A and C block diagonal with
    respect to the node grouping while B and D inherit any entry-level
    sparsity; ``columns`` groups by column block instead, making A and B
    block diagonal.
    """
    if orientation not in ("rows", "columns"):
        raise ValueError("orientation must be 'rows' or 'columns'")
    p, m = H.shape
    nums, dens = H._rows()
    (num, num_deg), (den, k) = trim_rows(nums), trim_rows(dens)
    unreal = [np.abs(x.imag).max(axis=1) > HYPOTHESIS * np.abs(x).max(axis=1, initial=1.0)
              for x in (nums, dens)]  # the rule of negligible, on each part
    failing = (num_deg > k) | unreal[0] | unreal[1]
    if np.any(failing):
        i, j = divmod(int(np.argmax(failing)), m)
        H[i, j].require_proper()
        raise ValueError("cannot realize an entry with complex coefficients")
    num, den = num.real, den.real
    d = num[np.arange(k.size), k]  # the feedthrough, over a monic denominator
    # blocks are contiguous, so grouping by row blocks keeps the entries in
    # row-major order and grouping by column blocks in column-major order
    by_rows = orientation == "rows"
    order = np.arange(p * m).reshape(p, m)
    order = (order if by_rows else order.T).reshape(-1)
    dims = k[order]
    state = np.arange(dims.sum())
    entry = np.repeat(order, dims)  # the entry each state belongs to
    local = state - np.repeat(np.cumsum(dims) - dims, dims)
    last = state - local + k[entry] - 1
    A, B, C = np.zeros((state.size,) * 2), np.zeros((state.size, m)), np.zeros((p, state.size))
    chain = local < k[entry] - 1
    A[state[chain], state[chain] + 1] = 1.0
    A[last, state] = -den[entry, local]
    B[last, entry % m] = 1.0
    C[entry // m, state] = num[entry, local] - d[entry] * den[entry, local]
    part = H.row_partition if by_rows else H.col_partition
    line_ends = np.cumsum(k.reshape(p, m).sum(axis=1 if by_rows else 0))
    sizes = np.diff(np.concatenate(([0], line_ends))[part.offsets()])
    return StateSpace(
        A, B, C, d.reshape(p, m), Partition(tuple(sizes.tolist())), H.col_partition, H.row_partition
    )


def permute_states(sys, perm):
    """Reorder states by the given index permutation."""
    perm = np.asarray(perm, dtype=int)
    # + 0.0 leaves zeros unsigned, as products with a permutation matrix do
    return StateSpace(
        sys.A[np.ix_(perm, perm)] + 0.0,
        sys.B[perm] + 0.0,
        sys.C[:, perm] + 0.0,
        sys.D,
        state_partition=sys.state_partition,
        in_partition=sys.in_partition,
        out_partition=sys.out_partition,
    )


def interleave_node_states(sys, groups):
    """Regroup a stacked state vector by node.

    ``groups`` is a list of per-subsystem partitions, each with one block
    per node (same node count).  The stacked states (subsystem-major) are
    permuted to node-major order and the state partition becomes the
    per-node totals.
    """
    counts = [list(g.block_sizes) for g in groups]
    n_nodes = len(counts[0])
    if any(len(c) != n_nodes for c in counts):
        raise ValueError("all groups must partition over the same node count")
    sub_offsets = np.concatenate([[0], np.cumsum([sum(c) for c in counts])]).astype(int)
    perm = []
    for node in range(n_nodes):
        for k, c in enumerate(counts):
            start = sub_offsets[k] + sum(c[:node])
            perm.extend(range(start, start + c[node]))
    node_sizes = tuple(sum(c[node] for c in counts) for node in range(n_nodes))
    out = permute_states(sys, perm)
    out.state_partition = Partition(node_sizes)
    return out

