"""Reference answers computed with numpy and scipy alone.

Nothing here calls a locrel function. Results returned by locrel are read
only through their data fields (coefficient arrays, matrices, verdict
strings), and every value is recomputed from the benchmark's own inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class OracleMismatch(Exception):
    """An answer from locrel disagrees with its reference."""


def require(ok, message):
    if not ok:
        raise OracleMismatch(message)


def require_close(got, want, rtol, what):
    """Relative agreement, measured against max(|want|, 1)."""
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    require(err <= rtol * scale, f"{what}: error {err:.3e} exceeds {rtol:.0e} x {scale:.3e}")


# -- rings --------------------------------------------------------------------


def circulant(first_row):
    """Circulant matrix whose row i is first_row shifted right by i."""
    first_row = np.asarray(first_row, dtype=float)
    return np.array([np.roll(first_row, i) for i in range(first_row.size)])


def ring_laplacian(n, weights=None):
    """Laplacian of the n-cycle; edge (i, i+1) carries weights[i]."""
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    L = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        L[i, j] -= w[i]
        L[j, i] -= w[i]
        L[i, i] += w[i]
        L[j, j] += w[i]
    return L


def path_laplacian(n, weights):
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i + 1] = L[i + 1, i] = -weights[i]
        L[i, i] += weights[i]
        L[i + 1, i + 1] += weights[i]
    return L


def measure(n, kind):
    """Consensus measures: local error, deviation from average, long range."""
    if kind == "ave":
        return np.eye(n) - np.ones((n, n)) / n
    first = np.zeros(n)
    first[0] = 1.0
    first[-1 if kind == "le" else n // 2] = -1.0
    return circulant(first).T


def rank2_measure(n):
    """Circulant measure whose DFT symbol is 1 at frequencies +1 and -1."""
    symbol = np.zeros(n)
    symbol[1] = symbol[n - 1] = 1.0
    return circulant(np.real(np.fft.ifft(symbol)))


def circulant_rank(C, tol=1e-10):
    mags = np.abs(np.fft.fft(C[0]))
    return int(np.count_nonzero(mags > tol * max(mags.max(), 1.0)))


def static_h2(C, K, gamma):
    """Deflated H2 of dx = Kx + w, z = (Cx, gamma Kx) in closed form.

    Mode k of the circulant loop contributes
    (|c_k|^2 + gamma^2 |lambda_k|^2) / (2 |lambda_k|), mode 0 excluded.
    """
    c = np.fft.fft(C[0])[1:]
    lam = np.fft.fft(K[0])[1:]
    return float(np.sum((np.abs(c) ** 2 + gamma**2 * np.abs(lam) ** 2) / (2.0 * np.abs(lam))))


def approximation_h2(C, Ks, a, gamma):
    """Deflated H2 of the integrators under -a/(s - a) Ks, by one dense Lyapunov solve.

    Controller state xi: xi' = a xi + Ks x, u = -a xi.  Both x and xi are
    restricted to the complement of the ones vector, where the loop lives.
    """
    n = C.shape[0]
    V = scipy.linalg.null_space(np.ones((1, n)))
    m = n - 1
    A = np.block([[np.zeros((m, m)), -a * np.eye(m)], [V.T @ Ks @ V, a * np.eye(m)]])
    B = np.vstack([np.eye(m), np.zeros((m, m))])
    Cz = np.block(
        [[C @ V, np.zeros((n, m))], [np.zeros((m, m)), -gamma * a * np.eye(m)]]
    )
    Q = scipy.linalg.solve_continuous_lyapunov(A.T, -Cz.T @ Cz)
    return float(np.trace(B.T @ Q @ B))


def band_mask(n, b):
    """True where the ring distance between row and column is at most b."""
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(dist, n - dist) <= b


def check_witness(C, W, b, relative):
    """The static closed loop W must be banded and satisfy C (I - W) = 0.

    A relative witness has zero row sums; the infeasibility witness is
    pinned to unit row sums instead.
    """
    n = C.shape[0]
    require(W is not None and W.shape == (n, n), "witness missing")
    require(float(np.max(np.abs(W[~band_mask(n, b)]))) <= 1e-8, "witness leaves the band")
    require(float(np.max(np.abs(C @ (np.eye(n) - W)))) <= 1e-8, "C(I - W) is not zero")
    rows = W.sum(axis=1)
    require(float(np.max(np.abs(rows - (0.0 if relative else 1.0)))) <= 1e-8, "witness row sums")


def same_document(got, want, path="$"):
    """Equal JSON documents: exact for strings, booleans and integers, 1e-9 relative for floats."""
    if isinstance(want, dict):
        require(isinstance(got, dict) and got.keys() == want.keys(), f"{path}: keys differ")
        for key in want:
            same_document(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        require(isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ")
        for i, (g, w) in enumerate(zip(got, want)):
            same_document(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        require(isinstance(got, (int, float)) and not isinstance(got, bool), f"{path}: not a number")
        require(abs(got - want) <= 1e-9 * max(abs(want), 1.0), f"{path}: {got!r} != {want!r}")
    else:
        require(type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}")


# -- rational data ------------------------------------------------------------


def rational_value(num, den, s):
    """num(s) / den(s) for ascending coefficient arrays."""
    return np.polyval(np.asarray(num)[::-1], s) / np.polyval(np.asarray(den)[::-1], s)


def matrix_value(H, s):
    """Value at s of a rational matrix, read from its entries' coefficients."""
    return np.array([[rational_value(e.num, e.den, s) for e in row] for row in H.entries])


def ss_value(A, B, C, D, s):
    """C (sI - A)^-1 B + D."""
    A = np.atleast_2d(A)
    if A.shape[0] == 0:
        return np.asarray(D, dtype=complex)
    return C @ np.linalg.solve(s * np.eye(A.shape[0]) - A, B.astype(complex)) + D


def sample_points(rng, count):
    """Probe points in the right half plane, away from every stable pole."""
    return [complex(rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(count)]


# -- tori ---------------------------------------------------------------------


def torus_symbol(n, d, weights):
    """sigma_f = sum over axes of 2 w_axis (cos(2 pi f_axis / n) - 1) on the frequency grid."""
    grid = np.meshgrid(*([np.arange(n)] * d), indexing="ij")
    sigma = np.zeros((n,) * d)
    for axis in range(d):
        sigma += 2.0 * weights[axis] * (np.cos(2.0 * np.pi * grid[axis] / n) - 1.0)
    return sigma


def torus_kernel_h2(weights, pole):
    """Kernel-sum H2 of taps w p/(s + p): each tap contributes w^2 p / 2."""
    w = np.asarray(weights, dtype=float)
    return float(pole / 2.0 * (2.0 * np.sum(w**2) + (2.0 * np.sum(w)) ** 2))


def torus_closed_loop_h2(n, d, weights, pole, gamma):
    """Deflated H2 of (phi_x, gamma phi_u), frequency by frequency.

    With c = -sigma_f > 0 the loops are phi_x = (s + p)/(s^2 + p s + p c)
    and phi_u = -p c/(s^2 + p s + p c), whose squared H2 norms are
    (c + p)/(2 p c) and c/2.
    """
    c = -torus_symbol(n, d, weights).reshape(-1)[1:]
    return float(np.sum((c + pole) / (2.0 * pole * c) + gamma**2 * c / 2.0) / n**d)


def torus_excluded_offsets(n, d, b):
    """Canonical offsets whose circular sup distance exceeds b."""
    lo = -((n - 1) // 2)
    axis = np.arange(lo, n // 2 + 1)
    grid = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return grid[np.max(np.abs(grid), axis=1) > b]
