"""Relative feedback gains and their pairwise-difference decompositions.

A gain is relative when each output depends only on differences of its
inputs, which is the same as every row summing to zero.  A relative row
k supported on a connected graph can always be rewritten as a sum of
edge terms sum_{i<j} M_ij (y_i - y_j) with M skew-symmetric and zero off
the graph's edges; the minimum-Frobenius-norm choice of M comes from the
graph Laplacian pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRelative
from .graphs import Graph, laplacian, require_connected
from .rational import (
    RationalEntry,
    RationalMatrix,
    _cancellable_rows,
    cancel_common_factors,
    common_denominators,
    entry_array,
    pis_zero,
)
from .statespace import StateSpace
from .structure import transfer_support
from .tolerances import ZERO, negligible


def _row_coefficients(K):
    """Each row's common denominator and numerators (one per array row), from
    ``common_denominators`` in turn; NotRelative at the first row whose
    numerators sum above ZERO of their scale, before later rows are divided."""
    for common, nums in common_denominators(K.entries):
        coeffs = np.zeros((len(nums), max(num.size for num in nums)), dtype=complex)
        for j, num in enumerate(nums):
            coeffs[j, : num.size] = num
        if not negligible(coeffs.sum(axis=0), coeffs, ZERO):
            raise NotRelative("rational gain rows must sum to the zero function")
        yield common, coeffs


def _static_gain(k):
    """A static gain as an array: complex when an entry has an imaginary part, else float."""
    k = np.asarray(k)
    if np.iscomplexobj(k):
        return k if np.any(k.imag) else k.real
    return np.asarray(k, dtype=float)


def _row_sums(M):
    """M @ 1, with sums at most ZERO of their row's largest term (or 1) set to zero."""
    sums = M.sum(axis=1, keepdims=True)
    scale = np.maximum(np.max(np.abs(M), axis=1, keepdims=True, initial=0.0), 1.0)
    sums[np.abs(sums) <= ZERO * scale] = 0.0
    return sums


def is_relative(K):
    """True when every row of the gain sums to zero.

    Accepts a real or complex matrix, a RationalMatrix or a StateSpace; for
    the latter two the row sums must be the zero function.  A realization is relative
    when D 1 = 0 and C annihilates the reachable subspace of B 1, that is
    when the one-input system (A, B 1, C, D 1) has no ``transfer_support``;
    the sums B 1 and D 1 are zero up to ZERO of their rows' terms.
    """
    if isinstance(K, StateSpace):
        summed = StateSpace(K.A, _row_sums(K.B), K.C, _row_sums(K.D))
        return not transfer_support(summed).any()
    if isinstance(K, RationalMatrix):
        try:
            for _ in _row_coefficients(K):
                pass
        except NotRelative:
            return False
        return True
    K = np.atleast_2d(_static_gain(K))
    return bool(negligible(K.sum(axis=1), K, ZERO))


def _laplacian_pinv(graph):
    """Pseudoinverse of the graph Laplacian via eigendecomposition.

    Eigenvalues below a relative cutoff are treated as zero; for a
    connected graph exactly one such eigenvalue exists.
    """
    L = laplacian(graph)
    w, V = np.linalg.eigh(L)
    cutoff = ZERO * max(w[-1], 1.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (V * inv) @ V.T


def edge_sum_adjoint(graph, v):
    """Skew edge matrix (1/2) A o (v 1' - 1 v') supported off the diagonal."""
    v = _static_gain(v).reshape(-1)
    off = graph.adjacency.copy()
    np.fill_diagonal(off, False)
    outer = np.outer(v, np.ones(graph.n)) - np.outer(np.ones(graph.n), v)
    return 0.5 * off * outer


def relative_decompose(k, graph):
    """Minimum-norm skew edge matrix M with M @ 1 = k.

    Parameters
    ----------
    k : array_like, shape (n,)
        A relative row gain (entries summing to zero), real or complex.
    graph : Graph
        Connected interaction graph carrying the allowed edges.

    Returns
    -------
    ndarray, shape (n, n)
        Skew-symmetric, zero outside graph edges, with row sums equal
        to k; the representation u = sum_{i<j} M_ij (y_i - y_j).
    """
    k = _static_gain(k).reshape(-1)
    if k.size != graph.n:
        raise ValueError("gain length must match the node count")
    require_connected(graph)
    if not negligible(k.sum(), k, ZERO):
        raise NotRelative(f"row sums to {k.sum():.3e}, not zero")
    w = 2.0 * (_laplacian_pinv(graph) @ k)
    return edge_sum_adjoint(graph, w)


@dataclass
class PairwiseDifferenceForm:
    """Edge-kernel representation of a relative rational gain.

    ``kernels[r]`` is an n x n grid of rational entries, skew-symmetric
    and supported on graph edges, so that output r equals
    sum_{i<j} kernels[r][i][j](s) (y_i - y_j).
    """

    graph: Graph
    kernels: list

    def to_json(self):
        items = []
        for r, grid in enumerate(self.kernels):
            for i in range(self.graph.n):
                for j in range(i + 1, self.graph.n):
                    if not grid[i][j].is_zero():
                        items.append(
                            {
                                "n": r,
                                "i": i,
                                "j": j,
                                "kernel": grid[i][j].to_json(),
                            }
                        )
        return {"nodes": self.graph.n, "terms": items}


def relative_decompose_rational(K, graph):
    """Pairwise-difference form of a relative rational gain matrix.

    Each row is brought over a common denominator; its numerator
    coefficients are decomposed through the static minimum-norm map by
    Laplacian-pseudoinverse products.  The edge kernels of all rows that
    share a common denominator, a numerator width and real or complex
    coefficients are built in one batch.  Cancellation runs only where a
    kernel's numerator may share a root with its row's common denominator.
    """
    require_connected(graph)
    m = K.shape[1]
    if m != graph.n:
        raise ValueError("gain column count must match the node count")
    rows = list(_row_coefficients(K))
    Lp = _laplacian_pinv(graph)
    off = graph.adjacency & ~np.eye(m, dtype=bool)
    grids, groups = [], {}
    for r, (common, coeffs) in enumerate(rows):
        # a complex gain keeps its imaginary parts; a real one is read as real
        coeffs = coeffs if np.any(coeffs.imag) else coeffs.real
        # one matrix-vector product per power: a single matrix-matrix
        # product sums in another order and changes the last bits
        V = 2.0 * np.stack([Lp @ c for c in coeffs.T], axis=-1)
        num_grid = 0.5 * off[:, :, None] * (V[:, None] - V[None, :])
        grids.append(num_grid)
        groups.setdefault((common.tobytes(), num_grid.shape[-1], num_grid.dtype), []).append(r)
    kernels = [None] * len(rows)
    for members in groups.values():
        common, nums = rows[members[0]][0], np.stack([grids[r] for r in members])
        grid = entry_array(nums, common)
        live = _cancellable_rows(nums, common) & ~pis_zero(nums)
        for k, i, j in zip(*np.nonzero(live)):
            grid[k, i, j] = RationalEntry(*cancel_common_factors(nums[k, i, j], common))
        for r, kernel in zip(members, grid.tolist()):
            kernels[r] = kernel
    return PairwiseDifferenceForm(graph, kernels)
