"""Sparsity structure of matrices, transfer matrices and realizations.

A matrix conforms to a pattern when every block sitting on a non-edge of
the pattern graph vanishes.  A realization (A, B, C, D) is structured
when all four matrices conform; it is additionally network-realizable
when the input side (B, D) or the output side (C, D) is block diagonal,
so each node only touches its own inputs or outputs directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotTFStructured
from .graphs import Partition, StructurePattern, path_graph
from .statespace import StateSpace, _column_subspaces, realize_rational
from .tolerances import EXACT, MATCH, ZERO


def _block_maxima(matrix, row_part, col_part):
    """Largest absolute entry of every block; zero for empty blocks.

    ``np.maximum.reduceat`` reads an empty segment as the single entry at
    its start, so only the starts of nonempty blocks are passed to it.
    """
    if matrix.shape != (row_part.total, col_part.total):
        raise ValueError(
            f"matrix of shape {matrix.shape} does not match partitions of "
            f"{row_part.total} rows and {col_part.total} columns"
        )
    out = np.zeros((row_part.n_blocks, col_part.n_blocks))
    rows = np.asarray(row_part.block_sizes) > 0
    cols = np.asarray(col_part.block_sizes) > 0
    if matrix.size == 0:
        return out
    maxima = np.maximum.reduceat(
        np.abs(matrix), np.asarray(row_part.offsets()[:-1])[rows], axis=0
    )
    maxima = np.maximum.reduceat(
        maxima, np.asarray(col_part.offsets()[:-1])[cols], axis=1
    )
    out[np.ix_(rows, cols)] = maxima
    return out


def _live_blocks(matrix, row_part, col_part):
    """Mask of the blocks whose largest entry exceeds EXACT * max(|M|, 1)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    maxima = _block_maxima(matrix, row_part, col_part)
    scale = max(np.max(np.abs(matrix)) if matrix.size else 0.0, 1.0)
    return maxima > EXACT * scale


def is_graph_structured(matrix, pattern):
    """True when every non-edge block of the matrix is (numerically) zero."""
    live = _live_blocks(matrix, pattern.row_partition, pattern.col_partition)
    return not np.any(live & ~pattern.graph.adjacency)


def _largest_magnitude(M, axis):
    """max |M| along an axis, zero where empty, with no |M| temporary."""
    return np.maximum(M.max(axis=axis, initial=0.0), -M.min(axis=axis, initial=0.0))


def _column_supports(sys, widths):
    """Supports of consecutive groups of input columns, as (lo, mask) pairs.

    The groups take their sizes from ``widths`` in turn and start at column
    lo; row j of the (width, p) mask holds the outputs whose transfer entry
    from input lo + j is not the zero function.  The reachable subspaces of
    each group grow together in one ``_column_subspaces`` pass.

    A feedthrough D_ij or an input column B_j is zero at size ZERO, and a
    response C_i Q at MATCH times the largest entry (at least one) of row
    C_i: judged per entry and per row, a verdict does not move when one
    input or output is scaled.
    """
    A, C = sys.A, sys.C
    a_norm = np.linalg.norm(A)
    c_tol = MATCH * np.maximum(_largest_magnitude(C, 1), 1.0)
    n, p = sys.n_states, sys.n_outputs
    lo = 0
    for width in widths:
        if lo >= sys.n_inputs:
            return
        D, B = sys.D[:, lo : lo + width], sys.B[:, lo : lo + width]
        out = ((D > ZERO) | (D < -ZERO)).T
        live = np.flatnonzero(_largest_magnitude(B, 0) > ZERO)
        if live.size:
            # no copy of B when every column is live
            V = B if live.size == B.shape[1] else B[:, live]
            for group, Q in _column_subspaces(A, V, a_norm=a_norm):
                # C Q of every column in the group as one product
                g, k = Q.shape[0], Q.shape[2]
                CQ = np.abs(C @ Q.transpose(1, 0, 2).reshape(n, g * k)).reshape(p, g, k)
                out[live[group]] |= (np.max(CQ, axis=2, initial=0.0) > c_tol[:, None]).T
        yield lo, out
        lo += width


def transfer_support(sys):
    """Nonzero pattern of the transfer matrix C (sI - A)^-1 B + D.

    Returns a boolean (p, m) array, True where the entry is not the zero
    function: entry (i, j) vanishes exactly when D_ij = 0 and C_i
    annihilates the reachable (Krylov) subspace of column B_j, as in the
    staircase form of Van Dooren (IEEE TAC 26(1), 1981).  Decided from the
    realization alone; nothing is converted to rational form.  The
    subspaces of all input columns grow in one batched pass
    (``statespace._column_subspaces``), in blocks of bounded memory.
    """
    masks = [mask for _, mask in _column_supports(sys, (sys.n_inputs,))]
    return (masks[0] if masks else np.zeros((0, sys.n_outputs), dtype=bool)).T


def _transfer_partitions(H):
    if isinstance(H, StateSpace):
        p, m = H.shape
        row = H.out_partition or Partition.scalar(p)
        col = H.in_partition or Partition.scalar(m)
        if row.total != p or col.total != m:
            raise ValueError("system partitions do not match its dimensions")
        return row, col
    return H.row_partition, H.col_partition


def _entry_pattern(pattern):
    """(p, m) mask of the transfer entries that sit on pattern edges."""
    adj = pattern.graph.adjacency
    nodes = np.arange(adj.shape[0])
    rows = np.repeat(nodes, pattern.row_partition.block_sizes)
    cols = np.repeat(nodes, pattern.col_partition.block_sizes)
    return adj[np.ix_(rows, cols)]


def is_tf_structured(H, pattern):
    """True when every non-edge block of a transfer matrix is the zero entry.

    H is a RationalMatrix or a StateSpace; a realization is judged by
    ``transfer_support`` and never converted to rational form.
    """
    row_part, col_part = _transfer_partitions(H)
    if (
        row_part.block_sizes != pattern.row_partition.block_sizes
        or col_part.block_sizes != pattern.col_partition.block_sizes
    ):
        raise ValueError("transfer matrix partitions do not match the pattern")
    allowed = _entry_pattern(pattern)
    if isinstance(H, StateSpace):
        # groups of 1, 2, 4, ... columns: the first off-pattern response
        # settles it, and a conforming map takes about log2(m) passes
        doubling = (1 << k for k in itertools.count())
        return not any(
            np.any(mask & ~allowed.T[lo : lo + len(mask)])
            for lo, mask in _column_supports(H, doubling)
        )
    return all(H[i, j].is_zero() for i, j in zip(*np.nonzero(~allowed)))


@dataclass(frozen=True)
class RealizationStructure:
    """Outcome of a realization structure check."""

    structured: bool
    network: bool
    input_side_diagonal: bool
    output_side_diagonal: bool


def check_realization_structure(sys, pattern):
    """Classify a realization against a pattern.

    The state partition of the system must have one block per node (the
    per-node state grouping); zero-size state blocks are fine.  So must its
    input and output partitions, which default to the pattern's.  Each
    matrix's mask of nonzero blocks is read once, by the pattern test and
    by the block-diagonal tests of the input and output sides.
    """
    n = pattern.graph.n
    sp = sys.state_partition
    if sp is None or sp.n_blocks != n:
        raise ValueError("system state partition must have one block per node")
    if sp.total != sys.n_states:
        raise ValueError("state partition does not sum to the state dimension")
    ip = sys.in_partition or pattern.col_partition
    op = sys.out_partition or pattern.row_partition
    if ip.n_blocks != n or op.n_blocks != n:
        raise ValueError("system input and output partitions must have one block per node")
    A, B, C, D = (
        _live_blocks(sys.A, sp, sp),
        _live_blocks(sys.B, sp, ip),
        _live_blocks(sys.C, op, sp),
        _live_blocks(sys.D, op, ip),
    )
    off_edge, off_diagonal = ~pattern.graph.adjacency, ~np.eye(n, dtype=bool)
    structured = not any(np.any(live & off_edge) for live in (A, B, C, D))
    in_diag = not (np.any(B & off_diagonal) or np.any(D & off_diagonal))
    out_diag = not (np.any(C & off_diagonal) or np.any(D & off_diagonal))
    network = structured and (in_diag or out_diag)
    return RealizationStructure(structured, network, in_diag, out_diag)


def build_structured_realization(H, pattern, orientation="rows"):
    """Realize a structured transfer matrix without breaking its sparsity.

    Every entry is realized in controllable canonical form; the states of
    a row (or column) are grouped on that row's (column's) node.  With
    ``rows`` the resulting A and C are block diagonal and B, D inherit
    the pattern sparsity; ``columns`` swaps the roles of B and C.

    Raises
    ------
    NotTFStructured
        If some non-edge entry of H is nonzero.
    ImproperEntry
        If an entry has more zeros than poles.
    """
    if not is_tf_structured(H, pattern):
        raise NotTFStructured(
            "transfer matrix has a nonzero entry outside the pattern edges"
        )
    sys = realize_rational(H, orientation)
    return sys


@dataclass(frozen=True)
class TridiagCounterexample:
    """A sparse chain realization together with its dense-transfer verdict."""

    system: StateSpace
    pattern: StructurePattern
    tf_structured: bool


def tridiag_counterexample(n=3):
    """Chain system whose transfer matrix is dense despite a sparse realization.

    The realization A = tridiag(1, -2, 1), B = C = I, D = 0 conforms to
    the chain pattern (and is network-realizable), but the resolvent
    (sI - A)^-1 fills in: information propagates through the chain, so
    ``tf_structured`` comes back False.
    """
    if n < 3:
        raise ValueError("the counterexample needs at least 3 nodes")
    A = np.zeros((n, n))
    np.fill_diagonal(A, -2.0)
    idx = np.arange(n - 1)
    A[idx, idx + 1] = 1.0
    A[idx + 1, idx] = 1.0
    graph = path_graph(n)
    part = Partition.scalar(n)
    sys = StateSpace(
        A,
        np.eye(n),
        np.eye(n),
        np.zeros((n, n)),
        state_partition=part,
        in_partition=part,
        out_partition=part,
    )
    pattern = StructurePattern(graph, part, part)
    return TridiagCounterexample(sys, pattern, is_tf_structured(sys, pattern))
