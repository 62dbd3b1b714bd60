"""Sparsity structure of matrices, transfer matrices and realizations.

A matrix conforms to a pattern when every block sitting on a non-edge of
the pattern graph vanishes.  A realization (A, B, C, D) is structured
when all four matrices conform; it is additionally network-realizable
when the input side (B, D) or the output side (C, D) is block diagonal,
so each node only touches its own inputs or outputs directly.

A transfer entry's zero is decided on the realization, in three stages
in order (``_column_supports``): a structural zero, where no state C_i
reads is reachable from B_j in the graph of A (exact: no tolerance); a
Markov witness, a Markov parameter C_i A^k B_j large against its factors
(WITNESS), which proves the entry nonzero; and, for the entries neither
decides, the Krylov test on the reachable subspace of B_j (MATCH).  Only
the first two run on sparse data: neighbour index arrays of A and C.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotTFStructured
from .graphs import (
    EXPANSION_BLOCK_ELEMENTS,
    Partition,
    StructurePattern,
    _pulls,
    _reads_any,
    path_graph,
)
from .statespace import StateSpace, _column_subspaces, realize_rational
from .tolerances import EXACT, MATCH, WITNESS, ZERO


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
    maxima = np.abs(matrix)
    # blocks of size one are their own maxima
    if any(size != 1 for size in row_part.block_sizes):
        maxima = np.maximum.reduceat(maxima, np.asarray(row_part.offsets()[:-1])[rows], axis=0)
    if any(size != 1 for size in col_part.block_sizes):
        maxima = np.maximum.reduceat(maxima, np.asarray(col_part.offsets()[:-1])[cols], axis=1)
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


# Markov parameters C A^k B tried as witnesses, k = 0, ..., MARKOV_STEPS
MARKOV_STEPS = 8


def _sparse(M):
    """The nonzero entries of M as neighbour index arrays and their values."""
    nonzero = M != 0
    return _pulls(nonzero), M[nonzero]


def _times(pulls, values, X, n_rows):
    """M @ X for M given by ``_sparse``: one gather and one sum per row."""
    rows, starts, cols = pulls
    out = np.zeros((n_rows, X.shape[1]))
    if cols.size:
        out[rows] = np.add.reduceat(values[:, None] * X[cols], starts, axis=0)
    return out


def _row_reduce(ufunc, pulls, values, n_rows):
    """ufunc over the entries of every row of a ``_sparse`` matrix; zero for an empty row."""
    rows, starts, _ = pulls
    out = np.zeros(n_rows)
    if values.size:
        out[rows] = ufunc.reduceat(values, starts)
    return out


def _certificates(start, todo, B, a, c, bar, a_bound):
    """Structural zeros and Markov witnesses for one batch of input columns.

    ``a`` and ``c`` are A and C as ``_sparse`` gives them, and ``bar`` the
    witness threshold of each entry at k = 0.  Yields (start, mask) for the
    entries of ``todo`` each Markov parameter proves nonzero, and returns
    the entries neither certificate decides.  One level of the expansion
    goes with each Markov parameter, so a caller that stops at the first
    witness never waits for the expansion to close.
    """
    (a_pulls, a_values), (c_pulls, c_values) = a, c
    n, p = B.shape[0], todo.shape[0]
    reach = frontier = (B != 0) & todo.any(axis=0)
    V = B
    for k in itertools.count():
        if frontier is not None:
            frontier = _reads_any(a_pulls, frontier, n) & ~reach
            reach |= frontier
            if not frontier.any():
                # closed: an entry whose C_i reads no reached state is zero
                frontier = None
                todo = todo & _reads_any(c_pulls, reach, p)
        if k <= MARKOV_STEPS and todo.any():
            found = todo & (np.abs(_times(c_pulls, c_values, V, p)) > bar)
            if found.any():
                todo = todo & ~found
                yield start, found
            if k < MARKOV_STEPS:
                V, bar = _times(a_pulls, a_values, V, n), bar * a_bound
        if not todo.any() or (frontier is None and k >= MARKOV_STEPS):
            return todo


def _column_supports(sys, widths, wanted=None):
    """Transfer entries proved nonzero, for groups of input columns in turn.

    The groups take their sizes from ``widths`` in turn, and each is split
    into batches of bounded memory.  Yields (lo, mask) pairs: row i of the
    (p, w) mask marks the entries from inputs lo, ..., lo + w - 1 to output
    i that one stage has just proved nonzero, so a batch may be yielded
    several times and the support is the union.  Only the entries of the
    (p, m) mask ``wanted`` (default: all) are decided.  The stages, in turn:

    - Feedthrough: D_ij is nonzero at size ZERO.  A zero input column (at
      size ZERO) has no other entries.
    - Structural zero: with D_ij = 0, the entry is exactly zero when no
      state C_i reads is reachable from B_j in the graph of A (Lin, IEEE
      TAC 19(3), 1974): a breadth-first expansion over neighbour index
      arrays, with no tolerance.
    - Markov witness: the entry is nonzero when |C_i A^k B_j| exceeds
      WITNESS times sqrt(n) max(|C_i|, 1) ||A||^k |B_j| for some
      k <= MARKOV_STEPS, where ||A|| = sqrt(||A||_1 ||A||_inf) bounds the
      spectral norms of A and |A|.
    - Krylov: the entries left (zeros of hidden modes, entries beyond
      MARKOV_STEPS) are nonzero when C_i Q exceeds MATCH times the largest
      entry (at least one) of row C_i on the reachable subspace of B_j,
      grown in one ``_column_subspaces`` pass.

    Judged per entry and per row, a verdict does not move when one input
    or output is scaled, and a certificate never moves the Krylov verdict.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, p, m = sys.n_states, sys.n_outputs, sys.n_inputs
    if wanted is None:
        wanted = np.ones((p, m), dtype=bool)
    a, c = _sparse(A), _sparse(C)
    magnitudes = np.abs(a[1])
    rows = _row_reduce(np.add, a[0], magnitudes, n)
    columns = np.bincount(a[0][2], magnitudes, minlength=n)
    a_bound = np.sqrt(rows.max(initial=0.0) * columns.max(initial=0.0))
    c_bar = WITNESS * np.sqrt(n) * np.maximum(np.sqrt(_row_reduce(np.add, c[0], c[1] ** 2, p)), 1.0)
    c_tol = MATCH * np.maximum(_row_reduce(np.maximum, c[0], np.abs(c[1]), p), 1.0)
    a_norm = None
    batch = max(1, EXPANSION_BLOCK_ELEMENTS // max(a[1].size, c[1].size, n, 1))
    lo = 0
    for width in widths:
        if lo >= m:
            return
        for start in range(lo, min(lo + width, m), batch):
            cols = slice(start, min(start + batch, lo + width, m))
            Db, Bb = D[:, cols], B[:, cols]
            out = ((Db > ZERO) | (Db < -ZERO)) & wanted[:, cols]
            if out.any():
                yield start, out
            todo = wanted[:, cols] & ~out & (_largest_magnitude(Bb, 0) > ZERO)
            if not todo.any():
                continue
            bar = c_bar[:, None] * np.sqrt(np.einsum("ij,ij->j", Bb, Bb))
            todo = yield from _certificates(start, todo, Bb, a, c, bar, a_bound)
            if not todo.any():
                continue
            if a_norm is None:
                a_norm = np.linalg.norm(A)
            open_cols = np.flatnonzero(todo.any(axis=0))
            found = np.zeros_like(todo)
            for group, Q in _column_subspaces(A, Bb[:, open_cols], a_norm=a_norm):
                # C Q of every column in the group as one product
                g, k = Q.shape[0], Q.shape[2]
                CQ = np.abs(C @ Q.transpose(1, 0, 2).reshape(n, g * k)).reshape(p, g, k)
                found[:, open_cols[group]] = np.max(CQ, axis=2, initial=0.0) > c_tol[:, None]
            yield start, found & todo
        lo += width


def transfer_support(sys):
    """Nonzero pattern of the transfer matrix C (sI - A)^-1 B + D.

    Returns a boolean (p, m) array, True where the entry is not the zero
    function.  Decided from the realization alone, nothing converted to
    rational form, by the stages of ``_column_supports``: the feedthrough,
    then a structural zero (no path from B_j to C_i in the graph of A; no
    tolerance), then a Markov witness C_i A^k B_j (WITNESS), and only for
    what is left the Krylov test: the entry vanishes exactly when D_ij = 0
    and C_i annihilates the reachable subspace of B_j (MATCH), as in the
    staircase form of Van Dooren (IEEE TAC 26(1), 1981).  Every stage works
    on batches of input columns of bounded memory.
    """
    support = np.zeros(sys.shape, dtype=bool)
    for lo, mask in _column_supports(sys, (sys.n_inputs,)):
        support[:, lo : lo + mask.shape[1]] |= mask
    return support


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

    H is a RationalMatrix or a StateSpace; a realization is judged by the
    stages of ``transfer_support`` on its off-pattern entries alone, and
    never converted to rational form.
    """
    row_part, col_part = _transfer_partitions(H)
    if (
        row_part.block_sizes != pattern.row_partition.block_sizes
        or col_part.block_sizes != pattern.col_partition.block_sizes
    ):
        raise ValueError("transfer matrix partitions do not match the pattern")
    allowed = _entry_pattern(pattern)
    if isinstance(H, StateSpace):
        # only off-pattern entries are decided, in groups of 1, 2, 4, ...
        # columns: the first one proved nonzero settles it, and a conforming
        # map takes about log2(m) groups
        doubling = (1 << k for k in itertools.count())
        return not any(mask.any() for _, mask in _column_supports(H, doubling, ~allowed))
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
