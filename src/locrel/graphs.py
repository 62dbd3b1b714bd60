"""Undirected interaction graphs and block-sparsity patterns.

A graph here always carries self-loops: node dynamics may depend on the
node's own state, so the diagonal of the adjacency matrix is forced to
True.  Sparsity patterns pair a graph with row/column block partitions so
that matrix-level structure checks can work block-wise.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraph


def _integer(value, name):
    """A count read from a document as an int; a bool, 3.9 or "3" raises ValueError."""
    if type(value) is int:
        # the common case, without the slower abstract-base-class check
        return value
    whole = isinstance(value, float) and value.is_integer()
    if whole or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise ValueError(f"{name} must be an integer, not {value!r}")


class Graph:
    """Undirected graph on n nodes with mandatory self-loops.

    Parameters
    ----------
    adjacency : array_like of bool, shape (n, n)
        Symmetric adjacency indicator.  The diagonal is forced to True.
    """

    def __init__(self, adjacency):
        adj = np.asarray(adjacency, dtype=bool).copy()
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        np.fill_diagonal(adj, True)
        adj.setflags(write=False)
        self.adjacency = adj
        self.n = adj.shape[0]

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(
            self.adjacency, other.adjacency
        )

    def __repr__(self):
        return f"Graph(n={self.n}, edges={int(np.count_nonzero(self.adjacency))})"


@dataclass(frozen=True)
class Partition:
    """Ordered block sizes of a vector dimension.  Zero-size blocks allowed."""

    block_sizes: tuple

    def __post_init__(self):
        sizes = tuple(_integer(s, "a block size") for s in self.block_sizes)
        if len(sizes) == 0:
            raise ValueError("a partition needs at least one block")
        if any(s < 0 for s in sizes):
            raise ValueError("block sizes must be nonnegative")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def total(self):
        return sum(self.block_sizes)

    @property
    def n_blocks(self):
        return len(self.block_sizes)

    def offsets(self):
        """Start index of every block plus the final end index."""
        out = [0]
        for s in self.block_sizes:
            out.append(out[-1] + s)
        return out

    def block_slice(self, i):
        off = self.offsets()
        return slice(off[i], off[i + 1])

    @staticmethod
    def scalar(n):
        """n blocks of size one."""
        return Partition((1,) * n)


@dataclass(frozen=True)
class StructurePattern:
    """Graph-induced block-sparsity pattern for matrices.

    Block (i, j) of a conforming matrix may be nonzero only when (i, j)
    is an edge of ``graph`` (self-loops make the diagonal always allowed).
    """

    graph: Graph
    row_partition: Partition
    col_partition: Partition

    def __post_init__(self):
        if self.row_partition.n_blocks != self.graph.n:
            raise ValueError("row partition must have one block per node")
        if self.col_partition.n_blocks != self.graph.n:
            raise ValueError("column partition must have one block per node")

    @staticmethod
    def scalar(graph):
        p = Partition.scalar(graph.n)
        return StructurePattern(graph, p, p)


# Elements of the neighbour block one reachability step gathers: a batch of
# w columns over a pattern of e entries gathers e * w of them.
EXPANSION_BLOCK_ELEMENTS = 1 << 20


def _pulls(pattern):
    """The entries of a boolean (p, n) pattern as neighbour index arrays.

    Returns (rows, starts, cols): ``rows`` are the rows holding an entry,
    and the entries of rows[k] sit in ``cols`` from starts[k] up to the next
    start, in row-major order as ``np.nonzero`` lists them.
    """
    r, cols = np.nonzero(pattern)
    rows, starts = np.unique(r, return_index=True)
    return rows, starts, cols


def _reads_any(pulls, X, n_rows):
    """(n_rows, w) mask: True where some column index of the row holds in X.

    One step of a breadth-first expansion for every column of X at once:
    with the pattern of A (row i reads column l when A_il is nonzero), the
    states one step on from the marked states.  An empty row reads nothing.
    """
    rows, starts, cols = pulls
    out = np.zeros((n_rows, X.shape[1]), dtype=bool)
    if cols.size:
        out[rows] = np.logical_or.reduceat(X[cols], starts, axis=0)
    return out


def b_hops(graph, b):
    """Graph whose edges join nodes at most b hops apart.

    A breadth-first expansion from every node, b steps over neighbour index
    arrays, in batches of columns of bounded memory; a batch stops early
    once a step reaches nothing new.  Because self-loops are mandatory the
    edge set grows monotonically with b.
    """
    if b < 0:
        raise ValueError("hop count must be nonnegative")
    n = graph.n
    pulls = _pulls(graph.adjacency)
    result = np.eye(n, dtype=bool)
    width = max(1, EXPANSION_BLOCK_ELEMENTS // pulls[2].size)
    for lo in range(0, n, width):
        reach = result[:, lo : lo + width]
        for _ in range(b):
            # self-loops keep every reached node reached
            grown = _reads_any(pulls, reach, n)
            if np.array_equal(grown, reach):
                break
            reach = grown
        result[:, lo : lo + width] = reach
    return Graph(result)


def is_connected(graph):
    """True when every node is reachable from node 0: the expansion of ``b_hops`` from one node."""
    pulls = _pulls(graph.adjacency)
    reach = np.zeros((graph.n, 1), dtype=bool)
    reach[0] = True
    while True:
        grown = _reads_any(pulls, reach, graph.n)
        if np.array_equal(grown, reach):
            return bool(reach.all())
        reach = grown


def laplacian(graph):
    """Combinatorial Laplacian using off-diagonal degrees.

    Self-loops do not contribute, so L @ ones(n) == 0 holds exactly in
    floating point.
    """
    off = graph.adjacency.copy()
    np.fill_diagonal(off, False)
    deg = off.sum(axis=1)
    return np.diag(deg.astype(float)) - off.astype(float)


def require_connected(graph):
    if not is_connected(graph):
        raise DisconnectedGraph("graph must be connected")


def ring_graph(n):
    """Cycle on n >= 3 nodes (plus self-loops)."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    adj = np.eye(n, dtype=bool)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = True
    adj[(idx + 1) % n, idx] = True
    return Graph(adj)


def path_graph(n):
    """Line graph on n >= 1 nodes (plus self-loops)."""
    if n < 1:
        raise ValueError("a path needs at least 1 node")
    adj = np.eye(n, dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = True
        adj[i + 1, i] = True
    return Graph(adj)


def torus_graph(n, d):
    """d-dimensional discrete torus with n >= 3 points per axis.

    Nodes are multi-indices in row-major order; two nodes are adjacent
    when they differ by +-1 (cyclically) in exactly one coordinate.
    """
    if n < 3:
        raise ValueError("a torus needs at least 3 points per axis")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    size = n**d
    adj = np.eye(size, dtype=bool)
    strides = [n ** (d - 1 - k) for k in range(d)]

    def flat(index):
        return sum(c * s for c, s in zip(index, strides))

    for node in range(size):
        index = []
        rem = node
        for s in strides:
            index.append(rem // s)
            rem %= s
        for axis in range(d):
            for step in (-1, 1):
                other = list(index)
                other[axis] = (other[axis] + step) % n
                adj[node, flat(other)] = True
    return Graph(adj)


def graph_to_json(graph):
    """Serialize as {"n": ..., "edges": [[i, j], ...]} without self-loops."""
    edges = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if graph.adjacency[i, j]:
                edges.append([i, j])
    return {"n": graph.n, "edges": edges}


def graph_from_json(data):
    """Parse the {"n", "edges"} format: n >= 1, edges as node pairs, duplicates tolerated."""
    if isinstance(data, str):
        data = json.loads(data)
    n = _integer(data["n"], "n")
    if n < 1:
        raise ValueError(f"a graph needs at least 1 node, not n={n}")
    adj = np.eye(n, dtype=bool)
    for edge in data.get("edges", []):
        if np.shape(edge) != (2,):
            raise ValueError(f"edge {edge!r} is not a pair of nodes")
        i, j = (_integer(node, "a node") for node in edge)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        adj[i, j] = True
        adj[j, i] = True
    return Graph(adj)
