"""Undirected interaction graphs, block-sparsity patterns, and document reading.

A graph here always carries self-loops: node dynamics may depend on the
node's own state, so the diagonal of the adjacency matrix is forced to
True.  Sparsity patterns pair a graph with row/column block partitions so
that matrix-level structure checks can work block-wise.

Every reader of a JSON document reads its values through the rules
``member``, ``count``, ``number``, ``array``, ``items`` and ``partition``.
A rule takes a value with its path, such as ``$.matrix.entries[1][2].num``,
and refuses a wrong one with a ``DocumentError`` that names the path.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DisconnectedGraph, DocumentError

_REQUIRED = object()


def member(doc, path, *keys, default=_REQUIRED):
    """(value, path) of the first of ``keys`` the object ``doc`` sets, null counting as unset.

    With none set, ``default`` stands in for the last key; with no default that is an error.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"{path} must be an object, not {doc!r}")
    key = next((key for key in keys if doc.get(key) is not None), None)
    if key is None and default is _REQUIRED:
        one = f"{path}.{keys[0]} is missing"
        raise DocumentError(one if len(keys) == 1 else f"{path} needs one of: {', '.join(keys)}")
    return (default, f"{path}.{keys[-1]}") if key is None else (doc[key], f"{path}.{key}")


def count(value, path):
    """An integer as an int; a bool, 3.9, "3" or a float past 2**53 (no exact count) is an error."""
    if type(value) is int:
        return value  # the common case, without the slower abstract-base-class check
    whole = isinstance(value, numbers.Integral) and type(value) is not bool
    if not (whole or isinstance(value, float) and value.is_integer() and abs(value) <= 2**53):
        raise DocumentError(f"{path} must be an integer, not {value!r}")
    return int(value)


def number(value, path):
    """A number as a float; a bool, a string or any other value is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DocumentError(f"{path} must be a number, not {value!r}")
    return float(value)


def array(value, path, dims):
    """A number, or rectangular nested lists of numbers at most ``dims`` deep, as a float array."""
    if not (isinstance(value, list) and dims):
        return np.array(number(value, path))
    whole = np.array(value, dtype=object)  # the common case at once, else a walk naming paths
    if whole.ndim <= dims and set(map(type, whole.flat)) <= {int, float}:
        return whole.astype(float)
    rows = [array(item, f"{path}[{i}]", dims - 1) for i, item in enumerate(value)]
    if len({row.shape for row in rows}) > 1:
        raise DocumentError(f"{path} must be a rectangular array, not {value!r}")
    return np.array(rows) if rows else np.zeros(0)


def items(value, path):
    """(item, path) of every item of a list."""
    if not isinstance(value, list):
        raise DocumentError(f"{path} must be a list, not {value!r}")
    return [(item, f"{path}[{i}]") for i, item in enumerate(value)]


def partition(doc, path, key):
    """A Partition from the block sizes the object ``doc`` lists at ``key``; None if unset."""
    value, path = member(doc, path, key, default=None)
    if value is None:
        return None
    if value == []:
        raise DocumentError(f"{path} must list at least one block size, not []")
    for size, at in items(value, path):
        if count(size, at) < 0:
            raise DocumentError(f"{at} must be a nonnegative integer, not {size!r}")
    return Partition(tuple(count(*size) for size in items(value, path)))


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
        sizes = tuple(count(s, "a block size") for s in self.block_sizes)
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
        return list(accumulate(self.block_sizes, initial=0))

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
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = True
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
    nodes = np.arange(n**d).reshape((n,) * d)
    adj = np.eye(n**d, dtype=bool)
    for axis in range(d):
        for step in (-1, 1):
            adj[nodes.ravel(), np.roll(nodes, -step, axis=axis).ravel()] = True
    return Graph(adj)


def graph_to_json(graph):
    """Serialize as {"n": ..., "edges": [[i, j], ...]} without self-loops."""
    edges = np.transpose(np.nonzero(np.triu(graph.adjacency, 1)))
    return {"n": graph.n, "edges": edges.tolist()}


def graph_from_json(data, path="$.graph"):
    """Parse the {"n", "edges"} format: n >= 1, edges as node pairs, duplicates tolerated."""
    n = count(*member(data, path, "n"))
    if n < 1:
        raise DocumentError(f"{path}.n must be at least 1, not {n}")
    adj = np.eye(n, dtype=bool)
    for edge in items(*member(data, path, "edges", default=[])):
        nodes = items(*edge)
        if len(nodes) != 2:
            raise DocumentError(f"{edge[1]} must be a pair of nodes, not {edge[0]!r}")
        i, j = (count(*node) for node in nodes)
        if not (0 <= i < n and 0 <= j < n):
            raise DocumentError(f"{edge[1]} must join nodes 0 to {n - 1}, not {edge[0]!r}")
        adj[i, j] = True
        adj[j, i] = True
    return Graph(adj)


def pattern_from_json(data, path="$.pattern"):
    """Parse {"graph", "rowPartition", "colPartition"}; a partition defaults to a node a block."""
    graph = graph_from_json(*member(data, path, "graph"))
    scalar = Partition.scalar(graph.n)
    row, col = (partition(data, path, key) or scalar for key in ("rowPartition", "colPartition"))
    return StructurePattern(graph, row, col)
