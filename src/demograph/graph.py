"""Immutable undirected graphs over interned node names.

Edges come from whitespace-separated text files (``<src><TAB><dst>`` per
line, ``#`` comments allowed).  Node names are interned to dense indices in
order of first appearance, self-loops and duplicate edges are dropped, and
adjacency is stored in compressed sparse row form: an offset array plus one
flat neighbor array sorted within each row.  A loaded graph is therefore
fully determined by the input file.

``DirectedEdges`` keeps the raw follow direction; it feeds sentence
generation and the out-degree activity filter, both of which need the
directed view that the undirected ``Graph`` deliberately discards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EdgeListParseError, EmptyGraphError, ValidationError

__all__ = [
    "DirectedEdges",
    "Graph",
    "load_directed_edges",
    "load_edge_list",
    "write_edge_list",
    "write_node_map",
]


def _csr_from_arcs(n: int, src: np.ndarray, dst: np.ndarray):
    """Deduplicate directed arcs by sorting their keys (faster than the hash
    path ``np.unique`` takes in numpy 2.x) and pack them into CSR arrays."""
    if len(src) == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    keys = src * np.int64(n)
    keys += dst
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    keys = keys[fresh]
    # Row v holds the keys in [v*n, (v+1)*n).
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr, keys % n


@dataclass
class Graph:
    """Undirected graph in CSR form.

    ``names[i]`` is the external name of dense index ``i``; ``indices``
    holds every directed arc (each undirected edge appears twice), grouped
    by source via ``indptr`` and sorted within each group.  Instances are
    immutable after construction and safe to share across workers.
    """

    names: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)
    _arc_sources: np.ndarray | None = field(default=None, init=False, repr=False)
    _adjacency: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ValidationError("duplicate node names in interning table")
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @classmethod
    def build(cls, names: Sequence[str],
              pairs: Sequence[tuple[int, int]] | np.ndarray,
              mirror: bool = True) -> "Graph":
        """Build a graph from index pairs (a sequence or an ``(m, 2)`` array).

        Self-loops and duplicates are dropped.  With ``mirror`` the reverse
        of every pair is added; otherwise the pair set must already be
        symmetric and a ``ValidationError`` is raised if it is not.
        """
        n = len(names)
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValidationError("edge endpoint out of range")
        arr = arr[arr[:, 0] != arr[:, 1]]
        if mirror:
            arr = np.concatenate([arr, arr[:, ::-1]]) if arr.size else arr
        indptr, indices = _csr_from_arcs(n, arr[:, 0], arr[:, 1])
        g = cls(list(names), indptr, indices)
        if not mirror:
            rev_ptr, rev_idx = _csr_from_arcs(n, arr[:, 1], arr[:, 0])
            if not (np.array_equal(indptr, rev_ptr)
                    and np.array_equal(indices, rev_idx)):
                raise ValidationError(
                    "edge list is not symmetric; load with symmetrize=True")
        return g

    @property
    def node_count(self) -> int:
        return len(self.names)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def arc_sources(self) -> np.ndarray:
        """Source index of every stored arc, aligned with ``indices``."""
        if self._arc_sources is None:
            src = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)
            src.setflags(write=False)
            self._arc_sources = src
        return self._arc_sources

    @property
    def adjacency(self):
        """The 0/1 adjacency matrix as a ``scipy.sparse.csr_array``.

        Built on first use over this graph's CSR arrays and cached.  scipy
        is imported here, not at module level, so that runs which never
        propagate do not pay for loading it.  Threads that ask for it at
        the same time may each build it; the operators are equal, and the
        one kept last serves every later call.
        """
        if self._adjacency is None:
            from scipy.sparse import csr_array
            n = self.node_count
            self._adjacency = csr_array(
                (np.ones(len(self.indices)), self.indices, self.indptr),
                shape=(n, n))
        return self._adjacency

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of ``v`` (an O(1) CSR slice)."""
        if not 0 <= v < self.node_count:
            raise IndexError(f"node index {v} out of range [0, {self.node_count})")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def index_of(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index


@dataclass
class DirectedEdges:
    """Raw directed follow relation, deduplicated, self-loops dropped."""

    names: list[str]
    out_indptr: np.ndarray
    out_indices: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.names)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[v]:self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[v]:self.in_indptr[v + 1]]


def _read_rows(path, width: int, sep: str | None = None):
    """Yield ``(line_no, tokens)`` for every line of a tab file (edges,
    seeds, labels, node vectors) that is not blank or a ``#`` comment.

    Tokens are split on ``sep`` (any whitespace by default); a line with
    other than ``width`` tokens raises ``EdgeListParseError`` (``path:line``).
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split(sep)
            if len(tokens) != width:
                raise EdgeListParseError(
                    path, line_no, f"expected {width} tokens, got {len(tokens)}")
            yield line_no, tokens


def _read_arcs(path) -> tuple[list[str], np.ndarray]:
    """Parse an edge-list file into names and an int64 ``(m, 2)`` arc array.

    Names are numbered in order of first appearance, source first.
    """
    index: dict[str, int] = {}
    ids = np.fromiter((index.setdefault(token, len(index))
                       for _, pair in _read_rows(path, 2) for token in pair),
                      dtype=np.int64)
    if not index:
        raise EmptyGraphError(f"no edges found in {path}")
    return list(index), ids.reshape(-1, 2)


def _filter_min_degree(names: list[str], arcs: np.ndarray, min_degree: int):
    """Keep the arcs between nodes with at least ``min_degree`` distinct
    non-self follow targets; the kept nodes are numbered again in order of
    first appearance."""
    loop = arcs[:, 0] == arcs[:, 1]
    out_ptr, _ = _csr_from_arcs(len(names), arcs[~loop, 0], arcs[~loop, 1])
    kept = np.diff(out_ptr) >= min_degree
    arcs = arcs[kept[arcs[:, 0]] & kept[arcs[:, 1]]]
    nodes, first, inverse = np.unique(arcs, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)  # the kept nodes by first appearance
    renumbered = np.argsort(order)[inverse].reshape(-1, 2)
    return [names[i] for i in nodes[order]], renumbered


def load_edge_list(path, min_degree: int = 0, symmetrize: bool = True) -> Graph:
    """Load an undirected graph from a directed edge-list file.

    ``min_degree`` drops nodes whose raw out-degree (count of distinct
    non-self follow targets) is below the threshold, together with all
    their incident edges, before the graph is made undirected.  Nodes that
    appear only as targets have out-degree 0 and are dropped whenever the
    filter is on.

    With ``symmetrize`` (the default) the reverse of every surviving edge
    is added; ``symmetrize=False`` expects a file that already lists both
    directions and fails if it does not.
    """
    if min_degree < 0:
        raise ValidationError(f"min_degree must be >= 0, got {min_degree}")
    names, arcs = _read_arcs(path)
    if min_degree > 0:
        names, arcs = _filter_min_degree(names, arcs, min_degree)
        if not len(arcs):
            raise EmptyGraphError(
                f"min_degree={min_degree} filter removed every edge of {path}")
    return Graph.build(names, arcs, mirror=symmetrize)


def load_directed_edges(path) -> DirectedEdges:
    """Load the raw directed follow relation from an edge-list file."""
    names, arcs = _read_arcs(path)
    arcs = arcs[arcs[:, 0] != arcs[:, 1]]
    out_ptr, out_idx = _csr_from_arcs(len(names), arcs[:, 0], arcs[:, 1])
    in_ptr, in_idx = _csr_from_arcs(len(names), arcs[:, 1], arcs[:, 0])
    return DirectedEdges(names, out_ptr, out_idx, in_ptr, in_idx)


def write_edge_list(g: Graph, path) -> None:
    """Write each undirected edge once, ordered by dense index pair."""
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(g.node_count):
            for v in g.neighbors(u):
                if v > u:
                    fh.write(f"{g.names[u]}\t{g.names[v]}\n")


def write_node_map(g: Graph, path) -> None:
    """Write the interning table, one ``<dense-index><TAB><name>`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, name in enumerate(g.names):
            fh.write(f"{i}\t{name}\n")
