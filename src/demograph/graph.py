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

from contextlib import contextmanager
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


@contextmanager
def _open_text(path, newline=None):
    """Open ``path`` as UTF-8 text; a byte that is not UTF-8 raises
    ``ValidationError`` naming ``path:line``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:  # bytes split at \n, \r and \r\n only
            lines = fh.read().splitlines()
        line = next(i for i, raw in enumerate(lines, start=1)
                    if raw.decode("utf-8", "ignore").encode() != raw)
        raise ValidationError(f"{path}:{line}: not UTF-8 text") from exc


def _read_rows(path, width: int, sep: str | None = None):
    """Yield ``(line_no, tokens)`` for every line of a tab file (edges,
    seeds, labels, node vectors) that is not blank or a ``#`` comment.

    Tokens are split on ``sep`` (any whitespace by default); a line with
    other than ``width`` tokens raises ``EdgeListParseError`` (``path:line``).
    """
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split(sep)
            if len(tokens) != width:
                raise EdgeListParseError(
                    path, line_no, f"expected {width} tokens, got {len(tokens)}")
            yield line_no, tokens


# Byte kinds of the array edge parse: 0 sends the file to the line reader,
# 1 separates tokens, 2 ends a line, 3 is part of a token.
_BYTE_KIND = np.zeros(256, np.uint8)
_BYTE_KIND[0x21:0x7F] = 3
_BYTE_KIND[[ord("\t"), ord(" "), ord("\n"), ord("#")]] = [1, 1, 2, 0]
_BLOCK = 1 << 20
_ONES = np.uint64(2**64 - 1)


def _token_words(block: np.ndarray):
    """The uint64 word columns of a block of whole lines: word ``j`` of a
    token holds its bytes ``8j .. 8j+7``, zero-padded and big-endian, and
    is 0 past its end.  ``None`` if the block declines the array parse."""
    kind = _BYTE_KIND[block]
    if not kind.all():
        return None
    is_token = np.zeros(len(block) + 2, np.int8)
    is_token[1:-1] = kind == 3
    bounds = np.flatnonzero(np.diff(is_token))
    begin, size = bounds[0::2], bounds[1::2] - bounds[0::2]
    line = np.searchsorted(np.flatnonzero(kind == 2), begin)
    if (len(begin) % 2 or (line[0::2] != line[1::2]).any()
            or (line[2::2] == line[1:-1:2]).any()):
        return None
    # words[i] is the big-endian word of bytes i .. i+7 of the block.
    words = np.ndarray(len(block) + 1, ">u8",
                       np.append(block, np.zeros(8, np.uint8)), strides=(1,))
    cols = []
    for j in range(0, size.max(initial=0), 8):
        col = np.zeros(len(begin), np.uint64)
        rows = np.flatnonzero(size > j)
        keep = np.minimum(size[rows] - j, 8).astype(np.uint64)  # bytes left
        col[rows] = words[begin[rows] + j] & (_ONES << 8 * (8 - keep))
        cols.append(col)
    return cols


def _array_arcs(path):
    """``_read_arcs`` by array operations, or ``None`` for a file with a
    byte other than tab, space, newline and printable ASCII but ``#``, or
    with a non-blank line of other than two tokens.  Only the token words
    outlive each block of lines; a name longer than one word folds into
    one integer key through dense ranks."""
    with open(path, "rb") as fh:
        data = fh.read()
    blocks, start = [], 0
    while start < len(data):
        end = (len(data) if start + _BLOCK >= len(data)
               else data.rfind(b"\n", start, start + _BLOCK) + 1)
        if end <= start:
            end = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        cols = _token_words(np.frombuffer(data, np.uint8, end - start, start))
        if cols is None:
            return None
        if cols:
            blocks.append(cols)
        start = end
    del data
    if not blocks:
        return None
    cols = [np.concatenate([b[j] if j < len(b) else np.zeros_like(b[0])
                            for b in blocks])
            for j in range(max(map(len, blocks)))]
    del blocks
    key = cols[0]
    for col in cols[1:]:
        levels, word = np.unique(col, return_inverse=True)
        key = np.unique(key, return_inverse=True)[1] * len(levels) + word
    # Renumber by first appearance: sort the keys, find each name's first
    # token and give every token its name's rank.  Freeing the sorted keys
    # only here, and the ids taking the spent keys' buffer, keep the heap
    # from growing past the sort.
    perm = key.argsort()
    sorted_key = key[perm]
    starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    first = np.minimum.reduceat(perm, starts)
    order = np.argsort(first)
    packed = np.stack([col[first[order]] for col in cols], axis=1)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    del cols, sorted_key
    group = np.repeat(rank, np.diff(starts, append=len(perm)))
    arcs = key.view(np.int64)
    arcs[perm] = group
    del perm, group
    names = packed.astype(">u8").view(f"S{8 * packed.shape[1]}").ravel()
    return names.astype(str).tolist(), arcs.reshape(-1, 2)


def _read_arcs(path) -> tuple[list[str], np.ndarray]:
    """Parse an edge-list file into names and an int64 ``(m, 2)`` arc array.

    Names are numbered in order of first appearance, source first.  A file
    that ``_array_arcs`` declines goes through the line reader.
    """
    parsed = _array_arcs(path)
    if parsed is not None:
        return parsed
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
