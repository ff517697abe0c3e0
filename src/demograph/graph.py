"""Immutable undirected graphs over interned node names.

Edges come from whitespace-separated text files (``<src><TAB><dst>`` per
line, ``#`` comments allowed).  Node names are interned to dense indices in
order of first appearance and kept as one fixed-width array of their UTF-8
bytes (``name_array``); text is decoded only where a file is written.
Self-loops and duplicate edges are dropped, and adjacency is stored in
compressed sparse row form: an offset array plus one flat neighbor array
sorted within each row.  A loaded graph is therefore fully determined by
the input file.

Every CSR is packed from one int64 buffer of ``src * n + dst`` arc keys,
sorted in place, and no copy of the pair array is made.  A traced ingest
peaks in the parse's renumbering, at about 54 bytes per file arc on a
100k-node graph of 800k arcs, whose int32 CSR keeps 8.5.

``DirectedEdges`` keeps the raw follow direction as a plain arc list
that the undirected ``Graph`` discards; sentence generation builds the
one CSR view it reads from those arcs.
"""

from __future__ import annotations

import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Sequence

import numpy as np

from .errors import EdgeListParseError, EmptyGraphError, ValidationError

__all__ = [
    "DirectedEdges",
    "Graph",
    "load_directed_edges",
    "load_edge_list",
    "name_array",
    "row_indices",
    "texts",
    "write_edge_list",
    "write_node_map",
]

logger = logging.getLogger(__name__)


def _arc_keys(n: int, arcs: np.ndarray, mirror: bool = False) -> np.ndarray:
    """The int64 key ``src * n + dst`` of each row of the ``(m, 2)``
    ``arcs`` and, with ``mirror``, of each reversed row after them, in one
    buffer and with no copy of the pairs; a self-loop's keys are -1."""
    keys = np.empty((1 + mirror, len(arcs)), dtype=np.int64)
    loop = arcs[:, 0] == arcs[:, 1]
    for half, (a, b) in zip(keys, [(0, 1), (1, 0)]):
        np.multiply(arcs[:, a], np.int64(n), out=half)
        half += arcs[:, b]
        half[loop] = -1
    return keys.ravel()


def _csr_from_keys(n: int, keys: np.ndarray):
    """Sort the ``_arc_keys`` in place (faster than the hash path
    ``np.unique`` takes in numpy 2.x), drop repeats and self-loops, and
    pack the rest into CSR arrays, both int32 when every node index and
    arc offset fits, else int64."""
    keys.sort()
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = keys[:1] >= 0  # the -1 keys of self-loops sort first
    fresh[1:] = keys[1:] != keys[:-1]
    keys = keys[fresh]
    dtype = np.int32 if max(n, len(keys)) < 2**31 else np.int64
    # Row v holds the keys in [v*n, (v+1)*n).
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return indptr.astype(dtype), keys.astype(dtype, copy=False)


def name_array(names) -> np.ndarray:
    """``names`` (text or bytes) as one fixed-width ``S`` array of their
    UTF-8 bytes; an ``S`` array is taken as it is.  ``S`` drops trailing NUL
    bytes, so a name that ends in one raises ``ValidationError``."""
    if isinstance(names, np.ndarray) and names.dtype.kind == "S":
        return names
    encoded = [n.encode() if isinstance(n, str) else bytes(n) for n in names]
    if any(b.endswith(b"\0") for b in encoded):
        raise ValidationError("a name ends in a NUL byte")
    return np.array(encoded, dtype=bytes)


def texts(names) -> list[str]:
    """``names`` as text, for writing: a ``name_array`` decoded from its
    UTF-8 bytes, text as it is."""
    if isinstance(names, np.ndarray) and names.dtype.kind == "S":
        return [b.decode() for b in names.tolist()]
    return list(names)


def _first_repeat(values: np.ndarray) -> int:
    """The first position in ``values`` whose value occurs at an earlier
    one, or -1, by one stable sort."""
    order = np.argsort(values, kind="stable")
    again = order[1:][values[order[1:]] == values[order[:-1]]]
    return int(again.min()) if len(again) else -1


def row_indices(nodes, names) -> np.ndarray:
    """The position in ``nodes`` of each of ``names`` (the last one of a
    repeated name), -1 where it has none: one argsort of ``nodes`` and one
    ``searchsorted``.  Both are ``name_array``s or taken as one."""
    nodes, names = name_array(nodes), name_array(names)
    if not len(nodes):
        return np.full(len(names), -1, dtype=np.int64)
    order = np.argsort(nodes, kind="stable")
    at = order[np.searchsorted(nodes, names, side="right", sorter=order) - 1]
    return np.where(nodes[at] == names, at, -1)


def _csr_kernels():
    """scipy's compiled kernels, ``scipy.sparse._sparsetools``, loaded from
    scipy's ``sparse`` directory with no package ``__init__`` run and kept in
    ``sys.modules``, where a later ``import scipy.sparse`` finds them; of two
    threads that load them at once, the first to register them wins."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy = PathFinder.find_spec("scipy").submodule_search_locations
        spec = PathFinder.find_spec(name, [os.path.join(scipy[0], "sparse")])
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.setdefault(name, module)
    return sys.modules[name]


class _Adjacency:
    """The 0/1 adjacency matrix as an ``@`` operator on float64 ``(n,)`` and
    ``(n, C)`` arrays over a graph's own CSR arrays.  Like a ``csr_array``
    it sums each row in CSR order onto +0.0 with ``csr_matvec`` for one
    vector (faster there) and ``csr_matvecs`` for more, bit for bit."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr, self.indices = indptr, indices
        self.data = np.ones(len(indices))
        self.kernels = _csr_kernels()

    def __matmul__(self, x) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        n = len(self.indptr) - 1
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"adjacency of {n} nodes @ shape {x.shape}")
        out = np.zeros(x.shape)
        vecs = () if x.ndim == 1 or x.shape[1] == 1 else (x.shape[1],)
        (self.kernels.csr_matvecs if vecs else self.kernels.csr_matvec)(
            n, n, *vecs, self.indptr, self.indices, self.data, x.ravel(),
            out.ravel())
        return out


@dataclass
class Graph:
    """Undirected graph in CSR form.

    ``names[i]`` is the external name of dense index ``i`` (``names`` is a
    ``name_array``); ``indices`` holds every directed arc (each undirected
    edge appears twice), grouped by source via ``indptr`` and sorted within
    each group.  Both arrays are int32 when the node count and the arc
    count are below 2**31, else int64, and the ``adjacency`` operator holds
    these same arrays.
    Instances are immutable after construction and safe to share across
    workers.
    """

    names: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    _index: dict[bytes, int] | None = field(default=None, init=False, repr=False)
    _adjacency: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.names = name_array(self.names)
        if _first_repeat(self.names) >= 0:
            raise ValidationError("duplicate node names in interning table")
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @classmethod
    def build(cls, names,
              pairs: Sequence[tuple[int, int]] | np.ndarray,
              mirror: bool = True) -> "Graph":
        """Build a graph from index pairs (a sequence or an ``(m, 2)`` array).

        Self-loops and duplicates are dropped.  With ``mirror`` the reverse
        of every pair is added; otherwise the pair set must already be
        symmetric and a ``ValidationError`` is raised if it is not.
        """
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= len(names)):
            raise ValidationError("edge endpoint out of range")
        return cls._from_keys(names, _arc_keys(len(names), arr, mirror), mirror)

    @classmethod
    def _from_keys(cls, names, keys: np.ndarray, mirror: bool) -> "Graph":
        """``build`` from the ``_arc_keys`` of its pairs, sorted in place."""
        n = len(names)
        g = cls(names, *_csr_from_keys(n, keys))
        if not mirror:
            rev_ptr, rev_idx = _csr_from_keys(
                n, g.indices * np.int64(n) + g.arc_sources)
            if not (np.array_equal(g.indptr, rev_ptr)
                    and np.array_equal(g.indices, rev_idx)):
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
        """Source index of every stored arc, aligned with ``indices`` and of
        its dtype; built on each call, not kept with the graph."""
        return np.repeat(np.arange(self.node_count, dtype=self.indices.dtype),
                         self.degrees)

    @property
    def adjacency(self) -> _Adjacency:
        """The 0/1 adjacency matrix as an ``_Adjacency`` operator, built on
        first use and cached; it loads scipy's compiled kernels alone, so no
        run imports ``scipy.sparse``.  Threads that ask for it at once may
        each build one; they are equal, and the last one kept stays."""
        if self._adjacency is None:
            self._adjacency = _Adjacency(self.indptr, self.indices)
        return self._adjacency

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of ``v`` (an O(1) CSR slice)."""
        if not 0 <= v < self.node_count:
            raise IndexError(f"node index {v} out of range [0, {self.node_count})")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def index_of(self, name: str | bytes) -> int:
        """The index of ``name`` (text or UTF-8 bytes), from a name -> index
        dict built on the first call and cached; a run that never asks holds
        no such dict."""
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self.names.tolist())}
        return self._index[name.encode() if isinstance(name, str) else name]


@dataclass
class DirectedEdges:
    """Raw directed follow relation: ``arcs`` is the ``(m, 2)`` array of
    (follower, followed) index pairs in file order, self-loops dropped and
    repeats kept, int32 when every node index fits, else int64.  ``names``
    are text: the emb corpus keeps its tokens as ``str``."""

    names: list[str]
    arcs: np.ndarray


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
    other than ``width`` tokens, or a token that ends in a NUL byte (which a
    ``name_array`` drops), raises ``EdgeListParseError`` (``path:line``).
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
            if any(token.endswith("\0") for token in tokens):
                raise EdgeListParseError(path, line_no, "a token ends in NUL")
            yield line_no, tokens


# Rows per chunk of the bulk writers and of the feature join: a file is
# written at most a few MB of text at a time and never held whole.  65536 rows were no faster and
# lifted the sweep set-up's high-water mark from 93 to 105 MB, close to
# the 116 MB peak of its ingest.
_CHUNK = 1 << 14


def _float_rows(names, values, sep: str, delim: str = ",", end: str = "\n"):
    """Yield the text of ``name + sep + values joined by delim + end`` for
    each row of the 2-D ``values``, ``_CHUNK`` rows at a time, each value
    written ``"%.17g"`` (equal to ``f"{x:.17g}"`` for every float, -0.0,
    nan and inf included).  ``names`` are text or a ``name_array``, decoded
    a chunk at a time.  Rows past the end of ``names`` are dropped, as
    ``zip`` would drop them."""
    values = np.asarray(values)
    fmt = sep + delim.join(["%.17g"] * values.shape[1]) + end
    for start in range(0, len(values), _CHUNK):
        rows = values[start:start + _CHUNK].tolist()
        yield "".join([name + fmt % tuple(row) for name, row
                       in zip(texts(names[start:start + _CHUNK]), rows)])


def _pair_rows(pairs: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Yield the UTF-8 bytes of ``left[u] + right[v]`` for each row
    ``(u, v)`` of the int array ``pairs``, ``_CHUNK`` rows at a time;
    ``left`` and ``right`` are object arrays of bytes."""
    for start in range(0, len(pairs), _CHUNK):
        block = pairs[start:start + _CHUNK]
        yield b"".join((left[block[:, 0]] + right[block[:, 1]]).tolist())


def _suffixed(tokens, suffix: str) -> np.ndarray:
    """The UTF-8 bytes of ``token + suffix`` for each text token, as an
    object array."""
    return np.array([(token + suffix).encode() for token in tokens], object)


# Byte kinds of the array edge parse: 0 sends the file to the line reader,
# 1 separates tokens, 2 ends a line, 3 is part of a token.
_BYTE_KIND = np.zeros(256, np.uint8)
_BYTE_KIND[0x21:0x7F] = 3
_BYTE_KIND[[ord("\t"), ord(" "), ord("\n"), ord("#")]] = [1, 1, 2, 0]
_BLOCK = 1 << 20
_ONES = np.uint64(2**64 - 1)


def _pair_tokens(block: np.ndarray):
    """The first byte and length of each token of a block of whole lines,
    or ``None`` if a byte declines the array parse or a non-blank line
    holds other than two tokens."""
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
    return begin, size


def _token_words(block: np.ndarray):
    """The uint64 word columns of a block of whole lines: word ``j`` of a
    token holds its bytes ``8j .. 8j+7``, zero-padded and big-endian, and
    is 0 past its end.  ``None`` if ``_pair_tokens`` declines the block."""
    tokens = _pair_tokens(block)
    if tokens is None:
        return None
    begin, size = tokens
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


def _word_names(cols) -> np.ndarray:
    """The ``name_array`` of the tokens of ``_token_words`` columns."""
    words = np.stack(cols, axis=1) if cols else np.zeros((0, 1), np.uint64)
    return words.astype(">u8").view(f"S{8 * words.shape[1]}").ravel()


def _line_blocks(data: bytes, start: int = 0):
    """Yield ``(begin, end)`` of each run of whole lines of ``data`` from
    ``start`` on: about ``_BLOCK`` bytes each, ending just past a newline
    (a line longer than ``_BLOCK`` is a run of its own) or at the end."""
    while start < len(data):
        end = (len(data) if start + _BLOCK >= len(data)
               else data.rfind(b"\n", start, start + _BLOCK) + 1)
        if end <= start:
            end = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        yield start, end
        start = end


def _line_runs(fh):
    """Yield the runs of whole lines of the binary file ``fh``, read
    ``_BLOCK`` bytes at a time: each read that holds a newline ends a run
    just past its last newline, a read without one joins the next run,
    and the bytes after the file's last newline are a run of their own.
    Only one run and one read are held at a time, never the whole file."""
    pieces = []
    while chunk := fh.read(_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pieces, chunk[:cut]])
            pieces = []
        pieces.append(chunk[cut:])
    if rest := b"".join(pieces):
        yield rest


def _array_arcs(path):
    """``_read_arcs`` by array operations, or ``None`` for a file with a
    byte other than tab, space, newline and printable ASCII but ``#``, or
    with a non-blank line of other than two tokens.  Only the token words
    outlive each block of lines; a name longer than one word folds into
    one integer key through dense ranks.  The file is read whole: read
    by ``_line_runs``, the blocks' words were laid out between the runs'
    buffers, and the age graph's ingest ended 6 MB higher."""
    with open(path, "rb") as fh:
        data = fh.read()
    blocks = []
    for start, end in _line_blocks(data):
        cols = _token_words(np.frombuffer(data, np.uint8, end - start, start))
        if cols is None:
            return None
        if cols:
            blocks.append(cols)
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
    names = _word_names([col[first[order]] for col in cols])
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    del cols, sorted_key
    group = np.repeat(rank, np.diff(starts, append=len(perm)))
    arcs = key.view(np.int64)
    arcs[perm] = group
    del perm, group
    # Names rebuilt from their bytes now, not the array made among the
    # parse's large ones, let glibc's freed heap shrink: after the sweep
    # benchmark's set-up wrote its files, the parse left 96 MB resident
    # with that array and 55 MB with this one (2-vCPU Linux VM).
    return np.array(names.tolist()), arcs.reshape(-1, 2)


def _read_arcs(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an edge-list file into a ``name_array`` and an int64
    ``(m, 2)`` arc array.

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
    return name_array(list(index)), ids.reshape(-1, 2)


def _filter_min_degree(names: np.ndarray, arcs: np.ndarray, min_degree: int):
    """Keep the arcs between nodes with at least ``min_degree`` distinct
    non-self follow targets; the kept nodes are numbered again in order of
    first appearance in the kept arcs."""
    out_ptr, _ = _csr_from_keys(len(names), _arc_keys(len(names), arcs))
    kept = np.diff(out_ptr) >= min_degree
    arcs = arcs[kept[arcs[:, 0]] & kept[arcs[:, 1]]]
    # A kept node's first arc may be one the filter dropped, so the first
    # positions are found again in the kept arcs.
    ends = arcs.ravel()
    first = np.full(len(names), len(ends), dtype=np.int64)
    np.minimum.at(first, ends, np.arange(len(ends)))
    nodes = np.flatnonzero(first < len(ends))
    order = nodes[np.argsort(first[nodes])]
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return names[order], rank[arcs]


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
        n, m = len(names), len(arcs)
        names, arcs = _filter_min_degree(names, arcs, min_degree)
        logger.info("min_degree=%d drops %d of %d nodes and %d of %d arcs",
                    min_degree, n - len(names), n, m - len(arcs), m)
        if not len(arcs):
            raise EmptyGraphError(
                f"min_degree={min_degree} filter removed every edge of {path}")
    keys = _arc_keys(len(names), arcs, symmetrize)
    del arcs  # not alive while the keys sort
    return Graph._from_keys(names, keys, symmetrize)


def load_directed_edges(path) -> DirectedEdges:
    """Load the raw directed follow relation from an edge-list file."""
    names, arcs = _read_arcs(path)
    arcs = arcs[arcs[:, 0] != arcs[:, 1]]
    return DirectedEdges(texts(names), arcs.astype(np.int32)
                         if len(names) < 2**31 else arcs)


def write_edge_list(g: Graph, path) -> None:
    """Write each undirected edge once, ordered by dense index pair."""
    src = g.arc_sources
    upper = g.indices > src
    pairs = np.stack([src[upper], g.indices[upper]], axis=1)
    with open(path, "wb") as fh:
        names = texts(g.names)
        fh.writelines(_pair_rows(pairs, _suffixed(names, "\t"),
                                 _suffixed(names, "\n")))


def write_node_map(g: Graph, path) -> None:
    """Write the interning table, one ``<dense-index><TAB><name>`` per line."""
    ids = np.arange(g.node_count)
    with open(path, "wb") as fh:
        fh.writelines(_pair_rows(np.stack([ids, ids], axis=1),
                                 _suffixed(ids.astype(str), "\t"),
                                 _suffixed(texts(g.names), "\n")))
