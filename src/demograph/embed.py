"""Neighbor-sentence embeddings.

Each node with at least one followed neighbor yields one "sentence": the
node plus everything it follows, in a seeded random permutation, as ids
into the node names (``read_corpus`` alone interns text tokens).  The
sentences feed a from-scratch word2vec trainer (skip-gram or CBOW, both
with negative sampling) whose vectors place nodes that co-occur with the
same neighborhoods close together.  Nodes that fall below the vocabulary
count threshold can still get a vector afterwards by averaging their
embedded graph neighbors (one round, no transitive fill).

The vocabulary is the tokens of count >= ``min_count``, by descending count
and then name; a sentence keeping fewer than 2 of them is dropped, and a
corpus left with no training pair raises ``ValidationError``.

Training is single-threaded and fully seeded: a fixed seed gives a
bit-identical table.  It updates the weights once per ``BATCH`` examples,
whose examples share one draw of ``negatives`` noise tokens (Ji et al.,
"Parallelizing Word2Vec in Shared and Distributed Memory", 2016); each
step is ``pair_gradients`` of its batch's objective ``pair_objective``.
It prepares the examples, rates and negatives of ``BLOCK`` batches at a
time; ``BLOCK`` changes no vector, and ``BATCH = 1`` is per-example SGD.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ValidationError
from .graph import (DirectedEdges, Graph, _arc_keys, _csr_from_keys,
                    _float_rows, _open_text, row_indices, texts)

__all__ = [
    "EmbeddingTable",
    "TrainConfig",
    "build_sentences",
    "fill_missing_embeddings",
    "pair_gradients",
    "pair_objective",
    "read_corpus",
    "sigmoid",
    "train_embeddings",
    "write_corpus",
]

logger = logging.getLogger(__name__)

# Examples per SGD step of ``train_embeddings``.
BATCH = 256
# Batches whose examples, negatives and rates ``train_embeddings`` prepares
# together; any value gives the same vectors.
BLOCK = 16


@dataclass(frozen=True)
class TrainConfig:
    """Word2vec hyperparameters.

    ``window=None`` picks the per-mode default: 5 for skip-gram, 6 for
    CBOW (bi-directional, i.e. that many tokens on each side).  The
    learning rate decays linearly from ``rate`` to ``rate * 1e-4`` over
    all training pairs.  ``subsample > 0`` enables frequent-token
    downsampling with the usual ``sqrt`` keep rule; it is off by default.
    """

    mode: str = "skipgram"
    dim: int = 50
    window: int | None = None
    negatives: int = 5
    rate: float = 0.025
    epochs: int = 5
    min_count: int = 5
    subsample: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("skipgram", "cbow"):
            raise ConfigError(f"unknown embedding mode {self.mode!r}")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.effective_window < 1:
            raise ConfigError("window must be >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 < self.rate < math.inf:  # NaN fails too
            raise ConfigError(f"rate must be positive and finite, got {self.rate}")
        if self.min_count < 1:
            raise ConfigError("min_count must be >= 1")
        if not 0 <= self.subsample < math.inf:  # NaN fails too
            raise ConfigError(f"subsample must be >= 0 and finite, got "
                              f"{self.subsample}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @property
    def effective_window(self) -> int:
        if self.window is not None:
            return self.window
        return 6 if self.mode == "cbow" else 5


@dataclass
class EmbeddingTable:
    """Token -> d-dimensional vector: row ``i`` of ``vectors`` belongs to
    ``tokens[i]``.  No token -> row dict is kept; ``graph.row_indices``
    maps tokens to rows."""

    tokens: list[str]
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, path) -> None:
        """Word2vec text format: a ``<vocab> <dim>`` header, then one
        ``<token> <v1> ... <vd>`` line per token."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(self.tokens)} {self.dim}\n")
            fh.writelines(_float_rows(self.tokens, self.vectors, " ", " "))

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        """Reads ``save``'s format; a ``0 <dim>`` header is an empty table.
        A bad header or row, an empty, repeated or NUL-ended token (as in
        the tab and CSV readers), a non-finite component or a byte that is
        not UTF-8 raises ``ValidationError`` naming ``path:line``."""
        with _open_text(path) as fh:
            header = fh.readline().split()
            try:
                count, dim = (int(x) for x in header)
                if count < 0 or dim < 1:
                    raise ValueError("count < 0 or dim < 1")
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:1: bad embedding header {header!r}") from exc
            rows: dict[str, list[float]] = {}
            for line_no, line in enumerate(fh, start=2):
                token, *values = line.rstrip("\n").split(" ")
                where = f"{path}:{line_no}: {token!r}:"
                if len(values) != dim:
                    raise ValidationError(f"{where} expected {dim} components")
                if not token:
                    raise ValidationError(f"{where} empty token")
                if token.endswith("\0"):
                    raise ValidationError(f"{where} token ends in NUL")
                if token in rows:
                    raise ValidationError(f"{where} repeated token")
                try:
                    rows[token] = [float(x) for x in values]
                except ValueError as exc:
                    raise ValidationError(f"{where} bad component") from exc
                if not np.isfinite(rows[token]).all():
                    raise ValidationError(f"{where} non-finite component")
        if len(rows) != count:
            raise ValidationError(f"{path}: header says {count} tokens, "
                                  f"found {len(rows)}")
        return cls(list(rows), np.reshape(list(rows.values()), (count, dim)))


def build_sentences(edges: DirectedEdges, rng_seed: int,
                    bidirectional: bool = False) -> list[np.ndarray]:
    """One sentence of ``edges.names`` ids per node with out-degree >= 1:
    the node plus all the nodes it follows, in a seeded random permutation.

    ``bidirectional`` widens the neighbor set to followers as well (the
    production corpus construction); a node then needs any neighbor at
    all to produce a sentence.
    """
    if rng_seed < 0:
        raise ConfigError(f"rng_seed must be >= 0, got {rng_seed}")
    # The one CSR of the corpus; it drops repeated arcs.
    n = len(edges.names)
    indptr, nbrs = _csr_from_keys(n, _arc_keys(n, edges.arcs, bidirectional))
    nodes = np.flatnonzero(np.diff(indptr))
    # Each sentence is its node and then its CSR row, shuffled in place.
    flat = np.insert(nbrs, indptr[nodes], nodes)
    ends = (indptr[nodes + 1] + np.arange(1, len(nodes) + 1)).tolist()
    sentences = [flat[a:b] for a, b in zip([0] + ends, ends)]
    rng = np.random.default_rng(rng_seed)
    for sentence in sentences:
        rng.shuffle(sentence)
    return sentences


def write_corpus(names: list[str], sentences: list[np.ndarray], path) -> None:
    names = np.array(names, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(names[s].tolist()) + "\n" for s in sentences)


def read_corpus(path) -> tuple[list[str], list[np.ndarray]]:
    """A corpus file as (names in order of first use, id sentences)."""
    index: dict[str, int] = {}
    with _open_text(path) as fh:
        sentences = [np.array([index.setdefault(t, len(index)) for t in tokens])
                     for tokens in map(str.split, fh) if tokens]
    return list(index), sentences


def sigmoid(x):
    """Logistic function; ``exp`` only sees ``-|x|``, so it never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def pair_objective(h, u_pos, u_neg, keep, weights) -> float:
    """Weighted negative-sampling log likelihood of a batch of examples.

    Example ``e`` has hidden vector ``h[e]`` and target row ``u_pos[e]``
    and keeps the batch's ``K`` shared negative rows ``u_neg`` where
    ``keep[e]`` is true (Mikolov et al., 2013).  The value is ``sum_e
    weights[e] * (log s(h_e.u_pos_e) + sum_k keep[e, k] log s(-h_e.u_neg_k))``
    with ``log s(x) = -log(1 + exp(-x))``."""
    pos = np.logaddexp(0.0, -np.einsum("ij,ij->i", h, u_pos))
    neg = np.where(keep, np.logaddexp(0.0, h @ u_neg.T), 0.0).sum(axis=1)
    return float(-weights @ (pos + neg))


def pair_gradients(h, u_pos, u_neg, keep, weights):
    """Ascent gradients of ``pair_objective`` w.r.t. ``h``, ``u_pos`` and
    ``u_neg``: ``(B, dim)``, ``(B, dim)`` and ``(K, dim)``.  A negative's
    row sums the terms of every example that keeps it."""
    sig = sigmoid(np.column_stack([np.einsum("ij,ij->i", h, u_pos),
                                   h @ u_neg.T]))
    coef_pos = 1.0 - sig[:, :1]
    coef_neg = np.where(keep, -sig[:, 1:], 0.0)
    step = weights[:, None] * h
    return (weights[:, None] * (coef_pos * u_pos + coef_neg @ u_neg),
            coef_pos * step, coef_neg.T @ step)


def _vocabulary(names: list[str], sentences: list[np.ndarray], min_count: int):
    """The vocabulary (see the module notes), its counts, and the vocabulary
    ids of the sentences keeping >= 2 of its tokens: (flat ids, lengths)."""
    seen = np.concatenate([np.empty(0, np.int64), *sentences])
    counts = np.bincount(seen, minlength=len(names))
    order = sorted(np.flatnonzero(counts >= min_count).tolist(),
                   key=names.__getitem__)
    order.sort(key=counts.tolist().__getitem__, reverse=True)  # ties by name
    rank = np.full(len(names), -1)
    rank[order] = np.arange(len(order))
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    ids = rank[seen]
    return ([names[i] for i in order], counts[order],
            *_drop_short(ids, lengths, ids >= 0))


def _drop_short(ids: np.ndarray, lengths: np.ndarray, mask: np.ndarray):
    """The ``mask``ed ids of the sentences keeping >= 2: (flat ids, lengths)."""
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    kept = np.bincount(sentence[mask], minlength=len(lengths))
    mask &= (kept >= 2)[sentence]
    return ids[mask], kept[kept >= 2]


def _noise_ids(noise_cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The noise ids of uniform ``draws``: ``searchsorted(noise_cdf, draws,
    side="right")`` clipped to the last id."""
    return np.minimum(len(noise_cdf) - 1,
                      np.searchsorted(noise_cdf, draws, side="right"))


def _flat_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    """Flat positions of the elements of ``rows`` of an ``(n, dim)`` array."""
    return (rows[:, None] * dim + np.arange(dim)).reshape(-1)


def _update(w_in, w_out, in_flat, counts, targets, rates, negs):
    """One SGD step over a batch of examples (see ``train_embeddings``):
    ``pair_gradients`` of the batch at ``rates``, added to the weights.
    Example ``e`` averages the next ``counts[e]`` input rows, whose
    elements sit at ``in_flat`` in the flattened ``w_in``, and scores its
    target and the batch's shared negatives ``negs``, keeping those that
    differ from its target."""
    dim = w_in.shape[1]
    h = w_in.reshape(-1)[in_flat].reshape(-1, dim)
    several = len(h) > len(targets)  # some example averages several rows
    if several:
        h = np.add.reduceat(h, np.cumsum(counts) - counts) / counts[:, None]
    grad_in, grad_pos, grad_neg = pair_gradients(
        h, w_out[targets], w_out[negs], targets[:, None] != negs, rates)
    # np.add.at adds the terms of a repeated position one after another.
    np.add.at(w_out.reshape(-1), _flat_rows(np.append(targets, negs), dim),
              np.concatenate([grad_pos, grad_neg]).ravel())
    if several:
        grad_in = np.repeat(grad_in / counts[:, None], counts, axis=0)
    np.add.at(w_in.reshape(-1), in_flat, grad_in.ravel())


@np.errstate(over="ignore", invalid="ignore")  # the epoch check raises
def train_embeddings(names: list[str], sentences: list[np.ndarray],
                     cfg: TrainConfig) -> EmbeddingTable:
    """Train input-side vectors with minibatched stochastic gradient ascent.

    An example is a (center, context token) pair for skip-gram, or a
    position with its context block as inputs for CBOW; its hidden vector
    is the mean of its input rows, whose gradient is shared out evenly
    among them.  Each epoch takes the examples in order (sentence, center
    position, context position) in batches of ``BATCH`` that cross
    sentence boundaries.  Every example of a batch reads the weights as
    they stood at the batch start, and the batch's updates are then added
    to them, so ``BATCH = 1`` is per-example SGD.  The learning rate
    decays with the (center, context) pairs seen before the example.

    RNG consumption order: one uniform draw initializes the input matrix,
    then come the subsampling draws if enabled, then ``cfg.negatives``
    draws per batch, shared by every example of the batch, in one call per
    block of ``BLOCK`` batches (the same stream as one call per batch).
    Each block's examples, rates and negatives are built before its first
    batch, as none of them reads the weights.  A negative that hits an
    example's positive target is skipped for that example, not redrawn.
    Weights no longer finite after an epoch raise ``DivergenceError``.
    """
    vocab, tally, tokens, lengths = _vocabulary(names, sentences, cfg.min_count)
    noise_cdf = np.cumsum(tally ** 0.75 / np.sum(tally ** 0.75))
    rng = np.random.default_rng(cfg.rng_seed)
    w_in = (rng.random((len(vocab), cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros_like(w_in)
    if cfg.subsample > 0:  # frequent tokens dropped, one draw each
        freq, t = tally / tally.sum(), cfg.subsample
        keep = np.minimum(1.0, np.sqrt(t / freq) + t / freq)
        tokens, lengths = _drop_short(
            tokens, lengths, rng.random(len(tokens)) < keep[tokens])
    # O(corpus tokens) arrays per position: first context position, context
    # size, pairs before it.  A block of examples [b0, b1) holds pairs
    # [b0, b1) for skip-gram and the pairs of positions [b0, b1) for CBOW.
    end = np.repeat(np.cumsum(lengths), lengths)
    position, window = np.arange(len(tokens)), cfg.effective_window
    lo = np.maximum(end - np.repeat(lengths, lengths), position - window)
    context = np.minimum(end, position + window + 1) - lo - 1
    first_pair = np.concatenate([[0], np.cumsum(context)])
    per_epoch = int(first_pair[-1])
    if not per_epoch:
        raise ValidationError(f"nothing to train: no sentence keeps 2 tokens at "
                              f"min_count={cfg.min_count}, subsample={cfg.subsample}")
    total_pairs = cfg.epochs * per_epoch
    cbow = cfg.mode == "cbow"
    examples = len(tokens) if cbow else per_epoch
    for epoch in range(cfg.epochs):
        for b0 in range(0, examples, BATCH * BLOCK):
            b1 = min(b0 + BATCH * BLOCK, examples)
            # Every position has context, so first_pair rises strictly and
            # the pairs [p0, p1) belong to positions [c0, c1).
            p0, p1 = first_pair[[b0, b1]] if cbow else (b0, b1)
            c0 = np.searchsorted(first_pair, p0, side="right") - 1
            c1 = np.searchsorted(first_pair, p1)
            center = np.repeat(np.arange(c0, c1), np.diff(
                np.clip(first_pair[c0:c1 + 1], p0, p1)))
            pair = np.arange(p0, p1)
            other = lo[center] + pair - first_pair[center]
            other += other >= center
            inputs, targets, counts, first = (
                tokens[center], tokens[other], np.ones_like(pair), pair)
            if cbow:
                inputs, targets = targets, tokens[b0:b1]
                counts, first = context[b0:b1], first_pair[b0:b1]
            rates = np.maximum(cfg.rate * 1e-4, cfg.rate * (
                1.0 - (epoch * per_epoch + first) / total_pairs))
            cut = np.arange(BATCH, len(targets), BATCH)  # later batch starts
            negs = _noise_ids(noise_cdf, rng.random(
                (len(cut) + 1) * cfg.negatives)).reshape(-1, cfg.negatives)
            in_flat = np.split(_flat_rows(inputs, cfg.dim),
                               np.cumsum(counts)[cut - 1] * cfg.dim)
            for batch in zip(in_flat, *(np.split(x, cut) for x in (
                    counts, targets, rates)), negs):
                _update(w_in, w_out, *batch)
        if not (np.isfinite(w_in).all() and np.isfinite(w_out).all()):
            raise DivergenceError(epoch, math.nan)
    logger.info("trained %d vectors (dim %d) over %d pairs",
                len(vocab), cfg.dim, total_pairs)
    return EmbeddingTable(vocab, w_in)


def fill_missing_embeddings(g: Graph, table: EmbeddingTable) -> EmbeddingTable:
    """Extend the table with neighbor-average vectors for missing nodes.

    A node without a vector gets the mean of its embedded neighbors' vectors
    (summed in neighbor order), or stays out when it has none.  Every fill
    reads the original table, so the result does not depend on the order
    nodes are visited and never chains through other fills.  The sums start
    from +0.0, so a mean that would be exactly -0.0 comes out +0.0.
    """
    row = row_indices(table.tokens, g.names)
    src, dst = g.arc_sources, g.indices
    wanted = (row[src] < 0) & (row[dst] >= 0)
    filled, slot, counts = np.unique(src[wanted], return_inverse=True,
                                     return_counts=True)
    sums = np.zeros((len(filled), table.dim))
    np.add.at(sums, slot, table.vectors[row[dst[wanted]]])
    return EmbeddingTable(table.tokens + texts(g.names[filled]),
                          np.concatenate([table.vectors, sums / counts[:, None]]))
