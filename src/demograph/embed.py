"""Neighbor-sentence embeddings.

Each node with at least one followed neighbor yields one "sentence": the
node plus everything it follows, in a seeded random permutation.  The
sentences feed a from-scratch word2vec trainer (skip-gram or CBOW, both
with negative sampling) whose vectors place nodes that co-occur with the
same neighborhoods close together.  Nodes that fall below the vocabulary
count threshold can still get a vector afterwards by averaging their
embedded graph neighbors (one round, no transitive fill).

Training is single-threaded and fully seeded: a fixed seed gives a
bit-identical table.  It updates the weights once per ``BATCH`` examples,
with the negatives of a batch drawn in one call.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .graph import DirectedEdges, Graph, _float_rows, _open_text

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

    @property
    def effective_window(self) -> int:
        if self.window is not None:
            return self.window
        return 6 if self.mode == "cbow" else 5


@dataclass
class EmbeddingTable:
    """Token -> d-dimensional vector, with an index for O(1) lookups."""

    tokens: list[str]
    vectors: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {t: i for i, t in enumerate(self.tokens)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def get(self, token: str) -> np.ndarray | None:
        i = self._index.get(token)
        return None if i is None else self.vectors[i]

    def save(self, path) -> None:
        """Word2vec text format: a ``<vocab> <dim>`` header, then one
        ``<token> <v1> ... <vd>`` line per token."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(self.tokens)} {self.dim}\n")
            fh.writelines(_float_rows(self.tokens, self.vectors, " ", " "))

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        """Reads ``save``'s format; a ``0 <dim>`` header is an empty table.
        A bad header or row, an empty or repeated token, a non-finite
        component or a byte that is not UTF-8 raises ``ValidationError``
        naming ``path:line``."""
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
                    bidirectional: bool = False) -> list[list[str]]:
    """One sentence per node with out-degree >= 1: the node plus all the
    nodes it follows, in a seeded random permutation.

    ``bidirectional`` widens the neighbor set to followers as well (the
    production corpus construction); a node then needs any neighbor at
    all to produce a sentence.
    """
    rng = np.random.default_rng(rng_seed)
    sentences: list[list[str]] = []
    for v in range(edges.node_count):
        nbrs = edges.out_neighbors(v)
        if bidirectional:
            nbrs = np.union1d(nbrs, edges.in_neighbors(v))
        if len(nbrs) == 0:
            continue
        tokens = np.concatenate([[v], nbrs])
        sentences.append([edges.names[i] for i in rng.permutation(tokens)])
    return sentences


def write_corpus(sentences: list[list[str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sentences:
            fh.write(" ".join(sentence) + "\n")


def read_corpus(path) -> list[list[str]]:
    with _open_text(path) as fh:
        return [tokens for tokens in map(str.split, fh) if tokens]


def sigmoid(x):
    """Logistic function; ``exp`` only sees ``-|x|``, so it never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def pair_objective(center: np.ndarray, outputs: np.ndarray,
                   labels: np.ndarray) -> float:
    """Negative-sampling log likelihood of one training pair.

    ``outputs`` stacks the positive target and the negative samples as
    rows; ``labels`` is 1 for the positive row, 0 for negatives.  The
    value is ``log s(c.u_pos) + sum log s(-c.u_neg)``, where
    ``log s(x) = -log(1 + exp(-x))``.
    """
    scores = outputs @ center
    signs = np.where(labels > 0, 1.0, -1.0)
    return float(-np.logaddexp(0.0, -signs * scores).sum())


def pair_gradients(center: np.ndarray, outputs: np.ndarray,
                   labels: np.ndarray):
    """Ascent gradients of ``pair_objective`` w.r.t. center and outputs,
    for one pair or a stack of them (``(..., d)`` and ``(..., k, d)``; each
    stacked product equals the unstacked one bit for bit)."""
    scores = (outputs @ center[..., None])[..., 0]
    coef = labels - sigmoid(scores)
    grad_center = (coef[..., None, :] @ outputs)[..., 0, :]
    grad_outputs = coef[..., None] * center[..., None, :]
    return grad_center, grad_outputs


class _Vocabulary:
    """Count-filtered vocabulary with a cumulative noise distribution."""

    def __init__(self, sentences: list[list[str]], min_count: int):
        counts = Counter(t for s in sentences for t in s)
        kept = [(t, c) for t, c in counts.items() if c >= min_count]
        # Descending count, ties by token, so the ordering is stable.
        kept.sort(key=lambda item: (-item[1], item[0]))
        if not kept:
            raise ValidationError(
                f"no token reaches min_count={min_count}; nothing to train")
        self.tokens = [t for t, _ in kept]
        self.counts = np.array([c for _, c in kept], dtype=np.float64)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        noise = self.counts ** 0.75
        self.noise_cdf = np.cumsum(noise / noise.sum())

    def encode(self, sentences: list[list[str]]):
        """Token ids of the sentences that keep >= 2 vocabulary tokens, as
        (flat ids, sentence lengths)."""
        encoded = [[self.index[t] for t in s if t in self.index]
                   for s in sentences]
        encoded = [ids for ids in encoded if len(ids) >= 2]
        return (np.array([t for ids in encoded for t in ids], dtype=np.int64),
                np.array([len(ids) for ids in encoded], dtype=np.int64))


def _by_width(widths: np.ndarray):
    """For examples that own ``widths[e]`` consecutive rows of a flat
    array: (examples, ``(n, width)`` row positions, width) per width."""
    starts = np.cumsum(widths) - widths
    for width in np.unique(widths):
        sel = np.flatnonzero(widths == width)
        yield sel, starts[sel, None] + np.arange(width), width


def _update(w_in, w_out, inputs, counts, targets, rates, negatives):
    """One SGD step over a batch of examples (see ``train_embeddings``).
    Grouping examples by row count, not padding them, keeps each stacked
    sum and product equal to the per-example one bit for bit."""
    outputs = np.column_stack([targets, negatives])
    used = outputs != targets[:, None]
    used[:, 0] = True
    widths = used.sum(axis=1)
    outputs = outputs[used]
    h = np.empty((len(targets), w_in.shape[1]))
    for sel, rows, width in _by_width(counts):
        h[sel] = w_in[inputs[rows]].sum(axis=1) / width
    grad_h, grad_out = np.empty_like(h), np.empty((len(outputs), h.shape[1]))
    for sel, rows, width in _by_width(widths):
        grad_h[sel], grad_out[rows] = pair_gradients(
            h[sel], w_out[outputs[rows]], np.arange(width) == 0)
    # np.add.at adds repeated ids one after another.
    np.add.at(w_out, outputs, np.repeat(rates, widths)[:, None] * grad_out)
    np.add.at(w_in, inputs, np.repeat(rates[:, None] * grad_h / counts[:, None],
                                      counts, axis=0))


def train_embeddings(sentences: list[list[str]], cfg: TrainConfig) -> EmbeddingTable:
    """Train input-side vectors with minibatched stochastic gradient ascent.

    An example is a (center, context token) pair for skip-gram, or a
    position with its context block as inputs for CBOW; its hidden vector
    is the mean of its input rows, whose gradient is shared out evenly
    among them.  Each epoch takes the examples in order (sentence, center
    position, context position) in batches of ``BATCH`` that cross
    sentence boundaries.  Every example of a batch reads the weights as
    they stood at the batch start, and the batch's updates are then added
    in example order, so ``BATCH = 1`` is per-example SGD.  The learning
    rate decays with the (center, context) pairs seen before the example.

    RNG consumption order: one uniform draw initializes the input matrix,
    then come the subsampling draws if enabled, then ``cfg.negatives``
    draws per example, in one call per batch (the same stream as one call
    per example).  Negatives that hit the positive target are skipped,
    not redrawn.
    """
    if not sentences:
        raise ValidationError("empty sentence corpus")
    vocab = _Vocabulary(sentences, cfg.min_count)
    rng = np.random.default_rng(cfg.rng_seed)
    size = len(vocab.tokens)
    w_in = (rng.random((size, cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((size, cfg.dim))

    tokens, lengths = vocab.encode(sentences)
    if cfg.subsample > 0:
        tokens, lengths = _subsample(tokens, lengths, vocab, cfg.subsample, rng)
    # O(corpus tokens) arrays per position: first context position, context
    # size, pairs before it.  A batch of examples [e0, e1) holds pairs
    # [e0, e1) for skip-gram and the pairs of positions [e0, e1) for CBOW.
    end = np.repeat(np.cumsum(lengths), lengths)
    position, window = np.arange(len(tokens)), cfg.effective_window
    lo = np.maximum(end - np.repeat(lengths, lengths), position - window)
    context = np.minimum(end, position + window + 1) - lo - 1
    first_pair = np.concatenate([[0], np.cumsum(context)])
    per_epoch = int(first_pair[-1])
    total_pairs = max(1, cfg.epochs * per_epoch)
    cbow = cfg.mode == "cbow"
    examples = len(tokens) if cbow else per_epoch
    for epoch in range(cfg.epochs):
        for e0 in range(0, examples, BATCH):
            e1 = min(e0 + BATCH, examples)
            pair = np.arange(*(first_pair[[e0, e1]] if cbow else (e0, e1)))
            center = np.searchsorted(first_pair, pair, side="right") - 1
            other = lo[center] + pair - first_pair[center]
            other += other >= center
            inputs, targets, counts, first = (
                tokens[center], tokens[other], np.ones_like(pair), pair)
            if cbow:
                inputs, targets = targets, tokens[e0:e1]
                counts, first = context[e0:e1], first_pair[e0:e1]
            rates = np.maximum(cfg.rate * 1e-4, cfg.rate * (
                1.0 - (epoch * per_epoch + first) / total_pairs))
            draws = rng.random((len(targets), cfg.negatives))
            negatives = np.minimum(size - 1, np.searchsorted(
                vocab.noise_cdf, draws, side="right"))
            _update(w_in, w_out, inputs, counts, targets, rates, negatives)
    logger.info("trained %d vectors (dim %d) over %d pairs",
                size, cfg.dim, cfg.epochs * per_epoch)
    return EmbeddingTable(list(vocab.tokens), w_in)


def _subsample(tokens: np.ndarray, lengths: np.ndarray, vocab: _Vocabulary,
               threshold: float, rng: np.random.Generator):
    """Drops frequent tokens, one draw each, then sentences left short."""
    freq = vocab.counts / vocab.counts.sum()
    keep = np.minimum(1.0, np.sqrt(threshold / freq) + threshold / freq)
    mask = rng.random(len(tokens)) < keep[tokens]
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    kept = np.bincount(sentence[mask], minlength=len(lengths))
    mask &= (kept >= 2)[sentence]
    return tokens[mask], kept[kept >= 2]


def fill_missing_embeddings(g: Graph, table: EmbeddingTable) -> EmbeddingTable:
    """Extend the table with neighbor-average vectors for missing nodes.

    A node without a vector gets the mean of its embedded neighbors' vectors
    (summed in neighbor order), or stays out when it has none.  Every fill
    reads the original table, so the result does not depend on the order
    nodes are visited and never chains through other fills.  The sums start
    from +0.0, so a mean that would be exactly -0.0 comes out +0.0.
    """
    row = np.array([table._index.get(name, -1) for name in g.names],
                   dtype=np.int64)
    src, dst = g.arc_sources, g.indices
    wanted = (row[src] < 0) & (row[dst] >= 0)
    filled, slot, counts = np.unique(src[wanted], return_inverse=True,
                                     return_counts=True)
    sums = np.zeros((len(filled), table.dim))
    np.add.at(sums, slot, table.vectors[row[dst[wanted]]])
    return EmbeddingTable(table.tokens + [g.names[v] for v in filled],
                          np.concatenate([table.vectors, sums / counts[:, None]]))
