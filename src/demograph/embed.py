"""Neighbor-sentence embeddings.

Each node with at least one followed neighbor yields one "sentence": the
node plus everything it follows, in a seeded random permutation.  The
sentences feed a from-scratch word2vec trainer (skip-gram or CBOW, both
with negative sampling) whose vectors place nodes that co-occur with the
same neighborhoods close together.  Nodes that fall below the vocabulary
count threshold can still get a vector afterwards by averaging their
embedded graph neighbors (one round, no transitive fill).

Training is single-threaded and fully seeded: a fixed seed gives a
bit-identical table.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .graph import DirectedEdges, Graph

__all__ = [
    "EmbeddingTable",
    "TrainConfig",
    "build_sentences",
    "coldstart_embedding",
    "fill_missing_embeddings",
    "log_sigmoid",
    "pair_gradients",
    "pair_objective",
    "read_corpus",
    "sigmoid",
    "train_embeddings",
    "write_corpus",
]

logger = logging.getLogger(__name__)


@dataclass
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

    def validate(self) -> None:
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
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
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
            for token, vec in zip(self.tokens, self.vectors):
                fh.write(token + " " + " ".join(f"{x:.17g}" for x in vec) + "\n")

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            try:
                count, dim = (int(x) for x in header)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:1: bad embedding header {header!r}") from exc
            tokens, rows = [], []
            for line_no, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(" ")
                if len(parts) != dim + 1:
                    raise ValidationError(
                        f"{path}:{line_no}: expected {dim} components "
                        f"for {parts[0]!r}")
                try:
                    rows.append([float(x) for x in parts[1:]])
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}:{line_no}: bad component for "
                        f"{parts[0]!r}") from exc
                tokens.append(parts[0])
        if len(tokens) != count:
            raise ValidationError(f"{path}: header says {count} tokens, "
                                  f"found {len(tokens)}")
        return cls(tokens, np.asarray(rows, dtype=np.float64))


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
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                sentences.append(tokens)
    return sentences


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                    x - np.log1p(np.exp(-np.abs(x))))


def pair_objective(center: np.ndarray, outputs: np.ndarray,
                   labels: np.ndarray) -> float:
    """Negative-sampling log likelihood of one training pair.

    ``outputs`` stacks the positive target and the negative samples as
    rows; ``labels`` is 1 for the positive row, 0 for negatives.  The
    value is ``log s(c.u_pos) + sum log s(-c.u_neg)``.
    """
    scores = outputs @ center
    signs = np.where(labels > 0, 1.0, -1.0)
    return float(log_sigmoid(signs * scores).sum())


def pair_gradients(center: np.ndarray, outputs: np.ndarray,
                   labels: np.ndarray):
    """Ascent gradients of ``pair_objective`` w.r.t. center and outputs."""
    scores = outputs @ center
    coef = labels - sigmoid(scores)
    grad_center = outputs.T @ coef
    grad_outputs = np.outer(coef, center)
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

    def sample_negatives(self, k: int, rng: np.random.Generator) -> np.ndarray:
        draws = np.searchsorted(self.noise_cdf, rng.random(k), side="right")
        return np.minimum(draws, len(self.tokens) - 1)

    def encode(self, sentences: list[list[str]]) -> list[np.ndarray]:
        encoded = []
        for s in sentences:
            ids = [self.index[t] for t in s if t in self.index]
            if len(ids) >= 2:
                encoded.append(np.asarray(ids, dtype=np.int64))
        return encoded


def _count_pairs(encoded: list[np.ndarray], window: int) -> int:
    total = 0
    for s in encoded:
        length = len(s)
        for i in range(length):
            total += min(i, window) + min(length - 1 - i, window)
        # CBOW consumes one (context block, center) pair per position, but
        # the same count keeps the decay schedule comparable across modes.
    return total


def train_embeddings(sentences: list[list[str]], cfg: TrainConfig) -> EmbeddingTable:
    """Train input-side vectors with stochastic gradient ascent.

    RNG consumption order (relevant for reproducing a run by hand): the
    input matrix is initialized with one uniform draw, then subsampling
    draws if enabled, then ``cfg.negatives`` draws per training pair.
    Negative samples that hit the positive target are skipped, not
    redrawn.
    """
    cfg.validate()
    if not sentences:
        raise ValidationError("empty sentence corpus")
    vocab = _Vocabulary(sentences, cfg.min_count)
    rng = np.random.default_rng(cfg.rng_seed)
    size = len(vocab.tokens)
    w_in = (rng.random((size, cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((size, cfg.dim))

    encoded = vocab.encode(sentences)
    if cfg.subsample > 0:
        encoded = _subsample(encoded, vocab, cfg.subsample, rng)
    window = cfg.effective_window
    total_pairs = max(1, cfg.epochs * _count_pairs(encoded, window))
    floor = cfg.rate * 1e-4
    seen = 0
    for _epoch in range(cfg.epochs):
        for s in encoded:
            length = len(s)
            for i in range(length):
                lo, hi = max(0, i - window), min(length, i + window + 1)
                if cfg.mode == "skipgram":
                    center = s[i]
                    for j in range(lo, hi):
                        if j == i:
                            continue
                        lr = max(floor, cfg.rate * (1.0 - seen / total_pairs))
                        seen += 1
                        _update_pair(w_in, w_out, int(center), [int(s[j])],
                                     vocab, cfg.negatives, lr, rng)
                else:
                    context = [int(s[j]) for j in range(lo, hi) if j != i]
                    if not context:
                        continue
                    lr = max(floor, cfg.rate * (1.0 - seen / total_pairs))
                    seen += len(context)
                    _update_cbow(w_in, w_out, context, int(s[i]), vocab,
                                 cfg.negatives, lr, rng)
    logger.info("trained %d vectors (dim %d) over %d pairs",
                size, cfg.dim, seen)
    return EmbeddingTable(list(vocab.tokens), w_in)


def _update_pair(w_in, w_out, center: int, targets: list[int],
                 vocab: _Vocabulary, negatives: int, lr: float,
                 rng: np.random.Generator) -> None:
    positive = targets[0]
    negs = [int(x) for x in vocab.sample_negatives(negatives, rng)
            if int(x) != positive]
    ids = np.array([positive] + negs, dtype=np.int64)
    labels = np.zeros(len(ids))
    labels[0] = 1.0
    grad_center, grad_out = pair_gradients(w_in[center], w_out[ids], labels)
    # np.add.at handles repeated negative ids correctly.
    np.add.at(w_out, ids, lr * grad_out)
    w_in[center] += lr * grad_center


def _update_cbow(w_in, w_out, context: list[int], center: int,
                 vocab: _Vocabulary, negatives: int, lr: float,
                 rng: np.random.Generator) -> None:
    ctx = np.asarray(context, dtype=np.int64)
    h = w_in[ctx].mean(axis=0)
    negs = [int(x) for x in vocab.sample_negatives(negatives, rng)
            if int(x) != center]
    ids = np.array([center] + negs, dtype=np.int64)
    labels = np.zeros(len(ids))
    labels[0] = 1.0
    grad_h, grad_out = pair_gradients(h, w_out[ids], labels)
    np.add.at(w_out, ids, lr * grad_out)
    share = lr * grad_h / len(ctx)
    np.add.at(w_in, ctx, np.broadcast_to(share, (len(ctx), len(share))))


def _subsample(encoded: list[np.ndarray], vocab: _Vocabulary,
               threshold: float, rng: np.random.Generator):
    total = vocab.counts.sum()
    freq = vocab.counts / total
    keep = np.minimum(1.0, np.sqrt(threshold / freq) + threshold / freq)
    out = []
    for s in encoded:
        mask = rng.random(len(s)) < keep[s]
        trimmed = s[mask]
        if len(trimmed) >= 2:
            out.append(trimmed)
    return out


def coldstart_embedding(g: Graph, table: EmbeddingTable,
                        v: int) -> np.ndarray | None:
    """Vector for an unembedded node: mean of its embedded neighbors.

    One round only; returns None when no neighbor has a vector.
    """
    if g.names[v] in table:
        raise ValidationError(f"node {g.names[v]!r} already has an embedding")
    found = [table.get(g.names[u]) for u in g.neighbors(v)]
    found = [vec for vec in found if vec is not None]
    if not found:
        return None
    return np.mean(found, axis=0)


def fill_missing_embeddings(g: Graph, table: EmbeddingTable) -> EmbeddingTable:
    """Extend the table with neighbor-average vectors for missing nodes.

    Every fill reads the original table, so the result does not depend on
    the order nodes are visited and never chains through other fills.
    """
    tokens = list(table.tokens)
    rows = [table.vectors]
    for v in range(g.node_count):
        if g.names[v] in table:
            continue
        vec = coldstart_embedding(g, table, v)
        if vec is not None:
            tokens.append(g.names[v])
            rows.append(vec[None, :])
    return EmbeddingTable(tokens, np.concatenate(rows, axis=0))
