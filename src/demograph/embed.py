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
    """Logistic function; ``exp`` only sees ``-|x|``, so it never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    grad_outputs = coef[:, None] * center
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


def _examples(s: np.ndarray, offsets: np.ndarray, cbow: bool):
    """The training examples of one sentence in loop order (center
    position, then context position), as (flat input ids, inputs per
    example, target ids).

    A skip-gram example is one (center, context token) pair; a CBOW example
    is one position, with its context block as inputs and its token as the
    target.  Every position has context, since sentences hold >= 2 tokens.
    """
    positions = np.arange(len(s))
    context = positions[:, None] + offsets
    inside = (context >= 0) & (context < len(s))
    if cbow:
        return s[context[inside]], inside.sum(axis=1), s
    centers = np.broadcast_to(positions[:, None], context.shape)[inside]
    return s[centers], np.ones(len(centers), dtype=np.int64), s[context[inside]]


def train_embeddings(sentences: list[list[str]], cfg: TrainConfig) -> EmbeddingTable:
    """Train input-side vectors with stochastic gradient ascent.

    Both modes run the same update: the hidden vector is the mean of the
    example's input rows (the center alone for skip-gram), and its gradient
    is shared out evenly among them.  The learning rate decays with the
    number of (center, context) pairs seen, counting one per skip-gram
    example and one per context token of a CBOW example.

    RNG consumption order (relevant for reproducing a run by hand): the
    input matrix is initialized with one uniform draw, then subsampling
    draws if enabled, then ``cfg.negatives`` draws per training example,
    taken for one sentence at a time in one call (the same stream as one
    call per example).  Negative samples that hit the positive target are
    skipped, not redrawn.
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
    # A sentence of length L has 2 * sum_i min(i, window) pairs, which is
    # near * (near + 1) + 2 * (L - 1 - near) * window, near = min(L - 1, window).
    lengths = np.array([len(s) for s in encoded], dtype=np.int64)
    near = np.minimum(lengths - 1, window)
    per_epoch = int((near * (near + 1) + 2 * (lengths - 1 - near) * window).sum())
    total_pairs = max(1, cfg.epochs * per_epoch)
    offsets = np.r_[-window:0, 1:window + 1]
    floor = cfg.rate * 1e-4
    seen = 0
    for _epoch in range(cfg.epochs):
        for s in encoded:
            inputs, counts, targets = _examples(s, offsets, cfg.mode == "cbow")
            in_ends = np.cumsum(counts)
            in_starts = in_ends - counts
            rates = np.maximum(
                floor, cfg.rate * (1.0 - (seen + in_starts) / total_pairs))
            seen += int(in_ends[-1])
            # Output rows per example: the target, then the negatives that
            # miss it; labels mark each example's first row.
            negatives = vocab.sample_negatives(len(targets) * cfg.negatives, rng)
            outputs = np.column_stack([targets, negatives.reshape(len(targets), -1)])
            used = outputs != targets[:, None]
            used[:, 0] = True
            out_counts = used.sum(axis=1)
            out_ends = np.cumsum(out_counts)
            out_starts = out_ends - out_counts
            outputs = outputs[used]
            labels = np.zeros(len(outputs))
            labels[out_starts] = 1.0
            for lr, i0, i1, o0, o1 in zip(
                    rates.tolist(), in_starts.tolist(), in_ends.tolist(),
                    out_starts.tolist(), out_ends.tolist()):
                ids = inputs[i0:i1]
                count = i1 - i0
                out = outputs[o0:o1]
                h = w_in[ids].sum(axis=0) / count
                grad_h, grad_out = pair_gradients(h, w_out[out], labels[o0:o1])
                # np.add.at handles repeated ids correctly.
                np.add.at(w_out, out, lr * grad_out)
                np.add.at(w_in, ids, lr * grad_h / count)
    logger.info("trained %d vectors (dim %d) over %d pairs",
                size, cfg.dim, seen)
    return EmbeddingTable(list(vocab.tokens), w_in)


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
