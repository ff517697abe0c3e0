"""Shallow classifiers over joined feature blocks, plus splits and metrics.

Everything is plain numpy: logistic regression (sigmoid output), softmax
regression, and an MLP with ReLU hidden layers and a softmax head, all
trained by minibatch SGD on cross-entropy.  The train/test split is either
a seeded shuffle or a pure function of the node name (FNV-1a hash), the
latter giving sets that stay stable as the id population grows.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .embed import sigmoid
from .errors import ConfigError, DivergenceError, ValidationError
from .graph import _float_rows, _open_text

__all__ = [
    "FeatureMatrix",
    "ModelParams",
    "SplitSpec",
    "TrainHyper",
    "auc_rank",
    "check_hidden",
    "evaluate",
    "fnv1a64",
    "join_features",
    "predict",
    "row_indices",
    "split",
    "train_logistic",
    "train_mlp",
    "train_softmax",
]

logger = logging.getLogger(__name__)

PROB_CLAMP = 1e-12


# ---------------------------------------------------------------------------
# Feature matrices
# ---------------------------------------------------------------------------

@dataclass
class FeatureMatrix:
    """Row-aligned feature rows keyed by node name."""

    nodes: list[str]
    columns: list[str]
    values: np.ndarray
    _row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.nodes), len(self.columns)):
            raise ValidationError(
                f"feature matrix shape {self.values.shape} does not match "
                f"{len(self.nodes)} nodes x {len(self.columns)} columns")
        self._row = {name: i for i, name in enumerate(self.nodes)}
        if len(self._row) != len(self.nodes):
            dup = next(n for i, n in enumerate(self.nodes) if self._row[n] != i)
            raise ValidationError(f"feature matrix repeats node {dup!r}")

    def __contains__(self, node: str) -> bool:
        return node in self._row

    def to_csv(self, path) -> None:
        """Write ``csv.writer``'s excel dialect: CRLF line ends, and a name
        quoted only if it holds a comma, a quote or a line break.
        Tables without such a name are formatted in bulk; the others, and
        tables without columns, go through ``csv.writer`` row by row."""
        header = ["node"] + self.columns
        with open(path, "w", newline="", encoding="utf-8") as fh:
            text = "".join([*self.nodes, *header])
            if self.columns and not any(c in text for c in ',"\r\n'):
                fh.write(",".join(header) + "\r\n")
                fh.writelines(_float_rows(self.nodes, self.values, ",",
                                          end="\r\n"))
                return
            writer = csv.writer(fh)
            writer.writerow(header)
            for name, row in zip(self.nodes, self.values):
                writer.writerow([name] + [f"{x:.17g}" for x in row])

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        """Read the ``to_csv`` format; a bad row (wrong width, a non-finite
        value, a repeated node) raises ``ValidationError`` at ``path:line``."""
        return cls(*(_array_csv(path) or _read_csv_rows(path)))


# Every byte but a quote and the control bytes other than tab, newline and
# carriage return: csv.reader and np.loadtxt may read those apart (loadtxt
# strips 0x1c-0x1f around a number, float() does not).
_CSV_PLAIN = bytes(set(range(256)) - set(range(0x20)) - {ord('"')}) + b"\t\n\r"


def _array_csv(path):
    """``from_csv`` by ``np.loadtxt``, or ``None`` to leave the file to the
    line reader: a byte outside ``_CSV_PLAIN``, a lone carriage return, a
    byte that is not UTF-8, a row of other than the header's comma count,
    a value ``loadtxt`` rejects, a repeated node or a non-finite value."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if (raw.translate(None, _CSV_PLAIN)
            or raw.count(b"\r") != raw.count(b"\r\n")):
        return None
    try:
        header, *lines = raw.replace(b"\r", b"").decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    header = header.split(",")
    lines = [line for line in lines if line]
    width = len(header)
    if (header[0] != "node" or width < 2 or not lines
            or any(line.count(",") != width - 1 for line in lines)):
        return None
    nodes = [line.partition(",")[0] for line in lines]
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=range(1, width),
                            comments=None, ndmin=2)
    except ValueError:
        return None
    if len(set(nodes)) != len(nodes) or not np.isfinite(values).all():
        return None
    return nodes, header[1:], values


def _read_csv_rows(path):
    """The line reader of ``from_csv``: ``csv.reader`` row by row."""
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "node":
            raise ValidationError(f"{path}: first column must be 'node'")
        columns = header[1:]
        nodes, rows = [], []
        line_of: dict[str, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(header)} fields")
            if line_of.setdefault(row[0], lineno) != lineno:
                raise ValidationError(f"{path}:{lineno}: repeated node")
            nodes.append(row[0])
            try:
                rows.append([float(x) for x in row[1:]])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad number") from exc
    values = (np.asarray(rows, dtype=np.float64) if rows
              else np.zeros((0, len(columns))))
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValidationError(
            f"{path}:{line_of[nodes[bad[0]]]}: non-finite value")
    return nodes, columns, values


def row_indices(row_of: dict[str, int], names: list[str]) -> np.ndarray:
    """The row in ``row_of`` of each of ``names``, -1 where it has none."""
    return np.fromiter((row_of.get(n, -1) for n in names), dtype=np.int64,
                       count=len(names))


def join_features(blocks: dict[str, FeatureMatrix]) -> FeatureMatrix:
    """Inner join of named blocks on node name.

    Row order follows the first block; column names get a ``block.``
    prefix.  Nodes dropped from each block are counted and logged.
    """
    if not blocks:
        raise ValidationError("no feature blocks to join")
    names = list(blocks)
    first = blocks[names[0]]
    # Each block's row of each of the first block's nodes, -1 where absent.
    rows = [np.arange(len(first.nodes))] + [
        row_indices(blocks[b]._row, first.nodes) for b in names[1:]]
    mask = np.min(rows, axis=0) >= 0
    keep = list(compress(first.nodes, mask))
    if not keep:
        raise ValidationError(
            f"feature blocks {names} share no nodes; nothing to join")
    for b in names:
        dropped = len(blocks[b].nodes) - len(keep)
        if dropped:
            logger.info("join: block %r loses %d of %d rows", b, dropped,
                        len(blocks[b].nodes))
    columns = [f"{b}.{c}" for b in names for c in blocks[b].columns]
    values = np.hstack([blocks[b].values[r[mask]] for b, r in zip(names, rows)])
    return FeatureMatrix(keep, columns, values)


# ---------------------------------------------------------------------------
# Train/test splits
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _fnv1a64_all(names: list[str]) -> np.ndarray:
    """``fnv1a64`` of every name as uint64, one byte column at a time over
    the rows whose name is long enough."""
    encoded = [name.encode("utf-8") for name in names]
    sizes = np.array([len(b) for b in encoded], dtype=np.int64)
    data = np.frombuffer(b"".join(encoded), np.uint8)
    starts = np.cumsum(sizes) - sizes
    h = np.full(len(names), _FNV_OFFSET, np.uint64)
    for j in range(sizes.max(initial=0)):
        rows = np.flatnonzero(sizes > j)
        h[rows] = (h[rows] ^ data[starts[rows] + j]) * np.uint64(_FNV_PRIME)
    return h


@dataclass(frozen=True)
class SplitSpec:
    """How to carve labeled nodes into train and test sides.

    Hash mode sends a node to train iff ``(fnv1a64(name) % 10000) / 10000``
    falls below the fraction, so membership is a pure function of the name:
    reruns and id-set growth never move a node across the split.  Random
    mode is a seeded shuffle followed by a prefix cut.  Default fractions:
    0.75 for hash mode, 0.70 for random mode.
    """

    mode: str = "hash"
    train_fraction: float | None = None
    rng_seed: int = 0

    def resolved_fraction(self) -> float:
        if self.train_fraction is not None:
            return self.train_fraction
        return 0.75 if self.mode == "hash" else 0.70

    def __post_init__(self) -> None:
        if self.mode not in ("hash", "random"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if not 0.0 < self.resolved_fraction() < 1.0:
            raise ConfigError("train fraction must lie in (0, 1)")


def split(nodes: list[str], spec: SplitSpec) -> tuple[list[str], list[str]]:
    """Partition ``nodes`` into (train, test), preserving input order."""
    if not nodes:
        raise ValidationError("cannot split an empty node list")
    fraction = spec.resolved_fraction()
    if spec.mode == "hash":
        is_train = (_fnv1a64_all(nodes) % 10000) / 10000.0 < fraction
        train = [n for n, t in zip(nodes, is_train) if t]
        test = [n for n, t in zip(nodes, is_train) if not t]
        return train, test
    perm = np.random.default_rng(spec.rng_seed).permutation(len(nodes))
    cut = int(fraction * len(nodes))
    train_idx = np.sort(perm[:cut])
    test_idx = np.sort(perm[cut:])
    return [nodes[i] for i in train_idx], [nodes[i] for i in test_idx]


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainHyper:
    rate: float = 0.1
    epochs: int = 4
    minibatch: int = 3000
    l2: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:  # NaN fails too
            raise ConfigError(f"rate must be positive and finite, got {self.rate}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.minibatch < 1:
            raise ConfigError("minibatch must be >= 1")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")


@dataclass
class ModelParams:
    """Layer weights/biases plus the output head kind.

    ``output`` is "sigmoid" (one unit, binary) or "softmax" (one unit per
    class).  ``loss_history`` records each training epoch's loss: the mean
    over its minibatches, weighted by batch size, of the cross-entropy
    (plus L2) that each batch had before its step.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output: str
    loss_history: list[float] = field(default_factory=list)

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[0]


def _init_params(widths: list[int], output: str,
                 rng: np.random.Generator) -> ModelParams:
    # Uniform init scaled by 1/sqrt(fan-in); biases start at zero.
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases, output)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of ``z``, computed in place."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _forward(params: ModelParams, x: np.ndarray):
    """Returns (per-layer activations, output probabilities)."""
    acts = [x]
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = a @ w
        a += b
        np.maximum(0.0, a, out=a)
        acts.append(a)
    z = a @ params.weights[-1]
    z += params.biases[-1]
    probs = sigmoid(z) if params.output == "sigmoid" else _softmax(z)
    return acts, probs


def loss_and_gradients(params: ModelParams, x: np.ndarray, y: np.ndarray,
                       l2: float = 0.0):
    """Mean cross-entropy (plus L2 on weights) and its exact gradients.

    For both output heads the output-layer error is ``probs - target``
    scaled by 1/batch; ReLU masks gate the backward pass through hidden
    layers.  Gradients are returned as (weight grads, bias grads) lists.
    """
    acts, probs = _forward(params, x)
    if params.output == "sigmoid":
        target = y.reshape(-1, 1).astype(np.float64)
        clamped = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
        ce = -np.mean(target * np.log(clamped)
                      + (1.0 - target) * np.log(1.0 - clamped))
        delta = probs - target
    else:
        rows = np.arange(len(y))
        ce = -np.mean(np.log(np.clip(probs[rows, y], PROB_CLAMP,
                                     1.0 - PROB_CLAMP)))
        delta = probs
        delta[rows, y] -= 1.0
    loss = float(ce)
    if l2:  # a NaN l2 still reaches the loss and stops training
        loss += 0.5 * l2 * sum(float((w * w).sum()) for w in params.weights)
    delta /= len(x)
    grads_w, grads_b = [], []
    for layer in range(len(params.weights) - 1, -1, -1):
        grad = acts[layer].T @ delta
        if l2:
            grad += l2 * params.weights[layer]
        grads_w.append(grad)
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            delta = delta @ params.weights[layer].T
            delta *= acts[layer] > 0
    grads_w.reverse()
    grads_b.reverse()
    return loss, grads_w, grads_b


def _sgd(params: ModelParams, x: np.ndarray, y: np.ndarray,
         hyper: TrainHyper, rng: np.random.Generator) -> ModelParams:
    n = len(x)
    for epoch in range(1, hyper.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.minibatch):
            batch = order[start:start + hyper.minibatch]
            loss, grads_w, grads_b = loss_and_gradients(
                params, x[batch], y[batch], hyper.l2)
            if not np.isfinite(loss):
                raise DivergenceError(epoch, loss)
            total += loss * len(batch)
            for w, b, gw, gb in zip(params.weights, params.biases,
                                    grads_w, grads_b):
                w -= hyper.rate * gw
                b -= hyper.rate * gb
        if not all(np.isfinite(a).all()
                   for a in params.weights + params.biases):
            raise DivergenceError(epoch, math.nan)
        params.loss_history.append(total / n)
    return params


def _check_training_inputs(x: np.ndarray, y: np.ndarray,
                           n_classes: int) -> None:
    if len(x) != len(y):
        raise ValidationError(f"{len(x)} feature rows vs {len(y)} labels")
    if len(x) < 2:
        raise ValidationError("need at least 2 training rows")
    present = np.unique(y)
    if len(present) < 2:
        raise ValidationError(
            f"training labels contain a single class ({present.tolist()})")
    if present.min() < 0 or present.max() >= n_classes:
        raise ValidationError(
            f"labels must lie in [0, {n_classes}), got {present.tolist()}")


def balance_classes(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices that downsample every class to the minority count."""
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    m = counts.min()
    picked = [rng.permutation(np.flatnonzero(y == c))[:m] for c in classes]
    return np.sort(np.concatenate(picked))


def _train(features, labels, hidden: list[int], n_classes: int, output: str,
           hyper: TrainHyper | None) -> ModelParams:
    """The one trainer body: checks, init, then minibatch SGD."""
    hyper = hyper or TrainHyper()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    _check_training_inputs(x, y, n_classes)
    rng = np.random.default_rng(hyper.rng_seed)
    out_units = 1 if output == "sigmoid" else n_classes
    params = _init_params([x.shape[1], *hidden, out_units], output, rng)
    return _sgd(params, x, y, hyper, rng)


def train_logistic(features, labels, hyper: TrainHyper | None = None) -> ModelParams:
    """Binary logistic regression by minibatch SGD on cross-entropy."""
    return _train(features, labels, [], 2, "sigmoid", hyper)


def train_softmax(features, labels, n_classes: int,
                  hyper: TrainHyper | None = None) -> ModelParams:
    """Multiclass generalization of the logistic baseline."""
    return _train(features, labels, [], n_classes, "softmax", hyper)


def train_mlp(features, labels, hidden: list[int], n_classes: int = 2,
              hyper: TrainHyper | None = None) -> ModelParams:
    """ReLU feed-forward net with a softmax head.

    Default architecture is three hidden layers of 256 units; pass
    ``hidden`` explicitly for anything else.
    """
    check_hidden(hidden)
    return _train(features, labels, hidden, n_classes, "softmax", hyper)


def check_hidden(hidden: list[int]) -> None:
    """Reject an empty list of MLP layer widths or a width below 1."""
    if not hidden or any(h < 1 for h in hidden):
        raise ConfigError(f"bad hidden layer sizes {hidden!r}")


def predict(params: ModelParams, features) -> np.ndarray:
    """Per-row class-probability vectors, rows summing to 1."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape[1] != params.input_width:
        raise ValidationError(
            f"feature width {x.shape[1]} does not match model input "
            f"{params.input_width}")
    _, probs = _forward(params, x)
    if params.output == "sigmoid":
        p = probs[:, 0]
        return np.stack([1.0 - p, p], axis=1)
    return probs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def auc_rank(scores, labels) -> float:
    """AUC via the rank statistic; tied scores contribute half.

    Equals the fraction of (positive, negative) pairs ranked correctly,
    exactly, because tied groups get the average of their rank range.
    NaN scores have no rank and raise ``ValidationError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    nan = int(np.isnan(scores).sum())
    if nan:
        raise ValidationError(f"{nan} AUC scores are NaN")
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC is undefined when only one class is present")
    # A tie group's members all get the same rank, so the order within a
    # tie, which the default sort leaves open, does not matter.
    order = np.argsort(scores)
    sorted_scores = scores[order]
    # Tie group g spans sorted positions [starts[g], ends[g]); each member
    # gets the mean of the 1-based ranks starts[g]+1 .. ends[g].
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    pos_rank_sum = ranks[labels].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(predictions, truth) -> dict:
    """Accuracy, cross-entropy, and (when defined) AUC.

    ``predictions`` may be scalar positive-class scores or per-class
    probability rows; ``truth`` is a class index per row.  AUC is reported
    only for binary problems with both classes present in the truth, and
    is ``None`` otherwise (use ``auc_rank`` directly to get the error).
    Rows with a non-finite value (such as the ``nan`` rows of inactive
    nodes) and truth classes outside the prediction width raise
    ``ValidationError``.
    """
    probs = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(truth, dtype=np.int64)
    if probs.ndim == 1 or probs.shape[1] == 1:
        p = probs.reshape(-1)
        probs = np.stack([1.0 - p, p], axis=1)
    if len(probs) != len(y):
        raise ValidationError(f"{len(probs)} predictions vs {len(y)} labels")
    if len(y) == 0:
        raise ValidationError("nothing to evaluate")
    if y.min() < 0 or y.max() >= probs.shape[1]:
        raise ValidationError(f"truth classes must lie in [0, {probs.shape[1]})")
    bad = int((~np.isfinite(probs).all(axis=1)).sum())
    if bad:
        raise ValidationError(
            f"{bad} of {len(y)} prediction rows are not finite")
    accuracy = float((probs.argmax(axis=1) == y).mean())
    clamped = np.clip(probs[np.arange(len(y)), y], PROB_CLAMP, None)
    # fsum makes the mean exactly invariant to row order.
    cross_entropy = -math.fsum(np.log(clamped)) / len(y)
    auc = None
    if probs.shape[1] == 2 and len(np.unique(y)) == 2:
        auc = auc_rank(probs[:, 1], y == 1)
    return {"auc": auc, "accuracy": accuracy, "cross_entropy": cross_entropy}
