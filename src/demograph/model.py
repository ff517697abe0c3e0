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

import numpy as np

from .embed import sigmoid
from .errors import ConfigError, DivergenceError, ValidationError
from .graph import (_CHUNK, _first_repeat, _float_rows, _line_runs,
                    _open_text, name_array, row_indices, texts)

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
    """Row-aligned feature rows keyed by node name.

    ``nodes`` is a ``graph.name_array`` (a list of names is taken as one).
    No name -> row dict is kept: ``graph.row_indices`` maps names to rows.
    """

    nodes: np.ndarray
    columns: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.nodes = name_array(self.nodes)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.nodes), len(self.columns)):
            raise ValidationError(
                f"feature matrix shape {self.values.shape} does not match "
                f"{len(self.nodes)} nodes x {len(self.columns)} columns")
        dup = _first_repeat(self.nodes)
        if dup >= 0:
            raise ValidationError(
                f"feature matrix repeats node {self.nodes[dup].decode()!r}")

    def to_csv(self, path) -> None:
        """Write ``csv.writer``'s excel dialect: CRLF line ends, and a name
        quoted only if it holds a comma, a quote or a line break.
        Tables without such a name are formatted in bulk; the others, and
        tables without columns, go through ``csv.writer`` row by row."""
        header = ["node"] + self.columns
        with open(path, "w", newline="", encoding="utf-8") as fh:
            text = b"".join([*self.nodes.tolist(), *map(str.encode, header)])
            if self.columns and not any(c in text for c in b',"\r\n'):
                fh.write(",".join(header) + "\r\n")
                fh.writelines(_float_rows(self.nodes, self.values, ",",
                                          end="\r\n"))
                return
            writer = csv.writer(fh)
            writer.writerow(header)
            for name, row in zip(texts(self.nodes), self.values):
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
    a value ``loadtxt`` rejects, a repeated node or a non-finite value.
    The file is read, checked and parsed one ``graph._line_runs`` run of
    whole lines at a time, so that only the nodes (as ``name_array``s) and
    the values outlive each run.  A run ends just past a newline, so it
    splits no UTF-8 character and no CRLF, and the byte checks of each run
    add up to those of the whole file."""
    header, nodes, values = None, [], []
    with open(path, "rb") as fh:
        for run in _line_runs(fh):
            if (run.translate(None, _CSV_PLAIN)
                    or run.count(b"\r") != run.count(b"\r\n")):
                return None
            try:
                lines = run.replace(b"\r", b"").decode("utf-8").split("\n")
            except UnicodeDecodeError:
                return None
            del run
            if header is None:
                header = lines.pop(0).split(",")
                width = len(header)
                if header[0] != "node" or width < 2:
                    return None
            lines = [line for line in lines if line]
            if not lines:
                continue
            if any(line.count(",") != width - 1 for line in lines):
                return None
            try:
                block = np.loadtxt(lines, delimiter=",",
                                   usecols=range(1, width), comments=None,
                                   ndmin=2)
            except ValueError:
                return None
            if not np.isfinite(block).all():
                return None
            nodes.append(name_array([line.partition(",")[0]
                                     for line in lines]))
            values.append(block)
    if not nodes:
        return None
    nodes = np.concatenate(nodes)
    if _first_repeat(nodes) >= 0:
        return None
    return nodes, header[1:], np.concatenate(values)


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
            if row[0].endswith("\0"):
                raise ValidationError(f"{path}:{lineno}: node ends in NUL")
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
        row_indices(blocks[b].nodes, first.nodes) for b in names[1:]]
    mask = np.min(rows, axis=0) >= 0
    keep = first.nodes[mask]
    if not len(keep):
        raise ValidationError(
            f"feature blocks {names} share no nodes; nothing to join")
    for b in names:
        dropped = len(blocks[b].nodes) - len(keep)
        if dropped:
            logger.info("join: block %r loses %d of %d rows", b, dropped,
                        len(blocks[b].nodes))
    columns = [f"{b}.{c}" for b in names for c in blocks[b].columns]
    # Each block's kept rows are copied into its columns of the one joined
    # table _CHUNK rows at a time, so no gathered copy of a whole block
    # lives beside the table.
    values = np.empty((len(keep), len(columns)))
    col = 0
    for b, r in zip(names, rows):
        block, r = blocks[b].values, r[mask]
        for start in range(0, len(r), _CHUNK):
            values[start:start + _CHUNK, col:col + block.shape[1]] = \
                block[r[start:start + _CHUNK]]
        col += block.shape[1]
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


def _fnv1a64_all(names) -> np.ndarray:
    """``fnv1a64`` of every name (text, or the bytes of a ``name_array``)
    as uint64, one byte column at a time over the rows whose name is long
    enough."""
    encoded = (names.tolist() if isinstance(names, np.ndarray)
               else [name.encode("utf-8") for name in names])
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
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


def split(nodes, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``nodes`` (a ``name_array``, or text) of the
    (train, test) sides, each in increasing order."""
    if not len(nodes):
        raise ValidationError("cannot split an empty node list")
    fraction = spec.resolved_fraction()
    if spec.mode == "hash":
        is_train = (_fnv1a64_all(nodes) % 10000) / 10000.0 < fraction
        return np.flatnonzero(is_train), np.flatnonzero(~is_train)
    perm = np.random.default_rng(spec.rng_seed).permutation(len(nodes))
    cut = int(fraction * len(nodes))
    return np.sort(perm[:cut]), np.sort(perm[cut:])


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
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


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


def _sgd(params: ModelParams, x: np.ndarray, rows: np.ndarray, y: np.ndarray,
         hyper: TrainHyper, rng: np.random.Generator) -> ModelParams:
    """Minibatch SGD on the rows ``rows`` of ``x``, labelled ``y``: each
    batch gathers its rows as ``x[rows[batch]]``, which equals ``x[rows]
    [batch]`` bit for bit, so the training rows are never copied whole."""
    n = len(rows)
    for epoch in range(1, hyper.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.minibatch):
            batch = order[start:start + hyper.minibatch]
            loss, grads_w, grads_b = loss_and_gradients(
                params, x[rows[batch]], y[batch], hyper.l2)
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


def _check_training_inputs(x: np.ndarray, rows: np.ndarray, y: np.ndarray,
                           n_classes: int) -> None:
    if x.ndim != 2 or not x.shape[1]:
        raise ValidationError(
            f"training matrix has no feature columns (shape {x.shape})")
    if rows.ndim != 1 or (rows.size
                          and (rows.min() < 0 or rows.max() >= len(x))):
        raise ValidationError(f"training rows must lie in [0, {len(x)})")
    if len(rows) != len(y):
        raise ValidationError(f"{len(rows)} feature rows vs {len(y)} labels")
    if len(rows) < 2:
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
           hyper: TrainHyper | None, rows) -> ModelParams:
    """The one trainer body: checks, init, then minibatch SGD."""
    hyper = hyper or TrainHyper()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if rows is None:  # every row; a 0-d x fails the checks below
        rows = np.arange(x.shape[0] if x.ndim else 0)
    rows = np.asarray(rows, dtype=np.int64)
    _check_training_inputs(x, rows, y, n_classes)
    rng = np.random.default_rng(hyper.rng_seed)
    out_units = 1 if output == "sigmoid" else n_classes
    params = _init_params([x.shape[1], *hidden, out_units], output, rng)
    return _sgd(params, x, rows, y, hyper, rng)


# Each trainer fits ``labels`` to the rows ``rows`` of ``features`` (every
# row by default); training on rows of a larger table gives the same
# weights as training on a copy of those rows, without the copy.

def train_logistic(features, labels, hyper: TrainHyper | None = None,
                   rows=None) -> ModelParams:
    """Binary logistic regression by minibatch SGD on cross-entropy."""
    return _train(features, labels, [], 2, "sigmoid", hyper, rows)


def train_softmax(features, labels, n_classes: int,
                  hyper: TrainHyper | None = None, rows=None) -> ModelParams:
    """Multiclass generalization of the logistic baseline."""
    return _train(features, labels, [], n_classes, "softmax", hyper, rows)


def train_mlp(features, labels, hidden: list[int], n_classes: int = 2,
              hyper: TrainHyper | None = None, rows=None) -> ModelParams:
    """ReLU feed-forward net with a softmax head.

    Default architecture is three hidden layers of 256 units; pass
    ``hidden`` explicitly for anything else.
    """
    check_hidden(hidden)
    return _train(features, labels, hidden, n_classes, "softmax", hyper, rows)


def check_hidden(hidden: list[int] | tuple[int, ...]) -> None:
    """Reject an empty list of MLP layer widths or a width below 1."""
    if not hidden or any(h < 1 for h in hidden):
        raise ConfigError(f"bad hidden layer sizes {list(hidden)!r}")


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

def _twice_rank_sum(ordered: np.ndarray, offset: int) -> int:
    """Twice the rank sum of the positives among ``ordered``: ``auc_rank``
    keys in ascending score order, which hold the 1-based ranks
    ``offset + 1 ..``.  The keys are shifted down to their scores in place.
    A tie group spans sorted positions [start, end), and each of its
    positives ranks ``offset + (start + 1 + end) / 2``."""
    if not len(ordered):
        return 0
    positive = ordered & 1
    ordered >>= 1
    bounds = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    twice = bounds[:-1] + bounds[1:]
    twice += 1 + 2 * offset
    twice *= np.add.reduceat(positive, bounds[:-1]).view(np.int64)
    return int(twice.sum())


def auc_rank(scores, labels) -> float:
    """AUC via the rank statistic; tied scores contribute half.

    Equals the fraction of (positive, negative) pairs ranked correctly,
    exactly, because tied groups get the average of their rank range.
    NaN scores have no rank and raise ``ValidationError``.

    The statistic needs only the order of the (score, label) pairs.  Each
    pair is one uint64 key: the bits of ``|score|`` shifted left one, with
    the label in the freed low bit.  The bit patterns of non-negative
    floats order as their values do, so one ``np.sort`` per sign side
    orders the keys; the negative side, reversed, comes first in ascending
    score.  ``scores + 0.0`` turns -0.0 into +0.0 first, so that the two
    zeros tie.  Twice a rank sum is an integer, and the AUC is the exact
    integer count of half pairs divided once, with correct rounding, by
    ``2 * n_pos * n_neg``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    nan = np.count_nonzero(np.isnan(scores))
    if nan:
        raise ValidationError(f"{nan} AUC scores are NaN")
    labels = np.asarray(labels).astype(bool)
    n_pos = int(np.count_nonzero(labels))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC is undefined when only one class is present")
    keys = scores + 0.0
    negative = np.signbit(keys)
    # Shifting left drops the sign bit and frees the low bit.
    keys = keys.view(np.uint64)
    keys <<= 1
    keys |= labels
    if negative.any():
        below = np.sort(keys[negative])[::-1]
        twice = (_twice_rank_sum(below, 0)
                 + _twice_rank_sum(np.sort(keys[~negative]), len(below)))
    else:
        keys.sort()
        twice = _twice_rank_sum(keys, 0)
    return (twice - n_pos * (n_pos + 1)) / (2 * n_pos * n_neg)


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
    # fsum: exactly invariant to row order; "0.0 -" turns -0.0 into +0.0.
    cross_entropy = 0.0 - math.fsum(np.log(clamped)) / len(y)
    auc = None
    if probs.shape[1] == 2 and len(np.unique(y)) == 2:
        auc = auc_rank(probs[:, 1], y == 1)
    return {"auc": auc, "accuracy": accuracy, "cross_entropy": cross_entropy}
