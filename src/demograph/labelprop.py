"""Bulk-synchronous label propagation over an undirected graph.

One superstep loop serves every strategy at any channel count.  It runs a
fixed number of fully synchronous supersteps.  Within superstep ``k+1``
every node reads only values from the end of superstep ``k`` (double
buffering), so results are deterministic for any degree of parallelism.
Seed nodes keep their initial values forever; an unlabeled node activates
the first time it has at least one active neighbor, taking the plain mean
of those neighbors' values, and from then on blends its own value with the
active-neighbor mean.  Inactive neighbors never contribute to sums or
denominators.  A node's count of active neighbors changes only when a
neighbor activates, so the counts are recomputed only after a superstep
that activates a node; every other superstep makes one sparse product.

Three blending strategies are supported:

* ``alpha``  - constant blend: ``y <- a*y + (1-a)*mean``.
* ``beta``   - exponentially decaying neighbor weight: at superstep ``k``
  (1-based) the blend is ``y <- (1-b^k)*y + b^k*mean``, so distant labels
  matter less and less.
* ``gamma``  - per-class accumulators at any channel count: each channel
  grows by ``g*mean`` every superstep with no damping of the node's own
  value, and the channels are normalized into a distribution once, after
  the final superstep.  Scalar binary gender seeds run as two channels
  (male, female), and only the female channel is normalized: the scalar
  output is ``female / (male + female)``.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, EdgeListParseError, ValidationError
from .graph import (Graph, _first_repeat, _float_rows, _read_rows,
                    _token_words, _word_names, name_array, row_indices)

__all__ = [
    "AGE_BUCKET_UPPER_BOUNDS",
    "LabelState",
    "NUM_AGE_BUCKETS",
    "PropagationConfig",
    "age_bucket",
    "class_label",
    "propagate",
    "propagate_beta",
    "propagate_gamma",
    "propagate_multiclass",
    "propagate_trace",
    "read_seed_labels",
    "read_node_vectors",
    "write_label_state",
    "write_node_vectors",
]

logger = logging.getLogger(__name__)

# Inclusive upper bound of age buckets 0..5; bucket 6 is open-ended (65+).
AGE_BUCKET_UPPER_BOUNDS = (17, 24, 34, 44, 54, 64)
NUM_AGE_BUCKETS = len(AGE_BUCKET_UPPER_BOUNDS) + 1


def age_bucket(age: int) -> int:
    """Map an age in years to one of the 7 bucket indices."""
    if age < 0:
        raise ValidationError(f"age must be non-negative, got {age}")
    return bisect_left(AGE_BUCKET_UPPER_BOUNDS, age)


def class_label(raw: str, num_classes: int, ages: bool = False) -> int:
    """Parse an integral class label such as ``3`` or ``3.0``.

    With ``ages`` the number is a raw age in years and maps to its bucket.
    A value that is not a number raises ``ValueError``; a non-integral one
    (``0.7``, ``inf``, ``nan``), a negative age or a class outside
    ``[0, num_classes)`` raises ``ValidationError``.
    """
    number = float(raw)
    # False for nan and inf as well as for fractions such as 0.7.
    if not number.is_integer():
        raise ValidationError(f"label must be an integer, got {raw!r}")
    value = age_bucket(int(number)) if ages else int(number)
    if not 0 <= value < num_classes:
        raise ValidationError(
            f"class index {value} out of range [0, {num_classes})")
    return value


@dataclass(frozen=True)
class PropagationConfig:
    """Strategy choice plus its parameter and the superstep count.

    Only the parameter matching ``strategy`` is read and checked; the
    others are ignored.  Defaults follow the production configuration
    (constant blend, 3 supersteps, own-value weight 0.3).
    """

    strategy: str = "alpha"
    alpha: float = 0.3
    beta: float = 0.8
    gamma: float = 0.9
    iterations: int = 3

    def __post_init__(self) -> None:
        if self.strategy not in ("alpha", "beta", "gamma"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if not isinstance(self.iterations, (int, np.integer)) or self.iterations < 1:
            raise ConfigError(
                f"iterations must be >= 1 and whole, got {self.iterations!r}")
        if self.strategy == "alpha" and not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.strategy == "beta" and not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.strategy == "gamma" and not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must lie in [0, 1), got {self.gamma}")


@dataclass
class LabelState:
    """Per-node label vectors plus seed and activation flags.

    ``values`` is ``(n, C)``: C=1 for binary gender (probability of
    female), C=7 for age buckets.  Rows of inactive nodes are zero and
    carry no meaning.  Seed rows never change during propagation.
    """

    values: np.ndarray
    is_seed: np.ndarray
    is_active: np.ndarray

    def __post_init__(self):
        self.is_seed = np.asarray(self.is_seed, dtype=bool)
        self.is_active = np.asarray(self.is_active, dtype=bool)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or not self.values.shape[1]:
            raise ValidationError(
                "label state values must be (nodes, channels >= 1)")
        n = self.values.shape[0]
        if self.is_seed.shape != (n,) or self.is_active.shape != (n,):
            raise ValidationError("label state arrays disagree on node count")
        if (self.is_seed & ~self.is_active).any():
            raise ValidationError("seed nodes must be active")

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]

    @property
    def coverage(self) -> float:
        """Fraction of nodes that are active."""
        return float(self.is_active.mean()) if self.node_count else 0.0

    @property
    def seed_count(self) -> int:
        return int(self.is_seed.sum())

    @classmethod
    def from_seed_values(cls, node_count: int, indices: Iterable[int],
                         values: Iterable[float] | np.ndarray,
                         num_classes: int = 1) -> "LabelState":
        """State with the given nodes seeded; everyone else inactive.  An
        index array is taken as it is; an index outside ``[0, node_count)``,
        a repeated one, or other than ``num_classes`` values per index
        raises ``ValidationError``.  No index gives an unseeded state."""
        idx = np.asarray(indices if isinstance(indices, np.ndarray)
                         else list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= node_count):
            raise ValidationError(
                f"seed index out of range [0, {node_count})")
        given = np.asarray(values, dtype=np.float64)
        if not np.isfinite(given).all():
            raise ValidationError("seed values must be finite")
        if given.size != len(idx) * num_classes:
            raise ValidationError(f"{given.size} seed values for {len(idx)} "
                                  f"nodes x {num_classes} channels")
        vals = np.zeros((node_count, num_classes))
        seed = np.zeros(node_count, dtype=bool)
        seed[idx] = True
        if np.count_nonzero(seed) != len(idx):
            raise ValidationError("seed indices repeat a node")
        vals[idx] = given.reshape(len(idx), num_classes)
        return cls(vals, seed, seed.copy())

    @classmethod
    def from_seed_classes(cls, node_count: int, indices: Iterable[int],
                          classes: Iterable[int],
                          num_classes: int = NUM_AGE_BUCKETS) -> "LabelState":
        """One-hot state for class-indexed seeds."""
        cls_idx = np.asarray(classes if isinstance(classes, np.ndarray)
                             else list(classes), dtype=np.int64)
        if ((cls_idx < 0) | (cls_idx >= num_classes)).any():
            raise ValidationError(f"class index out of range [0, {num_classes})")
        return cls.from_seed_values(node_count, indices,
                                    np.eye(num_classes)[cls_idx], num_classes)

    @classmethod
    def from_seeds(cls, node_count: int, indices, values,
                   num_classes: int) -> "LabelState":
        """The state of seeds as ``lp_features`` takes them: with one
        channel each value is the node's own, else a class index made
        one-hot over ``num_classes`` channels."""
        if num_classes == 1:
            return cls.from_seed_values(node_count, indices, values)
        return cls.from_seed_classes(node_count, indices, values, num_classes)


def _neighbor_means(g: Graph, values: np.ndarray, counts: np.ndarray,
                    has: np.ndarray) -> np.ndarray:
    """Mean of active neighbors' values per node where ``has``, given each
    node's active-neighbor ``counts`` (``has`` is ``counts > 0``).

    The engine keeps the rows of inactive nodes at exactly 0.0, so
    multiplying by the full adjacency matrix adds only +0.0 for inactive
    neighbors, and the sums equal those over active neighbors alone; rows
    without an active neighbor are therefore +0.0 too.  The product is
    divided in place.  Each row is summed in CSR order, so the result is
    bit-identical across runs.
    """
    means = g.adjacency @ values
    np.divide(means, counts[:, None], out=means, where=has[:, None])
    return means


def _channel_sum(values: np.ndarray) -> np.ndarray:
    """``values.sum(axis=1)``, bit for bit.  Below 8 channels numpy adds a
    row's channels one at a time onto +0.0, and adding whole columns in
    channel order gives the same sums without a reduction over the short
    axis, which costs far more per row.  From 8 channels numpy adds a row
    pairwise, so the reduction stays."""
    if values.shape[1] >= 8:
        return values.sum(axis=1)
    total = values[:, 0] + 0.0
    for c in range(1, values.shape[1]):
        total += values[:, c]
    return total


def _finalize_accumulators(acc: np.ndarray, active: np.ndarray,
                           is_seed: np.ndarray,
                           share: slice = slice(None)) -> LabelState:
    """Normalize accumulator rows into distributions and keep the channels
    ``share`` of them; the seed rows, which hold the seeds' values, pass
    through."""
    kept = acc[:, share]
    out = np.zeros(kept.shape)
    mass = _channel_sum(acc)
    np.divide(kept, mass[:, None], out=out,
              where=(active & (mass > 0))[:, None])
    np.copyto(out, kept, where=is_seed[:, None])
    return LabelState(out, is_seed.copy(), active.copy())


class _HandedState(LabelState):
    """A seed state handed over to the one run it seeds, which takes its
    values buffer instead of a copy: its inactive rows are zero, as
    ``from_seed_values`` builds them.  The run detaches the buffer and
    leaves the state an empty array of the same width, so that the buffer
    is freed once the first superstep no longer needs it."""


def _run(g: Graph, seeds: LabelState, cfg: PropagationConfig,
         keep: set[int], share: slice = slice(None)
         ) -> Iterator[tuple[int, LabelState]]:
    """The superstep loop of every strategy at any channel count.

    Each superstep updates the non-seed nodes with an active neighbor
    (``grow``).  Alpha and beta blend an active node's value with the
    neighbor mean at weight ``w`` and give a newly active node the plain
    mean; gamma adds ``gamma * mean`` to every channel and activates a node
    once it holds mass.  After each superstep ``k`` in ``keep`` it yields
    ``(k, state)``: the raw state, or for gamma the channels ``share`` of
    the normalized accumulators.

    The active-neighbor counts change only when a node activates, so they
    are computed at the first superstep and again only after a superstep
    that activated a node.  Each superstep computes the new values in the
    buffer of its neighbor means, so a run holds two value buffers at a
    time; alpha and beta scale the old values in place unless that state
    was yielded.  The values of a ``_HandedState`` are the first buffer.
    """
    active = seeds.is_active.copy()
    is_seed = seeds.is_seed.copy()
    if isinstance(seeds, _HandedState):
        values, seeds.values = seeds.values, seeds.values[:0].copy()
    else:
        values = np.where(seeds.is_active[:, None], seeds.values, 0.0)
    gamma = cfg.strategy == "gamma"
    debug = logger.isEnabledFor(logging.DEBUG)
    counts = None
    for k in range(1, cfg.iterations + 1):
        if counts is None:
            # Counts of 0/1 entries are integers, exact in float64.
            counts = g.adjacency @ active.astype(np.float64)
            has = counts > 0
            grow = has & ~is_seed
            stay = np.flatnonzero(~grow)
            blend = (grow & active)[:, None]
        new = _neighbor_means(g, values, counts, has)
        # Every row is computed whole-array, and the rows that must not
        # take the result (``stay``) are then set from an index list, which
        # beats masked ufunc loops.
        kept = values[stay]
        if gamma:
            np.multiply(new, cfg.gamma, out=new)
            np.add(values, new, out=new)
        else:
            w = 1.0 - cfg.alpha if cfg.strategy == "alpha" else cfg.beta ** k
            np.multiply(new, w, out=new, where=blend)
            # A newly active node's old row is +0.0 and its mean is never
            # -0.0, so adding its scaled old row leaves the plain mean.
            np.add(new, np.multiply(values, 1.0 - w, out=None if debug
                                    or k - 1 in keep else values), out=new)
        new[stay] = kept
        del kept
        new_active = active | (_channel_sum(new) > 0 if gamma else has)
        fresh = int((new_active & ~active).sum())
        if debug:
            moved = grow & active
            delta = np.abs(new - values)[moved].max() if moved.any() else 0.0
            logger.debug("superstep %d: max delta %.3e, %d newly active",
                         k, delta, fresh)
        if fresh:
            counts = None
        # A yielded state's arrays are never written again, so a caller may
        # keep them without a copy; gamma yields normalized copies.
        values, active = new, new_active
        if k in keep:
            yield k, (_finalize_accumulators(values, active, is_seed, share)
                      if gamma else LabelState(values, is_seed, active))


def _states(g: Graph, seeds: LabelState, cfg: PropagationConfig,
            keep: set[int]) -> Iterator[tuple[int, LabelState]]:
    """Check one run's inputs, then yield its states at the supersteps in
    ``keep``.  Scalar gamma seeds run as (male, female) accumulators, and
    their states hold the female share alone."""
    if seeds.node_count != g.node_count:
        raise ValidationError(
            f"seed state covers {seeds.node_count} nodes, graph has {g.node_count}")
    if not seeds.is_seed.any():
        raise ConfigError("propagation requires at least one seed node")
    if cfg.strategy != "gamma" or seeds.num_classes != 1:
        return _run(g, seeds, cfg, keep)
    if not np.isin(seeds.values[seeds.is_seed, 0], (0.0, 1.0)).all():
        raise ValidationError("gamma strategy needs seed values in {0, 1}")
    female = seeds.values[:, 0]
    two_channel = _HandedState(
        np.stack([np.where(seeds.is_active, 1.0 - female, 0.0),
                  np.where(seeds.is_active, female, 0.0)], axis=1),
        seeds.is_seed, seeds.is_active)
    return _run(g, two_channel, cfg, keep, share=slice(1, 2))


def propagate(g: Graph, seeds: LabelState, cfg: PropagationConfig) -> LabelState:
    """Run ``cfg.iterations`` synchronous supersteps from the seed state.

    Returns the final state; activation coverage is available as
    ``state.coverage``.  Under the gamma strategy scalar seeds are binary
    values in {0, 1} and the result is the female-share scalar
    (``propagate_gamma``); wider seeds accumulate per channel.
    """
    [(_, state)] = _states(g, seeds, cfg, {cfg.iterations})
    return state


def propagate_beta(g: Graph, seeds: LabelState, beta: float,
                   iterations: int) -> LabelState:
    """Exponential-decay variant: neighbor weight ``beta**k`` at superstep k."""
    cfg = PropagationConfig(strategy="beta", beta=beta, iterations=iterations)
    return propagate(g, seeds, cfg)


def propagate_gamma(g: Graph, seeds: LabelState, gamma: float,
                    iterations: int) -> LabelState:
    """Accumulator variant for binary gender: scalar seeds in {0, 1}
    (female = 1) run as (male, female) channels, and the result is the
    female share.  ``gamma = 0`` leaves every non-seed inactive."""
    cfg = PropagationConfig(strategy="gamma", gamma=gamma, iterations=iterations)
    return propagate(g, seeds, cfg)


def propagate_multiclass(g: Graph, seed_classes: Mapping[int, int] | np.ndarray,
                         cfg: PropagationConfig,
                         num_classes: int = NUM_AGE_BUCKETS) -> LabelState:
    """Propagate one-hot class seeds over ``num_classes`` channels.

    ``seed_classes`` is either a mapping of node index to class index or a
    per-node array with -1 marking unlabeled nodes.  All channels share one
    superstep schedule, which for the blended strategies is equivalent to
    running each channel as an independent scalar propagation.  Under the
    gamma strategy the channels accumulate independently and the final
    vector is normalized to sum to 1.
    """
    if isinstance(seed_classes, Mapping):
        idx, classes = list(seed_classes), list(seed_classes.values())
    else:
        arr = np.asarray(seed_classes, dtype=np.int64)
        idx = np.flatnonzero(arr >= 0)
        classes = arr[idx]
    seeds = LabelState.from_seed_classes(g.node_count, idx, classes,
                                         num_classes=num_classes)
    return propagate(g, seeds, cfg)


def propagate_trace(g: Graph, seeds: LabelState, cfg: PropagationConfig,
                    checkpoints: Iterable[int]) -> dict[int, LabelState]:
    """Snapshot the state at several superstep counts in one pass.

    A run of K supersteps passes through the states of every shorter run
    (the update rule depends only on the superstep index), so
    ``trace[k]`` equals ``propagate`` with ``iterations=k`` exactly.
    """
    wanted = set(checkpoints)
    if not wanted or not all(isinstance(k, (int, np.integer)) and k >= 1
                             for k in wanted):
        raise ConfigError("checkpoints must be whole superstep counts >= 1")
    return dict(_states(g, seeds, replace(cfg, iterations=max(wanted)), wanted))


# ---------------------------------------------------------------------------
# Text I/O: label files (truth labels and seeds) and propagated-state files.
# ---------------------------------------------------------------------------

def _label_value(raw: str, num_classes: int, ages: bool) -> float | int:
    """One label: a real in [0, 1] when ``num_classes`` is 1, else a
    ``class_label`` class index."""
    if num_classes > 1:
        return class_label(raw, num_classes, ages)
    value = float(raw)
    if not 0.0 <= value <= 1.0:  # False for nan too
        raise ValidationError(f"binary label must lie in [0, 1], got {raw!r}")
    return value


def _read_label_file(path, num_classes: int, ages: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The names (a ``name_array``) and ``_label_value`` labels (an array)
    of a ``<name><TAB><label>`` file (truth labels or seeds), in file order.

    A file that ``_token_words`` takes gives the names as the bytes of its
    tokens, and each distinct label token is read once.  Any other file,
    or one with a bad label, goes through ``_read_rows``, and its first bad
    line raises ``EdgeListParseError`` at ``path:line``.
    """
    with open(path, "rb") as fh:
        cols = _token_words(np.frombuffer(fh.read(), np.uint8))
    if cols is not None:
        names = _word_names([col[0::2] for col in cols])
        raws = _word_names([col[1::2] for col in cols])
        # Tokens of one word are told apart faster as integers.
        first, label_of = np.unique(
            raws.view(np.uint64) if raws.itemsize == 8 else raws,
            return_index=True, return_inverse=True)[1:]
        try:
            value = np.array([_label_value(raw.decode(), num_classes, ages)
                              for raw in raws[first].tolist()])
        except (ValueError, ValidationError):
            pass  # the line reader names the first bad line
        else:
            return names, value[label_of]
    names, values = [], []
    for line_no, (name, raw) in _read_rows(path, 2):
        try:
            values.append(_label_value(raw, num_classes, ages))
        except (ValueError, ValidationError) as exc:
            raise EdgeListParseError(path, line_no, str(exc)) from None
        names.append(name)
    return name_array(names), np.array(values)


def _seed_rows(path, g: Graph, num_classes: int = 1, ages: bool = False):
    """The seeds of a ``<name><TAB><label>`` file as ``lp_features`` takes
    them, ``(indices, values, num_classes)``, in file order.

    Names missing from the graph are skipped (their count is logged).  A
    name that repeats in the graph raises ``duplicate seed`` at its second
    line, once every label of the file has been checked.
    """
    names, values = _read_label_file(path, num_classes, ages)
    rows = row_indices(g.names, names)
    inside = rows >= 0
    if not inside.all():
        logger.info("skipped %d seed labels for nodes missing from the graph",
                    len(rows) - np.count_nonzero(inside))
    indices = rows[inside]
    again = _first_repeat(indices)
    if again >= 0:
        at = int(np.flatnonzero(inside)[again])
        line_no, (name, _) = next(islice(_read_rows(path, 2), at, None))
        raise EdgeListParseError(path, line_no, f"duplicate seed {name!r}")
    if not len(indices):
        raise ConfigError(f"{path}: no usable seed labels")
    return indices, values[inside], num_classes


def read_seed_labels(path, g: Graph, num_classes: int = 1,
                     ages: bool = False) -> LabelState:
    """Read ``<name><TAB><value-or-class>`` seed lines into a LabelState.

    Binary mode (``num_classes=1``) accepts reals in [0, 1]; class mode
    accepts integral bucket indices, or raw ages when ``ages`` is set.
    Bad values, then duplicate seeds, raise errors naming ``path:line``;
    names missing from the graph are skipped (``_seed_rows``).
    """
    return LabelState.from_seeds(g.node_count,
                                 *_seed_rows(path, g, num_classes, ages))


def write_node_vectors(path, names, rows) -> None:
    """Write ``<name><TAB><v0>[,v1..]`` lines with 17 significant digits,
    the format ``read_node_vectors`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_float_rows(names, rows, "\t"))


def write_label_state(path, g: Graph, state: LabelState,
                      emit_inactive: bool = False) -> None:
    """Write the active nodes' rows with ``write_node_vectors``.

    Inactive nodes are omitted unless ``emit_inactive`` is set, in which
    case they appear with ``nan`` in every channel.
    """
    keep = np.flatnonzero(state.is_active | emit_inactive)
    rows = np.where(state.is_active[:, None], state.values, np.nan)[keep]
    write_node_vectors(path, g.names[keep], rows)


def read_node_vectors(path) -> dict[str, np.ndarray]:
    """Read the ``write_node_vectors`` format back as name -> vector; a bad
    value, a repeated name or a width unlike the first row's fails at
    ``path:line``."""
    out: dict[str, np.ndarray] = {}
    width = None
    for line_no, (name, raw) in _read_rows(path, 2, sep="\t"):
        try:
            vector = np.array([float(x) for x in raw.split(",")])
        except ValueError:
            raise EdgeListParseError(path, line_no, f"bad vector {raw!r}") from None
        if name in out:
            raise EdgeListParseError(path, line_no, f"repeated name {name!r}")
        width = width or len(vector)
        if len(vector) != width:
            raise EdgeListParseError(
                path, line_no, f"expected {width} values, got {len(vector)}")
        out[name] = vector
    return out
