"""Bulk-synchronous label propagation over an undirected graph.

One superstep loop serves every strategy at any channel count.  It runs a
fixed number of fully synchronous supersteps.  Within superstep ``k+1``
every node reads only values from the end of superstep ``k`` (double
buffering), so results are deterministic for any degree of parallelism.
Seed nodes keep their initial values forever; an unlabeled node activates
the first time it has at least one active neighbor, taking the plain mean
of those neighbors' values, and from then on blends its own value with the
active-neighbor mean.  Inactive neighbors never contribute to sums or
denominators.

Three blending strategies are supported:

* ``alpha``  - constant blend: ``y <- a*y + (1-a)*mean``.
* ``beta``   - exponentially decaying neighbor weight: at superstep ``k``
  (1-based) the blend is ``y <- (1-b^k)*y + b^k*mean``, so distant labels
  matter less and less.
* ``gamma``  - per-class accumulators at any channel count: each channel
  grows by ``g*mean`` every superstep with no damping of the node's own
  value, and the channels are normalized into a distribution once, after
  the final superstep.  Scalar binary gender seeds run as two channels
  (male, female) and the scalar output is the female share.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, EdgeListParseError, ValidationError
from .graph import Graph, _float_rows, _read_rows

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
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
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
        if self.values.ndim != 2:
            raise ValidationError("label state values must be (nodes, channels)")
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
        """State with the given nodes seeded; everyone else inactive."""
        idx = np.asarray(list(indices), dtype=np.int64)
        vals = np.zeros((node_count, num_classes))
        seed = np.zeros(node_count, dtype=bool)
        seed[idx] = True
        vals[idx] = np.asarray(values, dtype=np.float64).reshape(len(idx), -1)
        return cls(vals, seed, seed.copy())

    @classmethod
    def from_seed_classes(cls, node_count: int, indices: Iterable[int],
                          classes: Iterable[int],
                          num_classes: int = NUM_AGE_BUCKETS) -> "LabelState":
        """One-hot state for class-indexed seeds."""
        cls_idx = np.asarray(list(classes), dtype=np.int64)
        if ((cls_idx < 0) | (cls_idx >= num_classes)).any():
            raise ValidationError(f"class index out of range [0, {num_classes})")
        return cls.from_seed_values(node_count, indices,
                                    np.eye(num_classes)[cls_idx], num_classes)


def _neighbor_means(g: Graph, values: np.ndarray, active: np.ndarray):
    """Mean of active neighbors' values per node.

    Returns ``(means, has_active_neighbor)``; rows without an active
    neighbor are zero.  The engine keeps the rows of inactive nodes at
    exactly 0.0, so multiplying by the full adjacency matrix adds only
    +0.0 for inactive neighbors, and the sums equal those over active
    neighbors alone.  Each row is summed in CSR order, so the result is
    bit-identical across runs.
    """
    counts = g.adjacency @ active.astype(np.float64)
    has = counts > 0
    means = np.zeros_like(values)
    np.divide(g.adjacency @ values, counts[:, None], out=means,
              where=has[:, None])
    return means, has


def _finalize_accumulators(acc: np.ndarray, active: np.ndarray,
                           seeds: LabelState) -> LabelState:
    """Normalize accumulator rows into distributions; seeds pass through."""
    out = np.zeros_like(acc)
    mass = acc.sum(axis=1)
    rows = active & (mass > 0)
    out[rows] = acc[rows] / mass[rows, None]
    out[seeds.is_seed] = seeds.values[seeds.is_seed]
    return LabelState(out, seeds.is_seed.copy(), active.copy())


def _run(g: Graph, seeds: LabelState, cfg: PropagationConfig,
         keep: set[int]) -> Iterator[tuple[int, LabelState]]:
    """The superstep loop of every strategy at any channel count.

    Each superstep updates the non-seed nodes with an active neighbor
    (``grow``).  Alpha and beta blend an active node's value with the
    neighbor mean at weight ``w`` and give a newly active node the plain
    mean; gamma adds ``gamma * mean`` to every channel and activates a node
    once it holds mass.  After each superstep ``k`` in ``keep`` it yields
    ``(k, state)``: the raw state, or for gamma the normalized accumulators.
    """
    values = np.where(seeds.is_active[:, None], seeds.values, 0.0)
    active = seeds.is_active.copy()
    is_seed = seeds.is_seed.copy()
    gamma = cfg.strategy == "gamma"
    for k in range(1, cfg.iterations + 1):
        means, has = _neighbor_means(g, values, active)
        grow = (has & ~is_seed)[:, None]
        if gamma:
            new = np.where(grow, values + cfg.gamma * means, values)
            new_active = active | (new.sum(axis=1) > 0)
        else:
            w = 1.0 - cfg.alpha if cfg.strategy == "alpha" else cfg.beta ** k
            new = np.where(grow, np.where(active[:, None],
                                          (1.0 - w) * values + w * means,
                                          means), values)
            new_active = active | has
        if logger.isEnabledFor(logging.DEBUG):
            moved = grow[:, 0] & active
            delta = np.abs(new - values)[moved].max() if moved.any() else 0.0
            logger.debug("superstep %d: max delta %.3e, %d newly active",
                         k, delta, int((new_active & ~active).sum()))
        values, active = new, new_active
        if k in keep:
            # values and active are new arrays every superstep and are
            # never written again, so a caller may keep them without a copy.
            yield k, (_finalize_accumulators(values, active, seeds) if gamma
                      else LabelState(values, is_seed, active))


def _female_share(states: Iterator[tuple[int, LabelState]]
                  ) -> Iterator[tuple[int, LabelState]]:
    """The scalar output of two-channel gamma states: the female channel.
    Rebinding ``state`` frees each two-channel state before the next
    superstep runs."""
    for k, state in states:
        state = LabelState(state.values[:, 1:2].copy(), state.is_seed,
                           state.is_active)
        yield k, state


def _states(g: Graph, seeds: LabelState, cfg: PropagationConfig,
            keep: set[int]) -> Iterator[tuple[int, LabelState]]:
    """Check one run's inputs, then yield its states at the supersteps in
    ``keep``.  Scalar gamma seeds run as (male, female) accumulators."""
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
    two_channel = LabelState(
        np.stack([np.where(seeds.is_active, 1.0 - female, 0.0),
                  np.where(seeds.is_active, female, 0.0)], axis=1),
        seeds.is_seed, seeds.is_active)
    return _female_share(_run(g, two_channel, cfg, keep))


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
    wanted = set(int(k) for k in checkpoints)
    if not wanted or min(wanted) < 1:
        raise ConfigError("checkpoints must be positive superstep counts")
    return dict(_states(g, seeds, replace(cfg, iterations=max(wanted)), wanted))


# ---------------------------------------------------------------------------
# Text I/O: seed files and propagated-state files.
# ---------------------------------------------------------------------------

def _label_rows(path, num_classes: int,
                ages: bool = False) -> Iterator[tuple[int, str, float | int]]:
    """``(line, name, label)`` for each ``<name><TAB><label>`` row: a real in
    [0, 1] when ``num_classes`` is 1, else a ``class_label`` class index.
    A bad label raises ``EdgeListParseError`` at ``path:line``."""
    for line_no, (name, raw) in _read_rows(path, 2):
        try:
            if num_classes > 1:
                value = class_label(raw, num_classes, ages)
            else:
                value = float(raw)
                if not 0.0 <= value <= 1.0:  # False for nan too
                    raise ValidationError(
                        f"binary label must lie in [0, 1], got {raw!r}")
        except (ValueError, ValidationError) as exc:
            raise EdgeListParseError(path, line_no, str(exc)) from None
        yield line_no, name, value


def read_seed_labels(path, g: Graph, num_classes: int = 1,
                     ages: bool = False) -> LabelState:
    """Read ``<name><TAB><value-or-class>`` seed lines into a LabelState.

    Binary mode (``num_classes=1``) accepts reals in [0, 1]; class mode
    accepts integral bucket indices, or raw ages when ``ages`` is set.
    Bad values and duplicate seeds raise errors naming ``path:line``; names
    missing from the graph are skipped (their count is logged).
    """
    seeds: dict[int, float | int] = {}
    skipped = 0
    for line_no, name, value in _label_rows(path, num_classes, ages):
        if name not in g:
            skipped += 1
            continue
        v = g.index_of(name)
        if v in seeds:
            raise EdgeListParseError(path, line_no, f"duplicate seed {name!r}")
        seeds[v] = value
    if skipped:
        logger.info("skipped %d seed labels for nodes missing from the graph",
                    skipped)
    if not seeds:
        raise ConfigError(f"{path}: no usable seed labels")
    indices, values = list(seeds), list(seeds.values())
    if num_classes == 1:
        return LabelState.from_seed_values(g.node_count, indices, values)
    return LabelState.from_seed_classes(g.node_count, indices, values,
                                        num_classes=num_classes)


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
    write_node_vectors(path, [g.names[v] for v in keep], rows)


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
