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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ConfigError, EdgeListParseError, ValidationError
from .graph import Graph, _read_rows

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
NUM_AGE_BUCKETS = 7


def age_bucket(age: int) -> int:
    """Map an age in years to one of the 7 bucket indices."""
    if age < 0:
        raise ValidationError(f"age must be non-negative, got {age}")
    for bucket, upper in enumerate(AGE_BUCKET_UPPER_BOUNDS):
        if age <= upper:
            return bucket
    return NUM_AGE_BUCKETS - 1


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


@dataclass
class PropagationConfig:
    """Strategy choice plus its parameter and the superstep count.

    Only the parameter matching ``strategy`` is read; the others are
    ignored.  Defaults follow the production configuration (constant
    blend, 3 supersteps, own-value weight 0.3).
    """

    strategy: str = "alpha"
    alpha: float = 0.3
    beta: float = 0.8
    gamma: float = 0.9
    iterations: int = 3

    def validate(self) -> None:
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
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if self.values.shape[0] == 1 and self.is_seed.shape[0] != 1:
            self.values = self.values.T
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
        idx = np.asarray(list(indices), dtype=np.int64)
        cls_idx = np.asarray(list(classes), dtype=np.int64)
        if cls_idx.size and (cls_idx.min() < 0 or cls_idx.max() >= num_classes):
            raise ValidationError(
                f"class index out of range [0, {num_classes})")
        vals = np.zeros((node_count, num_classes))
        vals[idx, cls_idx] = 1.0
        seed = np.zeros(node_count, dtype=bool)
        seed[idx] = True
        return cls(vals, seed, seed.copy())


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


def _check_inputs(g: Graph, seeds: LabelState) -> None:
    if g.node_count == 0:
        raise ValidationError("graph has no nodes")
    if seeds.node_count != g.node_count:
        raise ValidationError(
            f"seed state covers {seeds.node_count} nodes, graph has {g.node_count}")
    if not seeds.is_seed.any():
        raise ConfigError("propagation requires at least one seed node")


SuperstepHook = Callable[[int, LabelState], None]


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
         on_superstep: SuperstepHook | None = None) -> LabelState:
    """The superstep loop of every strategy at any channel count.

    Each superstep updates the non-seed nodes with an active neighbor
    (``grow``).  Alpha and beta blend an active node's value with the
    neighbor mean at weight ``w`` and give a newly active node the plain
    mean; gamma adds ``gamma * mean`` to every channel and activates a node
    once it holds mass.  The hook and the result see the raw state, or for
    gamma the normalized accumulators.
    """
    values = np.where(seeds.is_active[:, None], seeds.values, 0.0)
    active = seeds.is_active.copy()
    is_seed = seeds.is_seed.copy()
    gamma = cfg.strategy == "gamma"

    def state() -> LabelState:
        if gamma:
            return _finalize_accumulators(values, active, seeds)
        # values and active are new arrays every superstep and are never
        # written again, so the hook may keep them without a copy.
        return LabelState(values, is_seed, active)

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
        if on_superstep is not None:
            on_superstep(k, state())
    return state()


def propagate(g: Graph, seeds: LabelState, cfg: PropagationConfig,
              on_superstep: SuperstepHook | None = None) -> LabelState:
    """Run ``cfg.iterations`` synchronous supersteps from the seed state.

    Returns the final state; activation coverage is available as
    ``state.coverage``.  Under the gamma strategy scalar seeds are binary
    values in {0, 1} and the result is the female-share scalar
    (``propagate_gamma``); wider seeds accumulate per channel.
    """
    cfg.validate()
    _check_inputs(g, seeds)
    if cfg.strategy == "gamma" and seeds.num_classes == 1:
        return propagate_gamma(g, seeds, cfg.gamma, cfg.iterations, on_superstep)
    return _run(g, seeds, cfg, on_superstep)


def propagate_beta(g: Graph, seeds: LabelState, beta: float,
                   iterations: int) -> LabelState:
    """Exponential-decay variant: neighbor weight ``beta**k`` at superstep k."""
    cfg = PropagationConfig(strategy="beta", beta=beta, iterations=iterations)
    return propagate(g, seeds, cfg)


def propagate_gamma(g: Graph, seeds: LabelState, gamma: float, iterations: int,
                    on_superstep: SuperstepHook | None = None) -> LabelState:
    """Two-channel accumulator variant for binary gender.

    Seeds must be scalar values in {0, 1} (female = 1).  Internally each
    node carries (male, female) accumulators; seeds hold a fixed one-hot
    pair and are excluded from the final normalization.  A node becomes
    active only once it has accumulated nonzero mass, so ``gamma = 0``
    leaves every non-seed inactive.
    """
    cfg = PropagationConfig(strategy="gamma", gamma=gamma, iterations=iterations)
    cfg.validate()
    _check_inputs(g, seeds)
    if seeds.num_classes != 1:
        raise ValidationError("gamma strategy needs scalar binary seeds")
    seed_vals = seeds.values[seeds.is_seed, 0]
    if not np.isin(seed_vals, (0.0, 1.0)).all():
        raise ValidationError("gamma strategy needs seed values in {0, 1}")
    female = seeds.values[:, 0]
    two_channel = LabelState(
        np.stack([np.where(seeds.is_active, 1.0 - female, 0.0),
                  np.where(seeds.is_active, female, 0.0)], axis=1),
        seeds.is_seed.copy(), seeds.is_active.copy())

    def scalar(state: LabelState) -> LabelState:
        return LabelState(state.values[:, 1:2].copy(), state.is_seed,
                          state.is_active)

    hook = None
    if on_superstep is not None:
        hook = lambda k, state: on_superstep(k, scalar(state))
    return scalar(_run(g, two_channel, cfg, hook))


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
        idx = np.fromiter(seed_classes.keys(), dtype=np.int64,
                          count=len(seed_classes))
        classes = np.fromiter(seed_classes.values(), dtype=np.int64,
                              count=len(seed_classes))
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
    wanted = sorted(set(int(k) for k in checkpoints))
    if not wanted or wanted[0] < 1:
        raise ConfigError("checkpoints must be positive superstep counts")
    wanted_set = set(wanted)
    snapshots: dict[int, LabelState] = {}

    def keep(k: int, state: LabelState) -> None:
        if k in wanted_set:
            snapshots[k] = state

    propagate(g, seeds, replace(cfg, iterations=wanted[-1]), on_superstep=keep)
    return snapshots


# ---------------------------------------------------------------------------
# Text I/O: seed files and propagated-state files.
# ---------------------------------------------------------------------------

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
        for name, row in zip(names, rows):
            fh.write(name + "\t" + ",".join(f"{x:.17g}" for x in row) + "\n")


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
