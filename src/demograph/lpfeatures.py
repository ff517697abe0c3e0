"""Ensemble propagation features.

The labeled nodes are split uniformly at random into N partitions and one
propagation is run per partition, seeded only by that partition's labels.
A node's feature vector collects its value from each run.  For a labeled
node the entry of its own partition would leak its true label (the run was
seeded with it), so that entry is replaced by the mean of the other runs'
values at the node.  Entries from runs that never reached the node are
masked; the leave-out mean uses only unmasked entries.

The emitted table is a ``FeatureMatrix`` over the graph's names: the N*C
values (``lp_<i>``, or ``lp_<i>_<c>`` with C > 1 channels) with masked
entries filled with 0.5, then one 0.0/1.0 presence column
``lp_present_<i>`` per run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .graph import Graph
from .labelprop import PropagationConfig, _HandedState, propagate
from .model import FeatureMatrix

__all__ = [
    "PartitionPlan",
    "lp_features",
    "make_partitions",
]

logger = logging.getLogger(__name__)

# Imputation value for masked entries in emitted feature rows: the
# maximum-entropy label, paired with a 0/1 presence indicator column.
MASKED_FILL = 0.5
PREFIX = "lp"  # of the emitted column names


@dataclass
class PartitionPlan:
    """Assignment of every labeled node to exactly one partition: node
    ``order[j]`` goes to partition ``j % n_partitions``."""

    n_partitions: int
    order: np.ndarray
    rng_seed: int

    @property
    def assignment(self) -> dict[int, int]:
        """Node -> partition, built on each call."""
        part = np.arange(len(self.order)) % self.n_partitions
        return dict(zip(self.order.tolist(), part.tolist()))

    def partitions(self) -> list[np.ndarray]:
        """Each partition's nodes in increasing order."""
        return [np.sort(self.order[i::self.n_partitions])
                for i in range(self.n_partitions)]


def make_partitions(labeled, n_partitions: int, rng_seed: int) -> PartitionPlan:
    """Uniform random balanced split of the labeled nodes.

    Deterministic for a given seed and labeled set (input order is
    irrelevant); partition sizes differ by at most one.
    """
    nodes = np.unique(np.fromiter(labeled, dtype=np.int64))
    if rng_seed < 0:
        raise ConfigError(f"rng_seed must be >= 0, got {rng_seed}")
    if n_partitions < 2:
        raise ConfigError(f"need at least 2 partitions, got {n_partitions}")
    if n_partitions > len(nodes):
        raise ConfigError(
            f"{n_partitions} partitions for only {len(nodes)} labeled nodes")
    perm = np.random.default_rng(rng_seed).permutation(nodes)
    return PartitionPlan(n_partitions, perm, rng_seed)


def lp_features(g: Graph, labels: tuple, plan: PartitionPlan,
                cfg: PropagationConfig) -> FeatureMatrix:
    """Run one propagation per partition and return the feature table of
    every node of ``g`` (the module docstring gives its columns).

    ``labels`` is the seeds as a triple ``(indices, values, num_classes)``
    of node indices, their values and the channel count, as
    ``labelprop._seed_rows`` reads a seed file: with one channel
    each value is the node's own (the binary positive-class share), else
    a class index made one-hot (``LabelState.from_seeds``).  ``plan``
    must cover exactly the seeded nodes.  For node u labeled in partition
    i, entry i is replaced by the mean of the other runs' unmasked values
    at u; if every other run missed u the entry stays masked (that is
    data sparsity, not an error).
    """
    n, n_parts = g.node_count, plan.n_partitions
    parts = plan.partitions()
    indices, values, n_classes = labels
    indices, values = np.asarray(indices), np.asarray(values)
    order = np.argsort(indices)
    if not np.array_equal(np.sort(np.concatenate(parts)), indices[order]):
        raise ValidationError("partition plan must cover exactly the seed set")
    width = n_parts * n_classes
    data = np.zeros((n, width + n_parts))
    present = np.empty((n, n_parts), dtype=bool)
    cols = [slice(i * n_classes, (i + 1) * n_classes) for i in range(n_parts)]
    for i, part in enumerate(parts):
        # Each part's seed state is built only for its run, which computes
        # in it, so only one part's (n, C) state is alive at a time.
        run = propagate(g, _HandedState.from_seeds(n, part, values[order[
            np.searchsorted(indices, part, sorter=order)]], n_classes), cfg)
        present[:, i] = run.is_active
        np.copyto(data[:, cols[i]], run.values, where=run.is_active[:, None])
        # Free this run before the next one builds its states.
        del run
    # Partitions are disjoint, so the rows one partition's leave-out reads
    # are never the rows another's writes.
    for i, part in enumerate(parts):
        # Leave-out mean: the other runs' rows added in run order (+0.0
        # where a run missed the node) over the count of runs that hit it.
        others = [j for j in range(n_parts) if j != i]
        total = data[part, cols[others[0]]]
        for j in others[1:]:
            total += data[part, cols[j]]
        count = present[part][:, others].sum(axis=1)[:, None]
        data[part, cols[i]] = np.divide(total, count, where=count > 0,
                                        out=np.zeros_like(total))
        present[part, i] = count[:, 0] > 0
    for i in range(n_parts):
        data[~present[:, i], cols[i]] = MASKED_FILL
    data[:, width:] = present
    if not present.any(axis=1).all():
        logger.info("%d nodes were reached by no run and are fully masked",
                    int((~present.any(axis=1)).sum()))
    channels = [""] if n_classes == 1 else [f"_{c}" for c in range(n_classes)]
    columns = [f"{PREFIX}_{i}{c}" for i in range(n_parts) for c in channels]
    columns += [f"{PREFIX}_present_{i}" for i in range(n_parts)]
    return FeatureMatrix(g.names, columns, data)
