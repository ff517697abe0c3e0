"""Ensemble propagation features.

The labeled nodes are split uniformly at random into N partitions and one
propagation is run per partition, seeded only by that partition's labels.
A node's feature vector collects its value from each run.  For a labeled
node the entry of its own partition would leak its true label (the run was
seeded with it), so that entry is replaced by the mean of the other runs'
values at the node.  Entries from runs that never reached the node are
masked; the leave-out mean uses only unmasked entries.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .graph import Graph
from .labelprop import LabelState, PropagationConfig, propagate
from .model import FeatureMatrix

__all__ = [
    "LPFeatureBlock",
    "PartitionPlan",
    "lp_features",
    "make_partitions",
]

logger = logging.getLogger(__name__)

# Imputation value for masked entries in emitted feature rows: the
# maximum-entropy label, paired with a 0/1 presence indicator column.
MASKED_FILL = 0.5


@dataclass
class PartitionPlan:
    """Assignment of every labeled node to exactly one partition."""

    n_partitions: int
    assignment: dict[int, int]
    rng_seed: int

    def partitions(self) -> list[np.ndarray]:
        """Each partition's nodes in increasing order."""
        nodes = np.fromiter(self.assignment, np.int64, len(self.assignment))
        part = np.fromiter(self.assignment.values(), np.int64, len(nodes))
        return [np.sort(nodes[part == i]) for i in range(self.n_partitions)]


def make_partitions(labeled, n_partitions: int, rng_seed: int) -> PartitionPlan:
    """Uniform random balanced split of the labeled nodes.

    Deterministic for a given seed and labeled set (input order is
    irrelevant); partition sizes differ by at most one.
    """
    nodes = np.unique(np.fromiter(labeled, dtype=np.int64))
    if n_partitions < 2:
        raise ConfigError(f"need at least 2 partitions, got {n_partitions}")
    if n_partitions > len(nodes):
        raise ConfigError(
            f"{n_partitions} partitions for only {len(nodes)} labeled nodes")
    perm = np.random.default_rng(rng_seed).permutation(nodes)
    assignment = dict(zip(perm.tolist(),
                          (np.arange(len(perm)) % n_partitions).tolist()))
    return PartitionPlan(n_partitions, assignment, rng_seed)


@dataclass
class LPFeatureBlock:
    """Per-node feature rows from N propagation runs.

    ``data`` is the ``(n, N*C + N)`` emitted table: the N*C values, with
    masked entries filled with 0.5, then the N presence columns as
    0.0/1.0.  ``present`` is ``(n, N)`` and marks which run contributed a
    real value.
    """

    data: np.ndarray
    present: np.ndarray
    n_partitions: int
    n_classes: int

    @property
    def node_count(self) -> int:
        return self.data.shape[0]

    def column_names(self, prefix: str = "lp") -> list[str]:
        if self.n_classes == 1:
            return [f"{prefix}_{i}" for i in range(self.n_partitions)]
        return [f"{prefix}_{i}_{c}" for i in range(self.n_partitions)
                for c in range(self.n_classes)]

    def presence_names(self, prefix: str = "lp") -> list[str]:
        return [f"{prefix}_present_{i}" for i in range(self.n_partitions)]

    def imputed(self) -> np.ndarray:
        """Fixed-width rows with masked entries filled with 0.5 (a view)."""
        return self.data[:, :self.n_partitions * self.n_classes]

    def table(self, names: list[str], presence: bool = True) -> FeatureMatrix:
        """The emitted feature rows of nodes ``names``: the imputed values,
        then (with ``presence``) the presence columns as 0.0/1.0."""
        columns = self.column_names() + (self.presence_names() if presence else [])
        return FeatureMatrix(list(names), columns,
                             self.data if presence else self.imputed())


def lp_features(g: Graph, labels: LabelState, plan: PartitionPlan,
                cfg: PropagationConfig) -> LPFeatureBlock:
    """Run one propagation per partition and assemble feature rows.

    ``plan`` must cover exactly the seed set of ``labels``.  For node u
    labeled in partition i, entry i is replaced by the mean of the other
    runs' unmasked values at u; if every other run missed u the entry
    stays masked (that is data sparsity, not an error).
    """
    n_parts, n_classes = plan.n_partitions, labels.num_classes
    parts = plan.partitions()
    if not np.array_equal(np.sort(np.concatenate(parts)),
                          np.flatnonzero(labels.is_seed)):
        raise ValidationError("partition plan must cover exactly the seed set")
    n, width = g.node_count, n_parts * n_classes
    data = np.empty((n, width + n_parts))
    present = np.empty((n, n_parts), dtype=bool)
    cols = [slice(i * n_classes, (i + 1) * n_classes) for i in range(n_parts)]
    for i, part in enumerate(parts):
        run = propagate(g, LabelState.from_seed_values(
            n, part, labels.values[part], num_classes=n_classes), cfg)
        present[:, i] = run.is_active
        data[:, cols[i]] = np.where(run.is_active[:, None], run.values, 0.0)
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
    return LPFeatureBlock(data, present, n_parts, n_classes)
