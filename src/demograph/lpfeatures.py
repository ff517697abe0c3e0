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

    def members(self, i: int) -> list[int]:
        return sorted(v for v, p in self.assignment.items() if p == i)


def make_partitions(labeled, n_partitions: int, rng_seed: int) -> PartitionPlan:
    """Uniform random balanced split of the labeled nodes.

    Deterministic for a given seed and labeled set (input order is
    irrelevant); partition sizes differ by at most one.
    """
    nodes = np.unique(np.asarray(list(labeled), dtype=np.int64))
    if n_partitions < 2:
        raise ConfigError(f"need at least 2 partitions, got {n_partitions}")
    if n_partitions > len(nodes):
        raise ConfigError(
            f"{n_partitions} partitions for only {len(nodes)} labeled nodes")
    perm = np.random.default_rng(rng_seed).permutation(nodes)
    assignment = {int(v): i % n_partitions for i, v in enumerate(perm)}
    return PartitionPlan(n_partitions, assignment, rng_seed)


@dataclass
class LPFeatureBlock:
    """Per-node feature rows from N propagation runs.

    ``values`` is ``(n, N*C)``; ``present`` is ``(n, N)`` and marks which
    run contributed a real value (False entries of ``values`` are zero and
    meaningless until imputed for emission).
    """

    values: np.ndarray
    present: np.ndarray
    n_partitions: int
    n_classes: int

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    def column_names(self, prefix: str = "lp") -> list[str]:
        if self.n_classes == 1:
            return [f"{prefix}_{i}" for i in range(self.n_partitions)]
        return [f"{prefix}_{i}_{c}" for i in range(self.n_partitions)
                for c in range(self.n_classes)]

    def presence_names(self, prefix: str = "lp") -> list[str]:
        return [f"{prefix}_present_{i}" for i in range(self.n_partitions)]

    def imputed(self) -> np.ndarray:
        """Fixed-width rows with masked entries filled with 0.5."""
        out = self.values.copy()
        mask = np.repeat(self.present, self.n_classes, axis=1)
        out[~mask] = MASKED_FILL
        return out

    def table(self, names: list[str], presence: bool = True) -> FeatureMatrix:
        """The emitted feature rows of nodes ``names``: the imputed values,
        then (with ``presence``) the presence columns as 0.0/1.0."""
        columns, values = self.column_names(), self.imputed()
        if presence:
            columns += self.presence_names()
            values = np.hstack([values, self.present.astype(np.float64)])
        return FeatureMatrix(list(names), columns, values)


def lp_features(g: Graph, labels: LabelState, plan: PartitionPlan,
                cfg: PropagationConfig) -> LPFeatureBlock:
    """Run one propagation per partition and assemble feature rows.

    ``plan`` must cover exactly the seed set of ``labels``.  For node u
    labeled in partition i, entry i is replaced by the mean of the other
    runs' unmasked values at u; if every other run missed u the entry
    stays masked (that is data sparsity, not an error).
    """
    cfg.validate()
    seed_idx = np.flatnonzero(labels.is_seed)
    if set(plan.assignment) != set(int(v) for v in seed_idx):
        raise ValidationError("partition plan must cover exactly the seed set")
    n, n_classes = g.node_count, labels.num_classes
    parts = [plan.members(i) for i in range(plan.n_partitions)]
    runs = [propagate(g, LabelState.from_seed_values(
                n, part, labels.values[part], num_classes=n_classes), cfg)
            for part in parts]
    raw = np.stack([r.values for r in runs], axis=1)        # (n, N, C)
    reached = np.stack([r.is_active for r in runs], axis=1)  # (n, N)
    masked = np.where(reached[:, :, None], raw, 0.0)
    values, present = raw.copy(), reached.copy()
    for i, part in enumerate(parts):
        # Leave-out mean: the other runs' rows added in run order (+0.0
        # where a run missed the node) over the count of runs that hit it.
        others = [j for j in range(plan.n_partitions) if j != i]
        total = masked[part, others[0]]
        for j in others[1:]:
            total += masked[part, j]
        count = reached[part][:, others].sum(axis=1)[:, None]
        values[part, i] = np.divide(total, count, where=count > 0,
                                    out=np.zeros_like(total))
        present[part, i] = count[:, 0] > 0
    if not present.any(axis=1).all():
        logger.info("%d nodes were reached by no run and are fully masked",
                    int((~present.any(axis=1)).sum()))
    return LPFeatureBlock(values.reshape(n, plan.n_partitions * n_classes),
                          present, plan.n_partitions, n_classes)

