"""Planted-partition graphs with planted labels and stand-in content features.

The generator connects intra-class pairs with probability p and inter-class
pairs with probability q (p >= q unless anti-homophily is requested
explicitly), reveals a uniform random fraction of the true labels as seeds,
and emits a noisy one-hot feature block that stands in for content-derived
features.  Everything is a deterministic function of the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import _pair_rows, _suffixed
from .model import FeatureMatrix

__all__ = ["PlantedGraphSpec", "SynthData", "generate", "write_outputs"]


@dataclass(frozen=True)
class PlantedGraphSpec:
    per_class: int
    classes: int = 2
    p: float = 0.05
    q: float = 0.005
    reveal: float = 0.2
    noise: float = 0.0
    rng_seed: int = 0
    allow_antihomophily: bool = False

    def __post_init__(self) -> None:
        if self.classes not in (2, 7):
            raise ValidationError(f"classes must be 2 or 7, got {self.classes}")
        if self.per_class < 1:
            raise ValidationError("per_class must be >= 1")
        for name, value in (("p", self.p), ("q", self.q)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        if self.p < self.q and not self.allow_antihomophily:
            raise ValidationError(
                "p < q plants anti-homophily; pass allow_antihomophily=True "
                "if that is intended")
        if not 0.0 < self.reveal < 1.0:
            raise ValidationError("reveal fraction must lie in (0, 1)")
        if self.noise < 0.0:
            raise ValidationError("noise must be >= 0")


@dataclass
class SynthData:
    names: list[str]
    truth: np.ndarray
    seed_indices: np.ndarray
    edges: np.ndarray
    features: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.names)


def _block_pairs(rng: np.random.Generator, rows: np.ndarray, cols: np.ndarray,
                 prob: float) -> np.ndarray:
    hits = rng.random(rows.size) < prob
    return np.stack([rows[hits], cols[hits]], axis=1)


def generate(spec: PlantedGraphSpec) -> SynthData:
    """Sample a planted graph, a label reveal, and noisy one-hot features."""
    rng = np.random.default_rng(spec.rng_seed)
    per, k = spec.per_class, spec.classes
    n = per * k
    truth = np.repeat(np.arange(k), per)
    names = [f"u{i:06d}" for i in range(n)]

    blocks = []
    iu, ju = np.triu_indices(per, 1)
    for c in range(k):
        blocks.append(_block_pairs(rng, iu + c * per, ju + c * per, spec.p))
    for a in range(k):
        for b in range(a + 1, k):
            rows = np.repeat(np.arange(per) + a * per, per)
            cols = np.tile(np.arange(per) + b * per, per)
            blocks.append(_block_pairs(rng, rows, cols, spec.q))
    edges = (np.concatenate(blocks) if blocks
             else np.zeros((0, 2), dtype=np.int64))

    n_seeds = max(1, int(round(spec.reveal * n)))
    seed_indices = np.sort(rng.permutation(n)[:n_seeds])

    features = np.zeros((n, k))
    features[np.arange(n), truth] = 1.0
    if spec.noise > 0:
        features = features + spec.noise * rng.standard_normal((n, k))
    return SynthData(names, truth, seed_indices, edges, features)


def write_outputs(data: SynthData, out_dir) -> dict[str, Path]:
    """Write edges.tsv, truth.tsv, seeds.tsv, and cumf.csv under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / fname for name, fname in (
        ("edges", "edges.tsv"), ("truth", "truth.tsv"),
        ("seeds", "seeds.tsv"), ("cumf", "cumf.csv"))}
    tab = _suffixed(data.names, "\t")
    # A truth or seed line pairs a node with the line end of its label.
    labels, label_of = np.unique(data.truth, return_inverse=True)
    ends = _suffixed([f"{label}" for label in labels], "\n")
    node_label = np.stack([np.arange(len(label_of)), label_of], axis=1)
    for name, pairs, right in (
            ("edges", data.edges, _suffixed(data.names, "\n")),
            ("truth", node_label, ends),
            ("seeds", node_label[data.seed_indices], ends)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.writelines(_pair_rows(pairs, tab, right))
    columns = [f"cumf_{c}" for c in range(data.features.shape[1])]
    FeatureMatrix(data.names, columns, data.features).to_csv(paths["cumf"])
    return paths
