"""Sparse planted-partition sampler for the benchmark's large graphs.

``demograph.synth.generate`` draws one random number per node pair, so its
time and memory grow with n^2 and it cannot reach 100k nodes.  This sampler
draws the edge count of every class block from the same binomial law
(intra-class pairs with probability p, inter-class pairs with probability
q) and then a uniform random subset of that many distinct pairs, so its
cost is O(edges), as the samplers of Batagelj & Brandes ("Efficient
generation of large random networks", Phys. Rev. E 71, 2005).  Each edge
gets a random follow direction, and the result is a
``demograph.synth.SynthData`` that ``synth.write_outputs`` writes in the
package's own file formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from demograph.synth import SynthData


@dataclass(frozen=True)
class SparseSpec:
    """Planted-partition parameters given as graph-level targets.

    ``mean_degree`` is the expected undirected degree and ``inter_share``
    the expected share of edges that join two different classes.
    """

    classes: int
    per_class: int
    mean_degree: float
    inter_share: float
    reveal: float
    noise: float

    @property
    def node_count(self) -> int:
        return self.classes * self.per_class

    def probabilities(self) -> tuple[float, float]:
        """The (p, q) whose expected edge counts meet the targets."""
        k, per = self.classes, self.per_class
        edges = self.mean_degree * self.node_count / 2.0
        intra_pairs = k * per * (per - 1) / 2.0
        inter_pairs = k * (k - 1) / 2.0 * per * per
        p = (1.0 - self.inter_share) * edges / intra_pairs
        q = self.inter_share * edges / inter_pairs
        return p, q


def _distinct_pairs(rng: np.random.Generator, rows: int, cols: int, m: int,
                    same_block: bool) -> tuple[np.ndarray, np.ndarray]:
    """A uniform random set of ``m`` distinct (row, col) offsets of a block.

    Draws keys with replacement, deduplicates them, and repeats until at
    least ``m`` distinct keys exist; a uniform random ``m``-subset of those
    is then uniform over the block.  Within one class block a pair is
    unordered and never a self pair: both orders of a pair map to one key.
    """
    keys = np.zeros(0, dtype=np.int64)
    while keys.size < m:
        want = m - keys.size
        draw = rng.integers(0, rows * cols, size=want + want // 16 + 16)
        if same_block:
            a, b = np.divmod(draw, cols)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            draw = (lo * cols + hi)[lo != hi]
        keys = np.sort(np.concatenate([keys, draw]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    keys = keys[rng.permutation(keys.size)[:m]]
    return np.divmod(keys, cols)


def sample(spec: SparseSpec, seed: int) -> SynthData:
    """Sample one planted graph, its label reveal and noisy one-hot features."""
    rng = np.random.default_rng(seed)
    k, per = spec.classes, spec.per_class
    n = spec.node_count
    p, q = spec.probabilities()
    blocks = []
    for a in range(k):
        for b in range(a, k):
            same = a == b
            pairs = per * (per - 1) // 2 if same else per * per
            m = int(rng.binomial(pairs, p if same else q))
            rows, cols = _distinct_pairs(rng, per, per, m, same)
            blocks.append(np.stack([rows + a * per, cols + b * per], axis=1))
    edges = np.concatenate(blocks)
    del blocks
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    edges = edges[rng.permutation(len(edges))]

    truth = np.repeat(np.arange(k), per)
    seed_indices = np.sort(rng.permutation(n)[:max(1, round(spec.reveal * n))])
    features = np.zeros((n, k))
    features[np.arange(n), truth] = 1.0
    features += spec.noise * rng.standard_normal((n, k))
    names = [f"u{i:06d}" for i in range(n)]
    return SynthData(names, truth, seed_indices, edges, features)
