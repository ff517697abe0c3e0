"""The benchmark's sparse sampler: package readers accept its files, and the
realized graph matches the requested degree and class mixing."""

from __future__ import annotations

import numpy as np
import pytest

from demograph import synth
from demograph.graph import load_edge_list
from demograph.labelprop import read_seed_labels
from demograph.model import FeatureMatrix
from demograph.pipeline import read_labels
from sampler import SparseSpec, _distinct_pairs, sample


@pytest.mark.parametrize("spec", [
    SparseSpec(classes=2, per_class=3000, mean_degree=16.0, inter_share=0.25,
               reveal=0.1, noise=1.5),
    SparseSpec(classes=7, per_class=900, mean_degree=18.8, inter_share=0.45,
               reveal=0.1, noise=1.5),
])
def test_files_ingest_and_graph_meets_targets(tmp_path, spec):
    data = sample(spec, seed=5)
    paths = synth.write_outputs(data, tmp_path)

    g = load_edge_list(paths["edges"])
    labels = read_labels(paths["truth"], "gender" if spec.classes == 2 else "age")
    seeds = read_seed_labels(paths["seeds"], g, num_classes=1 if spec.classes == 2
                             else spec.classes)
    cumf = FeatureMatrix.from_csv(paths["cumf"])
    n = spec.node_count
    assert g.node_count == n and len(labels) == n and cumf.values.shape == (n, spec.classes)
    assert seeds.seed_count == round(spec.reveal * n)
    # Every sampled pair is distinct and no self pair, so ingest keeps them all.
    assert g.edge_count == len(data.edges)

    mean_degree = 2 * g.edge_count / n
    assert abs(mean_degree / spec.mean_degree - 1) < 0.03
    truth = np.array([labels[name] for name in g.names])
    inter = (truth[g.arc_sources] != truth[g.indices]).mean()
    assert abs(inter - spec.inter_share) < 0.02
    # A sampler biased toward low ids would give the first half of each
    # class more edges than the second half.
    degrees = np.zeros(n)
    degrees[[int(name[1:]) for name in g.names]] = g.degrees
    offset = np.arange(n) % spec.per_class
    low, high = degrees[offset < spec.per_class // 2].mean(), degrees[offset >= spec.per_class // 2].mean()
    assert abs(low / high - 1) < 0.03


def test_same_seed_same_graph():
    spec = SparseSpec(classes=2, per_class=500, mean_degree=8.0, inter_share=0.3,
                      reveal=0.2, noise=1.0)
    a, b = sample(spec, seed=11), sample(spec, seed=11)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.seed_indices, b.seed_indices)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.edges, sample(spec, seed=12).edges)


@pytest.mark.parametrize("same_block", [True, False])
def test_pair_subsets_are_uniform(same_block):
    rng = np.random.default_rng(0)
    size, m, trials = 5, 3, 3000
    pairs = size * (size - 1) // 2 if same_block else size * size
    hits = np.zeros((size, size))
    for _ in range(trials):
        rows, cols = _distinct_pairs(rng, size, size, m, same_block)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == m
        if same_block:
            assert (rows < cols).all()
        np.add.at(hits, (rows, cols), 1)
    expected = trials * m / pairs
    drawn = hits[np.triu_indices(size, 1)] if same_block else hits.ravel()
    assert np.abs(drawn / expected - 1).max() < 0.2
