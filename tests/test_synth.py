"""Planted-partition generator: structure, statistics, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from demograph.errors import ValidationError
from demograph.graph import load_edge_list
from demograph.labelprop import LabelState, PropagationConfig, propagate
from demograph.model import FeatureMatrix, auc_rank
from demograph.pipeline import read_labels
from demograph.synth import PlantedGraphSpec, generate, write_outputs

from oracles import reference_to_csv


class TestGenerate:
    def test_extreme_probabilities_give_two_cliques(self):
        data = generate(PlantedGraphSpec(per_class=5, classes=2, p=1.0, q=0.0,
                                         reveal=0.2, rng_seed=0))
        assert len(data.edges) == 2 * (5 * 4 // 2)
        for u, v in data.edges:
            assert data.truth[u] == data.truth[v]

    def test_equal_probabilities_balance_degree_mix(self):
        # q = p: expected inter/intra degree ratio is 1; check within 3
        # sigma of the binomial prediction over 200 nodes.
        per, p = 100, 0.2
        data = generate(PlantedGraphSpec(per_class=per, classes=2, p=p, q=p,
                                         reveal=0.2, rng_seed=7))
        intra = sum(1 for u, v in data.edges if data.truth[u] == data.truth[v])
        inter = len(data.edges) - intra
        intra_pairs = 2 * per * (per - 1) // 2
        inter_pairs = per * per
        for count, pairs in ((intra, intra_pairs), (inter, inter_pairs)):
            mean = pairs * p
            sigma = np.sqrt(pairs * p * (1 - p))
            assert abs(count - mean) <= 3 * sigma

    def test_edge_counts_within_binomial_bounds(self):
        spec = PlantedGraphSpec(per_class=150, classes=2, p=0.05, q=0.01,
                                reveal=0.3, rng_seed=3)
        data = generate(spec)
        intra = sum(1 for u, v in data.edges if data.truth[u] == data.truth[v])
        inter = len(data.edges) - intra
        intra_pairs = 2 * 150 * 149 // 2
        inter_pairs = 150 * 150
        assert abs(intra - intra_pairs * spec.p) <= \
            4 * np.sqrt(intra_pairs * spec.p * (1 - spec.p))
        assert abs(inter - inter_pairs * spec.q) <= \
            4 * np.sqrt(inter_pairs * spec.q * (1 - spec.q))

    def test_determinism_is_byte_identical(self, tmp_path):
        spec = PlantedGraphSpec(per_class=40, classes=2, p=0.1, q=0.02,
                                reveal=0.25, noise=0.5, rng_seed=11)
        write_outputs(generate(spec), tmp_path / "a")
        write_outputs(generate(spec), tmp_path / "b")
        for name in ("edges.tsv", "truth.tsv", "seeds.tsv", "cumf.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_anti_homophily_needs_flag(self):
        with pytest.raises(ValidationError):
            generate(PlantedGraphSpec(per_class=10, p=0.01, q=0.5, reveal=0.2))
        generate(PlantedGraphSpec(per_class=10, p=0.01, q=0.5, reveal=0.2,
                                  allow_antihomophily=True))

    def test_reveal_fraction_bounds(self):
        with pytest.raises(ValidationError):
            generate(PlantedGraphSpec(per_class=10, reveal=0.0))
        data = generate(PlantedGraphSpec(per_class=50, classes=2, reveal=0.3,
                                         rng_seed=1))
        assert len(data.seed_indices) == round(0.3 * 100)

    def test_seven_class_mode(self):
        data = generate(PlantedGraphSpec(per_class=20, classes=7, p=0.3,
                                         q=0.01, reveal=0.2, rng_seed=2))
        assert data.node_count == 140
        assert set(np.unique(data.truth)) == set(range(7))
        assert data.features.shape == (140, 7)

    def test_noise_free_features_are_exact_one_hot(self):
        data = generate(PlantedGraphSpec(per_class=10, classes=2, reveal=0.2,
                                         noise=0.0, rng_seed=0))
        assert np.array_equal(data.features[np.arange(20), data.truth],
                              np.ones(20))
        assert data.features.sum() == 20


class TestOutputsOnDisk:
    def test_files_parse_back(self, tmp_path):
        spec = PlantedGraphSpec(per_class=60, classes=2, p=0.15, q=0.02,
                                reveal=0.25, noise=0.3, rng_seed=5)
        data = generate(spec)
        paths = write_outputs(data, tmp_path)
        g = load_edge_list(paths["edges"])
        truth = read_labels(paths["truth"])
        seeds = read_labels(paths["seeds"])
        assert set(seeds) <= set(truth)
        assert all(seeds[name] == truth[name] for name in seeds)
        assert g.node_count <= data.node_count  # isolated nodes not in edges

    @pytest.mark.parametrize("classes", [2, 7])
    def test_cumf_bytes_equal_reference_writer(self, tmp_path, classes):
        data = generate(PlantedGraphSpec(per_class=15, classes=classes,
                                         p=0.2, q=0.02, reveal=0.3,
                                         noise=0.8, rng_seed=classes))
        paths = write_outputs(data, tmp_path)
        want = tmp_path / "want.csv"
        columns = [f"cumf_{c}" for c in range(classes)]
        reference_to_csv(FeatureMatrix(data.names, columns, data.features), want)
        assert paths["cumf"].read_bytes() == want.read_bytes()

    def test_homophily_sanity_bar(self, tmp_path):
        # p >> q with a healthy reveal: propagation must separate the
        # hidden labels decisively (AUC >= 0.9).
        spec = PlantedGraphSpec(per_class=200, classes=2, p=0.05, q=0.005,
                                reveal=0.15, rng_seed=9)
        data = generate(spec)
        paths = write_outputs(data, tmp_path)
        g = load_edge_list(paths["edges"])
        truth = read_labels(paths["truth"])
        seeds = read_labels(paths["seeds"])
        seed_idx = [g.index_of(n) for n in seeds if n in g.names]
        state = LabelState.from_seed_values(
            g.node_count, seed_idx, [float(seeds[g.names[i]]) for i in seed_idx])
        out = propagate(g, state, PropagationConfig(alpha=0.3, iterations=3))
        hidden = out.is_active & ~state.is_seed
        scores = out.values[hidden, 0]
        labels = np.array([truth[g.names[i]] for i in np.flatnonzero(hidden)])
        assert auc_rank(scores, labels) >= 0.9
