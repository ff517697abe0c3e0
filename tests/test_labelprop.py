"""Propagation semantics: traces, oracle equivalence, variants, invariants."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from demograph.errors import ConfigError, EdgeListParseError, ValidationError
from demograph.graph import Graph
from demograph.labelprop import (LabelState, PropagationConfig,
                                 _neighbor_means, age_bucket, class_label,
                                 propagate, propagate_beta, propagate_gamma,
                                 propagate_multiclass, propagate_trace,
                                 read_seed_labels, read_node_vectors,
                                 write_label_state)

from conftest import random_binary_seeds, random_graph
from oracles import (bfs_distances, dense_propagate, dense_propagate_gamma,
                     reference_additive, reference_blended)


def path_graph(names):
    pairs = [(i, i + 1) for i in range(len(names) - 1)]
    return Graph.build(names, pairs)


def binary_seeds(n, mapping):
    return LabelState.from_seed_values(n, list(mapping), list(mapping.values()))


class TestAgeBucket:
    @pytest.mark.parametrize("age,bucket", [
        (30, 2), (65, 6),
        # Age 17 sits on the boundary; it goes to the lowest bucket.
        (17, 0),
        (0, 0), (18, 1), (24, 1), (25, 2), (34, 2), (35, 3), (44, 3),
        (45, 4), (54, 4), (55, 5), (64, 5), (100, 6),
    ])
    def test_buckets(self, age, bucket):
        assert age_bucket(age) == bucket

    def test_negative_age_rejected(self):
        with pytest.raises(ValidationError):
            age_bucket(-1)


class TestClassLabel:
    @pytest.mark.parametrize("raw,ages,expected", [
        ("3", False, 3), ("3.0", False, 3), ("0", False, 0),
        ("30", True, 2), ("30.0", True, 2), ("65", True, 6)])
    def test_integral_values(self, raw, ages, expected):
        assert class_label(raw, 7, ages) == expected

    @pytest.mark.parametrize("raw", ["0.7", "inf", "nan", "1e400", "7", "-1"])
    def test_rejected(self, raw):
        with pytest.raises(ValidationError):
            class_label(raw, 7)

    def test_not_a_number(self):
        with pytest.raises(ValueError):
            class_label("x", 7)

    def test_negative_age_rejected(self):
        with pytest.raises(ValidationError, match="-4"):
            class_label("-4", 7, ages=True)


class TestPropagateExamples:
    def test_symmetric_first_activation(self):
        # A(1) - C - B(0): C activates with the plain mean of its seeds.
        g = Graph.build(["A", "C", "B"], [(0, 1), (1, 2)])
        seeds = binary_seeds(3, {0: 1.0, 2: 0.0})
        out = propagate(g, seeds, PropagationConfig(alpha=0.5, iterations=1))
        assert out.values[1, 0] == 0.5
        assert out.is_active.all()

    def test_two_superstep_trace(self):
        # A(1)-C, B(0)-C, C-D.  After k=1: y_C=0.5, D inactive.
        # After k=2: y_D activates at 0.5, y_C = 0.3*0.5 + 0.7*0.5 = 0.5.
        g = Graph.build(["A", "B", "C", "D"], [(0, 2), (1, 2), (2, 3)])
        seeds = binary_seeds(4, {0: 1.0, 1: 0.0})
        cfg = PropagationConfig(alpha=0.3, iterations=1)
        mid = propagate(g, seeds, cfg)
        assert mid.values[2, 0] == 0.5
        assert not mid.is_active[3]
        out = propagate(g, seeds, PropagationConfig(alpha=0.3, iterations=2))
        assert out.values[3, 0] == pytest.approx(0.5, abs=1e-15)
        assert out.values[2, 0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_fully_seeded_graph_is_fixed(self, rng, k):
        g, _ = random_graph(rng, 12, 0.3)
        values = rng.random(12)
        seeds = LabelState.from_seed_values(12, range(12), values)
        out = propagate(g, seeds, PropagationConfig(alpha=0.4, iterations=k))
        assert np.array_equal(out.values[:, 0], values)

    @pytest.mark.parametrize("values", [np.zeros(3), np.zeros((1, 3))])
    def test_values_must_be_one_row_per_node(self, values):
        with pytest.raises(ValidationError):
            LabelState(values, np.zeros(3, bool), np.zeros(3, bool))

    def test_zero_seeds_rejected(self):
        g = path_graph(["a", "b"])
        empty = LabelState(np.zeros((2, 1)), np.zeros(2, bool), np.zeros(2, bool))
        with pytest.raises(ConfigError):
            propagate(g, empty, PropagationConfig())

    def test_zero_iterations_rejected(self):
        g = path_graph(["a", "b"])
        with pytest.raises(ConfigError):
            propagate(g, binary_seeds(2, {0: 1.0}),
                      PropagationConfig(iterations=0))

    def test_bad_alpha_rejected(self):
        g = path_graph(["a", "b"])
        with pytest.raises(ConfigError):
            propagate(g, binary_seeds(2, {0: 1.0}),
                      PropagationConfig(alpha=1.5, iterations=1))


class TestOracleEquivalence:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_binary_matches_dense_reference(self, rng, alpha):
        for _ in range(10):
            n = int(rng.integers(4, 40))
            g, adj = random_graph(rng, n, 0.15)
            seeds, seed_map = random_binary_seeds(rng, n, int(rng.integers(1, max(2, n // 3))))
            k = int(rng.integers(1, 6))
            got = propagate(g, seeds, PropagationConfig(alpha=alpha, iterations=k))
            want_vals, want_active = dense_propagate(adj, seed_map,
                                                     [1.0 - alpha] * k)
            assert np.array_equal(got.is_active, want_active)
            assert np.abs(got.values - want_vals).max() <= 1e-12

    def test_beta_matches_dense_reference(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 30))
            g, adj = random_graph(rng, n, 0.2)
            seeds, seed_map = random_binary_seeds(rng, n, 2)
            beta, k = float(rng.random()), int(rng.integers(1, 5))
            got = propagate_beta(g, seeds, beta, k)
            weights = [beta ** i for i in range(1, k + 1)]
            want_vals, want_active = dense_propagate(adj, seed_map, weights)
            assert np.array_equal(got.is_active, want_active)
            assert np.abs(got.values - want_vals).max() <= 1e-12

    def test_gamma_matches_dense_reference(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 30))
            g, adj = random_graph(rng, n, 0.2)
            seeds, seed_map = random_binary_seeds(rng, n, 3)
            labels = {v: int(vec[0]) for v, vec in seed_map.items()}
            gamma, k = float(rng.uniform(0.1, 0.99)), int(rng.integers(1, 5))
            got = propagate_gamma(g, seeds, gamma, k)
            want_vals, want_active = dense_propagate_gamma(adj, labels, gamma, k)
            assert np.array_equal(got.is_active, want_active)
            assert np.abs(got.values[:, 0] - want_vals).max() <= 1e-12


class TestBetaVariant:
    def test_beta_one_equals_alpha_zero_exactly(self, rng):
        g, _ = random_graph(rng, 25, 0.2)
        seeds, _ = random_binary_seeds(rng, 25, 4)
        for k in (1, 3, 5):
            a = propagate(g, seeds, PropagationConfig(alpha=0.0, iterations=k))
            b = propagate_beta(g, seeds, 1.0, k)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.is_active, b.is_active)

    def test_beta_zero_freezes_after_first_activation(self, rng):
        g, _ = random_graph(rng, 25, 0.2)
        seeds, _ = random_binary_seeds(rng, 25, 4)
        frozen = propagate_beta(g, seeds, 0.0, 1)
        for k in (2, 4, 7):
            later = propagate_beta(g, seeds, 0.0, k)
            both = frozen.is_active & later.is_active
            assert np.array_equal(later.values[both], frozen.values[both])

    def test_star_center_seeded_all_messages_equal(self):
        # Center seeded 1; every leaf sees only the value 1 at every step.
        names = ["c"] + [f"l{i}" for i in range(5)]
        g = Graph.build(names, [(0, i) for i in range(1, 6)])
        seeds = binary_seeds(6, {0: 1.0})
        for k in (1, 2, 3):
            out = propagate_beta(g, seeds, 0.8, k)
            assert np.array_equal(out.values[1:, 0], np.ones(5))


class TestGammaVariant:
    def test_hand_computed_accumulators(self):
        # u has 2 male seed neighbors and 1 female: output 1/3 after K=1.
        g = Graph.build(["m1", "m2", "f1", "u"], [(0, 3), (1, 3), (2, 3)])
        seeds = binary_seeds(4, {0: 0.0, 1: 0.0, 2: 1.0})
        out = propagate_gamma(g, seeds, 0.9, 1)
        assert out.values[3, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_gamma_zero_accumulates_nothing(self):
        g = path_graph(["s", "u"])
        out = propagate_gamma(g, binary_seeds(2, {0: 1.0}), 0.0, 3)
        assert not out.is_active[1]

    def test_symmetric_mass_gives_exact_half(self):
        g = Graph.build(["m", "u", "f"], [(0, 1), (1, 2)])
        out = propagate_gamma(g, binary_seeds(3, {0: 0.0, 2: 1.0}), 0.9, 4)
        assert out.values[1, 0] == 0.5

    def test_seed_role_swap_mirrors_outputs(self, rng):
        # Swapping the male/female seed roles swaps every accumulator pair
        # exactly; the normalizing division then reproduces 1 - x up to one
        # ulp (f/s versus 1 - m/s cannot agree exactly in floats).
        g, _ = random_graph(rng, 30, 0.2)
        idx = rng.choice(30, size=6, replace=False)
        vals = rng.integers(0, 2, size=6).astype(float)
        a = propagate_gamma(g, LabelState.from_seed_values(30, idx, vals), 0.9, 5)
        b = propagate_gamma(g, LabelState.from_seed_values(30, idx, 1.0 - vals),
                            0.9, 5)
        active = a.is_active & ~a.is_seed
        assert np.allclose(a.values[active, 0], 1.0 - b.values[active, 0],
                           rtol=0.0, atol=2.0 ** -52)

    def test_outputs_stay_in_unit_interval(self, rng):
        g, _ = random_graph(rng, 40, 0.15)
        seeds, _ = random_binary_seeds(rng, 40, 8)
        out = propagate_gamma(g, seeds, 0.9, 6)
        vals = out.values[out.is_active, 0]
        assert (vals >= 0).all() and (vals <= 1).all()

    def test_fractional_seeds_rejected(self):
        g = path_graph(["a", "b"])
        with pytest.raises(ValidationError):
            propagate_gamma(g, binary_seeds(2, {0: 0.4}), 0.9, 1)

    def test_gamma_one_rejected(self):
        g = path_graph(["a", "b"])
        with pytest.raises(ConfigError):
            propagate_gamma(g, binary_seeds(2, {0: 1.0}), 1.0, 1)


class TestMulticlass:
    def test_two_seed_symmetric_average(self):
        g = Graph.build(["s1", "u", "s3"], [(0, 1), (1, 2)])
        out = propagate_multiclass(g, {0: 1, 2: 3},
                                   PropagationConfig(alpha=0.5, iterations=1))
        want = np.zeros(7)
        want[1] = want[3] = 0.5
        assert np.array_equal(out.values[1], want)

    def test_single_bucket_stays_pure(self, rng):
        g, _ = random_graph(rng, 15, 0.3)
        seeds = {int(v): 4 for v in rng.choice(15, size=3, replace=False)}
        out = propagate_multiclass(g, seeds, PropagationConfig(alpha=0.3,
                                                               iterations=3))
        active = out.is_active
        assert np.allclose(out.values[active, 4], 1.0, atol=1e-12)

    def test_matches_independent_scalar_runs(self, rng):
        g, _ = random_graph(rng, 10, 0.35)
        idx = rng.choice(10, size=4, replace=False)
        classes = rng.integers(0, 7, size=4)
        cfg = PropagationConfig(alpha=0.3, iterations=3)
        out = propagate_multiclass(g, dict(zip(map(int, idx), map(int, classes))),
                                   cfg)
        for c in range(7):
            scalar_seeds = LabelState.from_seed_values(
                10, idx, (classes == c).astype(float))
            scalar = propagate(g, scalar_seeds, cfg)
            assert np.abs(out.values[:, c] - scalar.values[:, 0]).max() <= 1e-12

    def test_active_rows_sum_to_one(self, rng):
        g, _ = random_graph(rng, 25, 0.2)
        idx = rng.choice(25, size=6, replace=False)
        classes = rng.integers(0, 7, size=6)
        for strategy in ("alpha", "beta", "gamma"):
            cfg = PropagationConfig(strategy=strategy, alpha=0.3, beta=0.7,
                                    gamma=0.9, iterations=3)
            out = propagate_multiclass(g, dict(zip(map(int, idx), map(int, classes))), cfg)
            sums = out.values[out.is_active].sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-9

    def test_class_index_out_of_range(self):
        g = path_graph(["a", "b"])
        with pytest.raises(ValidationError):
            propagate_multiclass(g, {0: 7}, PropagationConfig(iterations=1))


class TestInvariants:
    def test_seed_immutability_every_strategy(self, rng):
        g, _ = random_graph(rng, 30, 0.2)
        seeds, _ = random_binary_seeds(rng, 30, 6)
        original = seeds.values.copy()
        for make in (
            lambda: propagate(g, seeds, PropagationConfig(alpha=0.3, iterations=4)),
            lambda: propagate_beta(g, seeds, 0.8, 4),
            lambda: propagate_gamma(g, seeds, 0.9, 4),
        ):
            out = make()
            assert np.array_equal(out.values[seeds.is_seed],
                                  original[seeds.is_seed])
            assert np.array_equal(seeds.values, original)  # input untouched

    def test_binary_range_preserved(self, rng):
        for _ in range(5):
            g, _ = random_graph(rng, 30, 0.2)
            seeds, _ = random_binary_seeds(rng, 30, 5)
            for cfg in (PropagationConfig(alpha=0.2, iterations=6),
                        PropagationConfig(strategy="beta", beta=0.7, iterations=6)):
                out = propagate(g, seeds, cfg)
                vals = out.values[out.is_active]
                assert (vals >= 0).all() and (vals <= 1).all()

    def test_monotone_coverage_and_distance_bound(self, rng):
        g, adj = random_graph(rng, 40, 0.08)
        seeds, seed_map = random_binary_seeds(rng, 40, 4)
        dist = bfs_distances(adj, set(seed_map))
        prev = -1.0
        for k in range(1, 6):
            out = propagate(g, seeds, PropagationConfig(alpha=0.3, iterations=k))
            assert out.coverage >= prev
            prev = out.coverage
            for v in range(40):
                if 0 <= dist[v] <= k:
                    assert out.is_active[v]
                if dist[v] < 0:
                    assert not out.is_active[v]

    def test_bit_identical_reruns(self, rng):
        g, _ = random_graph(rng, 35, 0.15)
        seeds, _ = random_binary_seeds(rng, 35, 7)
        cfg = PropagationConfig(alpha=0.3, iterations=5)
        a = propagate(g, seeds, cfg)
        b = propagate(g, seeds, cfg)
        assert np.array_equal(a.values, b.values)

    def test_trace_matches_separate_runs(self, rng):
        g, _ = random_graph(rng, 25, 0.2)
        seeds, _ = random_binary_seeds(rng, 25, 5)
        for strategy in ("alpha", "beta", "gamma"):
            cfg = PropagationConfig(strategy=strategy, alpha=0.4, beta=0.7,
                                    gamma=0.8, iterations=1)
            trace = propagate_trace(g, seeds, cfg, [1, 2, 4])
            for k, snap in trace.items():
                solo = propagate(g, seeds, PropagationConfig(
                    strategy=strategy, alpha=0.4, beta=0.7, gamma=0.8,
                    iterations=k))
                assert np.array_equal(snap.values, solo.values)
                assert np.array_equal(snap.is_active, solo.is_active)


class TestNeighborMeans:
    """The adjacency-matrix product against the masked per-channel formula
    it replaced, bit for bit."""

    @staticmethod
    def masked_bincount_means(g, values, active):
        n = g.node_count
        live = active[g.indices]
        src_live = g.arc_sources[live]
        counts = np.bincount(src_live, minlength=n).astype(np.float64)
        has = counts > 0
        live_vals = values[g.indices[live]]
        means = np.zeros_like(values)
        for c in range(values.shape[1]):
            sums = np.bincount(src_live, weights=live_vals[:, c], minlength=n)
            np.divide(sums, counts, out=means[:, c], where=has)
        return means, has

    @pytest.mark.parametrize("channels", [1, 2, 7])
    @pytest.mark.parametrize("mask", ["random", "none", "all"])
    def test_matches_masked_bincount(self, rng, channels, mask):
        for trial in range(3):
            # Nodes 150..159 take part in no edge.
            core, _ = random_graph(rng, 150, 0.08)
            pairs = [(u, int(v)) for u in range(150) for v in core.neighbors(u)
                     if v > u]
            g = Graph.build([f"n{i}" for i in range(160)], pairs)
            assert (g.degrees[150:] == 0).all()
            active = {"random": rng.random(160) < 0.4,
                      "none": np.zeros(160, dtype=bool),
                      "all": np.ones(160, dtype=bool)}[mask]
            # Spread magnitudes so that summation order shows in the bits.
            raw = rng.random((160, channels)) * 10.0 ** rng.integers(
                -6, 7, size=(160, channels))
            # The engine keeps the rows of inactive nodes at exactly 0.0.
            values = np.where(active[:, None], raw, 0.0)
            means, has = _neighbor_means(g, values, active)
            ref_means, ref_has = self.masked_bincount_means(g, values, active)
            assert np.array_equal(has, ref_has)
            assert np.array_equal(means, ref_means)
            if mask == "none":
                assert not has.any() and not means.any()


class TestEngineAgainstReference:
    """The one superstep loop against the two masked-assignment engines it
    replaced (``tests/oracles.py``), byte for byte, at every snapshot."""

    @staticmethod
    def reference(g, seeds, cfg, hook=None):
        """The replaced dispatch: (values, is_active) after ``cfg``."""
        k_max = cfg.iterations
        if cfg.strategy == "alpha":
            return reference_blended(g, seeds, [1.0 - cfg.alpha] * k_max, hook)
        if cfg.strategy == "beta":
            weights = [cfg.beta ** k for k in range(1, k_max + 1)]
            return reference_blended(g, seeds, weights, hook)
        if seeds.num_classes > 1:
            return reference_additive(g, seeds, cfg.gamma, k_max, hook)
        female = np.where(seeds.is_active, seeds.values[:, 0], 0.0)
        two = LabelState(np.stack([np.where(seeds.is_active, 1.0 - female, 0.0),
                                   female], axis=1),
                         seeds.is_seed, seeds.is_active)
        inner = None
        if hook is not None:
            inner = lambda k, values, active: hook(k, values[:, 1:2].copy(),
                                                   active)
        values, active = reference_additive(g, two, cfg.gamma, k_max, inner)
        return values[:, 1:2].copy(), active

    @staticmethod
    def case(rng, channels):
        """A graph with isolated nodes and a start state whose active rows
        include non-seeds (some of them isolated)."""
        core, _ = random_graph(rng, 40, float(rng.uniform(0.03, 0.15)))
        pairs = [(u, int(v)) for u in range(40) for v in core.neighbors(u)
                 if v > u]
        g = Graph.build([f"n{i}" for i in range(46)], pairs)
        picked = rng.choice(46, size=12, replace=False)
        is_seed = np.zeros(46, dtype=bool)
        is_seed[picked[:6]] = True
        is_active = is_seed.copy()
        is_active[picked[6:]] = True
        if channels == 1:
            values = rng.random((46, 1))
            values[is_seed] = rng.integers(0, 2, size=(6, 1))
        else:
            values = rng.dirichlet(np.ones(channels), size=46)
        return g, LabelState(values, is_seed, is_active)

    @staticmethod
    def assert_same(state, values, active):
        assert state.values.tobytes() == values.tobytes()
        assert np.array_equal(state.is_active, active)

    @pytest.mark.parametrize("strategy", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("channels", [1, 2, 7])
    def test_every_entry_point_matches(self, rng, strategy, channels):
        for _ in range(8):
            g, seeds = self.case(rng, channels)
            k_max = int(rng.integers(1, 7))
            cfg = PropagationConfig(
                strategy=strategy, alpha=float(rng.uniform(0.05, 0.95)),
                beta=float(rng.uniform(0.05, 0.95)),
                gamma=float(rng.uniform(0.05, 0.95)), iterations=k_max)
            want = {}
            values, active = self.reference(
                g, seeds, cfg,
                lambda k, v, a: want.__setitem__(k, (v.copy(), a.copy())))
            out = propagate(g, seeds, cfg)
            self.assert_same(out, values, active)
            assert np.array_equal(out.is_seed, seeds.is_seed)
            trace = propagate_trace(g, seeds, cfg, range(1, k_max + 1))
            assert sorted(trace) == list(range(1, k_max + 1))
            for k, snap in trace.items():
                self.assert_same(snap, *want[k])
            if strategy == "gamma" and channels == 1:
                self.assert_same(propagate_gamma(g, seeds, cfg.gamma, k_max),
                                 values, active)

            # One-hot class seeds, without the extra active rows.
            classes = {int(v): int(rng.integers(0, channels))
                       for v in np.flatnonzero(seeds.is_seed)}
            onehot = LabelState.from_seed_classes(
                g.node_count, list(classes), list(classes.values()),
                num_classes=channels)
            if strategy == "gamma":
                values, active = reference_additive(g, onehot, cfg.gamma, k_max)
            else:
                values, active = self.reference(g, onehot, cfg)
            self.assert_same(
                propagate_multiclass(g, classes, cfg, num_classes=channels),
                values, active)
            # The per-node array form, -1 marking an unlabeled node.
            per_node = np.full(g.node_count, -1)
            per_node[list(classes)] = list(classes.values())
            self.assert_same(
                propagate_multiclass(g, per_node, cfg, num_classes=channels),
                values, active)


class TestSuperstepLog:
    def test_one_debug_line_per_superstep(self, rng, caplog):
        g, adj = random_graph(rng, 40, 0.06)
        seeds, seed_map = random_binary_seeds(rng, 40, 3)
        caplog.set_level(logging.DEBUG, logger="demograph.labelprop")
        propagate(g, seeds, PropagationConfig(alpha=0.3, iterations=5))
        lines = [r for r in caplog.records if r.msg.startswith("superstep")]
        assert [r.args[0] for r in lines] == [1, 2, 3, 4, 5]
        # A node activates at the superstep equal to its hop distance.
        dist = np.array(bfs_distances(adj, set(seed_map)))
        assert [r.args[2] for r in lines] == [int((dist == k).sum())
                                              for k in range(1, 6)]
        # Only seeds are active before superstep 1, and seeds never move.
        assert lines[0].args[1] == 0.0


class TestLabelIO:
    def test_binary_seed_round_trip(self, tmp_path):
        g = path_graph(["a", "b", "c"])
        seed_file = tmp_path / "seeds.tsv"
        seed_file.write_text("a\t1\nc\t0.25\nmissing\t1\n")
        state = read_seed_labels(seed_file, g)
        assert state.seed_count == 2
        assert state.values[0, 0] == 1.0
        assert state.values[2, 0] == 0.25

    def test_age_seed_conversion(self, tmp_path):
        g = path_graph(["a", "b"])
        seed_file = tmp_path / "seeds.tsv"
        seed_file.write_text("a\t30\nb\t65\n")
        state = read_seed_labels(seed_file, g, num_classes=7, ages=True)
        assert state.values[0, 2] == 1.0
        assert state.values[1, 6] == 1.0

    def test_bucket_seed_validation(self, tmp_path):
        g = path_graph(["a", "b"])
        seed_file = tmp_path / "seeds.tsv"
        seed_file.write_text("a\t9\n")
        with pytest.raises(ValidationError):
            read_seed_labels(seed_file, g, num_classes=7)

    @pytest.mark.parametrize("text,ages,line,message", [
        ("a\t30\nb\t-4\n", True, 2, "-4"),
        ("a\t3\nb\t9\n", False, 2, r"range \[0, 7\)"),
        ("a\t3\nb\t2.5\n", False, 2, "integer"),
        ("a\t3\nb\tx\n", False, 2, "'x'"),
        # Off-graph names are skipped, but their values are still checked.
        ("missing\t-4\na\t3\n", True, 1, "-4"),
        ("a\t3\n# c\na\t4\n", False, 3, "duplicate seed 'a'"),
    ])
    def test_class_seed_errors_name_path_and_line(self, tmp_path, text, ages,
                                                  line, message):
        g = path_graph(["a", "b"])
        seed_file = tmp_path / "seeds.tsv"
        seed_file.write_text(text)
        with pytest.raises(EdgeListParseError,
                           match=rf"seeds\.tsv:{line}: .*{message}"):
            read_seed_labels(seed_file, g, num_classes=7, ages=ages)

    def test_class_seeds_accept_integral_floats(self, tmp_path):
        g = path_graph(["a", "b"])
        seed_file = tmp_path / "seeds.tsv"
        seed_file.write_text("a\t3.0\nb\t2\n")
        state = read_seed_labels(seed_file, g, num_classes=7)
        assert state.values[0, 3] == 1.0 and state.values[1, 2] == 1.0
        seed_file.write_text("a\t30.0\n")
        state = read_seed_labels(seed_file, g, num_classes=7, ages=True)
        assert state.values[0, 2] == 1.0

    @pytest.mark.parametrize("raw", ["1.5", "-0.1", "nan", "x"])
    def test_binary_seed_errors_name_path_and_line(self, tmp_path, raw):
        g = path_graph(["a", "b"])
        seed_file = tmp_path / "seeds.tsv"
        seed_file.write_text(f"a\t1\nb\t{raw}\n")
        with pytest.raises(EdgeListParseError, match=r"seeds\.tsv:2: "):
            read_seed_labels(seed_file, g)

    @pytest.mark.parametrize("text", ["a\t0.5,x\n", "a\t0.5\tb\n", "a\n"])
    def test_node_vector_errors_name_path_and_line(self, tmp_path, text):
        path = tmp_path / "vec.tsv"
        path.write_text("# header\n" + text)
        with pytest.raises(EdgeListParseError, match=r"vec\.tsv:2: "):
            read_node_vectors(path)

    @pytest.mark.parametrize("second,message", [
        ("a\t0.1,0.9", "repeated name 'a'"),
        ("b\t0.5", "expected 2 values, got 1"),
        ("b\t0.1,0.2,0.7", "expected 2 values, got 3")])
    def test_node_vector_rows_must_agree(self, tmp_path, second, message):
        path = tmp_path / "vec.tsv"
        path.write_text(f"a\t0.4,0.6\n\n{second}\n")
        with pytest.raises(EdgeListParseError, match=rf"vec\.tsv:3: {message}"):
            read_node_vectors(path)

    def test_out_of_range_binary_value(self, tmp_path):
        g = path_graph(["a", "b"])
        seed_file = tmp_path / "seeds.tsv"
        seed_file.write_text("a\t1.5\n")
        with pytest.raises(ValidationError):
            read_seed_labels(seed_file, g)

    def test_write_17_digits_and_inactive_handling(self, tmp_path):
        g = path_graph(["a", "b", "c"])
        state = LabelState(np.array([[1 / 3], [0.0], [0.0]]),
                           np.array([True, False, False]),
                           np.array([True, True, False]))
        out = tmp_path / "out.tsv"
        write_label_state(out, g, state)
        lines = out.read_text().splitlines()
        assert lines[0] == f"a\t{1/3:.17g}"
        assert len(lines) == 2  # c omitted
        write_label_state(out, g, state, emit_inactive=True)
        lines = out.read_text().splitlines()
        assert lines[2] == "c\tnan"
        parsed = read_node_vectors(out)
        assert parsed["a"][0] == 1 / 3  # 17 digits round-trip exactly

    @pytest.mark.parametrize("emit_inactive", [False, True])
    @pytest.mark.parametrize("channels", [1, 7])
    def test_bytes_equal_reference_writer(self, tmp_path, rng, channels,
                                          emit_inactive):
        g, _ = random_graph(rng, 30, 0.06)
        values = rng.random((30, channels))
        values[0] = -0.0
        active = rng.random(30) < 0.6
        active[:2] = True
        state = LabelState(np.where(active[:, None], values, 0.0),
                           np.arange(30) < 2, active)
        want, got = tmp_path / "want.tsv", tmp_path / "got.tsv"
        reference_label_state(want, g, state, emit_inactive)
        write_label_state(got, g, state, emit_inactive=emit_inactive)
        assert got.read_bytes() == want.read_bytes()

    def test_multichannel_output_format(self, tmp_path):
        g = path_graph(["a", "b"])
        state = LabelState(np.array([[0.25, 0.75], [0.0, 0.0]]),
                           np.array([True, False]), np.array([True, False]))
        out = tmp_path / "out.tsv"
        write_label_state(out, g, state)
        assert out.read_text() == "a\t0.25,0.75\n"


def reference_label_state(path, g, state, emit_inactive):
    """The per-node ``write_label_state`` loop that ``write_node_vectors``
    replaced, kept as the byte reference."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in range(state.node_count):
            if state.is_active[v]:
                row = ",".join(f"{x:.17g}" for x in state.values[v])
            elif emit_inactive:
                row = ",".join(["nan"] * state.num_classes)
            else:
                continue
            fh.write(f"{g.names[v]}\t{row}\n")
