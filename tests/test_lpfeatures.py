"""Partitioned propagation features and the leave-partition-out rule."""

from __future__ import annotations

import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demograph.errors import ConfigError, ValidationError
from demograph.graph import Graph
from demograph.labelprop import LabelState, PropagationConfig, propagate
from demograph.lpfeatures import lp_features, make_partitions
from demograph.model import FeatureMatrix

from conftest import (lp_parts, random_binary_seeds, random_graph,
                      seed_triple)
from oracles import reference_lp_features


def seeded_state(n, mapping):
    return LabelState.from_seed_values(n, list(mapping), list(mapping.values()))


def masked_values(block, n_partitions):
    """The lp table's ``(n, N*C)`` values with masked entries at 0.0, and
    its ``(n, N)`` presence."""
    values, present = lp_parts(block, n_partitions)
    mask = np.repeat(present, values.shape[1] // n_partitions, axis=1)
    return np.where(mask, values, 0.0), present


def without_presence(block, n_partitions):
    """The table ``demograph lp-features --no-presence`` writes."""
    return FeatureMatrix(block.nodes, block.columns[:-n_partitions],
                         block.values[:, :-n_partitions])


class TestMakePartitions:
    def test_nine_into_three_is_balanced(self):
        plan = make_partitions(range(9), 3, rng_seed=1)
        sizes = [len(part) for part in plan.partitions()]
        assert sizes == [3, 3, 3]

    def test_deterministic_for_seed(self):
        a = make_partitions(range(20), 4, rng_seed=7)
        b = make_partitions(list(reversed(range(20))), 4, rng_seed=7)
        assert a.assignment == b.assignment

    def test_ten_into_three_sizes(self):
        plan = make_partitions(range(10), 3, rng_seed=3)
        sizes = sorted(len(part) for part in plan.partitions())
        assert sizes == [3, 3, 4]

    def test_every_node_assigned_once(self):
        plan = make_partitions(range(17), 5, rng_seed=0)
        assert sorted(plan.assignment) == list(range(17))
        assert set(plan.assignment.values()) == set(range(5))

    def test_partitions_equal_the_assignment(self):
        plan = make_partitions(np.arange(3, 40, 3), 4, rng_seed=9)
        for i, part in enumerate(plan.partitions()):
            want = sorted(v for v, p in plan.assignment.items() if p == i)
            assert part.dtype == np.int64 and part.tolist() == want
        # A plan copied with a new order follows the new order.
        moved = replace(plan, order=np.roll(plan.order, 1))
        for i, part in enumerate(moved.partitions()):
            want = sorted(v for v, p in moved.assignment.items() if p == i)
            assert part.tolist() == want
        assert moved.assignment != plan.assignment

    def test_too_many_partitions_rejected(self):
        with pytest.raises(ConfigError):
            make_partitions(range(3), 4, rng_seed=0)

    def test_single_partition_rejected(self):
        with pytest.raises(ConfigError):
            make_partitions(range(5), 1, rng_seed=0)


class TestLPFeatures:
    def run_reference(self, g, labels, plan, cfg):
        """Independent per-partition runs used as the oracle."""
        outs = []
        for part in plan.partitions():
            sub = LabelState.from_seed_values(
                g.node_count, part, labels.values[part],
                num_classes=labels.num_classes)
            outs.append(propagate(g, sub, cfg))
        return outs

    def test_unlabeled_rows_pass_through(self, rng):
        g, _ = random_graph(rng, 20, 0.25)
        seeds, _ = random_binary_seeds(rng, 20, 9)
        plan = make_partitions(np.flatnonzero(seeds.is_seed), 3, rng_seed=2)
        cfg = PropagationConfig(alpha=0.3, iterations=3)
        block = lp_features(g, seed_triple(seeds), plan, cfg)
        values, present = masked_values(block, 3)
        runs = self.run_reference(g, seeds, plan, cfg)
        for u in range(20):
            if seeds.is_seed[u]:
                continue
            for i, run in enumerate(runs):
                if run.is_active[u]:
                    assert present[u, i]
                    assert values[u, i] == run.values[u, 0]
                else:
                    assert not present[u, i]

    def test_leave_out_mean_for_labeled_rows(self, rng):
        g, _ = random_graph(rng, 20, 0.25)
        seeds, _ = random_binary_seeds(rng, 20, 9)
        plan = make_partitions(np.flatnonzero(seeds.is_seed), 3, rng_seed=2)
        cfg = PropagationConfig(alpha=0.3, iterations=3)
        block = lp_features(g, seed_triple(seeds), plan, cfg)
        values, present = masked_values(block, 3)
        runs = self.run_reference(g, seeds, plan, cfg)
        for u, i in plan.assignment.items():
            others = [runs[j].values[u, 0] for j in range(3)
                      if j != i and runs[j].is_active[u]]
            if others:
                assert values[u, i] == pytest.approx(
                    float(np.mean(others)), abs=1e-15)
            else:
                assert not present[u, i]

    def test_two_partitions_leave_out_is_single_run(self):
        # Path s0 - u - s1; two partitions of one seed each: the left-out
        # entry equals the single other run's value at the node.
        g = Graph.build(["s0", "u", "s1"], [(0, 1), (1, 2)])
        labels = seeded_state(3, {0: 1.0, 2: 0.0})
        plan = make_partitions([0, 2], 2, rng_seed=0)
        cfg = PropagationConfig(alpha=0.5, iterations=2)
        values, _ = masked_values(
            lp_features(g, seed_triple(labels), plan, cfg), 2)
        runs = self.run_reference(g, labels, plan, cfg)
        for u, i in plan.assignment.items():
            other = 1 - i
            assert values[u, i] == runs[other].values[u, 0]

    def test_no_self_leakage_under_seed_perturbation(self, rng):
        g, _ = random_graph(rng, 24, 0.2)
        idx = rng.choice(24, size=9, replace=False)
        values = rng.random(9)
        labels = LabelState.from_seed_values(24, idx, values)
        plan = make_partitions(idx, 3, rng_seed=5)
        cfg = PropagationConfig(alpha=0.3, iterations=3)
        base = lp_features(g, seed_triple(labels), plan, cfg)
        u = int(idx[0])
        perturbed_values = values.copy()
        perturbed_values[0] = 1.0 - perturbed_values[0]
        perturbed = lp_features(g, seed_triple(LabelState.from_seed_values(
            24, idx, perturbed_values)), plan, cfg)
        # Every entry of u's own row is independent of u's seed value: run
        # i never reads it for the substitution, and runs j != i never see
        # u as a seed at all.
        base_values, base_present = masked_values(base, 3)
        values, present = masked_values(perturbed, 3)
        assert np.array_equal(base_values[u], values[u])
        assert np.array_equal(base_present[u], present[u])

    def test_permuting_partition_indices_permutes_columns(self, rng):
        g, _ = random_graph(rng, 18, 0.3)
        seeds, _ = random_binary_seeds(rng, 18, 6)
        plan = make_partitions(np.flatnonzero(seeds.is_seed), 3, rng_seed=1)
        cfg = PropagationConfig(alpha=0.3, iterations=2)
        block = lp_features(g, seed_triple(seeds), plan, cfg)
        perm = [2, 0, 1]
        # Six seeds in three partitions of two: partition i's nodes move
        # to the order slots of partition perm[i].
        order = np.empty_like(plan.order)
        for i in range(3):
            order[perm[i]::3] = plan.order[i::3]
        permuted_plan = replace(plan, order=order)
        assert permuted_plan.assignment == {
            u: perm[i] for u, i in plan.assignment.items()}
        permuted = lp_features(g, seed_triple(seeds), permuted_plan, cfg)
        values, present = masked_values(block, 3)
        permuted_values, permuted_present = masked_values(permuted, 3)
        for old, new in enumerate(perm):
            assert np.array_equal(values[:, old], permuted_values[:, new])
            assert np.array_equal(present[:, old], permuted_present[:, new])

    def test_identical_seed_runs_make_equal_columns(self, rng):
        # Degenerate check: N runs from the same seed set agree exactly,
        # so passthrough columns are all equal.
        g, _ = random_graph(rng, 15, 0.3)
        seeds, _ = random_binary_seeds(rng, 15, 5)
        cfg = PropagationConfig(alpha=0.3, iterations=3)
        outs = [propagate(g, seeds, cfg) for _ in range(3)]
        for other in outs[1:]:
            assert np.array_equal(outs[0].values, other.values)

    def test_unreached_nodes_fully_masked(self):
        # Two components; seeds only in the first.  The second component
        # is missed by every run.
        g = Graph.build(["a", "b", "x", "y"], [(0, 1), (2, 3)])
        labels = seeded_state(4, {0: 1.0, 1: 0.0})
        plan = make_partitions([0, 1], 2, rng_seed=0)
        block = lp_features(g, seed_triple(labels), plan,
                            PropagationConfig(alpha=0.3, iterations=3))
        imputed, present = lp_parts(block, 2)
        assert not present[2].any()
        assert not present[3].any()
        assert imputed[2].tolist() == [0.5, 0.5]

    def test_plan_must_cover_seed_set(self, rng):
        g, _ = random_graph(rng, 10, 0.4)
        seeds, _ = random_binary_seeds(rng, 10, 4)
        wrong = make_partitions(range(3), 2, rng_seed=0)
        with pytest.raises(ValidationError):
            lp_features(g, seed_triple(seeds), wrong,
                        PropagationConfig(iterations=1))

    def test_multiclass_block_shape_and_leave_out(self, rng):
        g, _ = random_graph(rng, 16, 0.3)
        idx = rng.choice(16, size=6, replace=False)
        classes = rng.integers(0, 7, size=6)
        labels = LabelState.from_seed_classes(16, idx, classes)
        plan = make_partitions(idx, 3, rng_seed=4)
        cfg = PropagationConfig(alpha=0.3, iterations=2)
        block = lp_features(g, seed_triple(labels), plan, cfg)
        values, _ = masked_values(block, 3)
        assert values.shape == (16, 3 * 7)
        assert block.columns == [f"lp_{i}_{c}" for i in range(3)
                                 for c in range(7)] + [
            f"lp_present_{i}" for i in range(3)]
        runs = self.run_reference(g, labels, plan, cfg)
        for u, i in plan.assignment.items():
            others = [runs[j].values[u] for j in range(3)
                      if j != i and runs[j].is_active[u]]
            if others:
                got = values[u, i * 7:(i + 1) * 7]
                assert np.allclose(got, np.mean(others, axis=0), atol=1e-15)


class TestSeedArrays:
    """``lp_features`` given the seeds as index and class arrays."""

    @pytest.mark.parametrize("strategy", ["alpha", "gamma"])
    @pytest.mark.parametrize("channels", [1, 7])
    def test_equals_the_seed_state(self, rng, strategy, channels):
        g, _ = random_graph(rng, 40, 0.15)
        idx = rng.choice(40, size=12, replace=False)
        classes = rng.integers(0, max(channels, 2), size=12)
        state = (LabelState.from_seed_values(40, idx, classes.astype(float))
                 if channels == 1 else
                 LabelState.from_seed_classes(40, idx, classes, channels))
        plan = make_partitions(idx, 3, rng_seed=6)
        cfg = PropagationConfig(strategy=strategy, alpha=0.3, gamma=0.8,
                                iterations=3)
        want = reference_lp_features(g, state, plan, cfg).table(g.names, True)
        got = lp_features(g, (idx, classes, channels), plan, cfg)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.nodes, want.nodes)
        assert got.columns == want.columns
        assert len(got.columns) == 3 * channels + 3

    def test_seeds_outside_the_plan_rejected(self, rng):
        g, _ = random_graph(rng, 20, 0.3)
        plan = make_partitions([1, 4, 7, 9], 2, rng_seed=0)
        for idx in ([1, 4, 7], [1, 4, 7, 9, 9], [1, 4, 7, 12]):
            with pytest.raises(ValidationError, match="cover exactly"):
                lp_features(g, (np.array(idx), np.zeros(len(idx), int), 2),
                            plan, PropagationConfig(iterations=1))


class TestLPMemory:
    # Traced peak of lp_features per node and channel: the (n, N*C + N)
    # table (27.4 here) and the run's two value buffers, 49.9 in all.  A
    # run that also keeps a spare buffer and its seed buffer read 69.7; one
    # that copies its seed state, and a full seed state beside the runs,
    # read 77.1.
    BYTES_PER_NODE_CHANNEL = 52

    @pytest.mark.parametrize("form", ["state", "arrays"])
    def test_peak_per_node_channel(self, form):
        rng = np.random.default_rng(0)
        n = 20_000
        g = Graph.build([f"v{i}" for i in range(n)],
                        rng.integers(0, n, size=(120_000, 2)))
        g.adjacency  # built once per graph, outside the trace
        idx = np.sort(rng.choice(n, size=n // 2, replace=False))
        classes = rng.integers(0, 7, size=len(idx))
        labels = (seed_triple(LabelState.from_seed_classes(n, idx, classes, 7))
                  if form == "state" else (idx, classes, 7))
        plan = make_partitions(idx, 3, rng_seed=1)
        tracemalloc.start()
        try:
            block = lp_features(g, labels, plan, PropagationConfig(iterations=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.values.shape == (n, 24)
        assert peak / (n * 7) <= self.BYTES_PER_NODE_CHANNEL


class TestLeaveOutAgainstLoop:
    """The per-partition masked mean against the per-node loop it replaced."""

    @staticmethod
    def loop_reference(runs, plan):
        raw = np.stack([r.values for r in runs], axis=1)
        present = np.stack([r.is_active for r in runs], axis=1)
        values = raw.copy()
        for u, i in plan.assignment.items():
            others = [j for j in range(plan.n_partitions)
                      if j != i and present[u, j]]
            if others:
                values[u, i] = raw[u, others].mean(axis=0)
                present[u, i] = True
            else:
                values[u, i] = 0.0
                present[u, i] = False
        return values.reshape(len(raw), -1), present

    @pytest.mark.parametrize("n_classes", [1, 7])
    @pytest.mark.parametrize("n_partitions", [2, 3, 4])
    def test_bit_identical(self, n_classes, n_partitions):
        rng = np.random.default_rng(100 * n_classes + n_partitions)
        # A sparse random graph plus isolated nodes: some labeled nodes are
        # reached by no run but their own, others by only some runs.
        g0, _ = random_graph(rng, 70, 0.03)
        pairs = [(u, int(v)) for u in range(70) for v in g0.neighbors(u) if v > u]
        g = Graph.build([f"n{i}" for i in range(76)], pairs)
        idx = np.concatenate([rng.choice(70, size=24, replace=False),
                              np.arange(70, 76)])
        if n_classes == 1:
            labels = LabelState.from_seed_values(76, idx, rng.random(len(idx)))
        else:
            labels = LabelState.from_seed_classes(
                76, idx, rng.integers(0, 7, size=len(idx)))
        plan = make_partitions(idx, n_partitions, rng_seed=n_partitions)
        cfg = PropagationConfig(alpha=0.3, iterations=2)
        block = lp_features(g, seed_triple(labels), plan, cfg)
        runs = TestLPFeatures().run_reference(g, labels, plan, cfg)
        values, present = self.loop_reference(runs, plan)
        got_values, got_present = masked_values(block, n_partitions)
        assert np.array_equal(got_values, values)
        assert np.array_equal(got_present, present)
        # Both branches of the rule are exercised.
        own = np.array([present[u, i] for u, i in plan.assignment.items()])
        assert own.any() and not own.all()


class TestTableAgainstReference:
    """The one preallocated table against the stacked copies it replaced."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7]),
           st.integers(2, 4), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical(self, seed, n_classes, n_partitions, presence):
        rng = np.random.default_rng(seed)
        # A sparse core plus isolated nodes: n35 is reached by no run (fully
        # masked), an isolated labeled node by no run but its own.
        core, _ = random_graph(rng, 30, float(rng.uniform(0.0, 0.15)))
        pairs = [(u, int(v)) for u in range(30) for v in core.neighbors(u)
                 if v > u]
        g = Graph.build([f"n{i}" for i in range(36)], pairs)
        idx = rng.choice(35, size=int(rng.integers(n_partitions, 20)),
                         replace=False)
        if n_classes == 1:
            labels = LabelState.from_seed_values(36, idx, rng.random(len(idx)))
        else:
            labels = LabelState.from_seed_classes(
                36, idx, rng.integers(0, 7, size=len(idx)))
        plan = make_partitions(idx, n_partitions, rng_seed=seed)
        cfg = PropagationConfig(alpha=0.3, iterations=int(rng.integers(1, 4)))
        block = lp_features(g, seed_triple(labels), plan, cfg)
        ref = reference_lp_features(g, labels, plan, cfg)
        values, present = masked_values(block, n_partitions)
        assert np.array_equal(values, ref.values)
        assert np.array_equal(present, ref.present)
        assert not present[35].any()
        got = block if presence else without_presence(block, n_partitions)
        want = ref.table(g.names, presence)
        assert np.array_equal(got.nodes, want.nodes)
        assert got.columns == want.columns
        assert got.values.tobytes() == want.values.tobytes()


def reference_lp_csv(block, n_partitions, g, path, include_presence=True):
    """The dedicated lp-feature writer that ``FeatureMatrix.to_csv`` of the
    lp table replaced, kept as the byte reference."""
    values, present = lp_parts(block, n_partitions)
    header = ["node"] + block.columns[:values.shape[1]]
    if include_presence:
        header += block.columns[values.shape[1]:]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for v in range(len(block.nodes)):
            row = [g.names[v].decode()] + [f"{x:.17g}" for x in values[v]]
            if include_presence:
                row += [str(int(x)) for x in present[v]]
            writer.writerow(row)


class TestCSV:
    def test_header_and_round_trip(self, tmp_path, rng):
        g, _ = random_graph(rng, 12, 0.3)
        seeds, _ = random_binary_seeds(rng, 12, 6)
        plan = make_partitions(np.flatnonzero(seeds.is_seed), 3, rng_seed=0)
        block = lp_features(g, seed_triple(seeds), plan,
                            PropagationConfig(alpha=0.3, iterations=3))
        out = tmp_path / "lp.csv"
        block.to_csv(out)
        fm = FeatureMatrix.from_csv(out)
        assert fm.columns == ["lp_0", "lp_1", "lp_2",
                              "lp_present_0", "lp_present_1", "lp_present_2"]
        assert np.array_equal(fm.nodes, g.names)
        values, present = lp_parts(block, 3)
        assert np.array_equal(fm.values[:, :3], values)
        assert np.array_equal(fm.values[:, 3:], present.astype(float))

    def test_presence_columns_optional(self, tmp_path, rng):
        g, _ = random_graph(rng, 10, 0.3)
        seeds, _ = random_binary_seeds(rng, 10, 4)
        plan = make_partitions(np.flatnonzero(seeds.is_seed), 2, rng_seed=0)
        block = lp_features(g, seed_triple(seeds), plan,
                            PropagationConfig(alpha=0.3, iterations=2))
        out = tmp_path / "lp.csv"
        without_presence(block, 2).to_csv(out)
        fm = FeatureMatrix.from_csv(out)
        assert fm.columns == ["lp_0", "lp_1"]
        assert np.array_equal(fm.values, lp_parts(block, 2)[0])

    @pytest.mark.parametrize("presence", [True, False])
    @pytest.mark.parametrize("n_classes", [1, 7])
    def test_bytes_equal_reference_writer(self, tmp_path, presence, n_classes):
        rng = np.random.default_rng(7 * n_classes)
        # Sparse edges and isolated nodes leave some entries masked.
        core, _ = random_graph(rng, 40, 0.04)
        pairs = [(u, int(v)) for u in range(40) for v in core.neighbors(u)
                 if v > u]
        g = Graph.build([f"n{i}" for i in range(44)], pairs)
        idx = np.concatenate([rng.choice(40, size=12, replace=False),
                              np.arange(40, 44)])
        if n_classes == 1:
            labels = LabelState.from_seed_values(44, idx, rng.random(len(idx)))
        else:
            labels = LabelState.from_seed_classes(
                44, idx, rng.integers(0, 7, size=len(idx)))
        block = lp_features(g, seed_triple(labels),
                            make_partitions(idx, 3, rng_seed=2),
                            PropagationConfig(alpha=0.3, iterations=2))
        assert not lp_parts(block, 3)[1].all()
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        reference_lp_csv(block, 3, g, want, include_presence=presence)
        (block if presence else without_presence(block, 3)).to_csv(got)
        assert got.read_bytes() == want.read_bytes()
