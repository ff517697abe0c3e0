"""Sensitivity grids, full pipeline runs, and seed derivation."""

from __future__ import annotations

import contextlib
import json
import tracemalloc
import weakref
from dataclasses import fields, replace
from operator import attrgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demograph import labelprop as labelprop_module
from demograph import lpfeatures as lpfeatures_module
from demograph import pipeline as pipeline_module
from demograph.embed import EmbeddingTable
from demograph.errors import ConfigError, ValidationError
from demograph.graph import Graph, load_edge_list, name_array, texts
from demograph.labelprop import (LabelState, PropagationConfig, propagate,
                                  propagate_trace)
from demograph.model import (FeatureMatrix, TrainHyper, auc_rank,
                             balance_classes, predict, train_logistic,
                             train_mlp, train_softmax)
from demograph.pipeline import (ExperimentGrid, PipelineConfig, derive_seed,
                                format_metrics_table, format_pivot,
                                read_labels, run_pipeline, run_sensitivity,
                                write_sensitivity_csv)
from demograph.synth import (PlantedGraphSpec, SynthData, generate,
                             write_outputs)

from conftest import spiced


def side(labels, names):
    """One side of a split as ``fit_and_score`` takes it: the names as a
    ``name_array`` and their labels."""
    return name_array(names), np.array([labels[n] for n in names])


def planted_fixture(tmp_path, per_class=600, p=0.012, q=0.0012, reveal=0.05,
                    noise=0.0, rng_seed=3):
    spec = PlantedGraphSpec(per_class=per_class, classes=2, p=p, q=q,
                            reveal=reveal, noise=noise, rng_seed=rng_seed)
    paths = write_outputs(generate(spec), tmp_path / "data")
    g = load_edge_list(paths["edges"])
    truth_map = read_labels(paths["truth"])
    truth = np.full(g.node_count, -1, dtype=np.int64)
    for name, value in truth_map.items():
        if name in g.names:
            truth[g.index_of(name)] = value
    seeds_map = read_labels(paths["seeds"])
    idx = [g.index_of(n) for n in seeds_map if n in g.names]
    seeds = LabelState.from_seed_values(
        g.node_count, idx, [float(seeds_map[g.names[i]]) for i in idx])
    return paths, g, truth, seeds


class TestDeriveSeed:
    def test_deterministic_and_stage_scoped(self):
        assert derive_seed(7, "embed") == derive_seed(7, "embed")
        assert derive_seed(7, "embed") != derive_seed(7, "split")
        assert derive_seed(7, "embed") != derive_seed(8, "embed")
        assert 0 <= derive_seed(7, "embed") < 2 ** 63


class TestNameMemory:
    def test_inputs_hold_names_as_bytes_arrays(self, tmp_path, rng):
        # The graph, the truth labels and the feature CSV of a run hold
        # each name once per input, as its fixed-width bytes: a name list
        # or dict adds about 60 bytes per node and name.
        n = 20_000
        data = SynthData([f"u{i:06d}" for i in range(n)],
                         rng.integers(0, 7, n), np.arange(0, n, 10),
                         rng.integers(0, n, size=(100_000, 2)),
                         rng.normal(size=(n, 7)))
        paths = write_outputs(data, tmp_path)
        tracemalloc.start()
        try:
            g = load_edge_list(paths["edges"])
            names, labels = pipeline_module._read_truth(paths["truth"],
                                                        "age", False)
            fm = FeatureMatrix.from_csv(paths["cumf"])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = (g.indptr.nbytes + g.indices.nbytes + labels.nbytes
                  + fm.values.nbytes)
        assert g.node_count == len(names) == len(fm.nodes) == n
        assert held - arrays - g.names.nbytes - names.nbytes \
            - fm.nodes.nbytes <= 2 * n


class TestReadLabels:
    def test_gender_and_age_parsing(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("a\t1\nb\t0\na\t0\n")  # duplicate keeps first value
        labels = read_labels(p)
        assert labels == {b"a": 1, b"b": 0}
        p.write_text("a\t30\nb\t65\n")
        assert read_labels(p, task="age", ages=True) == {b"a": 2, b"b": 6}

    def test_bad_gender_value(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("a\t2\n")
        with pytest.raises(ValidationError):
            read_labels(p)

    def test_integral_floats_accepted(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("a\t1.0\nb\t0.0\n")
        assert read_labels(p) == {b"a": 1, b"b": 0}
        p.write_text("a\t30.0\n")
        assert read_labels(p, task="age", ages=True) == {b"a": 2}

    @pytest.mark.parametrize("raw", ["0.7", "1.5", "inf", "-inf", "nan",
                                     "1e400", "x"])
    @pytest.mark.parametrize("task", ["gender", "age"])
    def test_malformed_value_names_path_and_line(self, tmp_path, raw, task):
        p = tmp_path / "labels.tsv"
        p.write_text(f"a\t1\n# comment\nb\t{raw}\n")
        with pytest.raises(ValidationError, match=rf"labels\.tsv:3: "):
            read_labels(p, task=task)

    def test_negative_age_names_path_and_line(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("a\t30\nb\t-4\n")
        with pytest.raises(ValidationError, match=r"labels\.tsv:2: .*-4"):
            read_labels(p, task="age", ages=True)

    @pytest.mark.parametrize("raw", ["inf", "foo", "0.5", "2"])
    def test_duplicate_line_is_checked_before_keep_first(self, tmp_path, raw):
        p = tmp_path / "labels.tsv"
        p.write_text(f"a\t1\nb\t0\na\t{raw}\n")
        with pytest.raises(ValidationError, match=r"labels\.tsv:3: "):
            read_labels(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("# nothing\n")
        with pytest.raises(ConfigError):
            read_labels(p)


# Label files: lines whose label every task takes, under names that now
# and then repeat, blank lines, and one line with a label that one task or
# none takes or with bytes that send the file to the line reader.
_label_line = st.one_of(
    st.builds("{}{}{}".format,
              st.from_regex(r"[a-c][a-z0-9_-]{0,5}", fullmatch=True),
              st.sampled_from(["\t", " ", " \t "]),
              st.sampled_from(["0", "1", "00", "01"])),
    st.sampled_from(["", "  ", "\t"]))
_LABEL_SPICE = [f"a\t{label}\n".encode() for label in [
    "2", "6", "7", "17", "18", "64", "65", "120", "9" * 18, "9" * 19, "1.0",
    "3.5", "-1", "+1", "1_0", "1e1", "nan", "inf", "x"]]
_LABEL_DECLINED = [b"# comment\n", b"a\t1#c\n", b"a\n", b"a 1 1\n",
                   "\u00e9\t1\n".encode(), b"a\t1\r\n", b"\x0bb\t1\n",
                   b"a\t\xff\n"]


def _labels_outcome(path, task, ages):
    try:
        return list(read_labels(path, task, ages).items())
    except ValidationError as exc:
        return type(exc), str(exc)


def _line_reader_asked(path, num_classes, ages):
    """Whether the label read of ``path`` opens the line reader."""
    with mock.patch.object(labelprop_module, "_read_rows",
                           wraps=labelprop_module._read_rows) as rows:
        with contextlib.suppress(ValidationError):
            labelprop_module._read_label_file(path, num_classes, ages)
    return rows.called


class TestArrayLabels:
    """The array label read against the line reader it stands in for."""

    @given(st.builds(spiced, st.lists(_label_line, max_size=10),
                     st.sampled_from([b""] * 16 + _LABEL_SPICE + _LABEL_DECLINED),
                     st.integers(0, 10), st.booleans()),
           st.sampled_from([("gender", False), ("age", False), ("age", True)]))
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_line_reader(self, tmp_path_factory, data, task):
        path = tmp_path_factory.mktemp("l") / "labels.tsv"
        path.write_bytes(data)
        fast = _labels_outcome(path, *task)
        with mock.patch.object(labelprop_module, "_token_words",
                               return_value=None):
            assert fast == _labels_outcome(path, *task)

    @pytest.mark.parametrize("text,classes,ages,taken", [
        ("a\t1\n  \nb 0", 2, False, True),
        ("a\t06\nb\t0\n", 7, False, True),
        ("a\t17\nb\t18\nc\t999999999999999999\n", 7, True, True),
        ("a\t2\n", 2, False, False),
        ("a\t1.0\n", 2, False, True),
        ("a\t1\na\t1\n", 2, False, True),
        ("\n \n", 2, False, True),
        ("a\t0.25\nb\t1\n", 1, False, True),
        ("a\t0.25\nb\t1\n", 2, False, False),
        ("a\t1\nb\tnan\n", 1, False, False)])
    def test_which_files_the_array_parse_takes(self, tmp_path, text, classes,
                                               ages, taken):
        path = tmp_path / "labels.tsv"
        path.write_bytes(text.encode())
        assert _line_reader_asked(path, classes, ages) != taken

    @pytest.mark.parametrize("line", _LABEL_DECLINED)
    def test_declined_line_goes_to_line_reader(self, tmp_path, line):
        path = tmp_path / "labels.tsv"
        path.write_bytes(b"a\t1\n" + line + b"b\t0\n")
        data = np.frombuffer(path.read_bytes(), np.uint8)
        assert labelprop_module._token_words(data) is None
        assert _line_reader_asked(path, 2, False)


class TestSensitivity:
    def test_row_count_and_canonical_order(self, tmp_path):
        _, g, truth, seeds = planted_fixture(tmp_path, per_class=60, p=0.1,
                                             q=0.01, reveal=0.2)
        grid = ExperimentGrid(strategies=["alpha", "beta"],
                              alphas=[0.2, 0.8], betas=[0.8], ks=[1, 2, 3],
                              repetitions=2)
        rows = run_sensitivity(g, truth, grid, seeds=seeds)
        assert len(rows) == (2 + 1) * 3 * 2
        keys = [(r["strategy"], r["param"], r["rep"], r["iterations"])
                for r in rows]
        expected = [(s, p, rep, k)
                    for s, p in grid.cells()
                    for rep in range(2)
                    for k in grid.ks]
        assert keys == expected

    def test_matches_direct_propagation(self, tmp_path):
        _, g, truth, seeds = planted_fixture(tmp_path, per_class=80, p=0.08,
                                             q=0.01, reveal=0.2)
        hidden = (truth >= 0) & ~seeds.is_seed
        for strategy in ("alpha", "beta", "gamma"):
            grid = ExperimentGrid(strategies=[strategy], alphas=[0.3],
                                  betas=[0.8], gammas=[0.9], ks=[2])
            row = run_sensitivity(g, truth, grid, seeds=seeds)[0]
            assert row["error"] == ""
            state = propagate(g, seeds, PropagationConfig(
                strategy, alpha=0.3, beta=0.8, gamma=0.9, iterations=2))
            scores = np.where(state.is_active, state.values[:, 0], 0.5)
            assert row["auc"] == auc_rank(scores[hidden], truth[hidden] == 1)
            assert row["coverage"] == state.coverage

    def test_workers_do_not_change_results(self, tmp_path):
        _, g, truth, seeds = planted_fixture(tmp_path, per_class=60, p=0.1,
                                             q=0.01, reveal=0.2)
        grid = ExperimentGrid(strategies=["alpha", "beta", "gamma"],
                              alphas=[0.2, 0.5], betas=[0.8], gammas=[0.9],
                              ks=[1, 2, 3])
        assert run_sensitivity(g, truth, grid, seeds=seeds) == \
            run_sensitivity(g, truth, grid, seeds=seeds, workers=4)

    def test_cell_failures_recorded_and_run_continues(self, tmp_path):
        _, g, truth, _ = planted_fixture(tmp_path, per_class=50, p=0.1,
                                         q=0.01, reveal=0.2)
        # Fractional seed values break the gamma strategy only.
        idx = np.flatnonzero(truth >= 0)[:10]
        seeds = LabelState.from_seed_values(
            g.node_count, idx, np.full(10, 0.5))
        grid = ExperimentGrid(strategies=["alpha", "gamma"], alphas=[0.3],
                              gammas=[0.9], ks=[1, 2])
        rows = run_sensitivity(g, truth, grid, seeds=seeds)
        assert len(rows) == 4
        alpha_rows = [r for r in rows if r["strategy"] == "alpha"]
        gamma_rows = [r for r in rows if r["strategy"] == "gamma"]
        assert all(r["error"] == "" and r["auc"] is not None
                   for r in alpha_rows)
        assert all(r["error"] != "" and r["auc"] is None for r in gamma_rows)

    def test_undefined_auc_is_a_row_error(self):
        # The one class-0 node is a seed, so every hidden label is 1.
        g = Graph.build(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
        truth = np.array([0, 1, 1, 1])
        seeds = LabelState.from_seed_values(4, [0, 1], [0.0, 1.0])
        grid = ExperimentGrid(strategies=["alpha"], alphas=[0.3], ks=[1, 2])
        rows = run_sensitivity(g, truth, grid, seeds=seeds)
        assert [r["auc"] for r in rows] == [None, None]
        assert [r["coverage"] for r in rows] == [0.75, 1.0]
        assert all(r["error"] == "AUC is undefined when only one class is "
                   "present" for r in rows)

    def test_no_seeds_rejected_before_grid(self, tmp_path):
        _, g, truth, _ = planted_fixture(tmp_path, per_class=50, p=0.1,
                                         q=0.01, reveal=0.2)
        empty = LabelState(np.zeros((g.node_count, 1)),
                           np.zeros(g.node_count, bool),
                           np.zeros(g.node_count, bool))
        grid = ExperimentGrid(strategies=["alpha"], alphas=[0.3], ks=[1])
        with pytest.raises(ConfigError):
            run_sensitivity(g, truth, grid, seeds=empty)
        with pytest.raises(ConfigError):
            run_sensitivity(g, truth, grid)  # neither seeds nor reveal

    @pytest.mark.parametrize("reveal", [0.0, 1.0, 2.0, float("nan")])
    def test_reveal_outside_unit_interval_rejected(self, tmp_path, reveal):
        _, g, truth, _ = planted_fixture(tmp_path, per_class=50, p=0.1,
                                         q=0.01, reveal=0.2)
        grid = ExperimentGrid(strategies=["alpha"], alphas=[0.3], ks=[1])
        with pytest.raises(ConfigError, match="reveal fraction must lie in"):
            run_sensitivity(g, truth, grid, reveal=reveal)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        _, g, truth, seeds = planted_fixture(tmp_path, per_class=50, p=0.1,
                                             q=0.01, reveal=0.2)
        grid = ExperimentGrid(strategies=["alpha"], alphas=[0.3], ks=[1])
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            run_sensitivity(g, truth, grid, seeds=seeds, workers=workers)

    @pytest.mark.parametrize("strategy,values,message", [
        ("alpha", {"alphas": [0.2, 2.0]}, "grid alpha value 2.0: alpha must"),
        ("alpha", {"alphas": [float("nan")]}, "grid alpha value nan"),
        ("beta", {"betas": [-0.1]}, "grid beta value -0.1: beta must"),
        ("gamma", {"gammas": [1.0]},
         r"grid gamma value 1.0: gamma must lie in \[0, 1\)")])
    def test_grid_checks_every_cell(self, strategy, values, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentGrid(strategies=[strategy], ks=[1, 2], **values)

    @pytest.mark.parametrize("name,values", [
        ("strategies", ["alpha", "beta", "alpha"]), ("alphas", [0.5, 0.5]),
        ("betas", [0.8, 0.8]), ("gammas", [0.9, 0.9]), ("ks", [2, 1, 2])])
    def test_grid_rejects_a_repeated_value(self, name, values):
        with pytest.raises(ConfigError, match=f"{name} repeats a value"):
            ExperimentGrid(**{name: values})

    def test_fixed_seeds_run_each_cell_once(self, tmp_path, monkeypatch):
        _, g, truth, seeds = planted_fixture(tmp_path, per_class=60, p=0.1,
                                             q=0.01, reveal=0.2)
        grid = ExperimentGrid(strategies=["alpha", "beta"], alphas=[0.2, 0.8],
                              betas=[0.8], ks=[1, 2], repetitions=3)
        once = run_sensitivity(g, truth, replace(grid, repetitions=1),
                               seeds=seeds)
        calls = []

        def counted(*args):
            calls.append(args)
            return propagate_trace(*args)

        monkeypatch.setattr(pipeline_module, "propagate_trace", counted)
        rows = run_sensitivity(g, truth, grid, seeds=seeds)
        assert len(calls) == 3
        # Each repetition repeats its cell's rows, in canonical order.
        assert rows == [{**row, "rep": rep} for i in range(0, 6, 2)
                        for rep in range(3) for row in once[i:i + 2]]
        calls.clear()
        run_sensitivity(g, truth, grid, reveal=0.2)
        assert len(calls) == 9

    def test_reveal_resampling_differs_per_rep(self, tmp_path):
        _, g, truth, _ = planted_fixture(tmp_path, per_class=80, p=0.08,
                                         q=0.01, reveal=0.2)
        grid = ExperimentGrid(strategies=["alpha"], alphas=[0.3], ks=[2],
                              repetitions=3, rng_seed=5)
        rows = run_sensitivity(g, truth, grid, reveal=0.2)
        aucs = {r["rep"]: r["auc"] for r in rows}
        assert len(set(aucs.values())) > 1

    def test_sensitivity_gap_on_weak_reveal_graph(self, tmp_path):
        # Qualitative shape from the sensitivity tables: with a sparse
        # reveal, one hop of seed information is much weaker than two.
        _, g, truth, seeds = planted_fixture(tmp_path)
        grid = ExperimentGrid(strategies=["alpha"], alphas=[0.2], ks=[1, 2, 3])
        rows = run_sensitivity(g, truth, grid, seeds=seeds)
        aucs = {r["iterations"]: r["auc"] for r in rows}
        assert aucs[2] > aucs[1] + 0.05
        assert aucs[3] > aucs[1]

    def test_csv_and_pivot_formatting(self, tmp_path):
        _, g, truth, seeds = planted_fixture(tmp_path, per_class=50, p=0.1,
                                             q=0.01, reveal=0.2)
        grid = ExperimentGrid(strategies=["alpha"], alphas=[0.3], ks=[1, 2])
        rows = run_sensitivity(g, truth, grid, seeds=seeds)
        out = tmp_path / "sens.csv"
        write_sensitivity_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "strategy,param,iterations,rep,auc,coverage,error"
        assert len(lines) == 3
        pivot = format_pivot(rows)
        assert "alpha" in pivot and "K=1" in pivot and "K=2" in pivot

    def test_params_print_as_values_that_read_back(self, tmp_path):
        # Six significant digits made these two parameters one text.
        _, g, truth, seeds = planted_fixture(tmp_path, per_class=50, p=0.1,
                                             q=0.01, reveal=0.2)
        grid = ExperimentGrid(strategies=["alpha", "beta"],
                              alphas=[0.1234561, 0.1234562, 0.2, 1.0],
                              betas=[0.8], ks=[1])
        rows = run_sensitivity(g, truth, grid, seeds=seeds)
        out = tmp_path / "sens.csv"
        write_sensitivity_csv(rows, out)
        params = [line.split(",")[1]
                  for line in out.read_text().splitlines()[1:]]
        assert params == ["0.1234561", "0.1234562", "0.2", "1", "0.8"]
        assert [float(p) for p in params] == [r["param"] for r in rows]
        pivot = format_pivot(rows).splitlines()[2:]
        assert [line.split()[1] for line in pivot] == [
            "0.1234561", "0.1234562", "0.2", "1", "0.8"]


class TestPipelineConfig:
    def test_file_parsing_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nedges=e.tsv\nlabels=l.tsv\n"
                            "regimes=cumf\nmodel=mlp\n")
        cfg = PipelineConfig.from_file(cfg_file, {"model": "lr"})
        assert cfg.edges == "e.tsv"
        assert cfg.model == "lr"
        assert cfg.regimes == (("cumf", ("cumf",)),)

    def test_file_and_settings_build_equal_configs(self, tmp_path):
        # Every key, each set away from its default.
        settings = dict(edges="e.tsv", labels="l.tsv", cumf="c.csv",
                        out="", task="age", ages="yes", regimes="cumf,lp+emb",
                        model="mlp", hidden="8,4", balance="on", root_seed="5",
                        min_degree="2", lp_splits="4", emb_bidirectional="1",
                        split="random", train_frac="0.6", epochs="3",
                        minibatch="16", rate="0.2", l2="0.01", lp_alpha="0.5",
                        lp_iters="2", emb_mode="cbow", emb_dim="12",
                        emb_window="", emb_epochs="2", emb_negatives="3",
                        emb_rate="0.05", emb_min_count="1")
        assert set(settings) == pipeline_module._KEYS
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        cfg = PipelineConfig.from_file(cfg_file)
        assert cfg == PipelineConfig.from_settings(**settings)
        assert (cfg.out, cfg.hidden, cfg.ages, cfg.lp.iterations,
                cfg.emb.negatives, cfg.hyper.l2) == (None, (8, 4), True, 2, 3, 0.01)

    def test_key_set_twice_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model=lr\n# comment\nmodel=mlp\n")
        with pytest.raises(ConfigError,
                           match=f"{cfg_file}:3: repeated key 'model'"):
            PipelineConfig.from_file(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("edgez=e.tsv\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(cfg_file)

    def test_missing_inputs_listed(self, tmp_path):
        cfg = PipelineConfig.from_settings(edges=str(tmp_path / "absent.tsv"),
                                           labels=str(tmp_path / "gone.tsv"),
                                           regimes="lp")
        with pytest.raises(ConfigError, match="absent.tsv"):
            run_pipeline(cfg)

    def test_cumf_required_only_when_used(self, tmp_path, monkeypatch):
        edges = tmp_path / "e.tsv"
        edges.write_text("a\tb\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("a\t1\n")

        class Ingested(Exception):
            pass

        def ingest(*args, **kwargs):
            raise Ingested

        monkeypatch.setattr(pipeline_module, "load_edge_list", ingest)
        cfg = PipelineConfig.from_settings(edges=str(edges), labels=str(labels),
                                           regimes="lp")
        with pytest.raises(Ingested):  # the inputs pass their check
            run_pipeline(cfg)
        cfg2 = PipelineConfig.from_settings(edges=str(edges),
                                            labels=str(labels),
                                            regimes="cumf")
        with pytest.raises(ConfigError):
            run_pipeline(cfg2)

    @pytest.mark.parametrize("key,raw,expected", [
        ("epochs", "7", 7), ("lp_alpha", "0.25", 0.25),
        ("hidden", "64,32", (64, 32)), ("train_frac", "", None),
        ("train_frac", "0.5", 0.5), ("emb_window", "", None)])
    def test_value_conversion(self, key, raw, expected):
        field = {"epochs": "hyper.epochs", "lp_alpha": "lp.alpha",
                 "hidden": "hidden", "train_frac": "split_spec.train_fraction",
                 "emb_window": "emb.window"}[key]
        cfg = PipelineConfig.from_settings(**{key: raw})
        assert attrgetter(field)(cfg) == expected

    @pytest.mark.parametrize("key,raw", [
        ("epochs", "abc"), ("hidden", "8,x"), ("lp_alpha", "x"),
        ("rate", ""), ("min_degree", "1.5"), ("emb_window", "five")])
    def test_malformed_value_names_key(self, tmp_path, key, raw):
        edges = tmp_path / "e.tsv"
        edges.write_text("a\tb\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("a\t1\n")
        with pytest.raises(ConfigError, match=repr(key)):
            PipelineConfig.from_settings(edges=str(edges), labels=str(labels),
                                         regimes="lp", **{key: raw})

    @pytest.mark.parametrize("key,raw,message", [
        ("model", "foo", "unknown model 'foo'"),
        ("split", "foo", "unknown split mode 'foo'"),
        ("emb_mode", "foo", "unknown embedding mode 'foo'"),
        ("task", "foo", "unknown task 'foo'"),
        ("train_frac", "1.5", "train fraction"),
        ("epochs", "0", "epochs must be >= 1"),
        ("minibatch", "0", "minibatch must be >= 1"),
        ("rate", "0", "rate must be positive"),
        ("rate", "nan", "rate must be positive and finite, got nan"),
        ("rate", "inf", "rate must be positive and finite, got inf"),
        ("emb_rate", "nan", r"emb_\* keys: rate must be positive and finite"),
        ("emb_rate", "-inf", r"emb_\* keys: rate must be positive and finite"),
        ("l2", "-1", "l2 must be >= 0"),
        ("lp_splits", "1", "'lp_splits' must be >= 2"),
        ("lp_alpha", "2", "lp_alpha.*alpha must lie in"),
        ("lp_iters", "0", "lp_iters.*iterations must be >= 1"),
        ("hidden", "0", "bad hidden layer sizes"),
        ("hidden", "", "bad hidden layer sizes"),
        ("min_degree", "-1", "'min_degree' must be >= 0"),
        ("balance", "ture", "config key 'balance': bad value 'ture'"),
        ("ages", "TRUE", "config key 'ages': bad value 'TRUE'"),
        ("emb_bidirectional", "y", "config key 'emb_bidirectional'"),
        ("regimes", "", "config key 'regimes' names no regime"),
        ("regimes", ",", "config key 'regimes' names no regime"),
        ("regimes", "cumf+cumf,cumf", "'cumf\\+cumf' repeats a block"),
        ("regimes", "all,lp,all", "names regime 'all' twice")])
    def test_bad_setting_fails_before_ingest(self, tmp_path, monkeypatch,
                                             key, raw, message):
        edges = tmp_path / "e.tsv"
        edges.write_text("a\tb\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("a\t1\n")
        loads = []
        monkeypatch.setattr(pipeline_module, "load_edge_list",
                            lambda *a, **k: loads.append(a))
        # Every setting applies: lp and emb both run, with an MLP.
        settings = {"regimes": "emb+lp", "model": "mlp", key: raw}
        with pytest.raises(ConfigError, match=message):
            run_pipeline(PipelineConfig.from_settings(
                edges=str(edges), labels=str(labels), **settings))
        assert loads == []

    def test_hidden_may_repeat_a_width(self):
        assert PipelineConfig.from_settings(hidden="64,64").hidden == (64, 64)

    def test_unknown_regime_block(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_settings(regimes="cumf+magic")

    def test_block_settings_range_checked_only_when_read(self):
        # Every key is converted, but lp_alpha's range applies only when a
        # regime reads the lp block.
        cfg = PipelineConfig.from_settings(regimes="cumf", lp_alpha="2")
        assert (cfg.lp, cfg.emb) == (None, None)
        with pytest.raises(ConfigError, match="config key 'emb_dim'"):
            PipelineConfig.from_settings(regimes="cumf", emb_dim="abc")
        with pytest.raises(ConfigError, match="lp_alpha.*alpha must lie in"):
            PipelineConfig.from_settings(regimes="cumf+lp", lp_alpha="2")


class TestRunPipeline:
    def base_config(self, tmp_path, **extra):
        spec = PlantedGraphSpec(per_class=150, classes=2, p=0.06, q=0.006,
                                reveal=0.5, noise=1.2, rng_seed=13)
        paths = write_outputs(generate(spec), tmp_path / "data")
        settings = dict(
            edges=str(paths["edges"]), labels=str(paths["truth"]),
            cumf=str(paths["cumf"]), regimes="cumf", model="lr",
            epochs="30", minibatch="64", rate="0.5", split="hash",
            train_frac="0.75", root_seed="7", lp_splits="3",
            emb_dim="8", emb_window="3", emb_epochs="2", emb_min_count="1",
            emb_bidirectional="1")
        settings.update(extra)
        return PipelineConfig.from_settings(**settings)

    def test_single_regime_single_record(self, tmp_path):
        records = run_pipeline(self.base_config(tmp_path))
        assert len(records) == 1
        assert records[0]["regime"] == "cumf"
        assert 0.5 < records[0]["auc"] <= 1.0

    def test_union_regimes_improve_over_content_alone(self, tmp_path):
        cfg = self.base_config(tmp_path, regimes="cumf,cumf+lp,all")
        records = {r["regime"]: r for r in run_pipeline(cfg)}
        assert records["all"]["auc"] >= records["cumf"]["auc"]
        assert records["cumf+lp"]["auc"] >= records["cumf"]["auc"] - 0.01

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "metrics.jsonl"
        cfg = self.base_config(tmp_path, regimes="cumf,cumf+lp",
                               out=str(out))
        run_pipeline(cfg)
        first = out.read_bytes()
        run_pipeline(cfg)
        assert out.read_bytes() == first
        record = json.loads(first.splitlines()[0])
        assert {"regime", "auc", "accuracy", "cross_entropy",
                "n_train", "n_test"} <= set(record)

    def test_age_task_runs_with_multiclass_blocks(self, tmp_path):
        spec = PlantedGraphSpec(per_class=40, classes=7, p=0.25, q=0.01,
                                reveal=0.5, noise=0.8, rng_seed=5)
        paths = write_outputs(generate(spec), tmp_path / "age")
        cfg = PipelineConfig.from_settings(
            edges=str(paths["edges"]), labels=str(paths["truth"]),
            cumf=str(paths["cumf"]), task="age", regimes="cumf+lp",
            model="lr", epochs="20", minibatch="64", rate="0.3",
            root_seed="3")
        records = run_pipeline(cfg)
        assert records[0]["auc"] is None
        assert records[0]["accuracy"] > 1.0 / 7.0  # beats uniform guessing
        assert np.isfinite(records[0]["cross_entropy"])

    def test_mlp_model_path(self, tmp_path):
        cfg = self.base_config(tmp_path, model="mlp", hidden="16",
                               epochs="30")
        records = run_pipeline(cfg)
        assert records[0]["auc"] > 0.5

    def test_lp_block_logs_labels_outside_the_graph(self, tmp_path, caplog):
        cfg = self.base_config(tmp_path, regimes="lp", lp_splits="2")
        g = load_edge_list(cfg.edges)
        labels = read_labels(cfg.labels)
        train = list(labels)[:40]
        ghosts = {b"ghost0": 1, b"ghost1": 0}
        with caplog.at_level("INFO", logger="demograph.pipeline"):
            table = pipeline_module._lp_block(
                cfg, g, side({**labels, **ghosts}, train[:20] + list(ghosts)
                             + train[20:]), 2, 7)
        assert "lp: 2 of 42 training labels fall outside the graph" in caplog.text
        want = pipeline_module._lp_block(cfg, g, side(labels, train), 2, 7)
        assert np.array_equal(table.nodes, want.nodes)
        assert np.array_equal(want.nodes, g.names)
        assert table.values.tobytes() == want.values.tobytes()

    def run_watched(self, monkeypatch, cfg):
        """Run ``cfg`` holding weak references to the graph, each block,
        each join and each train matrix; return the names still alive at
        the feature CSV read and at each join, fit and predict, and
        whether a graph made in the run holds its built name dict when
        ``lp_features``, the CSV read and each predict start."""
        refs: dict[str, weakref.ref] = {}
        events, made, held = [], [], []

        def alive():
            return {name for name, ref in refs.items() if ref() is not None}

        def recorded(self, init=Graph.__post_init__):
            init(self)
            made.append(weakref.ref(self))
        monkeypatch.setattr(Graph, "__post_init__", recorded)

        def note_dicts(event):
            graphs = [ref() for ref in made]
            held.append((event, any(g is not None and g._index is not None
                                    for g in graphs)))

        def watch(name, fn, before=None, after=None):
            def hooked(*args, **kwargs):
                if before:
                    before(*args)
                result = fn(*args, **kwargs)
                if after:
                    after(result, *args)
                return result
            monkeypatch.setattr(pipeline_module, name, hooked)

        def fit(x, *_):
            events.append(("fit", alive()))
            refs[f"x {len(events)}"] = weakref.ref(x)

        def joined(features, blocks):
            refs.update((f"block {b}", weakref.ref(m)) for b, m in blocks.items())
            refs[f"join {len(events)}"] = weakref.ref(features)

        watch("load_edge_list", pipeline_module.load_edge_list,
              after=lambda g, *_: refs.update(graph=weakref.ref(g)))
        lp_features = lpfeatures_module.lp_features
        monkeypatch.setattr(lpfeatures_module, "lp_features", lambda *args: (
            note_dicts("lp"), lp_features(*args))[1])
        from_csv = FeatureMatrix.from_csv
        monkeypatch.setattr(FeatureMatrix, "from_csv", staticmethod(
            lambda path: events.append(("csv", alive())) or note_dicts("csv")
            or from_csv(path)))
        watch("join_features", pipeline_module.join_features,
              before=lambda *_: events.append(("join", alive())), after=joined)
        watch("train_mlp", pipeline_module.train_mlp, before=fit)
        watch("predict", pipeline_module.predict,
              before=lambda *_: events.append(("predict", alive()))
              or note_dicts("predict"))
        records = run_pipeline(cfg)
        return records, events, held

    @pytest.mark.parametrize("balance", ["0", "1"])
    def test_tables_die_after_their_last_reader(self, tmp_path, monkeypatch,
                                                balance):
        cfg = self.base_config(tmp_path, regimes="cumf,cumf+lp,lp",
                               model="mlp", hidden="8", epochs="2",
                               balance=balance)
        records, events, held = self.run_watched(monkeypatch, cfg)
        assert [event for event, _ in events] == \
            ["csv"] + ["join", "fit", "predict"] * 3
        # No graph keeps a name -> row dict into the lp block, the CSV
        # read or a predict, and the tables declare no dict to keep.
        assert held == [("lp", False), ("csv", False)] + [("predict", False)] * 3
        for table in (FeatureMatrix(["a"], ["x"], [[1.0]]),
                      EmbeddingTable(["a"], np.ones((1, 2)))):
            assert not [f.name for f in fields(table) if "dict" in str(f.type)]
            assert not [k for k, v in vars(table).items() if isinstance(v, dict)]
        # The graph is freed before the feature CSV is read.
        assert "graph" not in events[0][1]
        joins, fits, predicts = ([alive for event, alive in events
                                  if event == name]
                                 for name in ("join", "fit", "predict"))
        assert "graph" not in fits[0]
        # A regime's joined table is gone before the next regime joins.
        assert not any(n.startswith("join") for alive in joins for n in alive)
        # Only the blocks that a later regime reads outlive their last join.
        assert [{n for n in alive if n.startswith("block")} for alive in fits] \
            == [{"block cumf"}, {"block lp"}, set()]
        # No train matrix outlives its fit, and no joined table reaches
        # predict: the fit keeps only the test rows.
        assert not any(n.startswith(("x", "join"))
                       for alive in predicts for n in alive)
        assert records == run_pipeline(cfg)

    @pytest.mark.parametrize("balance", [False, True])
    @pytest.mark.parametrize("model,n_classes,trainer", [
        ("mlp", 3, "train_mlp"), ("lr", 2, "train_logistic"),
        ("lr", 3, "train_softmax")])
    def test_row_indexed_fit_equals_fit_on_copied_rows(
            self, monkeypatch, rng, model, n_classes, trainer, balance):
        names = [f"n{i}" for i in range(500)]
        features = FeatureMatrix(names, ["a", "b", "c", "d"],
                                 rng.normal(size=(500, 4)))
        # Labels for most nodes and for some without a feature row.
        labelled = [n for n in names if rng.random() < 0.9] + ["x0", "x1"]
        labels = {n: int(rng.integers(0, n_classes)) for n in labelled}
        order = rng.permutation(len(labelled))
        train_names = [labelled[i] for i in order[:300]]
        test_names = [labelled[i] for i in order[300:]]
        hyper = TrainHyper(rate=0.3, epochs=3, minibatch=32, rng_seed=5)
        fitted = []
        fit = getattr(pipeline_module, trainer)
        monkeypatch.setattr(pipeline_module, trainer, lambda *a, **k: (
            fitted.append(fit(*a, **k)) or fitted[-1]))
        test_rows, probs, record = pipeline_module.fit_and_score(
            features, side(labels, train_names), side(labels, test_names),
            n_classes, model, (8, 8), hyper, balance)
        test_rows = texts(test_rows)
        # The fit as it was: a copy of the train rows, then balanced.
        rows = [names.index(n) for n in train_names if n in names]
        x, y = features.values[rows], np.array([labels[names[r]] for r in rows])
        if balance:
            keep = balance_classes(y, np.random.default_rng(
                derive_seed(hyper.rng_seed, "balance")))
            x, y = x[keep], y[keep]
        want = {"train_mlp": lambda: train_mlp(x, y, [8, 8], n_classes, hyper),
                "train_logistic": lambda: train_logistic(x, y, hyper),
                "train_softmax": lambda: train_softmax(x, y, n_classes, hyper),
                }[trainer]()
        [got] = fitted
        assert got.loss_history == want.loss_history
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()
        assert test_rows == [n for n in test_names if n in names]
        test_x = features.values[[names.index(n) for n in test_rows]]
        assert probs.tobytes() == predict(want, test_x).tobytes()
        assert record["n_train"] == len(rows)

    def test_logs_each_block(self, tmp_path, caplog):
        cfg = self.base_config(tmp_path, regimes="cumf+lp")
        cumf = FeatureMatrix.from_csv(cfg.cumf)
        g = load_edge_list(cfg.edges)
        with caplog.at_level("INFO", logger="demograph.pipeline"):
            run_pipeline(cfg)
        rows, cols = cumf.values.shape
        assert (f"block 'cumf': {rows} rows x {cols} columns, "
                f"{rows * cols * 8 / 2 ** 20:.1f} MB") in caplog.text
        # Three runs of one channel, then three presence columns.
        assert (f"block 'lp': {g.node_count} rows x 6 columns, "
                f"{g.node_count * 6 * 8 / 2 ** 20:.1f} MB") in caplog.text

    def test_metrics_table_renders(self, tmp_path):
        records = run_pipeline(self.base_config(tmp_path))
        table = format_metrics_table(records)
        assert "cumf" in table and "auc" in table
