"""Exercises every subcommand through main() and checks exit codes."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demograph

from demograph.cli import main
from demograph.graph import load_edge_list, name_array, row_indices, texts
from demograph.labelprop import (PropagationConfig, propagate_multiclass,
                                 read_node_vectors)
from demograph.model import (FeatureMatrix, SplitSpec, TrainHyper,
                             balance_classes, predict, split, train_mlp)
from demograph.pipeline import derive_seed, read_labels

SUBCOMMANDS = ["ingest", "propagate", "lp-features", "sentences", "embed",
               "coldstart", "synth", "train", "eval", "pipeline",
               "sensitivity"]


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    code = run(["synth", "--per-class", "80", "--p", "0.08", "--q", "0.008",
                "--reveal", "0.3", "--noise", "1.0", "--rng-seed", "4",
                "--out-dir", str(root)])
    assert code == 0
    return root


class TestHelpAndVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "demograph" in capsys.readouterr().out

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_every_subcommand_has_help_and_version(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        assert sub in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run([sub, "--version"])
        assert exc.value.code == 0

    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_bad_flag_exits_1(self):
        assert run(["propagate", "--no-such-flag"]) == 1


class TestIngest(object):
    def test_ingest_writes_canonical_outputs(self, dataset, tmp_path, capsys):
        out_edges = tmp_path / "canon.tsv"
        out_nodes = tmp_path / "nodes.tsv"
        code = run(["ingest", "--edges", str(dataset / "edges.tsv"),
                    "--out-edges", str(out_edges),
                    "--out-nodes", str(out_nodes)])
        assert code == 0
        assert "nodes=" in capsys.readouterr().out
        assert out_edges.exists() and out_nodes.exists()

    def test_missing_file_exits_1(self):
        assert run(["ingest", "--edges", "/nonexistent/e.tsv"]) == 1


class TestInputNotAFile:
    @pytest.mark.parametrize("argv", [
        ["propagate", "--graph", "DIR", "--seeds", "seeds.tsv", "--out", "OUT"],
        ["eval", "--predictions", "DIR", "--labels", "truth.tsv"],
        ["pipeline", "--config", "DIR"],
        ["sensitivity", "--edges", "edges.tsv", "--truth", "DIR",
         "--reveal", "0.2", "--out", "OUT"],
        ["train", "--features", "DIR", "--labels", "truth.tsv"],
        ["embed", "--corpus", "DIR", "--out", "OUT"],
        ["propagate", "--graph", "FILE/x", "--seeds", "seeds.tsv",
         "--out", "OUT"],
    ], ids=["propagate", "eval", "pipeline", "sensitivity", "train", "embed",
            "propagate-not-a-directory"])
    def test_exits_1_naming_the_path(self, dataset, tmp_path, capsys, argv):
        paths = {"DIR": str(tmp_path), "OUT": str(tmp_path / "out"),
                 "FILE/x": str(dataset / "edges.tsv" / "x")}
        bad = paths["FILE/x" if "FILE/x" in argv else "DIR"]
        assert run([paths.get(arg) or (str(dataset / arg)
                                       if arg.endswith(".tsv") else arg)
                    for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f": {bad}\n")


class TestOutputDirectory:
    """An output file in a missing directory exits 1 before any input is
    read: the inputs here are missing too, and are never named."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "--edges", "M", "--out-edges", "BAD"],
        ["ingest", "--edges", "M", "--out-nodes", "BAD"],
        ["propagate", "--graph", "M", "--seeds", "M", "--out", "BAD"],
        ["lp-features", "--graph", "M", "--seeds", "M", "--out", "BAD"],
        ["sentences", "--edges", "M", "--out", "BAD"],
        ["embed", "--corpus", "M", "--out", "BAD"],
        ["coldstart", "--graph", "M", "--embeddings", "M", "--out", "BAD"],
        ["train", "--features", "M", "--labels", "M", "--predictions-out",
         "BAD"],
        ["train", "--features", "M", "--labels", "M", "--metrics-out", "BAD"],
        ["eval", "--predictions", "M", "--labels", "M", "--metrics-out",
         "BAD"],
        ["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
         "--out", "BAD"],
        ["pipeline", "--config", "CONFIG"],
    ], ids=["ingest-edges", "ingest-nodes", "propagate", "lp-features",
            "sentences", "embed", "coldstart", "train-predictions",
            "train-metrics", "eval", "sensitivity", "pipeline"])
    def test_missing_output_directory_exits_1(self, tmp_path, capsys, argv):
        missing, nowhere = tmp_path / "missing.tsv", tmp_path / "nowhere"
        config = tmp_path / "run.cfg"
        config.write_text(f"edges={missing}\nlabels={missing}\n"
                          f"regimes=lp\nout={nowhere / 'records.jsonl'}\n")
        names = {"M": str(missing), "BAD": str(nowhere / "out.tsv"),
                 "CONFIG": str(config)}
        assert run([names.get(arg, arg) for arg in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: output directory does not exist: {nowhere}\n")
        assert not nowhere.exists()

    def test_missing_input_still_named_as_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        assert run(["embed", "--corpus", str(missing),
                    "--out", str(tmp_path / "emb.txt")]) == 1
        assert capsys.readouterr().err == f"error: missing input: {missing}\n"


class TestPropagateAndEval:
    def test_propagate_then_eval(self, dataset, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        code = run(["propagate", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    "--alpha", "0.3", "--iters", "3", "--out", str(preds)])
        assert code == 0
        assert "coverage=" in capsys.readouterr().out
        code = run(["eval", "--predictions", str(preds),
                    "--labels", str(dataset / "truth.tsv")])
        assert code == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["auc"] > 0.8

    def test_gamma_strategy_via_cli(self, dataset, tmp_path):
        preds = tmp_path / "preds.tsv"
        code = run(["propagate", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    "--strategy", "gamma", "--gamma", "0.9", "--iters", "2",
                    "--out", str(preds)])
        assert code == 0
        values = read_node_vectors(preds)
        assert all(0.0 <= v[0] <= 1.0 for v in values.values())

    def test_gamma_strategy_over_seven_classes(self, dataset, tmp_path):
        preds = tmp_path / "preds.tsv"
        assert run(["propagate", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    "--strategy", "gamma", "--gamma", "0.9", "--iters", "2",
                    "--classes", "7", "--out", str(preds)]) == 0
        g = load_edge_list(dataset / "edges.tsv")
        classes = {g.index_of(name): int(value) for name, value in
                   (line.split("\t") for line in
                    (dataset / "seeds.tsv").read_text().splitlines())}
        want = propagate_multiclass(g, classes, PropagationConfig(
            strategy="gamma", gamma=0.9, iterations=2), num_classes=7)
        got = read_node_vectors(preds)
        assert sorted(got) == sorted(texts(g.names[want.is_active]))
        for name, row in got.items():
            assert np.array_equal(row, want.values[g.index_of(name)])

    def test_eval_rejects_nan_predictions(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["synth", "--per-class", "30", "--p", "0.02", "--q", "0.002",
                    "--reveal", "0.1", "--rng-seed", "1",
                    "--out-dir", str(data)]) == 0
        preds = tmp_path / "preds.tsv"
        assert run(["propagate", "--graph", str(data / "edges.tsv"),
                    "--seeds", str(data / "seeds.tsv"), "--iters", "1",
                    "--emit-inactive", "--out", str(preds)]) == 0
        assert "nan" in preds.read_text()
        capsys.readouterr()
        assert run(["eval", "--predictions", str(preds),
                    "--labels", str(data / "truth.tsv")]) == 1
        captured = capsys.readouterr()
        assert "prediction rows are not finite" in captured.err
        assert captured.out == ""

    def test_eval_truth_wider_than_predictions_exits_1(self, dataset,
                                                       tmp_path, capsys):
        # Binary propagate output scored against 7-class age labels.
        ages = tmp_path / "ages"
        assert run(["synth", "--classes", "7", "--per-class", "20",
                    "--p", "0.3", "--q", "0.02", "--rng-seed", "2",
                    "--out-dir", str(ages)]) == 0
        preds = tmp_path / "preds.tsv"
        assert run(["propagate", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    "--out", str(preds)]) == 0
        capsys.readouterr()
        assert run(["eval", "--predictions", str(preds),
                    "--labels", str(ages / "truth.tsv"), "--task", "age"]) == 1
        assert "truth classes must lie in [0, 2)" in capsys.readouterr().err

    def test_eval_rejects_width_unlike_task(self, dataset, tmp_path, capsys):
        # Seven-column age scores against binary gender labels.
        preds = tmp_path / "preds.tsv"
        assert run(["propagate", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"), "--classes", "7",
                    "--out", str(preds)]) == 0
        capsys.readouterr()
        assert run(["eval", "--predictions", str(preds),
                    "--labels", str(dataset / "truth.tsv"),
                    "--task", "gender"]) == 1
        captured = capsys.readouterr()
        assert (f"{preds}: 7 columns per prediction, but task gender takes "
                "1 or 2") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("extra,message", [
        ("u000000\t0.5\n", "repeated name 'u000000'"),
        ("zz\t0.2,0.8\n", "expected 1 values, got 2")])
    def test_eval_bad_prediction_rows_exit_1(self, dataset, tmp_path, capsys,
                                             extra, message):
        preds = tmp_path / "preds.tsv"
        assert run(["propagate", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    "--out", str(preds)]) == 0
        count = len(preds.read_text().splitlines())
        with open(preds, "a", encoding="utf-8") as fh:
            fh.write(extra)
        capsys.readouterr()
        assert run(["eval", "--predictions", str(preds),
                    "--labels", str(dataset / "truth.tsv")]) == 1
        assert f"preds.tsv:{count + 1}: {message}" in capsys.readouterr().err

    def test_invalid_iterations_exit_1(self, dataset, tmp_path):
        assert run(["propagate", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    "--iters", "0", "--out", str(tmp_path / "x.tsv")]) == 1

    @pytest.mark.parametrize("raw,message", [("-4", "-4"), ("70.5", "integer")])
    def test_bad_age_seed_exits_1(self, dataset, tmp_path, capsys, raw,
                                  message):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text(f"n0\t30\nn1\t{raw}\n")
        assert run(["propagate", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(seeds), "--classes", "7", "--ages",
                    "--out", str(tmp_path / "x.tsv")]) == 1
        err = capsys.readouterr().err
        assert "seeds.tsv:2:" in err and message in err

    def test_emit_inactive_sentinel(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("a\tb\nx\ty\n")
        seeds = tmp_path / "s.tsv"
        seeds.write_text("a\t1\n")
        out = tmp_path / "o.tsv"
        assert run(["propagate", "--graph", str(edges), "--seeds", str(seeds),
                    "--iters", "1", "--emit-inactive", "--out", str(out)]) == 0
        lines = dict(line.split("\t") for line in out.read_text().splitlines())
        assert lines["x"] == "nan" and lines["y"] == "nan"


class TestNonUtf8Input:
    """A byte that is not UTF-8 exits 1 with ``path:line``, never 2."""

    BAD = b"a\tb\n\xff\xfe\tc\n"

    @pytest.mark.parametrize("flag", ["--graph", "--seeds"])
    def test_propagate(self, dataset, tmp_path, capsys, flag):
        paths = {"--graph": str(dataset / "edges.tsv"),
                 "--seeds": str(dataset / "seeds.tsv")}
        paths[flag] = str(tmp_path / "bad.tsv")
        (tmp_path / "bad.tsv").write_bytes(self.BAD)
        assert run(["propagate", *(x for kv in paths.items() for x in kv),
                    "--out", str(tmp_path / "o.tsv")]) == 1
        assert "bad.tsv:2: not UTF-8 text" in capsys.readouterr().err

    def test_train_features(self, dataset, tmp_path, capsys):
        features = tmp_path / "bad.csv"
        features.write_bytes(b"node,x\r\nn0,1\r\n\xffn1,2\r\n")
        assert run(["train", "--features", str(features),
                    "--labels", str(dataset / "truth.tsv"),
                    "--model", "lr"]) == 1
        assert "bad.csv:3: not UTF-8 text" in capsys.readouterr().err

    def test_coldstart_embeddings(self, dataset, tmp_path, capsys):
        emb = tmp_path / "bad.txt"
        emb.write_bytes(b"1 2\n\xff 1 2\n")
        assert run(["coldstart", "--graph", str(dataset / "edges.tsv"),
                    "--embeddings", str(emb),
                    "--out", str(tmp_path / "filled.txt")]) == 1
        assert "bad.txt:2: not UTF-8 text" in capsys.readouterr().err


class TestNulEndedName:
    """A name that ends in a NUL byte exits 1 with ``path:line``: names are
    held as fixed-width bytes, which drop trailing NULs and would merge
    ``a`` with ``a\\0``."""

    @pytest.mark.parametrize("reader", ["edges", "truth", "seeds", "csv"])
    def test_exits_1_naming_the_line(self, dataset, tmp_path, capsys, reader):
        bad = tmp_path / "bad"
        bad.write_bytes(b"node,x\r\nn0,1\r\na\0,2\r\n" if reader == "csv"
                        else b"u000001\t1\na\0\t0\n")
        edges, truth = str(dataset / "edges.tsv"), str(dataset / "truth.tsv")
        argv = {"edges": ["ingest", "--edges", str(bad)],
                "truth": ["train", "--features", str(dataset / "cumf.csv"),
                          "--labels", str(bad)],
                "seeds": ["propagate", "--graph", edges, "--seeds", str(bad),
                          "--out", str(tmp_path / "o.tsv")],
                "csv": ["train", "--features", str(bad), "--labels", truth]}
        assert run(argv[reader]) == 1
        line = 3 if reader == "csv" else 2
        assert f"bad:{line}:" in capsys.readouterr().err


class TestFeatureCommands:
    def test_lp_features_csv(self, dataset, tmp_path):
        out = tmp_path / "lp.csv"
        code = run(["lp-features", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    "--splits", "3", "--rng-seed", "1", "--iters", "3",
                    "--alpha", "0.3", "--out", str(out)])
        assert code == 0
        fm = FeatureMatrix.from_csv(out)
        assert fm.columns[:3] == ["lp_0", "lp_1", "lp_2"]

    @pytest.mark.parametrize("classes", ["1", "7"])
    def test_lp_features_no_presence_drops_the_presence_columns(
            self, dataset, tmp_path, classes):
        tables = []
        for flags in ([], ["--no-presence"]):
            out = tmp_path / f"lp{len(flags)}.csv"
            assert run(["lp-features", "--graph", str(dataset / "edges.tsv"),
                        "--seeds", str(dataset / "seeds.tsv"), "--splits", "3",
                        "--classes", classes, "--out", str(out), *flags]) == 0
            tables.append(FeatureMatrix.from_csv(out))
        full, bare = tables
        assert full.columns[-3:] == [f"lp_present_{i}" for i in range(3)]
        assert np.array_equal(bare.nodes, full.nodes)
        assert bare.columns == full.columns[:-3]
        assert bare.values.tobytes() == full.values[:, :-3].tobytes()

    @pytest.mark.parametrize("raw", ["0.7", "inf"])
    def test_eval_malformed_label_exits_1(self, dataset, tmp_path, capsys,
                                          raw):
        preds = tmp_path / "preds.tsv"
        preds.write_text("a\t0.9\nb\t0.2\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text(f"a\t1\nb\t{raw}\n")
        assert run(["eval", "--predictions", str(preds),
                    "--labels", str(labels)]) == 1
        assert "labels.tsv:2:" in capsys.readouterr().err

    def test_coldstart_malformed_embedding_exits_1(self, dataset, tmp_path,
                                                   capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("1 2\nn0 0.5 half\n")
        assert run(["coldstart", "--graph", str(dataset / "edges.tsv"),
                    "--embeddings", str(emb),
                    "--out", str(tmp_path / "filled.txt")]) == 1
        assert "emb.txt:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,where", [
        ("1 0\nn0\n", "emb.txt:1:"),
        ("2 2\nn0 1 2\nn0 3 4\n", "emb.txt:3: 'n0': repeated token"),
        ("1 2\nn0 nan 1\n", "emb.txt:2: 'n0': non-finite component"),
        ("2 2\nn0 1 2\nn1\0 3 4\n",
         "emb.txt:3: 'n1\\x00': token ends in NUL")],
        ids=["zero-dim", "repeated-token", "nan", "nul-ended-token"])
    def test_coldstart_rejects_bad_table(self, dataset, tmp_path, capsys,
                                         text, where):
        emb = tmp_path / "emb.txt"
        emb.write_text(text)
        assert run(["coldstart", "--graph", str(dataset / "edges.tsv"),
                    "--embeddings", str(emb),
                    "--out", str(tmp_path / "filled.txt")]) == 1
        assert where in capsys.readouterr().err

    def test_coldstart_empty_table_fills_nothing(self, dataset, tmp_path):
        emb, filled = tmp_path / "emb.txt", tmp_path / "filled.txt"
        emb.write_text("0 5\n")
        assert run(["coldstart", "--graph", str(dataset / "edges.tsv"),
                    "--embeddings", str(emb), "--out", str(filled)]) == 0
        assert filled.read_text() == "0 5\n"

    def test_sentences_embed_coldstart_chain(self, dataset, tmp_path):
        corpus = tmp_path / "corpus.txt"
        emb = tmp_path / "emb.txt"
        filled = tmp_path / "emb_filled.txt"
        assert run(["sentences", "--edges", str(dataset / "edges.tsv"),
                    "--rng-seed", "2", "--bidirectional",
                    "--out", str(corpus)]) == 0
        assert run(["embed", "--corpus", str(corpus), "--dim", "8",
                    "--window", "3", "--min-count", "1", "--epochs", "1",
                    "--negatives", "3", "--rng-seed", "2",
                    "--out", str(emb)]) == 0
        assert run(["coldstart", "--graph", str(dataset / "edges.tsv"),
                    "--embeddings", str(emb), "--out", str(filled)]) == 0
        header = filled.read_text().splitlines()[0]
        count, dim = header.split()
        assert int(dim) == 8 and int(count) >= 1

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_embed_rejects_non_finite_rate(self, dataset, tmp_path, capsys,
                                           rate):
        corpus = tmp_path / "corpus.txt"
        out = tmp_path / "emb.txt"
        assert run(["sentences", "--edges", str(dataset / "edges.tsv"),
                    "--out", str(corpus)]) == 0
        assert run(["embed", "--corpus", str(corpus), "--min-count", "1",
                    "--rate", rate, "--out", str(out)]) == 1
        assert f"rate must be positive and finite, got {rate}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_embed_rejects_empty_vocab(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b\n")
        assert run(["embed", "--corpus", str(corpus), "--min-count", "5",
                    "--out", str(tmp_path / "e.txt")]) == 1

    def test_embed_without_a_training_pair_exits_1(self, tmp_path, capsys):
        """Ten one-token lines give a vocabulary but no pair to train."""
        corpus, out = tmp_path / "corpus.txt", tmp_path / "e.txt"
        corpus.write_text("a\n" * 5 + "b\n" * 5)
        assert run(["embed", "--corpus", str(corpus), "--out", str(out)]) == 1
        assert "nothing to train" in capsys.readouterr().err
        assert not out.exists()

    def test_embed_divergence_exits_2(self, tmp_path, capsys):
        """Two 20-node cliques at rate 1.0 and window 10: the weights
        overflow to NaN, so ``embed`` exits 2 and writes no vectors."""
        corpus, out = tmp_path / "corpus.txt", tmp_path / "e.txt"
        members = [[f"c{c}_{i}" for i in range(20)] for c in range(2)]
        corpus.write_text("".join(" ".join(m[i:] + m[:i]) + "\n"
                                  for m in members for i in range(20)))
        assert run(["embed", "--corpus", str(corpus), "--dim", "8",
                    "--min-count", "1", "--epochs", "20", "--rate", "1.0",
                    "--window", "10", "--out", str(out)]) == 2
        assert "training diverged" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_train_on_cumf_with_predictions(self, dataset, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        metrics = tmp_path / "metrics.json"
        code = run(["train", "--features", str(dataset / "cumf.csv"),
                    "--labels", str(dataset / "truth.tsv"),
                    "--model", "lr", "--epochs", "30", "--minibatch", "64",
                    "--rate", "0.5", "--split", "hash",
                    "--train-frac", "0.75", "--rng-seed", "0",
                    "--predictions-out", str(preds),
                    "--metrics-out", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        record = json.loads(out.splitlines()[0])
        assert record["auc"] > 0.6
        assert json.loads(metrics.read_text())["auc"] == record["auc"]
        rows = read_node_vectors(preds)
        some = next(iter(rows.values()))
        assert len(some) == 2 and abs(some.sum() - 1.0) < 1e-9

    def test_feature_csv_without_columns_exits_1(self, dataset, tmp_path,
                                                 capsys):
        names = list(read_labels(dataset / "truth.tsv"))
        path = tmp_path / "nocol.csv"
        FeatureMatrix(names, [], np.zeros((len(names), 0))).to_csv(path)
        assert path.read_text().startswith("node\n")
        assert run(["train", "--features", str(path),
                    "--labels", str(dataset / "truth.tsv")]) == 1
        assert "no feature columns" in capsys.readouterr().err

    def test_train_joined_blocks(self, dataset, tmp_path):
        lp = tmp_path / "lp.csv"
        assert run(["lp-features", "--graph", str(dataset / "edges.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"), "--out", str(lp)]) == 0
        assert run(["train", "--features",
                    f"{dataset / 'cumf.csv'},{lp}",
                    "--labels", str(dataset / "truth.tsv"),
                    "--epochs", "20", "--minibatch", "64"]) == 0

    def test_balance_matches_hand_built_training(self, dataset, tmp_path):
        preds = tmp_path / "preds.tsv"
        assert run(["train", "--features", str(dataset / "cumf.csv"),
                    "--labels", str(dataset / "truth.tsv"),
                    "--model", "mlp", "--hidden", "6", "--epochs", "5",
                    "--minibatch", "32", "--rate", "0.2", "--balance",
                    "--train-frac", "0.6", "--rng-seed", "9",
                    "--predictions-out", str(preds)]) == 0
        # The same rows, balanced and trained by hand.
        features = FeatureMatrix.from_csv(dataset / "cumf.csv")
        labels = read_labels(dataset / "truth.tsv")
        names = name_array(list(labels))
        labeled = names[row_indices(features.nodes, names) >= 0]
        train, test = (labeled[side] for side in split(
            labeled, SplitSpec(train_fraction=0.6, rng_seed=9)))
        y_train = np.array([labels[n] for n in train])
        # Balancing drops rows here, so the flag is really exercised.
        keep = balance_classes(y_train, np.random.default_rng(
            derive_seed(9, "balance")))
        assert len(keep) < len(train)
        hyper = TrainHyper(rate=0.2, epochs=5, minibatch=32, rng_seed=9)
        row = {name: i for i, name in enumerate(features.nodes.tolist())}
        params = train_mlp(features.values[[row[n] for n in train]][keep],
                           y_train[keep], [6], n_classes=2, hyper=hyper)
        probs = predict(params, features.values[[row[n] for n in test]])
        expected = "".join(
            name.decode() + "\t" + ",".join(f"{x:.17g}" for x in row) + "\n"
            for name, row in zip(test, probs))
        assert preds.read_text() == expected

    @pytest.mark.parametrize("bad", ["repeat", "inf"])
    def test_bad_feature_rows_exit_1(self, dataset, tmp_path, capsys, bad):
        lines = (dataset / "cumf.csv").read_text().splitlines()
        if bad == "repeat":
            lines.append(lines[1])
            message = f"cumf.csv:{len(lines)}: repeated node"
        else:
            lines[1] = lines[1].split(",")[0] + ",inf,0"
            message = "cumf.csv:2: non-finite value"
        cumf = tmp_path / "cumf.csv"
        cumf.write_text("\n".join(lines) + "\n")
        assert run(["train", "--features", str(cumf),
                    "--labels", str(dataset / "truth.tsv")]) == 1
        assert message in capsys.readouterr().err

    def test_malformed_hidden_exits_1(self, dataset, capsys):
        assert run(["train", "--features", str(dataset / "cumf.csv"),
                    "--labels", str(dataset / "truth.tsv"),
                    "--model", "mlp", "--hidden", "8,x"]) == 1
        assert "--hidden" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_exits_1(self, dataset, capsys, rate):
        assert run(["train", "--features", str(dataset / "cumf.csv"),
                    "--labels", str(dataset / "truth.tsv"),
                    "--rate", rate]) == 1
        assert f"rate must be positive and finite, got {rate}" \
            in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_2(self, dataset):
        assert run(["train", "--features", str(dataset / "cumf.csv"),
                    "--labels", str(dataset / "truth.tsv"),
                    "--model", "mlp", "--hidden", "8",
                    "--rate", "1e12", "--epochs", "3",
                    "--minibatch", "16"]) == 2


class TestPipelineCommand:
    def test_config_run_with_override(self, dataset, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"edges={dataset / 'edges.tsv'}\n"
            f"labels={dataset / 'truth.tsv'}\n"
            f"cumf={dataset / 'cumf.csv'}\n"
            "regimes=cumf,cumf+lp\nmodel=lr\nepochs=20\nminibatch=64\n"
            "rate=0.5\nroot_seed=5\n"
            f"out={out}\n")
        assert run(["pipeline", "--config", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        capsys.readouterr()
        assert run(["pipeline", "--config", str(cfg),
                    "--set", "regimes=cumf"]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_emb_only_run_does_not_load_scipy(self, dataset, tmp_path):
        # scipy.sparse serves only the propagation engine; a run that never
        # propagates must not pay its import time and memory.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"edges={dataset / 'edges.tsv'}\n"
            f"labels={dataset / 'truth.tsv'}\n"
            "regimes=emb\nemb_dim=4\nemb_epochs=1\nemb_min_count=1\n"
            "model=lr\nepochs=2\nroot_seed=5\n"
            f"out={tmp_path / 'metrics.jsonl'}\n")
        script = (
            "import contextlib, io, sys\n"
            "import demograph.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['pipeline', '--config', {str(cfg)!r}]) == 0\n"
            "print('scipy.sparse' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['propagate',\n"
            f"        '--graph', {str(dataset / 'edges.tsv')!r},\n"
            f"        '--seeds', {str(dataset / 'seeds.tsv')!r},\n"
            f"        '--out', {str(tmp_path / 'preds.tsv')!r}]) == 0\n"
            "print('scipy.sparse' in sys.modules)\n")
        src = str(Path(demograph.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        # Loaded only once a propagation has run.
        assert done.stdout.split() == ["False", "True"]

    @pytest.mark.parametrize("override", ["epochs=abc", "hidden=8,x",
                                          "lp_alpha=x"])
    def test_malformed_value_exits_1(self, dataset, tmp_path, capsys,
                                     override):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"edges={dataset / 'edges.tsv'}\n"
            f"labels={dataset / 'truth.tsv'}\n"
            f"cumf={dataset / 'cumf.csv'}\n"
            "regimes=cumf+lp\nmodel=mlp\n")
        assert run(["pipeline", "--config", str(cfg), "--set", override]) == 1
        key = override.split("=")[0]
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("override,key", [
        ("rate=nan", "rate"), ("emb_rate=nan", "emb_* keys: rate"),
        ("emb_rate=inf", "emb_* keys: rate")])
    def test_non_finite_rate_exits_1(self, dataset, tmp_path, capsys,
                                     override, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"edges={dataset / 'edges.tsv'}\n"
            f"labels={dataset / 'truth.tsv'}\n"
            f"cumf={dataset / 'cumf.csv'}\n"
            "regimes=cumf+emb\nmodel=lr\n")
        assert run(["pipeline", "--config", str(cfg), "--set", override]) == 1
        assert f"{key} must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value,message", [("nan", "non-finite value"),
                                               ("abc", "bad number")])
    def test_bad_feature_row_exits_1_naming_it(self, dataset, tmp_path,
                                               capsys, value, message):
        # The CSV is read after the lp block is built; a bad row in it
        # still exits 1 with the line reader's message.
        rows = (dataset / "cumf.csv").read_bytes().split(b"\r\n")
        rows[5] = rows[5].split(b",")[0] + b"," + value.encode() \
            + b"".join(b"," + x for x in rows[5].split(b",")[2:])
        cumf = tmp_path / "cumf.csv"
        cumf.write_bytes(b"\r\n".join(rows))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"edges={dataset / 'edges.tsv'}\n"
            f"labels={dataset / 'truth.tsv'}\n"
            f"cumf={cumf}\n"
            "regimes=cumf+lp\nmodel=lr\n"
            f"out={tmp_path / 'metrics.jsonl'}\n")
        assert run(["pipeline", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cumf}:6: {message}\n"
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_missing_config_inputs_exit_1(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("edges=/no/such/file\nlabels=/none\nregimes=lp\n")
        assert run(["pipeline", "--config", str(cfg)]) == 1

    def test_key_set_twice_in_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("edges=/no/such/file\nlabels=/none\nmodel=lr\n"
                       "model=mlp\n")
        assert run(["pipeline", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:4: repeated key 'model'\n")


class TestSensitivityCommand:
    def test_grid_csv_and_pivot(self, dataset, tmp_path, capsys):
        out = tmp_path / "sens.csv"
        code = run(["sensitivity", "--edges", str(dataset / "edges.tsv"),
                    "--truth", str(dataset / "truth.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    "--strategies", "alpha,beta,gamma",
                    "--alphas", "0.2,0.8", "--betas", "0.8",
                    "--gammas", "0.9", "--ks", "1,2,3",
                    "--out", str(out)])
        assert code == 0
        assert "K=1" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + (2 + 1 + 1) * 3

    def test_error_with_comma_stays_one_field(self, dataset, tmp_path):
        # Fractional seeds fail every gamma cell with "gamma strategy needs
        # seed values in {0, 1}", a message with a comma in it.
        lines = (dataset / "seeds.tsv").read_text().splitlines()
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("".join(
            (line.split("\t")[0] + "\t0.5" if i < 2 else line) + "\n"
            for i, line in enumerate(lines)))
        out = tmp_path / "sens.csv"
        assert run(["sensitivity", "--edges", str(dataset / "edges.tsv"),
                    "--truth", str(dataset / "truth.tsv"),
                    "--seeds", str(seeds), "--strategies", "alpha,gamma",
                    "--alphas", "0.3", "--gammas", "0.9", "--ks", "1,2",
                    "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "error" and len(rows) == 1 + 2 * 2
        assert all(len(row) == 7 for row in rows)
        errors = [row[-1] for row in rows[1:] if row[0] == "gamma"]
        assert errors == ["gamma strategy needs seed values in {0, 1}"] * 2
        assert all(row[-1] == "" for row in rows[1:] if row[0] == "alpha")

    def test_empty_seed_file_exits_1_before_running(self, dataset, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "sens.csv"
        assert run(["sensitivity", "--edges", str(dataset / "edges.tsv"),
                    "--truth", str(dataset / "truth.tsv"),
                    "--seeds", str(empty), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--ks", "1,x"), ("--alphas", "0.2,y"), ("--betas", "0.8,z"),
        ("--gammas", "nine")])
    def test_malformed_grid_list_exits_1(self, dataset, tmp_path, capsys,
                                         flag, value):
        out = tmp_path / "sens.csv"
        assert run(["sensitivity", "--edges", str(dataset / "edges.tsv"),
                    "--truth", str(dataset / "truth.tsv"),
                    "--seeds", str(dataset / "seeds.tsv"),
                    flag, value, "--out", str(out)]) == 1
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--reveal", "nan"], "reveal fraction must lie in (0, 1), got nan"),
        (["--reveal", "0"], "reveal fraction must lie in (0, 1), got 0.0"),
        (["--reveal", "2"], "reveal fraction must lie in (0, 1), got 2.0"),
        (["--reveal", "0.2", "--alphas", "2"], "grid alpha value 2.0"),
        (["--seeds", "SEEDS", "--strategies", "gamma", "--gammas", "1"],
         "grid gamma value 1.0"),
        (["--seeds", "SEEDS", "--betas", "nan", "--strategies", "beta"],
         "grid beta value nan")])
    def test_bad_grid_or_reveal_exits_1(self, dataset, tmp_path, capsys,
                                        flags, message):
        out = tmp_path / "sens.csv"
        flags = [str(dataset / "seeds.tsv") if f == "SEEDS" else f
                 for f in flags]
        assert run(["sensitivity", "--edges", str(dataset / "edges.tsv"),
                    "--truth", str(dataset / "truth.tsv"), *flags,
                    "--ks", "1,2", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_reveal_mode(self, dataset, tmp_path):
        out = tmp_path / "sens.csv"
        assert run(["sensitivity", "--edges", str(dataset / "edges.tsv"),
                    "--truth", str(dataset / "truth.tsv"),
                    "--reveal", "0.2", "--alphas", "0.3", "--ks", "1,2",
                    "--reps", "2", "--workers", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2


class TestSettingsBeforeInput:
    """A bad setting is reported before any input is read, so with a
    missing input file the error names the setting, not the file."""

    @pytest.mark.parametrize("argv,message", [
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
          "--alphas", "2", "--out", "OUT"], "grid alpha value 2.0"),
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "2",
          "--out", "OUT"], "reveal fraction must lie in (0, 1), got 2.0"),
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
          "--workers", "0", "--out", "OUT"], "workers must be >= 1, got 0"),
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
          "--workers", "-2", "--out", "OUT"], "workers must be >= 1, got -2"),
        (["propagate", "--graph", "M", "--seeds", "M", "--alpha", "2",
          "--out", "OUT"], "alpha must lie in [0, 1], got 2.0"),
        (["lp-features", "--graph", "M", "--seeds", "M", "--splits", "1",
          "--out", "OUT"], "--splits must be >= 2, got 1"),
        (["embed", "--corpus", "M", "--dim", "0", "--out", "OUT"],
         "dim must be >= 1"),
        (["embed", "--corpus", "M", "--subsample", "-1", "--out", "OUT"],
         "subsample must be >= 0 and finite, got -1.0"),
        (["embed", "--corpus", "M", "--subsample", "nan", "--out", "OUT"],
         "subsample must be >= 0 and finite, got nan"),
        (["train", "--features", "M", "--labels", "M", "--epochs", "0"],
         "epochs must be >= 1"),
        (["train", "--features", ",", "--labels", "M"],
         "--features needs files with distinct names, got ','"),
        (["train", "--features", "a/x.csv,b/x.csv", "--labels", "M"],
         "--features needs files with distinct names"),
        (["train", "--features", "M", "--labels", "M", "--task", "foo"],
         "unknown task 'foo'"),
        (["train", "--features", "M", "--labels", "M", "--model", "foo"],
         "unknown model 'foo'"),
        (["train", "--features", "M", "--labels", "M", "--split", "foo"],
         "unknown split mode 'foo'"),
        (["train", "--features", "M", "--labels", "M", "--model", "mlp",
          "--hidden", "8,0"], "bad hidden layer sizes [8, 0]"),
        (["eval", "--predictions", "M", "--labels", "M", "--task", "foo"],
         "unknown task 'foo'"),
        (["propagate", "--graph", "M", "--seeds", "M", "--strategy", "foo",
          "--out", "OUT"], "unknown strategy 'foo'"),
        (["embed", "--corpus", "M", "--mode", "foo", "--out", "OUT"],
         "unknown embedding mode 'foo'"),
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
          "--strategies", "alpha,foo", "--out", "OUT"],
         "unknown strategy 'foo'"),
        (["synth", "--per-class", "3", "--classes", "3", "--out-dir", "OUT"],
         "classes must be 2 or 7, got 3"),
        (["synth", "--per-class", "3", "--noise", "nan", "--out-dir", "OUT"],
         "noise must be >= 0 and finite, got nan"),
        (["synth", "--per-class", "3", "--noise", "inf", "--out-dir", "OUT"],
         "noise must be >= 0 and finite, got inf"),
        (["lp-features", "--graph", "M", "--seeds", "M", "--rng-seed", "-1",
          "--out", "OUT"], "rng_seed must be >= 0, got -1"),
        (["sentences", "--edges", "M", "--rng-seed", "-1", "--out", "OUT"],
         "rng_seed must be >= 0, got -1"),
        (["ingest", "--edges", "M", "--min-degree", "-1"],
         "min_degree must be >= 0, got -1"),
        (["propagate", "--graph", "M", "--seeds", "M", "--min-degree", "-1",
          "--out", "OUT"], "min_degree must be >= 0, got -1"),
        (["lp-features", "--graph", "M", "--seeds", "M", "--min-degree", "-1",
          "--out", "OUT"], "min_degree must be >= 0, got -1"),
        (["coldstart", "--graph", "M", "--embeddings", "M", "--min-degree",
          "-1", "--out", "OUT"], "min_degree must be >= 0, got -1"),
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
          "--min-degree", "-1", "--out", "OUT"],
         "min_degree must be >= 0, got -1"),
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
          "--alphas", "0.5,0.5", "--ks", "2,2", "--out", "OUT"],
         "alphas repeats a value: (0.5, 0.5)"),
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
          "--ks", "2,2", "--out", "OUT"], "ks repeats a value: (2, 2)"),
        (["pipeline", "--config", "CONFIG", "--set", "regimes=cumf+cumf,cumf"],
         "config key 'regimes': 'cumf+cumf' repeats a block"),
        (["pipeline", "--config", "CONFIG", "--set", "regimes=lp,cumf,lp"],
         "config key 'regimes' names regime 'lp' twice"),
        (["pipeline", "--config", "CONFIG", "--set", "model=lr", "--set",
          "model=mlp"], "repeated key 'model'"),
    ], ids=["sensitivity-alphas", "sensitivity-reveal", "sensitivity-workers-0",
            "sensitivity-workers-negative", "propagate-alpha",
            "lp-features-splits", "embed-dim", "embed-subsample-negative",
            "embed-subsample-nan", "train-epochs",
            "train-no-features", "train-same-stem", "train-task",
            "train-model", "train-split", "train-hidden", "eval-task",
            "propagate-strategy", "embed-mode", "sensitivity-strategies",
            "synth-classes", "synth-noise-nan", "synth-noise-inf",
            "lp-features-rng-seed", "sentences-rng-seed",
            "ingest-min-degree", "propagate-min-degree",
            "lp-features-min-degree", "coldstart-min-degree",
            "sensitivity-min-degree", "sensitivity-repeated-alphas",
            "sensitivity-repeated-ks", "pipeline-repeated-block",
            "pipeline-repeated-regime", "pipeline-repeated-set-key"])
    def test_bad_setting_named_despite_missing_input(self, tmp_path, capsys,
                                                    argv, message):
        out, missing = tmp_path / "out", tmp_path / "missing.tsv"
        config = tmp_path / "run.cfg"
        config.write_text(f"edges={missing}\nlabels={missing}\nout={out}\n")
        names = {"M": str(missing), "OUT": str(out), "CONFIG": str(config)}
        assert run([names.get(arg, arg) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert message in err and "missing input" not in err
        assert not out.exists()


class TestNegativeSeed:
    """A negative --rng-seed exits 1 naming the seed, and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--per-class", "5", "--out-dir", "OUT"],
        ["sentences", "--edges", "edges.tsv", "--out", "OUT"],
        ["lp-features", "--graph", "edges.tsv", "--seeds", "seeds.tsv",
         "--out", "OUT"],
        ["embed", "--corpus", "edges.tsv", "--out", "OUT"],
        ["train", "--features", "cumf.csv", "--labels", "truth.tsv",
         "--predictions-out", "OUT", "--metrics-out", "OUT2"],
        ["train", "--features", "cumf.csv", "--labels", "truth.tsv",
         "--split", "random", "--predictions-out", "OUT",
         "--metrics-out", "OUT2"],
    ], ids=["synth", "sentences", "lp-features", "embed", "train-hash",
            "train-random"])
    def test_exits_1(self, dataset, tmp_path, capsys, argv):
        outs = {"OUT": tmp_path / "out", "OUT2": tmp_path / "out2"}
        argv = [str(outs[arg]) if arg in outs else
                str(dataset / arg) if "." in arg else arg for arg in argv]
        assert run([*argv, "--rng-seed", "-1"]) == 1
        assert capsys.readouterr().err == \
            "error: rng_seed must be >= 0, got -1\n"
        assert not any(out.exists() for out in outs.values())


class TestSynthCommand:
    def test_p_and_q_default_to_the_spec(self, tmp_path):
        assert run(["synth", "--per-class", "30", "--rng-seed", "2",
                    "--out-dir", str(tmp_path / "a")]) == 0
        assert run(["synth", "--per-class", "30", "--rng-seed", "2",
                    "--p", "0.05", "--q", "0.005",
                    "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("edges.tsv", "truth.tsv", "seeds.tsv", "cumf.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_rejects_antihomophily_without_flag(self, tmp_path):
        assert run(["synth", "--per-class", "10", "--p", "0.01", "--q", "0.5",
                    "--out-dir", str(tmp_path)]) == 1
        assert run(["synth", "--per-class", "10", "--p", "0.01", "--q", "0.5",
                    "--allow-antihomophily", "--out-dir", str(tmp_path)]) == 0
