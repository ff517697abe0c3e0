"""Command-line entry points.

A flag that sets a config field is built from the field, and the class is
its one check.  The flag is the setting's name (``pipeline._RENAMED``) with
dashes, its key the stage prefix plus the name: ``--splits``, ``lp_splits``.

Exit codes: 0 on success, 1 on validation/config errors (including bad
flags), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__, embed, lpfeatures, synth
from .errors import ConfigError, ValidationError
from .graph import (load_directed_edges, load_edge_list, name_array,
                    row_indices, texts, write_edge_list, write_node_map)
from .labelprop import (PropagationConfig, _seed_rows, propagate,
                        read_node_vectors, read_seed_labels,
                        write_label_state, write_node_vectors)
from .model import (FeatureMatrix, SplitSpec, TrainHyper, evaluate,
                    join_features, split)
from .pipeline import (_PARSE, _RENAMED, _STAGES, ExperimentGrid,
                       PipelineConfig, _check_out_dir, _check_sensitivity,
                       _read_truth, _rows_and_labels, fit_and_score,
                       format_metrics_table, format_pivot, run_pipeline,
                       run_sensitivity, task_classes, write_sensitivity_csv)


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so usage problems map to exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_version(parser):
    parser.add_argument("--version", action="version",
                        version=f"demograph {__version__}")


def _add_fields(p, cls, *names):
    """A flag for each field of ``cls`` (or each in ``names``), stored under
    the field's name, named as its setting and converted as its pipeline key:
    it defaults to the field's default, is required without one, is a switch
    for a ``bool`` field, and takes its help from the field's metadata."""
    for f in [f for f in fields(cls) if f.name in names or not names]:
        name = _RENAMED.get((cls, f.name), f.name)
        kind = ({"action": "store_true"} if f.type == "bool" else
                {"type": _PARSE[f.type], "metavar": name.upper()})
        p.add_argument("--" + name.replace("_", "-"), dest=f.name,
                       default=f.default, required=f.default is MISSING,
                       help=f.metadata.get("help"), **kind)


def _seed(text: str) -> int:
    """An ``--rng-seed`` that no config class checks, before any input."""
    if int(text) < 0:
        raise ConfigError(f"rng_seed must be >= 0, got {int(text)}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """Every flag that sets a config field is built by ``_add_fields``."""
    parser = _Parser(prog="demograph",
                     description="Demographic inference over following graphs")
    _add_version(parser)
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        _add_version(p)
        p.set_defaults(func=func)
        return p

    p = command("ingest", _cmd_ingest,
                "load, filter, and canonicalize an edge list")
    p.add_argument("--edges", required=True)
    _add_fields(p, PipelineConfig, "min_degree")
    p.add_argument("--no-symmetrize", action="store_true",
                   help="require the file to already list both directions")
    p.add_argument("--out-edges")
    p.add_argument("--out-nodes")

    p = command("propagate", _cmd_propagate,
                "run label propagation and write node scores")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--seeds", required=True)
    _add_fields(p, PropagationConfig)
    p.add_argument("--classes", type=int, choices=(1, 7), default=1)
    _add_fields(p, PipelineConfig, "ages", "min_degree")
    p.add_argument("--emit-inactive", action="store_true")
    p.add_argument("--out", required=True)

    p = command("lp-features", _cmd_lp_features,
                "ensemble propagation features over seed partitions")
    p.add_argument("--graph", required=True)
    p.add_argument("--seeds", required=True)
    _add_fields(p, PipelineConfig, "lp_splits")
    p.add_argument("--rng-seed", type=_seed, default=0)
    _add_fields(p, PropagationConfig, *_STAGES["lp"][2].values())
    p.add_argument("--classes", type=int, choices=(1, 7), default=1)
    _add_fields(p, PipelineConfig, "ages", "min_degree")
    p.add_argument("--no-presence", action="store_true",
                   help="omit the presence indicator columns")
    p.add_argument("--out", required=True)

    p = command("sentences", _cmd_sentences,
                "emit one neighbor sentence per node")
    p.add_argument("--edges", required=True)
    p.add_argument("--rng-seed", type=_seed, default=0)
    _add_fields(p, PipelineConfig, "emb_bidirectional")
    p.add_argument("--out", required=True)

    p = command("embed", _cmd_embed,
                "train word2vec vectors on a sentence corpus")
    p.add_argument("--corpus", required=True)
    _add_fields(p, embed.TrainConfig)
    p.add_argument("--out", required=True)

    p = command("coldstart", _cmd_coldstart,
                "fill missing embeddings by neighbor averaging")
    p.add_argument("--graph", required=True)
    p.add_argument("--embeddings", required=True)
    _add_fields(p, PipelineConfig, "min_degree")
    p.add_argument("--out", required=True)

    p = command("synth", _cmd_synth, "generate a planted-partition dataset")
    _add_fields(p, synth.PlantedGraphSpec)
    p.add_argument("--out-dir", required=True)

    p = command("train", _cmd_train,
                "train a classifier on joined feature blocks")
    p.add_argument("--features", required=True,
                   help="comma-separated feature CSV paths")
    p.add_argument("--labels", required=True)
    _add_fields(p, PipelineConfig, "task", "ages", "model", "hidden", "balance")
    _add_fields(p, TrainHyper)
    _add_fields(p, SplitSpec, *_STAGES["split_spec"][2].values())
    p.add_argument("--predictions-out",
                   help="write test-side predictions as <name>\\t<p0,..>")
    p.add_argument("--metrics-out")

    p = command("eval", _cmd_eval, "score predictions against truth labels")
    p.add_argument("--predictions", required=True,
                   help="<name>\\t<v0[,v1..]> rows, e.g. propagate output")
    p.add_argument("--labels", required=True)
    _add_fields(p, PipelineConfig, "task", "ages")
    p.add_argument("--metrics-out")

    p = command("pipeline", _cmd_pipeline,
                "run ingest -> features -> train -> eval per regime")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key")

    p = command("sensitivity", _cmd_sensitivity,
                "propagation quality over a strategy/param/K grid")
    p.add_argument("--edges", required=True)
    p.add_argument("--truth", required=True, help="full labels for evaluation")
    p.add_argument("--seeds", help="fixed revealed labels")
    p.add_argument("--reveal", type=float,
                   help="sample this seed fraction per repetition instead")
    _add_fields(p, ExperimentGrid)
    p.add_argument("--workers", type=int, default=1,
                   help="run grid cells in this many threads")
    _add_fields(p, PipelineConfig, "min_degree")
    p.add_argument("--out", required=True)
    return parser


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _config(cls, args):
    """A ``cls`` config of the flags stored under its field names."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in fields(cls)
                  if f.name in flags})


def _cmd_ingest(args):
    g = load_edge_list(args.edges, min_degree=args.min_degree,
                       symmetrize=not args.no_symmetrize)
    if args.out_edges:
        write_edge_list(g, args.out_edges)
    if args.out_nodes:
        write_node_map(g, args.out_nodes)
    print(f"nodes={g.node_count} edges={g.edge_count} "
          f"mean_degree={2 * g.edge_count / max(1, g.node_count):.3f}")


def _cmd_propagate(args):
    cfg = _config(PropagationConfig, args)
    g = load_edge_list(args.graph, min_degree=args.min_degree)
    seeds = read_seed_labels(args.seeds, g, num_classes=args.classes,
                             ages=args.ages)
    state = propagate(g, seeds, cfg)
    write_label_state(args.out, g, state, emit_inactive=args.emit_inactive)
    print(f"coverage={state.coverage:.6f} seeds={state.seed_count} "
          f"nodes={g.node_count}")


def _cmd_lp_features(args):
    if args.lp_splits < 2:
        raise ConfigError(f"--splits must be >= 2, got {args.lp_splits}")
    cfg = _config(PropagationConfig, args)
    g = load_edge_list(args.graph, min_degree=args.min_degree)
    seeds = _seed_rows(args.seeds, g, args.classes, args.ages)
    plan = lpfeatures.make_partitions(seeds[0], args.lp_splits, args.rng_seed)
    table = lpfeatures.lp_features(g, seeds, plan, cfg)
    keep = len(table.columns) - (args.lp_splits if args.no_presence else 0)
    FeatureMatrix(table.nodes, table.columns[:keep],
                  table.values[:, :keep]).to_csv(args.out)
    print(f"wrote {len(table.nodes)} rows x {args.lp_splits} runs to {args.out}")


def _cmd_sentences(args):
    directed = load_directed_edges(args.edges)
    sentences = embed.build_sentences(directed, args.rng_seed,
                                      bidirectional=args.emb_bidirectional)
    embed.write_corpus(directed.names, sentences, args.out)
    print(f"wrote {len(sentences)} sentences to {args.out}")


def _cmd_embed(args):
    cfg = _config(embed.TrainConfig, args)
    table = embed.train_embeddings(*embed.read_corpus(args.corpus), cfg)
    table.save(args.out)
    print(f"trained {len(table)} vectors of dim {table.dim}")


def _cmd_coldstart(args):
    g = load_edge_list(args.graph, min_degree=args.min_degree)
    table = embed.EmbeddingTable.load(args.embeddings)
    filled = embed.fill_missing_embeddings(g, table)
    filled.save(args.out)
    print(f"filled {len(filled) - len(table)} nodes by neighbor averaging")


def _cmd_synth(args):
    data = synth.generate(_config(synth.PlantedGraphSpec, args))
    synth.write_outputs(data, args.out_dir)
    print(f"nodes={data.node_count} edges={len(data.edges)} "
          f"seeds={len(data.seed_indices)} -> {args.out_dir}")


def _cmd_train(args):
    spec = _config(SplitSpec, args)
    hyper = _config(TrainHyper, args)
    run = _config(PipelineConfig, args)
    paths = [p for p in args.features.split(",") if p]
    names = [Path(p).stem for p in paths]
    if not paths or len(set(names)) < len(names):
        raise ConfigError(f"--features needs files with distinct names, got "
                          f"{args.features!r}")
    blocks = {name: FeatureMatrix.from_csv(p) for name, p in zip(names, paths)}
    features = join_features(blocks) if len(blocks) > 1 else next(iter(blocks.values()))
    names, labels = _read_truth(args.labels, run.task, run.ages)
    labeled = row_indices(features.nodes, names) >= 0
    if not labeled.any():
        raise ConfigError("no labeled node has features")
    # The random split depends on this list: only labeled nodes with features.
    names, labels = names[labeled], labels[labeled]
    train, test = ((names[rows], labels[rows]) for rows in split(names, spec))
    test_nodes, probs, record = fit_and_score(
        features, train, test, task_classes(run.task), run.model, run.hidden,
        hyper, run.balance)
    if args.predictions_out:
        write_node_vectors(args.predictions_out, test_nodes, probs)
    _emit_metrics(record, args.metrics_out)


def _cmd_eval(args):
    run = _config(PipelineConfig, args)
    predictions = read_node_vectors(args.predictions)
    names, labels = _read_truth(args.labels, run.task, run.ages)
    common = np.isin(names, name_array(list(predictions)))
    if not common.any():
        raise ConfigError("no prediction matches a labeled node")
    probs = np.stack([predictions[n] for n in texts(names[common])])
    classes = task_classes(run.task)
    if probs.shape[1] not in (1, classes):
        raise ValidationError(
            f"{args.predictions}: {probs.shape[1]} columns per prediction, "
            f"but task {run.task} takes 1 or {classes}")
    _emit_metrics({**evaluate(probs, labels[common]),
                   "n_eval": int(common.sum())}, args.metrics_out)


def _emit_metrics(record: dict, out_path):
    line = json.dumps(record, sort_keys=True)
    print(line)
    auc = "-" if record.get("auc") is None else f"{record['auc']:.4f}"
    print(f"{'auc':<15}{auc}")
    print(f"{'accuracy':<15}{record['accuracy']:.4f}")
    print(f"{'cross_entropy':<15}{record['cross_entropy']:.4f}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _cmd_pipeline(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = (part.strip() for part in item.partition("="))
        if key in overrides:
            raise ConfigError(f"--set: repeated key {key!r}")
        overrides[key] = value
    records = run_pipeline(PipelineConfig.from_file(args.config, overrides))
    for record in records:
        print(json.dumps(record, sort_keys=True))
    print(format_metrics_table(records))


def _cmd_sensitivity(args):
    grid = _config(ExperimentGrid, args)
    _check_sensitivity(bool(args.seeds), args.reveal, args.workers)
    g = load_edge_list(args.edges, min_degree=args.min_degree)
    rows, labels = _rows_and_labels(g.names, _read_truth(args.truth, "gender",
                                                         False))
    truth = np.full(g.node_count, -1, dtype=np.int64)
    truth[rows] = labels
    seeds = None
    if args.seeds:
        seeds = read_seed_labels(args.seeds, g, num_classes=1)
    rows = run_sensitivity(g, truth, grid, seeds=seeds, reveal=args.reveal,
                           workers=args.workers)
    write_sensitivity_csv(rows, args.out)
    print(format_pivot(rows))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help()
            return 1
        for flag in ("out", "out_edges", "out_nodes", "predictions_out",
                     "metrics_out"):  # the pipeline checks its out key
            _check_out_dir(getattr(args, flag, None))
        args.func(args)
        return 0
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        print("run 'demograph --help' for usage", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc.filename}", file=sys.stderr)
        return 1
    except (IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc.strerror.lower()}: {exc.filename}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 2
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
