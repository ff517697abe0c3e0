"""Command-line entry points.

Exit codes: 0 on success, 1 on validation/config errors (including bad
flags), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, embed, lpfeatures, synth
from .errors import ConfigError, ValidationError
from .graph import (load_directed_edges, load_edge_list, write_edge_list,
                    write_node_map)
from .labelprop import (PropagationConfig, propagate, read_node_vectors,
                        read_seed_labels, write_label_state,
                        write_node_vectors)
from .model import (FeatureMatrix, SplitSpec, TrainHyper, check_hidden,
                    evaluate, join_features, split)
from .pipeline import (_CONFIG_DEFAULTS, ExperimentGrid, PipelineConfig,
                       _check_sensitivity, fit_and_score, float_list,
                       format_metrics_table, format_pivot, int_list,
                       read_labels, run_pipeline, run_sensitivity,
                       task_classes, write_sensitivity_csv)


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so usage problems map to exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_version(parser):
    parser.add_argument("--version", action="version",
                        version=f"demograph {__version__}")


def build_parser() -> argparse.ArgumentParser:
    """Every stage flag defaults to its config class's field, and every
    flag shared with the pipeline to the pipeline's run default."""
    emb, spec, run = embed.TrainConfig, synth.PlantedGraphSpec, _CONFIG_DEFAULTS
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
    p.add_argument("--min-degree", type=int, default=0,
                   help="drop nodes following fewer than this many others")
    p.add_argument("--no-symmetrize", action="store_true",
                   help="require the file to already list both directions")
    p.add_argument("--out-edges")
    p.add_argument("--out-nodes")

    p = command("propagate", _cmd_propagate,
                "run label propagation and write node scores")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--seeds", required=True)
    p.add_argument("--strategy", choices=("alpha", "beta", "gamma"),
                   default=PropagationConfig.strategy)
    p.add_argument("--alpha", type=float, default=PropagationConfig.alpha)
    p.add_argument("--beta", type=float, default=PropagationConfig.beta)
    p.add_argument("--gamma", type=float, default=PropagationConfig.gamma)
    p.add_argument("--iters", type=int, default=PropagationConfig.iterations)
    p.add_argument("--classes", type=int, choices=(1, 7), default=1)
    p.add_argument("--ages", action="store_true",
                   help="seed file holds raw ages, not bucket indices")
    p.add_argument("--min-degree", type=int, default=0)
    p.add_argument("--emit-inactive", action="store_true")
    p.add_argument("--out", required=True)

    p = command("lp-features", _cmd_lp_features,
                "ensemble propagation features over seed partitions")
    p.add_argument("--graph", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--splits", type=int, default=run["lp_splits"])
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=PropagationConfig.iterations)
    p.add_argument("--alpha", type=float, default=PropagationConfig.alpha)
    p.add_argument("--classes", type=int, choices=(1, 7), default=1)
    p.add_argument("--ages", action="store_true")
    p.add_argument("--min-degree", type=int, default=0)
    p.add_argument("--no-presence", action="store_true",
                   help="omit the presence indicator columns")
    p.add_argument("--out", required=True)

    p = command("sentences", _cmd_sentences,
                "emit one neighbor sentence per node")
    p.add_argument("--edges", required=True)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--bidirectional", action="store_true",
                   help="include followers as well as followed nodes")
    p.add_argument("--out", required=True)

    p = command("embed", _cmd_embed,
                "train word2vec vectors on a sentence corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=("skipgram", "cbow"), default=emb.mode)
    p.add_argument("--dim", type=int, default=emb.dim)
    p.add_argument("--window", type=int, default=emb.window)
    p.add_argument("--min-count", type=int, default=emb.min_count)
    p.add_argument("--epochs", type=int, default=emb.epochs)
    p.add_argument("--negatives", type=int, default=emb.negatives)
    p.add_argument("--rate", type=float, default=emb.rate)
    p.add_argument("--subsample", type=float, default=emb.subsample)
    p.add_argument("--rng-seed", type=int, default=emb.rng_seed)
    p.add_argument("--out", required=True)

    p = command("coldstart", _cmd_coldstart,
                "fill missing embeddings by neighbor averaging")
    p.add_argument("--graph", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--min-degree", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("synth", _cmd_synth, "generate a planted-partition dataset")
    p.add_argument("--classes", type=int, choices=(2, 7), default=spec.classes)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--reveal", type=float, default=spec.reveal)
    p.add_argument("--noise", type=float, default=spec.noise)
    p.add_argument("--allow-antihomophily", action="store_true")
    p.add_argument("--rng-seed", type=int, default=spec.rng_seed)
    p.add_argument("--out-dir", required=True)

    p = command("train", _cmd_train,
                "train a classifier on joined feature blocks")
    p.add_argument("--features", required=True,
                   help="comma-separated feature CSV paths")
    p.add_argument("--labels", required=True)
    p.add_argument("--task", choices=("gender", "age"), default=run["task"])
    p.add_argument("--ages", action="store_true")
    p.add_argument("--model", choices=("lr", "mlp"), default=run["model"])
    p.add_argument("--hidden", type=int_list, default=run["hidden"])
    p.add_argument("--epochs", type=int, default=TrainHyper.epochs)
    p.add_argument("--minibatch", type=int, default=TrainHyper.minibatch)
    p.add_argument("--rate", type=float, default=TrainHyper.rate)
    p.add_argument("--l2", type=float, default=TrainHyper.l2)
    p.add_argument("--balance", action="store_true")
    p.add_argument("--split", choices=("hash", "random"),
                   default=SplitSpec.mode)
    p.add_argument("--train-frac", type=float,
                   default=SplitSpec.train_fraction)
    p.add_argument("--rng-seed", type=int, default=TrainHyper.rng_seed)
    p.add_argument("--predictions-out",
                   help="write test-side predictions as <name>\\t<p0,..>")
    p.add_argument("--metrics-out")

    p = command("eval", _cmd_eval, "score predictions against truth labels")
    p.add_argument("--predictions", required=True,
                   help="<name>\\t<v0[,v1..]> rows, e.g. propagate output")
    p.add_argument("--labels", required=True)
    p.add_argument("--task", choices=("gender", "age"), default=run["task"])
    p.add_argument("--ages", action="store_true")
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
    p.add_argument("--strategies", default=",".join(ExperimentGrid.strategies))
    p.add_argument("--alphas", type=float_list, default=ExperimentGrid.alphas)
    p.add_argument("--betas", type=float_list, default=ExperimentGrid.betas)
    p.add_argument("--gammas", type=float_list, default=ExperimentGrid.gammas)
    p.add_argument("--ks", type=int_list, default=ExperimentGrid.ks)
    p.add_argument("--reps", type=int, default=ExperimentGrid.repetitions)
    p.add_argument("--workers", type=int, default=1,
                   help="run grid cells in this many threads")
    p.add_argument("--min-degree", type=int, default=0)
    p.add_argument("--rng-seed", type=int, default=ExperimentGrid.rng_seed)
    p.add_argument("--out", required=True)
    return parser


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _config(cls, args, **renamed):
    """A ``cls`` config of the flags named after its fields, and of the
    ``renamed`` fields, whose flags go by other names."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in fields(cls)
                  if f.name in flags} | renamed)


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
    cfg = _config(PropagationConfig, args, iterations=args.iters)
    g = load_edge_list(args.graph, min_degree=args.min_degree)
    seeds = read_seed_labels(args.seeds, g, num_classes=args.classes,
                             ages=args.ages)
    state = propagate(g, seeds, cfg)
    write_label_state(args.out, g, state, emit_inactive=args.emit_inactive)
    print(f"coverage={state.coverage:.6f} seeds={state.seed_count} "
          f"nodes={g.node_count}")


def _cmd_lp_features(args):
    if args.splits < 2:
        raise ConfigError(f"--splits must be >= 2, got {args.splits}")
    cfg = _config(PropagationConfig, args, iterations=args.iters)
    g = load_edge_list(args.graph, min_degree=args.min_degree)
    seeds = read_seed_labels(args.seeds, g, num_classes=args.classes,
                             ages=args.ages)
    plan = lpfeatures.make_partitions(np.flatnonzero(seeds.is_seed),
                                      args.splits, args.rng_seed)
    block = lpfeatures.lp_features(g, seeds, plan, cfg)
    block.table(g.names, presence=not args.no_presence).to_csv(args.out)
    print(f"wrote {block.node_count} rows x {args.splits} runs to {args.out}")


def _cmd_sentences(args):
    directed = load_directed_edges(args.edges)
    sentences = embed.build_sentences(directed, args.rng_seed,
                                      bidirectional=args.bidirectional)
    embed.write_corpus(sentences, args.out)
    print(f"wrote {len(sentences)} sentences to {args.out}")


def _cmd_embed(args):
    cfg = _config(embed.TrainConfig, args)
    corpus = embed.read_corpus(args.corpus)
    table = embed.train_embeddings(corpus, cfg)
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
    paths = synth.write_outputs(data, args.out_dir)
    print(f"nodes={data.node_count} edges={len(data.edges)} "
          f"seeds={len(data.seed_indices)} -> {args.out_dir}")
    return paths


def _cmd_train(args):
    spec = _config(SplitSpec, args, mode=args.split,
                   train_fraction=args.train_frac)
    hyper = _config(TrainHyper, args)
    if args.model == "mlp":
        check_hidden(args.hidden)
    paths = [p for p in args.features.split(",") if p]
    names = [Path(p).stem for p in paths]
    if not paths or len(set(names)) < len(names):
        raise ConfigError(f"--features needs files with distinct names, got "
                          f"{args.features!r}")
    blocks = {name: FeatureMatrix.from_csv(p) for name, p in zip(names, paths)}
    features = join_features(blocks) if len(blocks) > 1 else next(iter(blocks.values()))
    labels = read_labels(args.labels, args.task, args.ages)
    labeled = [n for n in labels if n in features]
    if not labeled:
        raise ConfigError("no labeled node has features")
    # The random split depends on this list: only labeled nodes with features.
    train_names, test_names = split(labeled, spec)
    test_rows, probs, record = fit_and_score(
        features, labels, train_names, test_names, task_classes(args.task),
        args.model, args.hidden, hyper, args.balance)
    if args.predictions_out:
        write_node_vectors(args.predictions_out, test_rows, probs)
    _emit_metrics(record, args.metrics_out)


def _cmd_eval(args):
    predictions = read_node_vectors(args.predictions)
    labels = read_labels(args.labels, args.task, args.ages)
    common = [n for n in labels if n in predictions]
    if not common:
        raise ConfigError("no prediction matches a labeled node")
    probs = np.stack([predictions[n] for n in common])
    classes = task_classes(args.task)
    if probs.shape[1] not in (1, classes):
        raise ValidationError(
            f"{args.predictions}: {probs.shape[1]} columns per prediction, "
            f"but task {args.task} takes 1 or {classes}")
    truth = np.array([labels[n] for n in common])
    _emit_metrics({**evaluate(probs, truth), "n_eval": len(common)},
                  args.metrics_out)


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
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    cfg = PipelineConfig.from_file(args.config, overrides)
    records = run_pipeline(cfg)
    for record in records:
        print(json.dumps(record, sort_keys=True))
    print(format_metrics_table(records))


def _cmd_sensitivity(args):
    grid = _config(ExperimentGrid, args, repetitions=args.reps,
                   strategies=[s for s in args.strategies.split(",") if s])
    _check_sensitivity(bool(args.seeds), args.reveal, args.workers)
    g = load_edge_list(args.edges, min_degree=args.min_degree)
    truth_map = read_labels(args.truth, "gender", False)
    truth = np.full(g.node_count, -1, dtype=np.int64)
    for name, value in truth_map.items():
        if name in g:
            truth[g.index_of(name)] = value
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
    except BrokenPipeError:
        return 2
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
