"""End-to-end runs and the sensitivity-grid experiment runner.

All randomness in a run flows from one root seed: every stage derives its
own seed as ``fnv1a64("<root>:<stage name>")`` truncated to 63 bits, so
stages are independently reproducible and a rerun with the same config is
byte-identical.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import embed, lpfeatures
from .errors import ConfigError, ValidationError
from .graph import (Graph, _open_text, load_directed_edges, load_edge_list,
                    name_array, row_indices)
from .labelprop import (NUM_AGE_BUCKETS, LabelState, PropagationConfig,
                        _read_label_file, propagate_trace)
from .model import (FeatureMatrix, SplitSpec, TrainHyper, auc_rank,
                    balance_classes, check_hidden, evaluate, fnv1a64,
                    join_features, predict, split, train_logistic, train_mlp,
                    train_softmax)

__all__ = [
    "ExperimentGrid",
    "PipelineConfig",
    "derive_seed",
    "fit_and_score",
    "format_metrics_table",
    "format_pivot",
    "read_labels",
    "run_pipeline",
    "run_sensitivity",
    "task_classes",
    "write_sensitivity_csv",
]

logger = logging.getLogger(__name__)


def derive_seed(root_seed: int, stage: str) -> int:
    """Stage-specific RNG seed derived from the run's root seed."""
    return fnv1a64(f"{root_seed}:{stage}") & (2 ** 63 - 1)


def task_classes(task: str) -> int:
    """Class count of a task: two genders, or the age buckets."""
    return 2 if task == "gender" else NUM_AGE_BUCKETS


# ---------------------------------------------------------------------------
# Sensitivity grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentGrid:
    """Cross-product of strategies, their parameter values, and superstep
    counts, with optional repetitions over re-sampled seed reveals.  The
    value lists are kept as tuples; every cell is checked when built."""

    strategies: tuple[str, ...] = ("alpha",)
    alphas: tuple[float, ...] = (0.2, 0.5, 0.8)
    betas: tuple[float, ...] = (0.8,)
    gammas: tuple[float, ...] = (0.9,)
    ks: tuple[int, ...] = tuple(range(1, 11))
    repetitions: int = 1
    rng_seed: int = 0

    def cell_config(self, strategy: str, param: float) -> PropagationConfig:
        """The propagation of one grid cell, run to the largest K."""
        return PropagationConfig(strategy=strategy, alpha=param, beta=param,
                                 gamma=param, iterations=max(self.ks))

    def params_for(self, strategy: str) -> tuple[float, ...]:
        return {"alpha": self.alphas, "beta": self.betas,
                "gamma": self.gammas}[strategy]

    def __post_init__(self) -> None:
        for name in ("strategies", "alphas", "betas", "gammas", "ks"):
            values = tuple(getattr(self, name))
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a value: {values}")
            object.__setattr__(self, name, values)
        if not self.strategies:
            raise ConfigError("grid needs at least one strategy")
        for s in self.strategies:
            if s not in ("alpha", "beta", "gamma"):
                raise ConfigError(f"unknown strategy {s!r}")
            if not self.params_for(s):
                raise ConfigError(f"no parameter values for strategy {s!r}")
        if not self.ks or min(self.ks) < 1:
            raise ConfigError("iteration counts must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        for s, p in self.cells():
            try:
                self.cell_config(s, p)
            except ConfigError as exc:
                raise ConfigError(f"grid {s} value {p!r}: {exc}") from None

    def cells(self) -> list[tuple[str, float]]:
        return [(s, p) for s in self.strategies for p in self.params_for(s)]


def _check_sensitivity(seeded: bool, reveal: float | None,
                       workers: int) -> None:
    """A sensitivity run needs fixed seeds or a reveal fraction in (0, 1),
    and at least one worker."""
    if not seeded and reveal is None:
        raise ConfigError("need either fixed seeds or a reveal fraction")
    if reveal is not None and not 0.0 < reveal < 1.0:
        raise ConfigError(f"reveal fraction must lie in (0, 1), got {reveal}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def _sample_reveal(truth: np.ndarray, reveal: float,
                   seed: int) -> LabelState:
    labeled = np.flatnonzero(truth >= 0)
    if labeled.size == 0:
        raise ConfigError("truth labels are empty; nothing to reveal")
    count = max(1, int(round(reveal * labeled.size)))
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.permutation(labeled)[:count])
    return LabelState.from_seed_values(len(truth), picked,
                                       truth[picked].astype(np.float64))


def _run_cell(g: Graph, truth: np.ndarray, grid: ExperimentGrid,
              seeds: LabelState | None, reveal: float | None,
              strategy: str, param: float, rep: int) -> list[dict]:
    if seeds is not None:
        rep_seeds = seeds
    else:
        rep_seeds = _sample_reveal(
            truth, reveal, derive_seed(grid.rng_seed, f"reveal-{rep}"))
    cfg = grid.cell_config(strategy, param)
    base = {"strategy": strategy, "param": param, "rep": rep}
    try:
        snapshots = propagate_trace(g, rep_seeds, cfg, grid.ks)
    except Exception as exc:  # record and continue with the rest of the grid
        return [{**base, "iterations": k, "auc": None, "coverage": None,
                 "error": str(exc)} for k in sorted(grid.ks)]
    # The withheld labeled rows and their labels serve every K.
    hidden = np.flatnonzero((truth >= 0) & ~rep_seeds.is_seed)
    positive = truth[hidden] == 1
    rows = []
    for k in sorted(grid.ks):
        state = snapshots[k]
        row = {**base, "iterations": k, "auc": None,
               "coverage": state.coverage, "error": ""}
        try:
            scores = np.where(state.is_active[hidden],
                              state.values[hidden, 0], 0.5)
            row["auc"] = auc_rank(scores, positive)
        except Exception as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def run_sensitivity(g: Graph, truth: np.ndarray, grid: ExperimentGrid,
                    seeds: LabelState | None = None,
                    reveal: float | None = None,
                    workers: int = 1) -> list[dict]:
    """Evaluate every grid cell on the labels withheld from the seeds.

    ``truth`` is a per-node array of binary labels with -1 for unknown.
    Pass fixed ``seeds``, or a ``reveal`` fraction to sample a fresh seed
    set per repetition.  AUC is computed over every hidden labeled node;
    nodes the propagation never reached score the maximum-entropy 0.5, so
    low coverage shows up as tie mass rather than a shrunken test set.
    Cell failures are recorded in the row's ``error`` field and the run
    continues.  Cells are independent; ``workers`` > 1 runs them in a
    thread pool, and rows always come out in canonical order (strategy,
    parameter, repetition, iterations) regardless of completion order.
    """
    _check_sensitivity(seeds is not None, reveal, workers)
    truth = np.asarray(truth, dtype=np.int64)
    if len(truth) != g.node_count:
        raise ValidationError("truth array does not match the graph")
    if seeds is not None and not seeds.is_seed.any():
        raise ConfigError("seed state has no seeds")
    # Only a reveal resamples the seeds per repetition; fixed seeds run
    # each cell once, and its rows serve every repetition.
    cells = [(strategy, param, rep) for strategy, param in grid.cells()
             for rep in range(grid.repetitions if seeds is None else 1)]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda cell: _run_cell(g, truth, grid, seeds, reveal, *cell),
                cells))
    else:
        results = [_run_cell(g, truth, grid, seeds, reveal, *cell)
                   for cell in cells]
    if seeds is not None:
        results = [[{**row, "rep": rep} for rep in range(grid.repetitions)
                    for row in rows] for rows in results]
    return [row for cell_rows in results for row in cell_rows]


def _param_text(param: float) -> str:
    """A grid parameter as text that reads back as the same float: the
    ``:g`` form when its 6 digits hold the value, else ``repr``."""
    text = f"{param:g}"
    return text if float(text) == param else repr(float(param))


def write_sensitivity_csv(rows: list[dict], path) -> None:
    """One CSV line per grid row; an error message with a comma is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["strategy", "param", "iterations", "rep", "auc",
                         "coverage", "error"])
        for r in rows:
            auc = "" if r["auc"] is None else f"{r['auc']:.17g}"
            cov = "" if r["coverage"] is None else f"{r['coverage']:.17g}"
            writer.writerow([r["strategy"], _param_text(r["param"]),
                             r["iterations"], r["rep"], auc, cov, r["error"]])


def format_pivot(rows: list[dict]) -> str:
    """Text table: one row per (strategy, parameter), one column per K.

    Repetitions are averaged; failed cells render as ``-``.
    """
    ks = sorted({r["iterations"] for r in rows})
    groups: dict[tuple[str, float], dict[int, list[float]]] = {}
    for r in rows:
        cell = groups.setdefault((r["strategy"], r["param"]), {})
        if r["auc"] is not None:
            cell.setdefault(r["iterations"], []).append(r["auc"])
    header = f"{'strategy':<10}{'param':>8} | " + " ".join(f"K={k:<5d}" for k in ks)
    lines = [header, "-" * len(header)]
    for (strategy, param) in sorted(groups):
        cells = []
        for k in ks:
            vals = groups[(strategy, param)].get(k)
            cells.append(f"{np.mean(vals):7.4f}" if vals else f"{'-':>7}")
        lines.append(f"{strategy:<10}{_param_text(param):>8} | "
                     + " ".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def _list_of(convert):
    """A parser of comma-separated values such as ``"64,64"`` into a tuple."""
    def parse(text: str) -> tuple:
        return tuple(convert(x) for x in text.split(",") if x)
    parse.__name__ = f"{convert.__name__} list"  # argparse names it
    return parse


def _flag(text: str) -> bool:
    """An on/off key: ``1 true yes on`` or ``0 false no off``."""
    if text not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(text)
    return text in ("1", "true", "yes", "on")


_KNOWN_BLOCKS = ("cumf", "lp", "emb")
_Regimes = tuple[tuple[str, tuple[str, ...]], ...]  # (regime, blocks) pairs


def _regimes(text: str) -> _Regimes:
    """Comma-separated regimes, each ``all`` or blocks joined by ``+``."""
    regimes = tuple((r, _KNOWN_BLOCKS if r == "all" else tuple(r.split("+")))
                    for r in map(str.strip, text.split(",")) if r)
    if not regimes:
        raise ConfigError(f"config key 'regimes' names no regime: {text!r}")
    names = [regime for regime, _ in regimes]
    for regime, blocks in regimes:
        for b in blocks:
            if b not in _KNOWN_BLOCKS:
                raise ConfigError(f"unknown feature block {b!r} in regime {regime!r}")
        if len(set(blocks)) < len(blocks):
            raise ConfigError(f"config key 'regimes': {regime!r} repeats a block")
        if names.count(regime) > 1:
            raise ConfigError(f"config key 'regimes' names regime {regime!r} twice")
    return regimes


# How a setting's text converts, by the annotation of the field it sets.
_PARSE = {"str": str, "str | None": str, "bool": _flag, "int": int,
          "int | None": int, "float": float, "float | None": float,
          "tuple[int, ...]": _list_of(int), "tuple[float, ...]": _list_of(float),
          "tuple[str, ...]": _list_of(str), "_Regimes": _regimes}


def _convert(key: str, raw: str, f: Field):
    """Convert ``raw`` for field ``f``: to None if empty and ``f`` defaults
    to None, else by the field's annotation."""
    if raw == "" and f.default is None:
        return None
    try:
        return _PARSE[f.type](raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad value {raw!r}") from None


# The settings named otherwise than their field (and the run keys ``lp_splits``
# and ``emb_bidirectional``, added below); a stage key is the stage prefix plus
# the name (``lp_iters``, ``lp_splits``), and a CLI flag the name with dashes.
_RENAMED = {(PropagationConfig, "iterations"): "iters", (SplitSpec, "mode"): "split",
            (SplitSpec, "train_fraction"): "train_frac",
            (ExperimentGrid, "repetitions"): "reps"}


def _stage(cls, prefix: str, context: str, *names: str):
    return cls, context, {prefix + _RENAMED.get((cls, n), n): n for n in names}


# The stage configs of a run, by field: the stage class, the prefix of its
# range errors, and the class field that each of its keys sets.
_STAGES = {
    "split_spec": _stage(SplitSpec, "", "", "mode", "train_fraction"),
    "hyper": _stage(TrainHyper, "", "", "epochs", "minibatch", "rate", "l2"),
    "lp": _stage(PropagationConfig, "lp_", "config lp_alpha/lp_iters: ",
                 "alpha", "iterations"),
    "emb": _stage(embed.TrainConfig, "emb_", "config emb_* keys: ", "mode",
                  "dim", "window", "epochs", "negatives", "rate", "min_count"),
}


@dataclass(frozen=True)
class PipelineConfig:
    """A run's settings, converted and checked when built.

    The fields up to ``emb_bidirectional`` are the run keys; a key whose
    default is None names a file.  The keys of ``_STAGES`` set the stage
    configs; ``lp`` and ``emb`` are None unless a regime reads that block.
    """

    edges: str | None = None
    labels: str | None = None
    cumf: str | None = None
    out: str | None = None
    task: str = "gender"
    ages: bool = field(default=False, metadata={
        "help": "labels hold raw ages, not bucket indices"})
    regimes: _Regimes = _regimes("all")
    model: str = "lr"
    hidden: tuple[int, ...] = (256, 256, 256)
    balance: bool = False
    root_seed: int = 0
    min_degree: int = field(default=0, metadata={
        "help": "drop nodes following fewer than this many others"})
    lp_splits: int = 3
    emb_bidirectional: bool = field(default=False, metadata={
        "help": "include followers as well as followed nodes"})
    split_spec: SplitSpec = SplitSpec()
    hyper: TrainHyper = TrainHyper()
    lp: PropagationConfig | None = None
    emb: embed.TrainConfig | None = None

    def __post_init__(self) -> None:
        for key, known in (("task", ("gender", "age")), ("model", ("lr", "mlp"))):
            if getattr(self, key) not in known:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}")
        if self.min_degree < 0:
            raise ConfigError("config key 'min_degree' must be >= 0")
        if self.model == "mlp":
            check_hidden(self.hidden)
        needed = self.blocks()
        if "lp" in needed and self.lp_splits < 2:
            raise ConfigError("config key 'lp_splits' must be >= 2")
        for b in ("lp", "emb"):  # the stage default if a regime reads it
            stage = getattr(self, b) or _STAGES[b][0]()
            object.__setattr__(self, b, stage if b in needed else None)

    def blocks(self) -> set[str]:
        """The feature blocks that some regime reads."""
        return {b for _, blocks in self.regimes for b in blocks}

    @classmethod
    def from_file(cls, path, overrides: dict[str, str] | None = None) -> PipelineConfig:
        settings = {}
        with _open_text(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                key, eq, value = (part.strip() for part in line.partition("="))
                if not (key or eq) or key.startswith("#"):
                    continue
                if not eq:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                if key in settings:
                    raise ConfigError(f"{path}:{line_no}: repeated key {key!r}")
                settings[key] = value
        for key, value in (overrides or {}).items():
            if key not in _KEYS:
                raise ConfigError(f"override names unknown key {key!r}")
            settings[key] = value
        return cls.from_settings(**settings)

    @classmethod
    def from_settings(cls, **kwargs) -> PipelineConfig:
        """Build from key=value settings, each value read as ``str(value)``.
        Every key is converted once; the lp and emb stage configs, and so
        their range checks, are built only when a regime reads their block."""
        settings = {key: str(value) for key, value in kwargs.items()}
        for key in settings:
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {key!r}")
        run = {f.name: _convert(f.name, settings[f.name], f)
               for f in fields(cls) if f.name in settings}
        values = {}
        for name, (stage, _, keys) in _STAGES.items():
            of = {f.name: f for f in fields(stage)}
            values[name] = {attr: _convert(key, settings[key], of[attr])
                            for key, attr in keys.items() if key in settings}
        needed = {b for _, blocks in run.get("regimes", cls.regimes) for b in blocks}
        for name, (stage, context, _) in _STAGES.items():
            if name in needed or name not in _KNOWN_BLOCKS:
                try:
                    run[name] = stage(**values[name])
                except ConfigError as exc:
                    raise ConfigError(f"{context}{exc}") from None
        return cls(**run)


_RENAMED.update({(PipelineConfig, "lp_splits"): "splits",
                 (PipelineConfig, "emb_bidirectional"): "bidirectional"})
_KEYS = ({f.name for f in fields(PipelineConfig)} - _STAGES.keys()
         | {key for _, _, keys in _STAGES.values() for key in keys})


def _read_truth(path, task: str, ages: bool) -> tuple[np.ndarray, np.ndarray]:
    """The truth labels of a ``<name><TAB><label>`` file as names (a
    ``name_array``) and class indices, by ``labelprop._read_label_file``.
    Every line is checked; of two lines for one name the first wins."""
    names, values = _read_label_file(path, task_classes(task),
                                     ages and task != "gender")
    first = np.unique(names, return_index=True)[1]
    if len(first) < len(names):
        first.sort()
        names, values = names[first], values[first]
    if not len(names):
        raise ConfigError(f"{path}: no labels found")
    return names, values


def read_labels(path, task: str = "gender", ages: bool = False
                ) -> dict[bytes, int]:
    """Read ``<name><TAB><label>`` truth files as name -> class index, the
    names as UTF-8 bytes, the type of ``Graph.names``' elements."""
    names, values = _read_truth(path, task, ages)
    return dict(zip(names.tolist(), values.tolist()))


# One side of a split: the names (a ``name_array``) and their labels.
_Side = tuple[np.ndarray, np.ndarray]


def _rows_and_labels(nodes: np.ndarray, side: _Side
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``nodes`` and the labels of those names of ``side``
    that are in ``nodes``, in name order."""
    rows = row_indices(nodes, side[0])
    inside = rows >= 0
    return rows[inside], side[1][inside]


def _lp_block(cfg: PipelineConfig, g: Graph, train: _Side, n_classes: int,
              root: int) -> FeatureMatrix:
    idx, classes = _rows_and_labels(g.names, train)
    if not len(idx):
        raise ConfigError("no training labels fall inside the graph")
    logger.info("lp: %d of %d training labels fall outside the graph",
                len(train[0]) - len(idx), len(train[0]))
    plan = lpfeatures.make_partitions(idx, cfg.lp_splits,
                                      derive_seed(root, "lp-partitions"))
    # Binary labels propagate as one channel, the positive-class share.
    seeds = (idx, classes, 1 if n_classes == 2 else n_classes)
    return lpfeatures.lp_features(g, seeds, plan, cfg.lp)


def _emb_block(cfg: PipelineConfig, g: Graph, root: int) -> FeatureMatrix:
    edges = load_directed_edges(cfg.edges)
    sentences = embed.build_sentences(edges, derive_seed(root, "sentences"),
                                      bidirectional=cfg.emb_bidirectional)
    table = embed.train_embeddings(edges.names, sentences, replace(
        cfg.emb, rng_seed=derive_seed(root, "embed")))
    table = embed.fill_missing_embeddings(g, table)
    tokens = name_array(table.tokens)
    keep = np.flatnonzero(row_indices(g.names, tokens) >= 0)
    columns = [f"emb_{i}" for i in range(table.dim)]
    return FeatureMatrix(tokens[keep], columns, table.vectors[keep])


def fit_and_score(features: FeatureMatrix, train: _Side, test: _Side,
                  n_classes: int, model: str, hidden: tuple[int, ...],
                  hyper: TrainHyper, balance: bool = False
                  ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Train on the ``train`` names that have feature rows, score the
    ``test`` names that do, and return (test nodes, probabilities, record).
    Each side is a pair of names (a ``name_array``) and class indices.

    ``model`` is ``"lr"`` (logistic regression for two classes, softmax
    otherwise) or ``"mlp"`` with ``hidden`` layer widths.  With
    ``balance`` the rows are first class-balanced by an RNG seeded from
    ``derive_seed(hyper.rng_seed, "balance")``.  The record holds
    ``n_train``, ``n_test`` and the ``evaluate`` metrics.  The model trains
    on the rows of ``features`` in place, and only the test rows are kept
    for ``predict``, so a table that the caller passes and does not keep
    is freed before ``predict`` runs.
    """
    train_rows, y = _rows_and_labels(features.nodes, train)
    test_rows, y_test = _rows_and_labels(features.nodes, test)
    if not len(train_rows) or not len(test_rows):
        raise ConfigError("empty train or test side after joining features")
    rows = train_rows
    if balance:
        keep = balance_classes(y, np.random.default_rng(
            derive_seed(hyper.rng_seed, "balance")))
        rows, y = rows[keep], y[keep]
    # The trainers read the table by row, so no train matrix is copied.
    x = features.values
    if model == "mlp":
        params = train_mlp(x, y, hidden, n_classes=n_classes, hyper=hyper,
                           rows=rows)
    elif model == "lr" and n_classes == 2:
        params = train_logistic(x, y, hyper, rows=rows)
    elif model == "lr":
        params = train_softmax(x, y, n_classes, hyper, rows=rows)
    else:
        raise ConfigError(f"unknown model {model!r}")
    # Keep only the test rows, so that the table is freed before predict
    # allocates its activations when the caller holds no other reference.
    test_nodes = features.nodes[test_rows]
    x = x[test_rows]
    del features
    probs = predict(params, x)
    metrics = evaluate(probs, y_test)
    return (test_nodes, probs,
            {"n_train": len(train_rows), "n_test": len(test_rows), **metrics})


def _check_out_dir(path) -> None:
    """Fails before any work is done when an output file has no directory."""
    if path and not Path(path).parent.is_dir():
        raise ConfigError(
            f"output directory does not exist: {Path(path).parent}")


def run_pipeline(cfg: PipelineConfig) -> list[dict]:
    """Ingest, feature generation, training, and evaluation per regime.

    Returns one metrics record per regime; writes them as JSON lines when
    the config names an ``out`` path.  Identical config and root seed give
    byte-identical reports.  The config checked its settings when built;
    this checks only that the input files are named and exist, and that
    the ``out`` directory exists.
    """
    _check_out_dir(cfg.out)
    needed = cfg.blocks()
    required = ["edges", "labels", "cumf"] if "cumf" in needed else ["edges", "labels"]
    missing = [key for key in required if not getattr(cfg, key)]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")
    absent = [getattr(cfg, key) for key in required
              if not Path(getattr(cfg, key)).exists()]
    if absent:
        raise ConfigError(f"input files do not exist: {absent}")

    root, n_classes = cfg.root_seed, task_classes(cfg.task)
    g = load_edge_list(cfg.edges, min_degree=cfg.min_degree)
    names, labels = _read_truth(cfg.labels, cfg.task, cfg.ages)
    train, test = ((names[rows], labels[rows]) for rows in split(
        names, replace(cfg.split_spec, rng_seed=derive_seed(root, "split"))))
    del names, labels

    # The blocks that read the graph come first, so that the graph is
    # freed before the feature CSV is read.
    blocks: dict[str, FeatureMatrix] = {}
    if "lp" in needed:
        blocks["lp"] = _lp_block(cfg, g, train, n_classes, root)
    if "emb" in needed:
        blocks["emb"] = _emb_block(cfg, g, root)
    del g  # no later stage reads the graph
    if "cumf" in needed:
        blocks["cumf"] = FeatureMatrix.from_csv(cfg.cumf)
    for b in blocks:
        logger.info("block %r: %d rows x %d columns, %.1f MB", b,
                    *blocks[b].values.shape, blocks[b].values.nbytes / 2 ** 20)

    records = []
    for i, (regime, names) in enumerate(cfg.regimes):
        later = {b for _, read in cfg.regimes[i + 1:] for b in read}
        try:
            # A block that no later regime reads leaves ``blocks`` for its
            # last join, and no name is bound to the joined table, so each
            # is freed once its last reader is done with it: the block
            # before the fit, the table before predict.
            _, _, scores = fit_and_score(
                join_features({b: blocks[b] if b in later else blocks.pop(b)
                               for b in names}),
                train, test, n_classes,
                cfg.model, cfg.hidden, replace(
                    cfg.hyper, rng_seed=derive_seed(root, f"train:{regime}")),
                cfg.balance)
        except ConfigError as exc:
            raise ConfigError(f"regime {regime!r}: {exc}") from None
        records.append({"regime": regime, **scores})

    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return records


def format_metrics_table(records: list[dict]) -> str:
    header = (f"{'regime':<12}{'n_train':>9}{'n_test':>8}{'auc':>10}"
              f"{'accuracy':>10}{'cross_entropy':>15}")
    lines = [header, "-" * len(header)]
    for r in records:
        auc = "-" if r.get("auc") is None else f"{r['auc']:.4f}"
        lines.append(f"{r['regime']:<12}{r['n_train']:>9}{r['n_test']:>8}"
                     f"{auc:>10}{r['accuracy']:>10.4f}"
                     f"{r['cross_entropy']:>15.4f}")
    return "\n".join(lines)
