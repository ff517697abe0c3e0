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
from dataclasses import dataclass, field, replace
from itertools import compress
from pathlib import Path

import numpy as np

from . import embed, lpfeatures
from .errors import ConfigError, ValidationError
from .graph import (Graph, _open_text, _pair_tokens, load_directed_edges,
                    load_edge_list)
from .labelprop import (AGE_BUCKET_UPPER_BOUNDS, NUM_AGE_BUCKETS, LabelState,
                        PropagationConfig, _label_rows, propagate_trace)
from .model import (FeatureMatrix, SplitSpec, TrainHyper, auc_rank,
                    balance_classes, check_hidden, evaluate, fnv1a64,
                    join_features, predict, row_indices, split, train_logistic,
                    train_mlp, train_softmax)

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

@dataclass
class ExperimentGrid:
    """Cross-product of strategies, their parameter values, and superstep
    counts, with optional repetitions over re-sampled seed reveals."""

    strategies: list[str] = field(default_factory=lambda: ["alpha"])
    alphas: list[float] = field(default_factory=lambda: [0.2, 0.5, 0.8])
    betas: list[float] = field(default_factory=lambda: [0.8])
    gammas: list[float] = field(default_factory=lambda: [0.9])
    ks: list[int] = field(default_factory=lambda: list(range(1, 11)))
    repetitions: int = 1
    rng_seed: int = 0

    def cell_config(self, strategy: str, param: float) -> PropagationConfig:
        """The propagation of one grid cell, run to the largest K."""
        return PropagationConfig(strategy=strategy, alpha=param, beta=param,
                                 gamma=param, iterations=max(self.ks))

    def params_for(self, strategy: str) -> list[float]:
        return {"alpha": self.alphas, "beta": self.betas,
                "gamma": self.gammas}[strategy]

    def validate(self) -> None:
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
                self.cell_config(s, p).validate()
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
    hidden_pool = (truth >= 0) & ~rep_seeds.is_seed
    rows = []
    for k in sorted(grid.ks):
        state = snapshots[k]
        row = {**base, "iterations": k, "auc": None,
               "coverage": state.coverage, "error": ""}
        try:
            scores = np.where(state.is_active, state.values[:, 0], 0.5)
            row["auc"] = auc_rank(scores[hidden_pool], truth[hidden_pool] == 1)
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
    grid.validate()
    _check_sensitivity(seeds is not None, reveal, workers)
    truth = np.asarray(truth, dtype=np.int64)
    if len(truth) != g.node_count:
        raise ValidationError("truth array does not match the graph")
    if seeds is not None and not seeds.is_seed.any():
        raise ConfigError("seed state has no seeds")
    cells = [(strategy, param, rep) for strategy, param in grid.cells()
             for rep in range(grid.repetitions)]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda cell: _run_cell(g, truth, grid, seeds, reveal, *cell),
                cells))
    else:
        results = [_run_cell(g, truth, grid, seeds, reveal, *cell)
                   for cell in cells]
    return [row for cell_rows in results for row in cell_rows]


def write_sensitivity_csv(rows: list[dict], path) -> None:
    """One CSV line per grid row; an error message with a comma is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["strategy", "param", "iterations", "rep", "auc",
                         "coverage", "error"])
        for r in rows:
            auc = "" if r["auc"] is None else f"{r['auc']:.17g}"
            cov = "" if r["coverage"] is None else f"{r['coverage']:.17g}"
            writer.writerow([r["strategy"], f"{r['param']:g}", r["iterations"],
                             r["rep"], auc, cov, r["error"]])


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
        lines.append(f"{strategy:<10}{param:>8g} | " + " ".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "edges": None, "labels": None, "cumf": None, "out": None,
    "task": "gender", "ages": "0", "regimes": "all",
    "model": "lr", "hidden": "256,256,256", "epochs": "4",
    "minibatch": "3000", "rate": "0.1", "l2": "0.0", "balance": "0",
    "split": "hash", "train_frac": "", "root_seed": "0", "min_degree": "0",
    "lp_splits": "3", "lp_alpha": "0.3", "lp_iters": "3",
    "emb_mode": "skipgram", "emb_dim": "50", "emb_window": "",
    "emb_epochs": "5", "emb_negatives": "5", "emb_min_count": "5",
    "emb_rate": "0.025", "emb_bidirectional": "0",
}


def int_list(text: str) -> list[int]:
    """Parse comma-separated integers such as layer widths ``"64,64"``."""
    return [int(h) for h in text.split(",") if h]


def float_list(text: str) -> list[float]:
    """Parse comma-separated numbers such as grid values ``"0.2,0.5"``."""
    return [float(x) for x in text.split(",") if x]


# How ``PipelineConfig.value`` converts each numeric key.  A key whose
# default is empty is optional, and its empty value reads as None.
_CONFIG_TYPES = {
    "hidden": int_list, "epochs": int, "minibatch": int, "rate": float,
    "l2": float, "train_frac": float, "root_seed": int, "min_degree": int,
    "lp_splits": int, "lp_alpha": float, "lp_iters": int, "emb_dim": int,
    "emb_window": int, "emb_epochs": int, "emb_negatives": int,
    "emb_min_count": int, "emb_rate": float,
}

_KNOWN_BLOCKS = ("cumf", "lp", "emb")


@dataclass
class PipelineConfig:
    """Flat key=value run configuration; see ``_CONFIG_DEFAULTS`` for keys."""

    settings: dict[str, str]

    @classmethod
    def from_file(cls, path, overrides: dict[str, str] | None = None
                  ) -> "PipelineConfig":
        settings = dict(_CONFIG_DEFAULTS)
        with _open_text(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, _, value = stripped.partition("=")
                key, value = key.strip(), value.strip()
                if key not in settings:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                settings[key] = value
        for key, value in (overrides or {}).items():
            if key not in settings:
                raise ConfigError(f"override names unknown key {key!r}")
            settings[key] = value
        return cls(settings)

    @classmethod
    def from_settings(cls, **kwargs: str) -> "PipelineConfig":
        settings = dict(_CONFIG_DEFAULTS)
        for key, value in kwargs.items():
            if key not in settings:
                raise ConfigError(f"unknown config key {key!r}")
            settings[key] = str(value)
        return cls(settings)

    def __getitem__(self, key: str) -> str:
        return self.settings[key]

    def value(self, key: str):
        """The setting of a numeric key, converted by ``_CONFIG_TYPES``;
        a malformed value raises ``ConfigError`` naming the key."""
        raw = self.settings[key]
        if raw == "" and _CONFIG_DEFAULTS[key] == "":
            return None
        try:
            return _CONFIG_TYPES[key](raw)
        except ValueError:
            raise ConfigError(f"config key {key!r}: bad value {raw!r}") from None

    def flag(self, key: str) -> bool:
        return self.settings[key] in ("1", "true", "yes", "on")

    def regimes(self) -> list[str]:
        return [r.strip() for r in self["regimes"].split(",") if r.strip()]

    def regime_blocks(self, regime: str) -> list[str]:
        if regime == "all":
            return list(_KNOWN_BLOCKS)
        blocks = regime.split("+")
        for b in blocks:
            if b not in _KNOWN_BLOCKS:
                raise ConfigError(f"unknown feature block {b!r} in regime "
                                  f"{regime!r}")
        return blocks

    def check_inputs(self) -> None:
        """Check every setting a run uses and its input files, so that a
        bad config fails before any stage runs."""
        for key in _CONFIG_TYPES:
            self.value(key)
        for key, known in (("task", ("gender", "age")), ("model", ("lr", "mlp"))):
            if self[key] not in known:
                raise ConfigError(f"unknown {key} {self[key]!r}")
        if self.value("min_degree") < 0:
            raise ConfigError("config key 'min_degree' must be >= 0")
        root = self.value("root_seed")
        _split_spec(self, root).validate()
        _train_hyper(self).validate()
        if self["model"] == "mlp":
            check_hidden(self.value("hidden"))
        needed = {b for r in self.regimes() for b in self.regime_blocks(r)}
        if "lp" in needed:
            if self.value("lp_splits") < 2:
                raise ConfigError("config key 'lp_splits' must be >= 2")
            try:
                _lp_config(self).validate()
            except ConfigError as exc:
                raise ConfigError(f"config lp_alpha/lp_iters: {exc}") from None
        if "emb" in needed:
            try:
                _embed_config(self, root).validate()
            except ConfigError as exc:
                raise ConfigError(f"config emb_* keys: {exc}") from None
        required = {"edges": self["edges"], "labels": self["labels"]}
        if "cumf" in needed:
            required["cumf"] = self["cumf"]
        missing = [key for key, value in required.items() if not value]
        if missing:
            raise ConfigError(f"config is missing required keys: {missing}")
        absent = [value for value in required.values()
                  if value and not Path(value).exists()]
        if absent:
            raise ConfigError(f"input files do not exist: {absent}")


def _split_spec(cfg: PipelineConfig, root: int) -> SplitSpec:
    return SplitSpec(mode=cfg["split"], train_fraction=cfg.value("train_frac"),
                     rng_seed=derive_seed(root, "split"))


def _train_hyper(cfg: PipelineConfig) -> TrainHyper:
    return TrainHyper(rate=cfg.value("rate"), epochs=cfg.value("epochs"),
                      minibatch=cfg.value("minibatch"), l2=cfg.value("l2"))


def _lp_config(cfg: PipelineConfig) -> PropagationConfig:
    return PropagationConfig(alpha=cfg.value("lp_alpha"),
                             iterations=cfg.value("lp_iters"))


def _embed_config(cfg: PipelineConfig, root: int) -> embed.TrainConfig:
    return embed.TrainConfig(
        mode=cfg["emb_mode"], dim=cfg.value("emb_dim"),
        window=cfg.value("emb_window"), negatives=cfg.value("emb_negatives"),
        rate=cfg.value("emb_rate"), epochs=cfg.value("emb_epochs"),
        min_count=cfg.value("emb_min_count"),
        rng_seed=derive_seed(root, "embed"))


def _array_labels(path, num_classes: int, ages: bool):
    """``read_labels`` by array operations, or ``None`` to leave the file to
    the line reader: a file the array edge parse declines (a byte other
    than tab, space, newline and printable ASCII but ``#``, or a non-blank
    line of other than two tokens), one without a row, a label other than
    1 to 18 ASCII digits, a class out of range or a repeated name."""
    with open(path, "rb") as fh:
        raw = fh.read()
    data = np.frombuffer(raw, np.uint8)
    tokens = _pair_tokens(data)
    if tokens is None or not len(tokens[0]):
        return None
    begin, size = tokens[0][1::2], tokens[1][1::2]  # the label tokens
    if size.max() > 18:
        return None
    values = np.zeros(len(begin), np.int64)
    for j in range(size.max()):
        at = np.flatnonzero(size > j)
        digit = data[begin[at] + j] - ord("0")  # a byte below "0" wraps past 9
        if (digit > 9).any():
            return None
        values[at] = values[at] * 10 + digit
    if ages:  # the first bucket whose upper bound reaches the age
        values = np.searchsorted(AGE_BUCKET_UPPER_BOUNDS, values)
    if values.max() >= num_classes:
        return None
    names = raw.decode("ascii").split()[0::2]
    labels = dict(zip(names, values.tolist()))
    return labels if len(labels) == len(names) else None


def read_labels(path, task: str = "gender", ages: bool = False) -> dict[str, int]:
    """Read ``<name><TAB><label>`` truth files as name -> class index.
    Every line is checked; of two lines for one name the first wins.  A
    file that ``_array_labels`` declines goes through the line reader."""
    num_classes, ages = task_classes(task), ages and task != "gender"
    labels = _array_labels(path, num_classes, ages)
    if labels is None:
        labels = {}
        for _, name, value in _label_rows(path, num_classes, ages):
            labels.setdefault(name, value)
    if not labels:
        raise ConfigError(f"{path}: no labels found")
    return labels


def _lp_block(cfg: PipelineConfig, g: Graph, labels: dict[str, int],
              train_names: list[str], n_classes: int,
              root: int) -> FeatureMatrix:
    idx, classes = _rows_and_labels(g._index, labels, train_names)
    if not len(idx):
        raise ConfigError("no training labels fall inside the graph")
    logger.info("lp: %d of %d training labels fall outside the graph",
                len(train_names) - len(idx), len(train_names))
    # Binary labels propagate as one channel, the positive-class share.
    if n_classes == 2:
        seeds = LabelState.from_seed_values(g.node_count, idx,
                                            classes.astype(np.float64))
    else:
        seeds = LabelState.from_seed_classes(g.node_count, idx, classes,
                                             num_classes=n_classes)
    plan = lpfeatures.make_partitions(idx, cfg.value("lp_splits"),
                                      derive_seed(root, "lp-partitions"))
    return lpfeatures.lp_features(g, seeds, plan, _lp_config(cfg)).table(g.names)


def _emb_block(cfg: PipelineConfig, g: Graph, edges_path,
               root: int) -> FeatureMatrix:
    directed = load_directed_edges(edges_path)
    sentences = embed.build_sentences(directed, derive_seed(root, "sentences"),
                                      bidirectional=cfg.flag("emb_bidirectional"))
    table = embed.train_embeddings(sentences, _embed_config(cfg, root))
    table = embed.fill_missing_embeddings(g, table)
    nodes = [t for t in table.tokens if t in g]
    rows = np.stack([table.get(t) for t in nodes]) if nodes else np.zeros((0, table.dim))
    columns = [f"emb_{i}" for i in range(table.dim)]
    return FeatureMatrix(nodes, columns, rows)


def fit_and_score(features: FeatureMatrix, labels: dict[str, int],
                  train_names: list[str], test_names: list[str],
                  n_classes: int, model: str, hidden: list[int],
                  hyper: TrainHyper, balance: bool = False
                  ) -> tuple[list[str], np.ndarray, dict]:
    """Train on the train names that have feature rows, score the test
    names that do, and return (test rows, probabilities, record).

    ``model`` is ``"lr"`` (logistic regression for two classes, softmax
    otherwise) or ``"mlp"`` with ``hidden`` layer widths.  With
    ``balance`` the rows are first class-balanced by an RNG seeded from
    ``derive_seed(hyper.rng_seed, "balance")``.  The record holds
    ``n_train``, ``n_test`` and the ``evaluate`` metrics.
    """
    train_rows, y = _rows_and_labels(features._row, labels, train_names)
    test_rows, y_test = _rows_and_labels(features._row, labels, test_names)
    if not len(train_rows) or not len(test_rows):
        raise ConfigError("empty train or test side after joining features")
    x = features.values[train_rows]
    if balance:
        keep = balance_classes(y, np.random.default_rng(
            derive_seed(hyper.rng_seed, "balance")))
        x, y = x[keep], y[keep]
    if model == "mlp":
        params = train_mlp(x, y, hidden, n_classes=n_classes, hyper=hyper)
    elif model == "lr" and n_classes == 2:
        params = train_logistic(x, y, hyper)
    elif model == "lr":
        params = train_softmax(x, y, n_classes, hyper)
    else:
        raise ConfigError(f"unknown model {model!r}")
    del x  # free the train matrix before predict allocates its activations
    probs = predict(params, features.values[test_rows])
    metrics = evaluate(probs, y_test)
    return ([features.nodes[i] for i in test_rows.tolist()], probs,
            {"n_train": len(train_rows), "n_test": len(test_rows), **metrics})


def _rows_and_labels(row_of: dict[str, int], labels: dict[str, int],
                     names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The rows in ``row_of`` and the labels of those ``names`` that have
    a row, in name order."""
    rows = row_indices(row_of, names)
    inside = rows >= 0
    y = np.fromiter((labels[n] for n in compress(names, inside)),
                    dtype=np.int64, count=int(inside.sum()))
    return rows[inside], y


def run_pipeline(cfg: PipelineConfig) -> list[dict]:
    """Ingest, feature generation, training, and evaluation per regime.

    Returns one metrics record per regime; writes them as JSON lines when
    the config names an ``out`` path.  Identical config and root seed give
    byte-identical reports.
    """
    cfg.check_inputs()
    root = cfg.value("root_seed")
    task = cfg["task"]
    n_classes = task_classes(task)
    g = load_edge_list(cfg["edges"], min_degree=cfg.value("min_degree"))
    labels = read_labels(cfg["labels"], task, cfg.flag("ages"))

    train_names, test_names = split(list(labels), _split_spec(cfg, root))

    regimes = [(r, cfg.regime_blocks(r)) for r in cfg.regimes()]
    needed = {b for _, names in regimes for b in names}
    blocks: dict[str, FeatureMatrix] = {}
    if "cumf" in needed:
        blocks["cumf"] = FeatureMatrix.from_csv(cfg["cumf"])
    if "lp" in needed:
        blocks["lp"] = _lp_block(cfg, g, labels, train_names, n_classes, root)
    if "emb" in needed:
        blocks["emb"] = _emb_block(cfg, g, cfg["edges"], root)
    del g  # no later stage reads the graph
    for b in blocks:
        logger.info("block %r: %d rows x %d columns, %.1f MB", b,
                    *blocks[b].values.shape, blocks[b].values.nbytes / 2 ** 20)

    hyper = _train_hyper(cfg)
    records = []
    for i, (regime, names) in enumerate(regimes):
        features = join_features({b: blocks[b] for b in names})
        # Free each block that no later regime reads before this one trains.
        for b in set(names).difference(*(later for _, later in regimes[i + 1:])):
            del blocks[b]
        try:
            _, _, scores = fit_and_score(
                features, labels, train_names, test_names, n_classes,
                cfg["model"], cfg.value("hidden"),
                replace(hyper, rng_seed=derive_seed(root, f"train:{regime}")),
                cfg.flag("balance"))
        except ConfigError as exc:
            raise ConfigError(f"regime {regime!r}: {exc}") from None
        del features  # free this join before the next regime joins
        records.append({"regime": regime, **scores})

    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
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
