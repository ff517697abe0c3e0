"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the ``demograph`` layers without
touching the package source: each wrapper is rebound in every
``demograph.*`` module namespace that holds the original, because modules
such as ``pipeline`` and ``lpfeatures`` import these names directly.  Every
call then records a span (name, start, end, parent) plus counts taken from
its arguments and return value.  Spans stay in memory until the run ends.

``layer_metrics`` turns a span list into the per-layer metrics; a span's
self time is its duration minus the durations of its direct children
(calls are nested and sequential, so children never overlap).

The recorder's own cost is estimated where host noise cannot reach it:
``Recorder.span_cost`` times the wrapper around a no-op against the bare
no-op over many calls, and each span also records how long its counts
took to compute.
"""

from __future__ import annotations

import importlib
import inspect
import logging
import resource
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("graph", "labelprop", "lpfeatures", "embed", "model", "pipeline",
          "synth", "cli")

ENGINE = ("labelprop.propagate", "labelprop.propagate_trace",
          "labelprop.propagate_beta", "labelprop.propagate_gamma",
          "labelprop.propagate_multiclass")

# Calls per timing and timings taken when estimating the cost of one span.
COST_CALLS = 20_000
COST_ROUNDS = 5


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    rss_mb: float = 0.0
    counts: dict = field(default_factory=dict)
    counts_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _engine_counts(a: dict, result) -> dict:
    """Arc visits of one engine call: arcs x supersteps x channels."""
    g = a["g"]
    if "checkpoints" in a:
        steps = max(int(k) for k in a["checkpoints"])
    elif "cfg" in a:
        steps = a["cfg"].iterations
    else:
        steps = a["iterations"]
    if "num_classes" in a:
        channels = a["num_classes"]
    elif "gamma" in a or getattr(a.get("cfg"), "strategy", "") == "gamma":
        channels = 2 * a["seeds"].num_classes
    else:
        channels = a["seeds"].num_classes
    return {"arc_steps": int(g.indices.size) * int(steps) * int(channels)}


def _graph_counts(a: dict, g) -> dict:
    return {"nodes": g.node_count, "arcs": int(g.indices.size),
            "edges": g.edge_count}


def _train_counts(a: dict, result) -> dict:
    hyper = a.get("hyper")
    epochs = hyper.epochs if hyper is not None else 4
    return {"rows": len(a["labels"]) * epochs}


# (module, attribute, span name, counts(bound arguments, result) or None)
TARGETS = [
    ("demograph.graph", "load_edge_list", "graph.load_edge_list", _graph_counts),
    ("demograph.graph", "load_directed_edges", "graph.load_directed_edges", None),
    *[("demograph.labelprop", name.split(".")[1], name, _engine_counts)
      for name in ENGINE],
    ("demograph.labelprop", "read_seed_labels", "labelprop.read_seed_labels", None),
    ("demograph.lpfeatures", "make_partitions", "lpfeatures.make_partitions", None),
    ("demograph.lpfeatures", "lp_features", "lpfeatures.lp_features",
     lambda a, r: {"labeled": len(a["plan"].assignment)}),
    ("demograph.embed", "build_sentences", "embed.build_sentences",
     lambda a, r: {"tokens": sum(len(s) for s in r)}),
    ("demograph.embed", "train_embeddings", "embed.train_embeddings", None),
    ("demograph.embed", "fill_missing_embeddings", "embed.fill_missing_embeddings",
     lambda a, r: {"filled": len(r.tokens) - len(a["table"].tokens)}),
    ("demograph.model", "split", "model.split", None),
    ("demograph.model", "FeatureMatrix.from_csv", "model.from_csv", None),
    ("demograph.model", "join_features", "model.join_features", None),
    ("demograph.model", "train_logistic", "model.train", _train_counts),
    ("demograph.model", "train_softmax", "model.train", _train_counts),
    ("demograph.model", "train_mlp", "model.train", _train_counts),
    ("demograph.model", "predict", "model.predict", None),
    ("demograph.model", "evaluate", "model.evaluate", None),
    ("demograph.model", "auc_rank", "model.auc_rank", None),
    ("demograph.pipeline", "read_labels", "pipeline.read_labels", None),
    ("demograph.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("demograph.pipeline", "run_sensitivity", "pipeline.run_sensitivity", None),
    ("demograph.synth", "generate", "synth.generate", None),
    ("demograph.synth", "write_outputs", "synth.write_outputs", None),
    ("demograph.cli", "main", "cli.main", None),
]


class _PairsHandler(logging.Handler):
    """Reads the pair count from the trainer's 'trained ... pairs' line."""

    def __init__(self, recorder: "Recorder"):
        super().__init__(logging.INFO)
        self.recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("trained") and record.args:
            self.recorder.pairs += int(record.args[-1])


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.pairs = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.rss_mb = _rss_mb()
            if counts is not None:
                began = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counts(bound.arguments, result)
                span.counts_s = time.perf_counter() - began
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def span_cost() -> float:
        """Seconds one span adds to a call, counts aside: the best of
        ``COST_ROUNDS`` timings of a wrapped no-op against the bare no-op."""
        def noop():
            return None

        traced = Recorder().wrap("noop", noop)
        best = float("inf")
        for _ in range(COST_ROUNDS):
            start = time.perf_counter()
            for _ in range(COST_CALLS):
                noop()
            bare = time.perf_counter()
            for _ in range(COST_CALLS):
                traced()
            best = min(best, (time.perf_counter() - bare) - (bare - start))
        return max(best, 0.0) / COST_CALLS

    def install(self) -> None:
        """Rebind every target in each ``demograph`` module that holds it."""
        modules = {m: importlib.import_module(m) for m, _, _, _ in TARGETS}
        for module_name, attr, name, counts in TARGETS:
            module = modules[module_name]
            if "." in attr:  # a classmethod: rebinding on the class suffices
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, original, counts)))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "demograph" or mod_name.startswith("demograph."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
        embed_log = logging.getLogger("demograph.embed")
        embed_log.setLevel(logging.INFO)
        embed_log.propagate = False
        embed_log.addHandler(_PairsHandler(self))

    def to_json(self) -> dict:
        return {"pairs": self.pairs, "span_cost_s": self.span_cost(),
                "spans": [[s.name, s.parent, s.start, s.end, s.rss_mb, s.counts,
                           s.counts_s] for s in self.spans]}


def _load(trace: dict) -> list[Span]:
    return [Span(*fields) for fields in trace["spans"]]


def layer_metrics(trace: dict, root_name: str) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``<layer>.self_s`` sums self time over the spans inside the timed call
    (the last top-level span named ``root_name``), so the eight of them add
    up to ``trace.run_s``.  The other timings cover every call in the run,
    set-up included: ``labelprop.engine_s`` counts outermost engine calls
    only, and ``model.eval_s`` is evaluation without its nested AUC calls.
    ``trace.overhead_s`` is what the recorder added to the timed call: its
    spans times ``span_cost_s`` plus their counts time.
    """
    spans = _load(trace)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_time = [s.duration - c for s, c in zip(spans, child_time)]

    def ancestors(i):
        while spans[i].parent >= 0:
            i = spans[i].parent
            yield i

    root = max(i for i, s in enumerate(spans)
               if s.name == root_name and s.parent < 0)
    inside = [i == root or root in ancestors(i) for i in range(len(spans))]

    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def total(*names):
        return sum(spans[i].duration for i in named(*names))

    def self_total(*names):
        return sum(self_time[i] for i in named(*names))

    def count(key, *names):
        return sum(spans[i].counts.get(key, 0) for i in named(*names))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    engines = [i for i in named(*ENGINE)
               if not any(spans[a].name in ENGINE for a in ancestors(i))]
    engine_s = sum(spans[i].duration for i in engines)
    arc_steps = sum(spans[i].counts["arc_steps"] for i in engines)
    blocks = named("lpfeatures.lp_features")
    nested = [i for i in engines
              if any(spans[a].name == "lpfeatures.lp_features" for a in ancestors(i))]
    ingest_s = total("graph.load_edge_list")
    ingests = named("graph.load_edge_list")
    last_graph = spans[ingests[-1]].counts if ingests else {}
    leave_out_s = self_total("lpfeatures.lp_features")
    train_s = total("model.train")
    embed_train_s = total("embed.train_embeddings")

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if inside[i]:
            out[s.name.split(".")[0] + ".self_s"] += self_time[i]
    out.update({
        "graph.ingest_s": ingest_s,
        "graph.ingest_edges_per_s": rate(count("edges", "graph.load_edge_list"),
                                         ingest_s),
        "graph.ingest_rss_mb": max((spans[i].rss_mb for i in ingests), default=0.0),
        "graph.directed_ingest_s": total("graph.load_directed_edges"),
        "graph.nodes": last_graph.get("nodes", 0),
        "graph.arcs": last_graph.get("arcs", 0),
        "labelprop.engine_s": engine_s,
        "labelprop.engine_calls": len(engines),
        "labelprop.arc_steps": arc_steps,
        "labelprop.arc_steps_per_s": rate(arc_steps, engine_s),
        "labelprop.read_seeds_s": total("labelprop.read_seed_labels"),
        "lpfeatures.engine_calls": len(nested) / len(blocks) if blocks else 0.0,
        "lpfeatures.labeled_rows_per_s": rate(
            count("labeled", "lpfeatures.lp_features"), leave_out_s),
        "embed.sentences_s": total("embed.build_sentences"),
        "embed.sentence_tokens": count("tokens", "embed.build_sentences"),
        "embed.train_s": embed_train_s,
        "embed.pairs": trace["pairs"],
        "embed.pairs_per_s": rate(trace["pairs"], embed_train_s),
        "embed.coldstart_s": total("embed.fill_missing_embeddings"),
        "embed.coldstart_filled": count("filled", "embed.fill_missing_embeddings"),
        "model.split_s": total("model.split"),
        "model.csv_read_s": total("model.from_csv"),
        "model.join_s": total("model.join_features"),
        "model.train_s": train_s,
        "model.train_rows_per_s": rate(count("rows", "model.train"), train_s),
        "model.predict_s": total("model.predict"),
        "model.eval_s": self_total("model.evaluate"),
        "model.auc_s": total("model.auc_rank"),
        "model.auc_calls": len(named("model.auc_rank")),
        "pipeline.read_labels_s": total("pipeline.read_labels"),
        "synth.generate_s": total("synth.generate"),
        "synth.write_s": total("synth.write_outputs"),
        "trace.run_s": spans[root].duration,
        "trace.overhead_s": sum(trace["span_cost_s"] + spans[i].counts_s
                                for i in range(len(spans)) if inside[i]),
    })
    return out
