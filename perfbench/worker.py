"""One benchmark repetition in a fresh process: set up, then one timed call.

Usage (``run.py`` starts it; ``PYTHONPATH`` must reach ``src``)::

    python3 perfbench/worker.py --workload sweep --seed 1 --dir WORK \
        --trace 0 --out result.json

Set-up makes the workload's input files from the seed under ``--dir`` (and,
on ``sweep``, ingests them); the timed call is the program's entry point.
The result file holds the set-up and call times, the process's peak RSS,
the quality figures, a digest of the program's records and, with
``--trace 1``, the recorded spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import demograph.cli as cli  # noqa: E402
import demograph.graph as graph  # noqa: E402
import demograph.labelprop as labelprop  # noqa: E402
import demograph.pipeline as pipeline  # noqa: E402
import demograph.synth as synth  # noqa: E402
from sampler import SparseSpec, sample  # noqa: E402
from spans import Recorder  # noqa: E402

# 2 classes, 100k nodes, ~800k edges, a quarter of them between classes.
SWEEP_GRAPH = SparseSpec(classes=2, per_class=50_000, mean_degree=16.0,
                         inter_share=0.25, reveal=0.1, noise=1.5)
SWEEP_GRID = pipeline.ExperimentGrid(
    strategies=["alpha", "beta", "gamma"], alphas=[0.2, 0.5, 0.8],
    betas=[0.8], gammas=[0.9], ks=list(range(1, 11)))
# 7 classes, ~100k nodes, ~940k edges, 45% of them between classes.
AGE_GRAPH = SparseSpec(classes=7, per_class=14_286, mean_degree=18.8,
                       inter_share=0.45, reveal=0.1, noise=1.5)
AGE_SETTINGS = dict(task="age", min_degree="2", regimes="cumf,cumf+lp",
                    lp_splits="3", lp_iters="3", model="mlp", hidden="64,64",
                    epochs="4", minibatch="256")
# 2 x 400 nodes, mean degree ~10.4, ~12% of the edges between classes: the
# emb AUC sits near 0.99, where one seed's luck moves it by about 1%.
EMB_GRAPH = dict(per_class=400, classes=2, p=0.023, q=0.003, noise=1.5)
EMB_SETTINGS = dict(regimes="emb,cumf+emb", emb_bidirectional="1",
                    emb_dim="16", emb_window="5", emb_epochs="5",
                    emb_rate="0.05", emb_min_count="5", model="lr",
                    epochs="80", minibatch="32", rate="0.5")

SETUP_REPEATS = 5
SETUP_BUDGET_S = 1.0

# Name of the span that wraps each workload's timed call.
ROOT_SPAN = {"sweep": "pipeline.run_sensitivity",
             "pipeline-age": "pipeline.run_pipeline",
             "pipeline-emb": "cli.main"}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sparse_inputs(spec: SparseSpec, seed: int, work: Path) -> dict:
    return synth.write_outputs(sample(spec, seed), work)


def sweep(seed: int, work: Path, result: dict):
    paths = _sparse_inputs(SWEEP_GRAPH, seed, work)
    result["gen_rss_mb"] = _rss_mb()
    g = graph.load_edge_list(paths["edges"])
    truth = np.full(g.node_count, -1, dtype=np.int64)
    for name, value in pipeline.read_labels(paths["truth"]).items():
        truth[g.index_of(name)] = value
    seeds = labelprop.read_seed_labels(paths["seeds"], g)

    def call():
        return pipeline.run_sensitivity(g, truth, SWEEP_GRID, seeds=seeds,
                                        workers=1)

    def summarize(rows):
        aucs = [r["auc"] for r in rows if r["auc"] is not None]
        result.update(
            rows=len(rows), row_errors=sum(1 for r in rows if r["error"]),
            auc=float(np.mean(aucs)) if aucs else None,
            digest=_digest(json.dumps(rows, sort_keys=True).encode()))
    return call, summarize


def pipeline_age(seed: int, work: Path, result: dict):
    paths = _sparse_inputs(AGE_GRAPH, seed, work)
    result["gen_rss_mb"] = _rss_mb()
    out = work / "metrics.jsonl"
    cfg = pipeline.PipelineConfig.from_settings(
        edges=paths["edges"], labels=paths["truth"], cumf=paths["cumf"],
        root_seed=seed, out=out, **AGE_SETTINGS)

    def call():
        return pipeline.run_pipeline(cfg)

    def summarize(records):
        by_regime = {r["regime"]: r for r in records}
        result.update(accuracy=by_regime["cumf+lp"]["accuracy"],
                      digest=_digest(out.read_bytes()))
    return call, summarize


def pipeline_emb(seed: int, work: Path, result: dict):
    spec = synth.PlantedGraphSpec(**EMB_GRAPH, rng_seed=seed)
    paths = synth.write_outputs(synth.generate(spec), work)
    result["gen_rss_mb"] = _rss_mb()
    out = work / "metrics.jsonl"
    settings = dict(edges=paths["edges"], labels=paths["truth"],
                    cumf=paths["cumf"], root_seed=seed, out=out, **EMB_SETTINGS)
    config = work / "run.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["pipeline", "--config", str(config)])

    def summarize(code):
        if code != 0:
            raise RuntimeError(f"demograph pipeline exited with {code}")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        by_regime = {r["regime"]: r for r in records}
        result.update(auc=by_regime["emb"]["auc"],
                      digest=_digest(out.read_bytes()))
    return call, summarize


WORKLOADS = {"sweep": sweep, "pipeline-age": pipeline_age,
             "pipeline-emb": pipeline_emb}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    recorder = Recorder()
    if args.trace:
        recorder.install()
    # A set-up shorter than SETUP_BUDGET_S is repeated, and its median
    # reported, so that timer noise does not swamp it.
    setups: list[float] = []
    while True:
        result: dict = {}
        start = time.perf_counter()
        call, summarize = WORKLOADS[args.workload](args.seed, args.dir, result)
        setups.append(time.perf_counter() - start)
        if (args.trace or len(setups) == SETUP_REPEATS
                or sum(setups) >= SETUP_BUDGET_S):
            break
    ready = time.perf_counter()
    output = call()
    done = time.perf_counter()
    result.update(setup_s=statistics.median(setups), setups=len(setups),
                  run_s=done - ready, rss_mb=_rss_mb())
    summarize(output)
    if args.trace:
        result.update(trace=recorder.to_json(),
                      root_span=ROOT_SPAN[args.workload])
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
