"""Measure the benchmark's baseline and its spread over workload seeds.

Usage, from the root of a source checkout::

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For every workload in ``BENCHMARK.json`` this runs ``run.py --trace 0``
once per seed in ``SEEDS`` and once on ``HELD_OUT``, then ``run.py
--trace 1`` once on the first seed, one process at a time.  It records the
per-seed figures, and per end-to-end metric the median, quartiles, sample
count and spread (interquartile range over median) of the per-seed values,
the held-out results and the traced per-layer table, and prints each
spread next to its bound from ``BENCHMARK.json``.

``--repeat`` runs the per-seed set again into an existing report, stores it
as ``repeat`` and prints by how much each repeated median is worse than
the first one, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
HELD_OUT = 1000

# The ROADMAP open item each layer's metrics serve.
ROADMAP_ITEMS = {
    "graph": "item 3: one I/O layer, faster ingest",
    "labelprop": "item 4: batched propagation engine",
    "lpfeatures": "item 4: one engine call per lp-feature block",
    "embed": "item 5: minibatched word2vec, vectorized cold start",
    "model": "item 3 (CSV read, join) and item 5 (classifier loss, AUC)",
    "pipeline": "item 2: spans and glue time per stage",
    "synth": "item 1: O(edges) generator",
    "cli": "item 2: CLI logging and run report",
    "trace": "item 2: cost of the span recorder itself",
}


def _run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, dict]:
    """One ``run.py`` invocation: (detail line, result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def _figures(detail: dict, result: dict, quality_name: str) -> dict:
    """A run's correctness counts and end-to-end figures, quality once."""
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{k: v["value"] for k, v in detail["metrics"].items()
               if k != quality_name}}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    from run import QUALITY
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["roadmap_items"] = ROADMAP_ITEMS
    workloads = report.setdefault("workloads", {})
    for workload in bench["workloads"]:
        name = workload["name"]
        quality_name = QUALITY[name][0]
        per_seed = {}
        for seed in SEEDS:
            per_seed[seed] = _figures(*_run(name, seed, 0, seconds), quality_name)
            print(name, seed, json.dumps(per_seed[seed]), flush=True)
        end_to_end = {m: _summary([r[m] for r in per_seed.values()]) for m in bounds}
        if args.repeat:
            first = workloads[name]["end_to_end"]
            workloads[name]["repeat"] = {"end_to_end": end_to_end,
                                         "per_seed": per_seed}
            for metric, stats in end_to_end.items():
                change = stats["median"] / first[metric]["median"] - 1
                worse = change if lower_is_better[metric] else -change
                print(f"{name:14s}{metric:13s} repeat median {stats['median']:.6g} "
                      f"worse by {worse:+.3f} spread {stats['spread']:.3f} "
                      f"bound {bounds[metric]}", flush=True)
            args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
            continue
        held_detail, held_result = _run(name, HELD_OUT, 0, seconds)
        _, traced = _run(name, SEEDS[0], 1, seconds)
        workloads[name] = {
            "why": workload["why"],
            "quality_is": quality_name,
            "environment": held_detail["environment"],
            "end_to_end": end_to_end,
            "per_seed": per_seed,
            "held_out": {"seed": HELD_OUT,
                         **_figures(held_detail, held_result, quality_name)},
            "per_layer": {"seed": SEEDS[0], "correct": traced["correct"],
                          **{k: v["value"] for k, v in traced["metrics"].items()}},
        }
        for metric, stats in end_to_end.items():
            print(f"{name:14s}{metric:13s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.3f} bound {bounds[metric]}",
                  flush=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
