"""demograph benchmark: three closed-loop batch workloads, one call at a time.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each repetition is a fresh ``perfbench/worker.py`` process that makes the
workload's inputs from ``--seed``, then times one call into the program
(see ``worker.py`` for the workloads).  Repetitions run one at a time until
``--seconds`` have passed, and at least twice, because the second call checks
that a rerun on the same seed gives byte-identical records.

``--trace 0`` prints the end-to-end metrics (medians over repetitions):

* ``run_s``: wall time of the timed call.
* ``setup_s``: input generation, plus ingest on ``sweep``.
* ``peak_rss_mb``: peak RSS of the repetition's process.
* ``quality``: the workload's result quality (``QUALITY`` below): the
  mean AUC over all 50 grid rows on ``sweep``, the accuracy of the
  ``cumf+lp`` regime on ``pipeline-age``, the AUC of the ``emb`` regime on
  ``pipeline-emb``.

``--trace 1`` traces every repetition and prints the medians of the
per-layer metrics of ``spans.layer_metrics``, ``trace.overhead_s`` (the
recorder's estimated cost to the timed call) among them.

Output checks never abort a run; each failed one counts in ``failed``:
every timed call must succeed, every ``sweep`` grid row must be free of
errors, the quality figure must reach its floor, reruns must give
byte-identical records, and in a traced run the layer self times must add
up to the worker's own timing of the call, within ``SELF_TIME_TOLERANCE``.
The line before the last one repeats the end-to-end figures by the names
``auc``, ``accuracy`` and ``fail_frac`` (from the traced repetitions under
``--trace 1``) together with the per-repetition values and the
environment; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "pipeline-age", "pipeline-emb")
MIN_REPS = 2
# A run must end within 180 s; no repetition may start past this point.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Result figure per workload and its floor, just under the range measured
# when the benchmark was added (seeds 1-10 and 1000: sweep AUC 0.9338-0.9364,
# pipeline-age accuracy 0.9816-0.9848; seeds 1-18 and 1000: pipeline-emb
# AUC 0.970-0.9998).
QUALITY = {"sweep": ("auc", 0.92),
           "pipeline-age": ("accuracy", 0.97),
           "pipeline-emb": ("auc", 0.94)}
# Share of the call's time that the root span and its children may miss.
SELF_TIME_TOLERANCE = 0.01


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: "1" for var in THREAD_VARS}}


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _repetition(workload: str, seed: int, trace: int, rep_dir: Path,
                deadline: float) -> dict | None:
    """Run one worker process; None when it fails or overruns."""
    out = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(rep_dir), "--trace", str(trace),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"repetition timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"repetition failed ({proc.returncode}): {' '.join(cmd)}",
              file=sys.stderr)
        return None
    return json.loads(out.read_text())


def _median(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "demograph" / "__init__.py").is_file():
        print(f"no demograph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from spans import layer_metrics
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    reps: list[dict | None] = []
    try:
        while True:
            rep_dir = work / f"rep{len(reps)}"
            rep_dir.mkdir(parents=True)
            began = time.monotonic()
            reps.append(_repetition(args.workload, args.seed, args.trace,
                                    rep_dir, deadline))
            now = time.monotonic()
            enough = len(reps) >= MIN_REPS and now - start >= args.seconds
            if enough or now + (now - began) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_parent = work.parent
        if with_parent.is_dir() and not any(with_parent.iterdir()):
            with_parent.rmdir()

    quality_name, floor = QUALITY[args.workload]
    attempted = failed = 0
    digests = []
    ok = [r for r in reps if r is not None]
    for r in reps:
        attempted += 1
        if r is None:
            failed += 1
            continue
        attempted += r.get("rows", 0) + 1
        failed += r.get("row_errors", 0)
        value = r.get(quality_name)
        failed += value is None or value < floor
        digests.append(r["digest"])
    attempted += max(len(digests) - 1, 0)
    failed += sum(d != digests[0] for d in digests[1:])

    if not ok:
        print(f"{args.workload}: no repetition completed", file=sys.stderr)
        return 1
    scores = [r[quality_name] for r in ok if r[quality_name] is not None]
    quality = _median(scores) if scores else 0.0
    end_to_end = {
        "run_s": _median(r["run_s"] for r in ok),
        "setup_s": _median(r["setup_s"] for r in ok),
        "peak_rss_mb": _median(r["rss_mb"] for r in ok),
        "quality": quality,
    }
    if args.trace:
        tables = []
        for r in ok:
            table = layer_metrics(r["trace"], r["root_span"])
            self_sum = sum(v for k, v in table.items() if k.endswith(".self_s"))
            attempted += 1
            failed += abs(self_sum - r["run_s"]) > SELF_TIME_TOLERANCE * r["run_s"]
            tables.append(table)
        metrics = {name: _median(t[name] for t in tables) for name in tables[0]}
    else:
        metrics = end_to_end

    units.update({quality_name: "ratio", "fail_frac": "ratio"})

    def with_units(values: dict) -> dict:
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    named = {**end_to_end, quality_name: quality, "fail_frac": failed / attempted}
    detail = {"workload": args.workload, "seed": args.seed,
              "environment": _environment(), "metrics": with_units(named),
              "traced": args.trace,
              "repetitions": [
                  None if r is None else
                  {k: r[k] for k in (
                      "setup_s", "run_s", "rss_mb", "gen_rss_mb", quality_name)}
                  for r in reps]}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": with_units(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
