"""Probe one pipeline-age run at a multiple of the benchmark's graph size.

Usage, from the root of a source checkout::

    python3 scripts/probe.py --probe age-5x --seed 1

``age-1x`` is the graph of the benchmark's pipeline-age workload
(``perfbench/worker.py``: 7 classes of 14,286 nodes, mean degree 18.8), and
``age-5x`` and ``age-10x`` the same spec with five and ten times the nodes,
all run with that workload's settings and BLAS at one thread, as
``perfbench/run.py`` runs them.  Set-up writes the inputs from ``--seed``
to a temporary directory; the timed call is ``run_pipeline`` under the
span recorder of ``perfbench/spans.py``.  One JSON line is printed:

* ``setup_s`` and ``run_s``;
* the process's VmHWM in MB after set-up (``setup_hwm_mb``) and at the end
  (``end_hwm_mb``);
* ``stages``, the ``[span, VmHWM]`` of each call that ``run_pipeline``
  made, read when it returned: the largest of the stages up to it;
* ``stage_peaks``, the ``[span, MB]`` of each of those calls, its own peak
  resident size, sampled from ``/proc/self/statm`` every ``SAMPLE_S``
  seconds on a thread (``null`` for a call that no sample fell in), so a
  stage just below the process's peak shows too;
* the ``digest`` of the records file, as the benchmark worker computes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import THREAD_VARS  # noqa: E402

# BLAS reads its thread count when numpy is first imported.
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import demograph.pipeline as pipeline  # noqa: E402
import worker  # noqa: E402
from spans import Recorder  # noqa: E402

PROBES = {f"age-{k}x": replace(worker.AGE_GRAPH,
                               per_class=k * worker.AGE_GRAPH.per_class)
          for k in (1, 5, 10)}

SAMPLE_S = 0.0005


class RssSampler:
    """Samples the process's resident size on a thread until stopped."""

    def __init__(self):
        self.times, self.mb = [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        page_mb = os.sysconf("SC_PAGE_SIZE") / 2 ** 20
        fd = os.open("/proc/self/statm", os.O_RDONLY)
        try:
            while not self._stop.wait(SAMPLE_S):
                resident = int(os.pread(fd, 64, 0).split()[1])
                self.times.append(time.perf_counter())
                self.mb.append(resident * page_mb)
        finally:
            os.close(fd)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def peak(self, start: float, end: float) -> float | None:
        """The largest sample taken from ``start`` to ``end``."""
        inside = [mb for t, mb in zip(self.times, self.mb) if start <= t <= end]
        return round(max(inside), 1) if inside else None


def run_probe(spec, seed: int, work: Path) -> dict:
    """Set up and run pipeline-age on the graph of ``spec`` in ``work``."""
    recorder = Recorder()
    recorder.install()
    start = time.perf_counter()
    paths = worker._sparse_inputs(spec, seed, work)
    out = work / "metrics.jsonl"
    cfg = pipeline.PipelineConfig.from_settings(
        edges=paths["edges"], labels=paths["truth"], cumf=paths["cumf"],
        root_seed=seed, out=out, **worker.AGE_SETTINGS)
    setup_hwm = worker._rss_mb()
    with RssSampler() as sampler:
        ready = time.perf_counter()
        pipeline.run_pipeline(cfg)
        done = time.perf_counter()
    root = next(i for i, s in enumerate(recorder.spans)
                if s.name == "pipeline.run_pipeline")
    stages = [s for s in recorder.spans if s.parent == root]
    return {"setup_s": round(ready - start, 3), "run_s": round(done - ready, 3),
            "setup_hwm_mb": round(setup_hwm, 1),
            "end_hwm_mb": round(worker._rss_mb(), 1),
            "stages": [[s.name, round(s.rss_mb, 1)] for s in stages],
            "stage_peaks": [[s.name, sampler.peak(s.start, s.end)]
                            for s in stages],
            "digest": worker._digest(out.read_bytes())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", required=True, choices=sorted(PROBES))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="probe-") as work:
        result = run_probe(PROBES[args.probe], args.seed, Path(work))
    print(json.dumps({"probe": args.probe, "seed": args.seed, **result}))


if __name__ == "__main__":
    main()
