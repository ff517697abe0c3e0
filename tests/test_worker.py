"""The benchmark's workload set-ups run against the package's API.

``perfbench/worker.py`` builds each workload from the package's public
functions (``read_labels``, ``Graph.index_of``, ``read_seed_labels``, the
CLI), so a change to one of them breaks the benchmark before any figure is
taken.  The worker is imported in a fresh interpreter, as the benchmark
starts it, and ``sweep`` runs on a smaller graph; ``pipeline-age`` is
covered by ``test_probe.py``.  The full-size seed-1 ``pipeline-emb`` digest
is pinned, so a bit change to the word2vec trainer fails here, and so is
the seed-1 digest of the small sweep, so a bit change to the propagation
engine or to the AUC fails here too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from demograph.graph import load_edge_list
from demograph.labelprop import read_seed_labels
from demograph.pipeline import read_labels
from demograph.synth import SynthData, write_outputs

ROOT = Path(__file__).resolve().parents[1]
# The seed-1 pipeline-emb digest (full size) with one BLAS thread, as
# perfbench/run.py runs it: any bit change to the trainer moves it.
EMB_SEED_1_DIGEST = (
    "f8b48a89615b15ec00579e6128cfb8e24ed199d543cdfce7569e7ff6978395be")
# The seed-1 sweep digest at per_class=300, the graph SCRIPT runs.
SWEEP_SEED_1_DIGEST = (
    "d591e1f11dea3d2c6591d41cfdb0479d88d473a299836e5c65d460b99083852d")

SCRIPT = """
import json, sys
from dataclasses import replace
from pathlib import Path
import worker
worker.SWEEP_GRAPH = replace(worker.SWEEP_GRAPH, per_class=300)
out = {}
for name in ("sweep", "pipeline-emb"):
    out[name] = []
    for rep in range(2):
        result = {}
        call, summarize = worker.WORKLOADS[name](
            1, Path(sys.argv[1]) / f"{name}-{rep}", result)
        summarize(call())
        out[name].append(result)
print(json.dumps(out))
"""


def test_sweep_and_emb_set_ups_run_and_repeat(tmp_path):
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths),
           **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS"), "1")}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT / "perfbench",
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    first, second = out["sweep"]
    assert first["rows"] == 50 and first["row_errors"] == 0
    assert 0.5 < first["auc"] <= 1.0
    assert first["digest"] == second["digest"]
    assert first["digest"] == SWEEP_SEED_1_DIGEST
    first, second = out["pipeline-emb"]
    assert 0.5 < first["auc"] <= 1.0
    assert first["digest"] == second["digest"]
    assert first["digest"] == EMB_SEED_1_DIGEST


def test_benchmark_calls_on_tiny_inputs(tmp_path):
    # The calls of the sweep set-up in perfbench/worker.py and of
    # perfbench/test_perfbench_sampler.py, on files of the sampler's form:
    # the keys of read_labels and the elements of Graph.names are one type,
    # Graph.index_of takes both them and text, and a name's digits parse.
    names = [f"u{i:06d}" for i in range(6)]
    data = SynthData(names, np.array([0, 1, 0, 1, 1, 0]), np.array([1, 4]),
                     np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]),
                     np.eye(2)[[0, 1, 0, 1, 1, 0]])
    paths = write_outputs(data, tmp_path)
    g = load_edge_list(paths["edges"])
    truth = np.full(g.node_count, -1, dtype=np.int64)
    for name, value in read_labels(paths["truth"]).items():
        truth[g.index_of(name)] = value
    assert truth.tolist() == data.truth.tolist()
    seeds = read_seed_labels(paths["seeds"], g)
    assert np.flatnonzero(seeds.is_seed).tolist() == [1, 4]
    labels = read_labels(paths["truth"])
    assert [labels[name] for name in g.names] == data.truth.tolist()
    assert [int(name[1:]) for name in g.names] == list(range(6))
    index = g._index
    assert g.index_of("u000003") == g.index_of(b"u000003") == 3
    assert g._index is index and len(index) == 6
