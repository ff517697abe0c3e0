"""The benchmark's workload set-ups run against the package's API.

``perfbench/worker.py`` builds each workload from the package's public
functions (``read_labels``, ``Graph.index_of``, ``read_seed_labels``, the
CLI), so a change to one of them breaks the benchmark before any figure is
taken.  The worker is imported in a fresh interpreter, as the benchmark
starts it, and ``sweep`` runs on a smaller graph; ``pipeline-age`` is
covered by ``test_probe.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT / "perfbench",
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    first, second = out["sweep"]
    assert first["rows"] == 50 and first["row_errors"] == 0
    assert 0.5 < first["auc"] <= 1.0
    assert first["digest"] == second["digest"]
    first, second = out["pipeline-emb"]
    assert 0.5 < first["auc"] <= 1.0
    assert first["digest"] == second["digest"]
