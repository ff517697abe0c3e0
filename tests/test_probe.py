"""``scripts/probe.py`` runs end to end on a small graph.

The probe installs the benchmark's span recorder, which rebinds the
package's functions for the rest of the process, so it runs in a fresh
interpreter.  The seed-1 digest of the small age probe is pinned, so a
change on the 7-channel propagation path (or elsewhere in the age
pipeline) that reaches its records fails here.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The seed-1 records digest of the age-1x probe at per_class=300 with one
# BLAS thread.
AGE_SEED_1_DIGEST = (
    "75965d4ff2e77e3a90385af47ce92164d47b9066255eb76843db41bff9164a5d")

SCRIPT = """
import json, sys
from dataclasses import replace
from pathlib import Path
import probe
spec = replace(probe.PROBES["age-1x"], per_class=300)
result = probe.run_probe(spec, 1, Path(sys.argv[1]))
ladder = {name: s.per_class for name, s in probe.PROBES.items()}
print(json.dumps({"result": result, "ladder": ladder}))
"""


def test_probe_reports_stages_and_digest(tmp_path):
    env = {**os.environ, **dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT / "scripts",
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["ladder"] == {"age-1x": 14_286, "age-5x": 71_430,
                             "age-10x": 142_860}
    result = out["result"]
    assert set(result) == {"setup_s", "run_s", "setup_hwm_mb", "end_hwm_mb",
                           "stages", "stage_peaks", "digest"}
    names = [name for name, _ in result["stages"]]
    assert names[0] == "graph.load_edge_list"
    # The lp block is built before the feature CSV is read, and each of
    # the two regimes joins once.
    assert names.index("lpfeatures.lp_features") < names.index("model.from_csv")
    assert names.count("model.join_features") == 2
    hwm = [result["setup_hwm_mb"], *(mb for _, mb in result["stages"]),
           result["end_hwm_mb"]]
    assert hwm == sorted(hwm)
    # Each stage's own sampled peak is at most the high-water mark when
    # it returned, give or take the kernel's lag in updating that mark;
    # the propagation stage is long enough to be sampled.
    assert [name for name, _ in result["stage_peaks"]] == names
    for (_, peak), (_, mark) in zip(result["stage_peaks"], result["stages"]):
        assert peak is None or 0 < peak <= mark + 1.0
    assert dict(result["stage_peaks"])["lpfeatures.lp_features"] is not None
    records = (tmp_path / "metrics.jsonl").read_bytes()
    assert records.count(b"\n") == 2
    assert result["digest"] == hashlib.sha256(records).hexdigest()
    assert result["digest"] == AGE_SEED_1_DIGEST
