"""``scripts/probe.py`` runs end to end on a small graph.

The probe installs the benchmark's span recorder, which rebinds the
package's functions for the rest of the process, so it runs in a fresh
interpreter.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from dataclasses import replace
from pathlib import Path
import probe
spec = replace(probe.PROBES["age-1x"], per_class=300)
print(json.dumps(probe.run_probe(spec, 1, Path(sys.argv[1]))))
"""


def test_probe_reports_stages_and_digest(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT / "scripts",
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert set(result) == {"setup_s", "run_s", "setup_hwm_mb", "end_hwm_mb",
                           "stages", "digest"}
    names = [name for name, _ in result["stages"]]
    assert names[0] == "graph.load_edge_list"
    # The lp block is built before the feature CSV is read, and each of
    # the two regimes joins once.
    assert names.index("lpfeatures.lp_features") < names.index("model.from_csv")
    assert names.count("model.join_features") == 2
    hwm = [result["setup_hwm_mb"], *(mb for _, mb in result["stages"]),
           result["end_hwm_mb"]]
    assert hwm == sorted(hwm)
    records = (tmp_path / "metrics.jsonl").read_bytes()
    assert records.count(b"\n") == 2
    assert result["digest"] == hashlib.sha256(records).hexdigest()
