"""The benchmark's span recorder can still find what it traces.

``perfbench/spans.py`` rebinds the package's public functions by name and
reads some of their arguments by name, so a rename that the unit tests do
not notice would only surface in a traced benchmark run.  This test
installs the recorder in a fresh interpreter instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import inspect
import numpy as np
from spans import TARGETS, Recorder
from demograph import embed, graph, lpfeatures, model

recorder = Recorder()
recorder.install()

# Arguments that the recorder's counts read by name.
for fn, names in [(graph.load_edge_list, {"path", "min_degree", "symmetrize"}),
                  (model.train_logistic, {"labels", "hyper"}),
                  (model.train_softmax, {"labels", "hyper"}),
                  (model.train_mlp, {"labels", "hyper"}),
                  (lpfeatures.lp_features, {"g", "labels", "plan", "cfg"}),
                  (embed.fill_missing_embeddings, {"table"})]:
    params = set(inspect.signature(fn.__wrapped__).parameters)
    assert names <= params, (fn.__wrapped__.__name__, names - params)

# The token count of the corpus: a triangle both ways gives each of the
# 3 nodes a sentence of itself and its 2 neighbors.
edges = graph.DirectedEdges(["a", "b", "c"], np.array([[0, 1], [1, 2], [2, 0]]))
sentences = embed.build_sentences(edges, 0, bidirectional=True)
assert [s.name for s in recorder.spans] == ["embed.build_sentences"]
assert recorder.spans[0].counts == {"tokens": 9}
assert sum(map(len, sentences)) == 9

# The pair count comes from the trainer's log line.
embed.train_embeddings(edges.names, sentences,
                       embed.TrainConfig(dim=2, min_count=1, epochs=1))
assert recorder.pairs > 0, "no 'trained ... pairs' log line seen"
assert len(recorder.spans) == 2
print(len(TARGETS))
"""


def test_recorder_installs_on_the_package():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                          str(ROOT / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
