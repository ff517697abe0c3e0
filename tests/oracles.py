"""Independent reference implementations.

Everything here is deliberately written with plain python loops over dense
structures so it shares no code path with the package: dict-of-set graphs,
per-node propagation, pairwise AUC, central finite differences, a
line-by-line edge-list loader, a ``Counter``-and-sort word2vec vocabulary,
and a per-pair word2vec trainer.  The
exceptions are checked against bit for bit, so they keep the arithmetic of
the code they judge:

- ``reference_neighbor_means``, the masked-assignment engines
  ``reference_blended`` and ``reference_additive`` that call it,
  ``reference_filter_min_degree``, ``reference_lp_features`` (with
  ``ReferenceLPBlock.table``), ``reference_join_features`` and
  ``reference_loss_and_gradients`` are the package's earlier
  implementations: two sparse products per superstep (active-neighbor
  counts and sums) into fresh arrays, renumbering by a sort of all arc
  ends, three ``(n, N, C)`` copies plus an imputed copy and a stack, joins
  and gathers by name lists, and a step that builds a one-hot target;
- ``reference_read_seed_labels`` reads through the package's
  ``graph._read_rows`` and ``labelprop.class_label``, and maps the seeds
  line by line through a name dict;
- ``reference_build_sentences`` keeps the package's earlier per-node
  ``rng.permutation`` of the node and its sorted neighbors, which fixes
  the RNG stream the bulk builder must keep; it gathers the neighbor sets
  from the arc list with plain loops.

The per-line file writers at the end are the package's earlier writers,
one ``write`` or ``csv.writer.writerow`` call per line; the bulk writers
must match them byte for byte.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np


def dense_propagate(adj: list[set[int]], seed_values: dict[int, np.ndarray],
                    weights: list[float]):
    """Reference BSP propagation.

    ``weights[k-1]`` is the neighbor-mean weight at superstep k; seeds are
    fixed; a node activates on its first superstep with an active neighbor
    and then takes the plain mean.  Returns (values, active) where values
    rows of inactive nodes are zero.
    """
    n = len(adj)
    dim = len(next(iter(seed_values.values())))
    values = {v: np.array(seed_values[v], dtype=float) for v in seed_values}
    active = set(seed_values)
    for w in weights:
        new_values = {}
        new_active = set(active)
        for v in range(n):
            if v in seed_values:
                new_values[v] = values[v]
                continue
            live = [u for u in sorted(adj[v]) if u in active]
            if not live:
                if v in active:
                    new_values[v] = values[v]
                continue
            mean = np.zeros(dim)
            for u in live:
                mean = mean + values[u]
            mean = mean / len(live)
            if v in active:
                new_values[v] = (1.0 - w) * values[v] + w * mean
            else:
                new_values[v] = mean
                new_active.add(v)
        values = new_values
        active = new_active
    out = np.zeros((n, dim))
    for v in active:
        out[v] = values[v]
    flags = np.zeros(n, dtype=bool)
    for v in active:
        flags[v] = True
    return out, flags


def dense_propagate_gamma(adj: list[set[int]], seed_labels: dict[int, int],
                          gamma: float, iterations: int):
    """Reference two-channel accumulator propagation for binary labels."""
    n = len(adj)
    acc = {v: np.array([1.0 - y, float(y)]) for v, y in seed_labels.items()}
    active = set(seed_labels)
    for _ in range(iterations):
        new_acc = {}
        for v in range(n):
            if v in seed_labels:
                new_acc[v] = acc[v]
                continue
            live = [u for u in sorted(adj[v]) if u in active]
            base = acc.get(v, np.zeros(2))
            if not live:
                if v in active:
                    new_acc[v] = base
                continue
            mean = np.zeros(2)
            for u in live:
                mean = mean + acc[u]
            mean = mean / len(live)
            new_acc[v] = base + gamma * mean
        acc = new_acc
        active = {v for v, a in acc.items() if a.sum() > 0}
    out = np.zeros(n)
    flags = np.zeros(n, dtype=bool)
    for v in active:
        flags[v] = True
        if v in seed_labels:
            out[v] = float(seed_labels[v])
        else:
            m, f = acc[v]
            out[v] = f / (m + f)
    return out, flags


def reference_neighbor_means(g, values: np.ndarray, active: np.ndarray):
    """Mean of active neighbors' values per node.

    Returns ``(means, has_active_neighbor)``; rows without an active
    neighbor are zero.  The engine keeps the rows of inactive nodes at
    exactly 0.0, so multiplying by the full adjacency matrix adds only
    +0.0 for inactive neighbors, and the sums equal those over active
    neighbors alone.  Each row is summed in CSR order, so the result is
    bit-identical across runs.
    """
    counts = g.adjacency @ active.astype(np.float64)
    has = counts > 0
    means = np.zeros_like(values)
    np.divide(g.adjacency @ values, counts[:, None], out=means,
              where=has[:, None])
    return means, has


def reference_blended(g, seeds, weights: list[float], on_superstep=None):
    """Alpha/beta engine with per-superstep masked assignments.

    ``weights[k-1]`` is the neighbor-mean weight at superstep ``k``; the
    node keeps ``1 - w`` of its own value and first activation takes the
    plain neighbor mean.  Takes its means from ``reference_neighbor_means``,
    so its results are comparable with the package engine byte for byte.
    Returns ``(values, is_active)`` and calls ``on_superstep(k, values,
    is_active)`` after every superstep.
    """
    values = np.where(seeds.is_active[:, None], seeds.values, 0.0)
    active = seeds.is_active.copy()
    movable = ~seeds.is_seed
    for k, w in enumerate(weights, start=1):
        means, has = reference_neighbor_means(g, values, active)
        blend = movable & active & has
        first = movable & ~active & has
        new_values = values.copy()
        new_values[blend] = (1.0 - w) * values[blend] + w * means[blend]
        new_values[first] = means[first]
        values = new_values
        active = active | has
        if on_superstep is not None:
            on_superstep(k, values, active)
    return values, active


def _reference_finalize(acc, active, seeds):
    out = np.zeros_like(acc)
    mass = acc.sum(axis=1)
    rows = active & (mass > 0)
    out[rows] = acc[rows] / mass[rows, None]
    out[seeds.is_seed] = seeds.values[seeds.is_seed]
    return out


def reference_additive(g, seeds, gamma: float, iterations: int,
                       on_superstep=None):
    """Gamma accumulator engine (any channel count) with per-superstep
    masked assignments.

    Takes its means from ``reference_neighbor_means``, so its results are
    comparable with the package engine byte for byte.  Returns the normalized
    ``(values, is_active)`` (seed rows pass through) and calls
    ``on_superstep(k, values, is_active)`` with them after every superstep.
    """
    acc = np.where(seeds.is_active[:, None], seeds.values, 0.0)
    active = seeds.is_active.copy()
    movable = ~seeds.is_seed
    for k in range(1, iterations + 1):
        means, has = reference_neighbor_means(g, acc, active)
        grow = movable & has
        acc = acc.copy()
        acc[grow] += gamma * means[grow]
        active = active | (acc.sum(axis=1) > 0)
        if on_superstep is not None:
            on_superstep(k, _reference_finalize(acc, active, seeds), active)
    return _reference_finalize(acc, active, seeds), active


def brute_force_auc(scores, labels) -> float:
    """All (positive, negative) pairs compared one by one."""
    scores = list(map(float, scores))
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def bfs_distances(adj: list[set[int]], sources: set[int]) -> list[int]:
    """Hop distance from the nearest source; -1 when unreachable."""
    dist = [-1] * len(adj)
    frontier = sorted(sources)
    for v in frontier:
        dist[v] = 0
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = depth
                    nxt.append(u)
        frontier = nxt
    return dist


def _edge_pairs(lines: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            u, v = stripped.split()
            pairs.append((u, v))
    return pairs


def _intern_pairs(pairs: list[tuple[str, str]]):
    names: list[str] = []
    index: dict[str, int] = {}
    for u, v in pairs:
        for name in (u, v):
            if name not in index:
                index[name] = len(names)
                names.append(name)
    return names, [(index[u], index[v]) for u, v in pairs]


def reference_edge_list(lines: list[str], min_degree: int = 0):
    """Reference of ``load_edge_list``: ``(names, sorted neighbor lists)``,
    or ``None`` when no edge line survives.

    Names are interned in order of first appearance, source first; the
    activity filter counts each source's distinct non-self targets in a
    dict of sets; the graph is the set of undirected non-self pairs.
    """
    pairs = _edge_pairs(lines)
    if min_degree > 0:
        follows: dict[str, set[str]] = {}
        for u, v in pairs:
            if u != v:
                follows.setdefault(u, set()).add(v)
        kept = {u for u, targets in follows.items() if len(targets) >= min_degree}
        pairs = [(u, v) for u, v in pairs if u in kept and v in kept]
    if not pairs:
        return None
    names, arcs = _intern_pairs(pairs)
    edges = {frozenset(arc) for arc in arcs if arc[0] != arc[1]}
    adj: list[set[int]] = [set() for _ in names]
    for edge in edges:
        u, v = tuple(edge)
        adj[u].add(v)
        adj[v].add(u)
    return names, [sorted(nbrs) for nbrs in adj]


def reference_directed_edges(lines: list[str]):
    """Reference of ``load_directed_edges``: ``(names, arcs)`` with the
    arcs in file order, self-loops dropped and repeats kept, or ``None``
    without edge lines."""
    pairs = _edge_pairs(lines)
    if not pairs:
        return None
    names, arcs = _intern_pairs(pairs)
    return names, [(u, v) for u, v in arcs if u != v]


def reference_build_sentences(edges, rng_seed: int,
                              bidirectional: bool = False) -> list[list[str]]:
    """``embed.build_sentences`` with each node's neighbor set gathered
    from ``edges.arcs`` by a plain loop."""
    nbrs: list[set[int]] = [set() for _ in edges.names]
    for u, v in edges.arcs.tolist():
        nbrs[u].add(v)
        if bidirectional:
            nbrs[v].add(u)
    rng = np.random.default_rng(rng_seed)
    sentences: list[list[str]] = []
    for v, near in enumerate(nbrs):
        if near:
            tokens = np.array([v, *sorted(near)])
            sentences.append([edges.names[i] for i in rng.permutation(tokens)])
    return sentences


def two_branch_sigmoid(x) -> np.ndarray:
    """Logistic function evaluated separately on each sign of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_vocabulary(sentences: list[list[str]], min_count: int):
    """The word2vec vocabulary by plain loops: the tokens that occur >=
    ``min_count`` times, by descending count with ties by token, their
    counts, and the id lists of the sentences that keep >= 2 of them.

    Returns (tokens, counts, encoded sentences).
    """
    counts = Counter(t for s in sentences for t in s)
    kept = sorted(((t, c) for t, c in counts.items() if c >= min_count),
                  key=lambda item: (-item[1], item[0]))
    index = {t: i for i, (t, _) in enumerate(kept)}
    encoded = []
    for s in sentences:
        ids = [index[t] for t in s if t in index]
        if len(ids) >= 2:
            encoded.append(ids)
    return [t for t, _ in kept], [c for _, c in kept], encoded


def reference_word2vec(sentences: list[list[str]], mode: str, dim: int,
                       window: int, negatives: int, rate: float, epochs: int,
                       min_count: int, subsample: float, rng_seed: int,
                       batch: int = 1):
    """Per-pair SGNS trainer: one update per skip-gram pair or CBOW
    position, in the package's RNG order.

    Examples come in batches of ``batch`` consecutive examples (batches
    restart each epoch).  ``negatives`` draws are taken at the start of
    each batch and shared by its examples; a draw equal to an example's
    target is skipped for that example.  With ``batch > 1`` every example
    also reads copies of the weights taken at the start of its batch, while
    its updates still go to the live weights in example order.  At
    ``batch == 1`` this is per-example SGD with per-example draws.

    Returns (tokens, input vectors, pairs seen).
    """
    tokens, counts, encoded = reference_vocabulary(sentences, min_count)
    freq = np.array(counts, dtype=np.float64)
    noise = freq ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(rng_seed)
    w_in = (rng.random((len(tokens), dim)) - 0.5) / dim
    w_out = np.zeros((len(tokens), dim))
    encoded = [np.asarray(ids, dtype=np.int64) for ids in encoded]
    if subsample > 0:
        share = freq / freq.sum()
        keep = np.minimum(1.0, np.sqrt(subsample / share) + subsample / share)
        trimmed = [s[rng.random(len(s)) < keep[s]] for s in encoded]
        encoded = [s for s in trimmed if len(s) >= 2]

    read_in, read_out, draws = w_in, w_out, []

    def start_example():
        """Draws the batch's negatives before its first example, and takes
        the batch-start copies too; at ``batch == 1`` examples read the
        live weights."""
        nonlocal read_in, read_out, draws, examples
        if examples % batch == 0:
            found = np.searchsorted(noise_cdf, rng.random(negatives),
                                    side="right")
            draws = [int(x) for x in np.minimum(found, len(tokens) - 1)]
            if batch > 1:
                read_in, read_out = w_in.copy(), w_out.copy()
        examples += 1

    def step(h: np.ndarray, target: int, lr: float) -> np.ndarray:
        """Updates the output rows of the target and of the batch's draws
        other than the target, and returns the scaled ascent step for
        ``h``."""
        negs = [x for x in draws if x != target]
        ids = np.array([target] + negs, dtype=np.int64)
        labels = np.zeros(len(ids))
        labels[0] = 1.0
        outputs = read_out[ids]
        coef = labels - two_branch_sigmoid(outputs @ h)
        np.add.at(w_out, ids, lr * np.outer(coef, h))
        return lr * (outputs.T @ coef)

    total = 0
    for s in encoded:
        for i in range(len(s)):
            total += min(i, window) + min(len(s) - 1 - i, window)
    total_pairs = max(1, epochs * total)
    floor = rate * 1e-4
    seen = 0
    for _epoch in range(epochs):
        examples = 0
        for s in encoded:
            for i in range(len(s)):
                lo, hi = max(0, i - window), min(len(s), i + window + 1)
                context = [int(s[j]) for j in range(lo, hi) if j != i]
                if not context:
                    continue
                if mode == "skipgram":
                    center = int(s[i])
                    for target in context:
                        start_example()
                        lr = max(floor, rate * (1.0 - seen / total_pairs))
                        seen += 1
                        w_in[center] += step(read_in[center], target, lr)
                else:
                    start_example()
                    lr = max(floor, rate * (1.0 - seen / total_pairs))
                    seen += len(context)
                    ctx = np.asarray(context, dtype=np.int64)
                    share = step(read_in[ctx].mean(axis=0), int(s[i]), lr) / len(ctx)
                    np.add.at(w_in, ctx, np.broadcast_to(share, (len(ctx), dim)))
    return tokens, w_in, seen


def reference_filter_min_degree(names: list[str], arcs: np.ndarray,
                                min_degree: int):
    """``graph._filter_min_degree`` as it renumbered by ``np.unique`` with
    ``return_index`` and ``return_inverse``, a sort of all arc ends."""
    follows = np.unique(arcs[arcs[:, 0] != arcs[:, 1]], axis=0)
    kept = np.bincount(follows[:, 0], minlength=len(names)) >= min_degree
    arcs = arcs[kept[arcs[:, 0]] & kept[arcs[:, 1]]]
    nodes, first, inverse = np.unique(arcs, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)  # the kept nodes by first appearance
    renumbered = np.argsort(order)[inverse].reshape(-1, 2)
    return [names[i] for i in nodes[order]], renumbered


@dataclass
class ReferenceLPBlock:
    """The lp-feature block as ``values`` ``(n, N*C)`` with masked entries
    meaningless and ``present`` ``(n, N)``, imputed on emission."""

    values: np.ndarray
    present: np.ndarray
    n_partitions: int
    n_classes: int

    def imputed(self) -> np.ndarray:
        out = self.values.copy()
        mask = np.repeat(self.present, self.n_classes, axis=1)
        out[~mask] = 0.5
        return out

    def table(self, names, presence: bool = True):
        from demograph.model import FeatureMatrix
        n_parts, n_classes = self.n_partitions, self.n_classes
        columns = ([f"lp_{i}" for i in range(n_parts)] if n_classes == 1 else
                   [f"lp_{i}_{c}" for i in range(n_parts)
                    for c in range(n_classes)])
        values = self.imputed()
        if presence:
            columns += [f"lp_present_{i}" for i in range(n_parts)]
            values = np.hstack([values, self.present.astype(np.float64)])
        return FeatureMatrix(names, columns, values)


def reference_lp_features(g, labels, plan, cfg) -> ReferenceLPBlock:
    """``lpfeatures.lp_features`` as it stacked every run into ``raw``,
    ``masked`` and ``values`` copies; partitions come from
    ``plan.assignment``."""
    from demograph.labelprop import LabelState, propagate
    seed_idx = np.flatnonzero(labels.is_seed)
    if set(plan.assignment) != set(int(v) for v in seed_idx):
        raise ValueError("partition plan must cover exactly the seed set")
    n, n_classes = g.node_count, labels.num_classes
    parts = [sorted(v for v, p in plan.assignment.items() if p == i)
             for i in range(plan.n_partitions)]
    runs = [propagate(g, LabelState.from_seed_values(
                n, part, labels.values[part], num_classes=n_classes), cfg)
            for part in parts]
    raw = np.stack([r.values for r in runs], axis=1)        # (n, N, C)
    reached = np.stack([r.is_active for r in runs], axis=1)  # (n, N)
    masked = np.where(reached[:, :, None], raw, 0.0)
    values, present = raw.copy(), reached.copy()
    for i, part in enumerate(parts):
        others = [j for j in range(plan.n_partitions) if j != i]
        total = masked[part, others[0]]
        for j in others[1:]:
            total += masked[part, j]
        count = reached[part][:, others].sum(axis=1)[:, None]
        values[part, i] = np.divide(total, count, where=count > 0,
                                    out=np.zeros_like(total))
        present[part, i] = count[:, 0] > 0
    return ReferenceLPBlock(values.reshape(n, plan.n_partitions * n_classes),
                            present, plan.n_partitions, n_classes)


def reference_read_seed_labels(path, g, num_classes=1, ages=False):
    """``labelprop.read_seed_labels`` as it read line by line, with every
    label checked first: off-graph names are skipped, and a name that
    repeats in the graph fails at its second line."""
    from demograph.errors import (ConfigError, EdgeListParseError,
                                  ValidationError)
    from demograph.graph import _read_rows
    from demograph.labelprop import LabelState, class_label
    rows = []
    for line_no, (name, raw) in _read_rows(path, 2):
        try:
            if num_classes > 1:
                value = class_label(raw, num_classes, ages)
            else:
                value = float(raw)
                if not 0.0 <= value <= 1.0:
                    raise ValidationError(
                        f"binary label must lie in [0, 1], got {raw!r}")
        except (ValueError, ValidationError) as exc:
            raise EdgeListParseError(path, line_no, str(exc)) from None
        rows.append((line_no, name, value))
    index = {name.decode(): i for i, name in enumerate(g.names.tolist())}
    seeds = {}
    for line_no, name, value in rows:
        if name in index:
            if index[name] in seeds:
                raise EdgeListParseError(path, line_no,
                                         f"duplicate seed {name!r}")
            seeds[index[name]] = value
    if not seeds:
        raise ConfigError(f"{path}: no usable seed labels")
    if num_classes == 1:
        return LabelState.from_seed_values(g.node_count, list(seeds),
                                           list(seeds.values()))
    return LabelState.from_seed_classes(g.node_count, list(seeds),
                                        list(seeds.values()), num_classes)


def reference_join_features(blocks: dict):
    """``model.join_features`` as it kept rows by name lists and gathered
    each block through a per-name row lookup."""
    from demograph.model import FeatureMatrix
    if not blocks:
        raise ValueError("no feature blocks to join")
    names = list(blocks)
    rows = {b: {n: i for i, n in enumerate(blocks[b].nodes.tolist())}
            for b in names}
    keep = [n for n in blocks[names[0]].nodes.tolist()
            if all(n in rows[b] for b in names[1:])]
    if not keep:
        raise ValueError(f"feature blocks {names} share no nodes")
    columns = [f"{b}.{c}" for b in names for c in blocks[b].columns]
    values = np.hstack([blocks[b].values[[rows[b][n] for n in keep]]
                        for b in names])
    return FeatureMatrix(keep, columns, values)


def _reference_forward(params, x: np.ndarray):
    from demograph.embed import sigmoid
    acts = [x]
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(0.0, a @ w + b)
        acts.append(a)
    z = a @ params.weights[-1] + params.biases[-1]
    if params.output == "sigmoid":
        return acts, sigmoid(z)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return acts, e / e.sum(axis=1, keepdims=True)


def reference_loss_and_gradients(params, x: np.ndarray, y: np.ndarray,
                                 l2: float = 0.0):
    """``model.loss_and_gradients`` as it built a one-hot target, clipped
    every probability and added the L2 terms at every ``l2``."""
    acts, probs = _reference_forward(params, x)
    if params.output == "sigmoid":
        target = y.reshape(-1, 1).astype(np.float64)
    else:
        target = np.zeros((len(y), params.weights[-1].shape[1]))
        target[np.arange(len(y)), y] = 1.0
    clamped = np.clip(probs, 1e-12, 1.0 - 1e-12)
    if params.output == "sigmoid":
        ce = -np.mean(target * np.log(clamped)
                      + (1.0 - target) * np.log(1.0 - clamped))
    else:
        ce = -np.mean(np.log(clamped[np.arange(len(y)), y]))
    loss = float(ce + 0.5 * l2 * sum(float((w * w).sum())
                                     for w in params.weights))
    delta = (probs - target) / len(x)
    grads_w, grads_b = [], []
    for layer in range(len(params.weights) - 1, -1, -1):
        grads_w.append(acts[layer].T @ delta + l2 * params.weights[layer])
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * (acts[layer] > 0)
    grads_w.reverse()
    grads_b.reverse()
    return loss, grads_w, grads_b


# ---------------------------------------------------------------------------
# Per-line file writers
# ---------------------------------------------------------------------------

def reference_to_csv(fm, path):
    """``FeatureMatrix.to_csv`` as one ``csv.writer`` row per node."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node"] + fm.columns)
        for name, row in zip(fm.nodes.tolist(), fm.values):
            writer.writerow([name.decode()] + [f"{x:.17g}" for x in row])


def reference_write_node_vectors(path, names, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for name, row in zip(names, rows):
            fh.write(name + "\t" + ",".join(f"{x:.17g}" for x in row) + "\n")


def reference_write_label_state(path, g, state, emit_inactive=False):
    keep = np.flatnonzero(state.is_active | emit_inactive)
    rows = np.where(state.is_active[:, None], state.values, np.nan)[keep]
    reference_write_node_vectors(path, [g.names[v].decode() for v in keep],
                                 rows)


def reference_embedding_save(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.tokens)} {table.dim}\n")
        for token, vec in zip(table.tokens, table.vectors):
            fh.write(token + " " + " ".join(f"{x:.17g}" for x in vec) + "\n")


def reference_write_edge_list(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(g.node_count):
            for v in g.neighbors(u):
                if v > u:
                    fh.write(f"{g.names[u].decode()}\t{g.names[v].decode()}\n")


def reference_write_node_map(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, name in enumerate(g.names.tolist()):
            fh.write(f"{i}\t{name.decode()}\n")


def reference_write_outputs(data, out_dir):
    """``synth.write_outputs`` with one ``write`` per edge, truth and seed
    line and ``reference_to_csv`` for the features."""
    from demograph.model import FeatureMatrix
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "edges.tsv", "w", encoding="utf-8") as fh:
        for u, v in data.edges:
            fh.write(f"{data.names[u]}\t{data.names[v]}\n")
    with open(out_dir / "truth.tsv", "w", encoding="utf-8") as fh:
        for name, label in zip(data.names, data.truth):
            fh.write(f"{name}\t{label}\n")
    with open(out_dir / "seeds.tsv", "w", encoding="utf-8") as fh:
        for i in data.seed_indices:
            fh.write(f"{data.names[i]}\t{data.truth[i]}\n")
    columns = [f"cumf_{c}" for c in range(data.features.shape[1])]
    reference_to_csv(FeatureMatrix(data.names, columns, data.features),
                     out_dir / "cumf.csv")
