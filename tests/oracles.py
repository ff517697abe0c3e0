"""Independent reference implementations.

Everything here is deliberately written with plain python loops over dense
structures so it shares no code path with the package: dict-of-set graphs,
per-node propagation, pairwise AUC, central finite differences, and a
line-by-line edge-list loader.
"""

from __future__ import annotations

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
    """Reference of ``load_directed_edges``: ``(names, sorted out-neighbor
    lists, sorted in-neighbor lists)``, or ``None`` without edge lines."""
    pairs = _edge_pairs(lines)
    if not pairs:
        return None
    names, arcs = _intern_pairs(pairs)
    out: list[set[int]] = [set() for _ in names]
    into: list[set[int]] = [set() for _ in names]
    for u, v in arcs:
        if u != v:
            out[u].add(v)
            into[v].add(u)
    return names, [sorted(s) for s in out], [sorted(s) for s in into]
