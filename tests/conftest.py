"""Shared helpers: random graphs and seed states used across test modules."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from demograph.graph import Graph
from demograph.labelprop import LabelState


def random_graph(rng: np.random.Generator, n: int, p: float):
    """Erdos-Renyi graph plus the dict-of-set adjacency the oracles use."""
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                pairs.append((u, v))
    names = [f"n{i}" for i in range(n)]
    g = Graph.build(names, pairs)
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return g, adj


def random_binary_seeds(rng: np.random.Generator, n: int, n_seeds: int):
    """Seed state with 0/1 values plus the dict form for the oracles."""
    idx = rng.choice(n, size=n_seeds, replace=False)
    values = rng.integers(0, 2, size=n_seeds).astype(float)
    state = LabelState.from_seed_values(n, idx, values)
    return state, {int(v): np.array([values[i]]) for i, v in enumerate(idx)}


def seed_triple(state: LabelState):
    """A seed state as ``lp_features`` takes it, ``(indices, values,
    num_classes)``: each seed's value with one channel, else the class
    index of its one-hot row."""
    idx = np.flatnonzero(state.is_seed)
    if state.num_classes == 1:
        return idx, state.values[idx, 0], 1
    classes = state.values[idx].argmax(axis=1)
    assert np.array_equal(np.eye(state.num_classes)[classes], state.values[idx])
    return idx, classes, state.num_classes


def lp_parts(table, n_partitions: int):
    """An ``lp_features`` table's ``(n, N*C)`` values, masked entries at
    0.5, and its ``(n, N)`` presence columns as booleans."""
    width = table.values.shape[1] - n_partitions
    return table.values[:, :width], table.values[:, width:] == 1.0


def spiced(lines, spice, at, final_newline):
    """The bytes of a text file of ``lines`` with the raw line ``spice``
    inserted before line ``at``, with or without a final newline."""
    text = [line.encode() + b"\n" for line in lines]
    text.insert(min(at, len(text)), spice)
    data = b"".join(text)
    return data if final_newline else data.removesuffix(b"\n")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
