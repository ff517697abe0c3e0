"""Graph ingestion, interning, filtering, and CSR structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demograph.errors import (EdgeListParseError, EmptyGraphError,
                              ValidationError)
from demograph.graph import (Graph, load_directed_edges, load_edge_list,
                             write_edge_list, write_node_map)

from conftest import random_graph
from oracles import reference_directed_edges, reference_edge_list


def write_edges(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def csr_of(neighbor_lists):
    """CSR arrays of per-node sorted neighbor lists."""
    indptr = np.zeros(len(neighbor_lists) + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in neighbor_lists], out=indptr[1:])
    indices = np.array([v for nbrs in neighbor_lists for v in nbrs],
                       dtype=np.int64)
    return indptr, indices


# Random edge files: sources from a small pool (so duplicates and
# self-loops are common), targets also from names that never follow
# anyone, and about one comment or blank line per three edge lines.
_SOURCES = [f"u{i}" for i in range(8)]
_edge_line = st.tuples(st.sampled_from(_SOURCES),
                       st.sampled_from(_SOURCES + ["t0", "t1", "t2"])
                       ).map(lambda pair: f"{pair[0]}\t{pair[1]}")
_edge_file = st.lists(
    st.one_of(_edge_line, _edge_line, _edge_line,
              st.sampled_from(["# comment", "", "   ", "#u0\tu1"])),
    max_size=40)


class TestLoadEdgeList:
    def test_dedup_and_self_loop_removal(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "B\tA", "A\tA"])
        g = load_edge_list(p)
        assert g.node_count == 2
        assert g.edge_count == 1
        assert list(g.neighbors(g.index_of("A"))) == [g.index_of("B")]

    def test_triangle_symmetry(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tC", "B\tC"])
        g = load_edge_list(p)
        assert g.node_count == 3
        assert list(g.degrees) == [2, 2, 2]

    def test_out_degree_filter_drops_node_and_edges(self, tmp_path):
        # 5-node directed input; D follows only A, everyone else follows two.
        lines = ["A\tB", "A\tC", "B\tC", "B\tD", "C\tA", "C\tE",
                 "D\tA", "E\tA", "E\tB"]
        p = write_edges(tmp_path / "e.tsv", lines)

        # Scalar reference: count distinct follow targets, drop < 2, then
        # keep only edges between surviving nodes, undirected and deduped.
        follows = {}
        for line in lines:
            u, v = line.split("\t")
            follows.setdefault(u, set()).add(v)
        kept = {u for u, t in follows.items() if len(t) >= 2}
        expected_edges = set()
        for line in lines:
            u, v = line.split("\t")
            if u in kept and v in kept and u != v:
                expected_edges.add(frozenset((u, v)))

        g = load_edge_list(p, min_degree=2)
        assert "D" not in g
        got = set()
        for u in range(g.node_count):
            for v in g.neighbors(u):
                got.add(frozenset((g.names[u], g.names[v])))
        assert got == expected_edges
        # E appears only as a filtered-out source's target elsewhere but
        # follows two nodes itself, so it must survive.
        assert "E" in g

    def test_filter_drops_pure_targets(self, tmp_path):
        # T never follows anyone: out-degree 0, removed by any filter.
        p = write_edges(tmp_path / "e.tsv", ["A\tT", "A\tB", "B\tA", "B\tT"])
        g = load_edge_list(p, min_degree=1)
        assert "T" not in g
        assert g.node_count == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "oops"])
        with pytest.raises(EdgeListParseError, match=":2:"):
            load_edge_list(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["# only a comment"])
        with pytest.raises(EmptyGraphError):
            load_edge_list(p)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["# c", "", "A\tB", "  ", "B\tC"])
        g = load_edge_list(p)
        assert g.edge_count == 2

    def test_negative_min_degree_rejected(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB"])
        with pytest.raises(ValidationError):
            load_edge_list(p, min_degree=-1)

    def test_strict_mode_accepts_symmetric_input(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "B\tA", "B\tC", "C\tB"])
        g = load_edge_list(p, symmetrize=False)
        assert g.edge_count == 2

    def test_strict_mode_rejects_one_way_edges(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "B\tA", "B\tC"])
        with pytest.raises(ValidationError):
            load_edge_list(p, symmetrize=False)

    def test_target_only_nodes_are_interned(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tC"])
        g = load_edge_list(p)
        assert "C" in g and g.degrees[g.index_of("C")] == 1


class TestLoaderAgainstReference:
    """The array loader against the line-by-line reference in oracles.py."""

    def check(self, path, lines, min_degree, symmetrize=True):
        expected = reference_edge_list(lines, min_degree)
        if expected is None:
            with pytest.raises(EmptyGraphError):
                load_edge_list(path, min_degree=min_degree,
                               symmetrize=symmetrize)
            return
        g = load_edge_list(path, min_degree=min_degree, symmetrize=symmetrize)
        names, neighbors = expected
        indptr, indices = csr_of(neighbors)
        assert g.names == names
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)

    @given(_edge_file, st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_load_edge_list(self, tmp_path_factory, lines, min_degree):
        path = write_edges(tmp_path_factory.mktemp("e") / "e.tsv", lines)
        self.check(path, lines, min_degree)

    @given(_edge_file, st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_strict_mode_on_symmetric_input(self, tmp_path_factory, lines,
                                            min_degree):
        both = []
        for line in lines:
            both.append(line)
            tokens = line.split()
            if len(tokens) == 2 and not line.startswith("#"):
                both.append(f"{tokens[1]}\t{tokens[0]}")
        path = write_edges(tmp_path_factory.mktemp("e") / "e.tsv", both)
        self.check(path, both, min_degree, symmetrize=False)

    @given(_edge_file)
    @settings(max_examples=100, deadline=None)
    def test_load_directed_edges(self, tmp_path_factory, lines):
        path = write_edges(tmp_path_factory.mktemp("e") / "e.tsv", lines)
        expected = reference_directed_edges(lines)
        if expected is None:
            with pytest.raises(EmptyGraphError):
                load_directed_edges(path)
            return
        d = load_directed_edges(path)
        names, out, into = expected
        assert d.names == names
        for (indptr, indices), ref in (((d.out_indptr, d.out_indices), out),
                                       ((d.in_indptr, d.in_indices), into)):
            ref_ptr, ref_idx = csr_of(ref)
            assert np.array_equal(indptr, ref_ptr)
            assert np.array_equal(indices, ref_idx)


class TestNeighbors:
    def test_triangle(self):
        g = Graph.build(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
        assert list(g.neighbors(0)) == [1, 2]

    def test_isolated_node(self, tmp_path):
        # B's only relation is a self-loop, so it ends up isolated.
        p = write_edges(tmp_path / "e.tsv", ["B\tB", "A\tC"])
        g = load_edge_list(p)
        assert list(g.neighbors(g.index_of("B"))) == []

    def test_path_midpoint(self):
        g = Graph.build(["A", "B", "C"], [(0, 1), (1, 2)])
        assert list(g.neighbors(1)) == [0, 2]

    def test_out_of_range(self):
        g = Graph.build(["a", "b"], [(0, 1)])
        with pytest.raises(IndexError):
            g.neighbors(2)
        with pytest.raises(IndexError):
            g.neighbors(-1)


class TestInvariants:
    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_handshake(self, pairs):
        names = [f"n{i}" for i in range(15)]
        g = Graph.build(names, pairs)
        assert int(g.degrees.sum()) == 2 * g.edge_count
        assert int(g.degrees.sum()) % 2 == 0

    def test_adjacency_is_symmetric_sorted_unique(self, rng):
        g, adj = random_graph(rng, 40, 0.15)
        for v in range(g.node_count):
            nbrs = list(g.neighbors(v))
            assert nbrs == sorted(set(nbrs))
            assert set(nbrs) == adj[v]
            for u in nbrs:
                assert v in g.neighbors(u)

    def test_interning_round_trip(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["x\ty", "z\tx", "w\tz"])
        g = load_edge_list(p)
        for name in ("x", "y", "z", "w"):
            assert g.names[g.index_of(name)] == name
        assert sorted(g._index.values()) == list(range(g.node_count))

    def test_write_reload_round_trip(self, tmp_path, rng):
        g, _ = random_graph(rng, 30, 0.2)
        out = tmp_path / "round.tsv"
        write_edge_list(g, out)
        g2 = load_edge_list(out)
        assert set(g2.names) == set(g.names)
        by_name = {g.names[u]: {g.names[v] for v in g.neighbors(u)}
                   for u in range(g.node_count)}
        for u in range(g2.node_count):
            assert {g2.names[v] for v in g2.neighbors(u)} == by_name[g2.names[u]]
        # Reloading the same file is deterministic down to the arrays.
        g2b = load_edge_list(out)
        assert g2b.names == g2.names
        assert np.array_equal(g2b.indptr, g2.indptr)
        assert np.array_equal(g2b.indices, g2.indices)

    def test_node_map_format(self, tmp_path):
        g = Graph.build(["u", "v"], [(0, 1)])
        out = tmp_path / "nodes.tsv"
        write_node_map(g, out)
        assert out.read_text() == "0\tu\n1\tv\n"

    def test_graph_arrays_read_only(self):
        g = Graph.build(["a", "b"], [(0, 1)])
        with pytest.raises(ValueError):
            g.indices[0] = 5

    def test_adjacency_operator_is_cached_csr(self, rng):
        g, adj = random_graph(rng, 30, 0.1)
        a = g.adjacency
        assert g.adjacency is a
        assert a.shape == (30, 30)
        assert np.array_equal(a.indptr, g.indptr)
        assert np.array_equal(a.indices, g.indices)
        dense = np.zeros((30, 30))
        for u, nbrs in enumerate(adj):
            dense[u, sorted(nbrs)] = 1.0
        assert np.array_equal(a.toarray(), dense)


class TestDirectedEdges:
    def test_out_and_in_neighbors(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tC", "C\tA", "B\tB"])
        d = load_directed_edges(p)
        a = d.names.index("A")
        assert [d.names[i] for i in d.out_neighbors(a)] == ["B", "C"]
        assert [d.names[i] for i in d.in_neighbors(a)] == ["C"]
        # Self-loop dropped.
        assert np.diff(d.out_indptr)[d.names.index("B")] == 0

    def test_duplicates_collapse(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tB"])
        d = load_directed_edges(p)
        assert np.diff(d.out_indptr)[d.names.index("A")] == 1
