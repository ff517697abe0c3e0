"""Sentence generation, negative-sampling training, and cold-start fills."""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np
import pytest

from demograph import embed
from demograph.embed import (EmbeddingTable, TrainConfig, build_sentences,
                             fill_missing_embeddings, pair_gradients,
                             pair_objective, read_corpus, sigmoid,
                             train_embeddings, write_corpus)
from demograph.errors import ConfigError, ValidationError
from demograph.graph import Graph, load_directed_edges

from oracles import (central_difference, reference_word2vec, relative_error,
                     two_branch_sigmoid)


def directed(tmp_path, lines):
    p = tmp_path / "edges.tsv"
    p.write_text("".join(line + "\n" for line in lines))
    return load_directed_edges(p)


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def clique_corpus(rng, size=20, cliques=2):
    """One sentence per node: the node plus its whole clique, shuffled."""
    sentences = []
    for c in range(cliques):
        members = [f"c{c}_{i}" for i in range(size)]
        for i, focus in enumerate(members):
            rest = members[:i] + members[i + 1:]
            rng.shuffle(rest)
            sentences.append([focus] + rest)
    return sentences


class TestSentences:
    def test_fixed_seed_permutation(self, tmp_path):
        d = directed(tmp_path, ["X\tA", "X\tB"])
        sentences = build_sentences(d, rng_seed=11)
        assert len(sentences) == 1
        assert sorted(sentences[0]) == ["A", "B", "X"]
        again = build_sentences(d, rng_seed=11)
        assert sentences == again

    def test_no_sentence_for_sinks(self, tmp_path):
        d = directed(tmp_path, ["X\tA"])
        sentences = build_sentences(d, rng_seed=0)
        assert [sorted(s) for s in sentences] == [["A", "X"]]

    def test_corpus_round_trip_bytes(self, tmp_path):
        d = directed(tmp_path, ["X\tA", "X\tB", "B\tA", "A\tC"])
        out1, out2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
        write_corpus(build_sentences(d, rng_seed=5), out1)
        write_corpus(build_sentences(d, rng_seed=5), out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert read_corpus(out1) == build_sentences(d, rng_seed=5)

    def test_sentence_lengths_sum(self, tmp_path, rng):
        lines = []
        n = 15
        for u in range(n):
            for v in rng.choice(n, size=rng.integers(0, 5), replace=False):
                if u != int(v):
                    lines.append(f"u{u}\tu{int(v)}")
        if not lines:
            lines = ["u0\tu1"]
        d = directed(tmp_path, lines)
        sentences = build_sentences(d, rng_seed=1)
        out_degree = np.diff(d.out_indptr)
        expected = int((out_degree[out_degree >= 1] + 1).sum())
        assert sum(len(s) for s in sentences) == expected

    def test_bidirectional_includes_followers(self, tmp_path):
        d = directed(tmp_path, ["A\tB"])
        plain = build_sentences(d, rng_seed=0)
        both = build_sentences(d, rng_seed=0, bidirectional=True)
        assert len(plain) == 1            # only A has out-edges
        assert len(both) == 2             # B now sees its follower
        assert sorted(sorted(s) for s in both) == [["A", "B"], ["A", "B"]]


class TestVocabulary:
    def test_min_count_excludes_rare_tokens(self):
        sentences = [["a", "b"]] * 4 + [["b", "c"]]
        cfg = TrainConfig(dim=4, min_count=5, epochs=1, rng_seed=0)
        table = train_embeddings(sentences, cfg)
        # "b" occurs 5 times, "a" 4, "c" 1.
        assert "b" in table
        assert "a" not in table and "c" not in table

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValidationError):
            train_embeddings([["a", "b"]], TrainConfig(min_count=5))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_embeddings([], TrainConfig(min_count=1))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            train_embeddings([["a", "b"]], TrainConfig(mode="glove",
                                                       min_count=1))


class TestGradients:
    def test_analytic_matches_central_differences(self, rng):
        for _ in range(10):
            k, d = int(rng.integers(1, 6)), int(rng.integers(2, 9))
            center = rng.normal(size=d)
            outputs = rng.normal(size=(k, d))
            labels = np.zeros(k)
            labels[0] = 1.0
            grad_center, grad_out = pair_gradients(center, outputs, labels)
            num_center = central_difference(
                lambda c: pair_objective(c, outputs, labels), center.copy())
            num_out = central_difference(
                lambda o: pair_objective(center, o, labels), outputs.copy())
            assert relative_error(grad_center, num_center) <= 1e-6
            assert relative_error(grad_out, num_out) <= 1e-6

    def test_single_update_matches_hand_trace(self, monkeypatch):
        """Replicates the documented RNG protocol and checks each SGD
        update against inline gradient formulas, not pair_gradients."""
        monkeypatch.setattr(embed, "BATCH", 1)
        seed, dim, rate = 123, 4, 0.025
        cfg = TrainConfig(dim=dim, negatives=1, epochs=1, min_count=1,
                          rate=rate, rng_seed=seed)
        table = train_embeddings([["A", "B"]], cfg)

        rng = np.random.default_rng(seed)
        w_in = (rng.random((2, dim)) - 0.5) / dim
        w_out = np.zeros((2, dim))
        noise_cdf = np.array([0.5, 1.0])  # equal counts, unigram^0.75
        total_pairs = 2.0
        seen = 0
        for center, positive in ((0, 1), (1, 0)):
            lr = max(rate * 1e-4, rate * (1.0 - seen / total_pairs))
            seen += 1
            draw = int(np.searchsorted(noise_cdf, rng.random(1), "right")[0])
            ids = [positive] + ([draw] if draw != positive else [])
            v = w_in[center].copy()
            grad_v = np.zeros(dim)
            for row, tok in enumerate(ids):
                score = float(w_out[tok] @ v)
                sig = 1.0 / (1.0 + math.exp(-score))
                coef = (1.0 if row == 0 else 0.0) - sig
                grad_v += coef * w_out[tok]
                w_out[tok] = w_out[tok] + lr * coef * v
            w_in[center] = v + lr * grad_v
        # Vocabulary order is count-desc then token, so A is index 0.
        assert table.tokens == ["A", "B"]
        assert np.abs(table.vectors - w_in).max() <= 1e-12

    def test_fixed_seed_training_is_bit_identical(self, rng):
        corpus = clique_corpus(rng, size=6)
        cfg = TrainConfig(dim=8, min_count=1, epochs=2, rng_seed=9)
        a = train_embeddings(corpus, cfg)
        b = train_embeddings(corpus, cfg)
        assert a.tokens == b.tokens
        assert np.array_equal(a.vectors, b.vectors)


class TestAgainstReference:
    @staticmethod
    def corpus(seed):
        """Short sentences over a small vocabulary: many are shorter than
        the window, and many repeat a token (duplicate CBOW inputs)."""
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(3, 15))
        return [[f"t{int(t)}" for t in rng.integers(0, vocab, rng.integers(1, 10))]
                for _ in range(int(rng.integers(1, 12)))]

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_matches_per_pair_trainer_bit_for_bit(self, mode, caplog,
                                                  monkeypatch):
        """At batch 1 the reference is the per-example trainer; above it,
        every example reads the weights of its batch start."""
        caplog.set_level(logging.INFO, logger="demograph.embed")
        checked = 0
        for batch, seed, window, subsample, negatives, min_count in (
                itertools.product((1, 2, 7, 64), range(5), (None, 1, 3),
                                  (0.0, 0.05), (1, 5), (1, 2))):
            monkeypatch.setattr(embed, "BATCH", batch)
            sentences = self.corpus(seed)
            cfg = TrainConfig(mode=mode, dim=5, window=window,
                              negatives=negatives, epochs=2,
                              min_count=min_count, subsample=subsample,
                              rng_seed=seed)
            caplog.clear()
            try:
                table = train_embeddings(sentences, cfg)
            except ValidationError:  # no token reaches min_count
                continue
            tokens, vectors, seen = reference_word2vec(
                sentences, mode, cfg.dim, cfg.effective_window, negatives,
                cfg.rate, cfg.epochs, min_count, subsample, seed, batch)
            assert table.tokens == tokens
            assert np.array_equal(table.vectors, vectors), (batch, cfg)
            assert caplog.records[-1].args[-1] == seen
            checked += 1
        assert checked >= 400


def test_sigmoid_matches_two_branch_formula(rng):
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 709.8, -709.8, 745.2,
         -745.2, 5e-324, -5e-324, 36.8, -36.8],
        rng.normal(scale=40.0, size=5000), rng.normal(size=5000)])
    assert np.array_equal(sigmoid(x), two_branch_sigmoid(x))
    assert np.isnan(sigmoid(np.nan))


class TestSeparation:
    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_two_cliques_separate(self, rng, mode):
        corpus = clique_corpus(rng, size=20)
        cfg = TrainConfig(mode=mode, dim=8, min_count=1, epochs=5, rng_seed=3)
        table = train_embeddings(corpus, cfg)
        intra, inter = [], []
        names = table.tokens
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                value = cosine(table.get(a), table.get(b))
                (intra if a[:2] == b[:2] else inter).append(value)
        assert np.mean(intra) > np.mean(inter)


def coldstart_reference(g: Graph, table: EmbeddingTable) -> EmbeddingTable:
    """Per-node fill: each unembedded node gets the mean of its embedded
    neighbors' vectors, in neighbor order, or none when it has none."""
    tokens, rows = list(table.tokens), [table.vectors]
    for v in range(g.node_count):
        if g.names[v] in table:
            continue
        found = [table.get(g.names[u]) for u in g.neighbors(v)]
        found = [vec for vec in found if vec is not None]
        if found:
            tokens.append(g.names[v])
            rows.append(np.mean(found, axis=0)[None, :])
    return EmbeddingTable(tokens, np.concatenate(rows, axis=0))


class TestColdStart:
    def make_graph(self):
        return Graph.build(["a", "b", "c", "d"],
                           [(0, 1), (1, 2), (2, 3)])

    def test_single_neighbor_copies_vector(self):
        g = self.make_graph()
        table = EmbeddingTable(["a"], np.array([[1.0, 2.0]]))
        filled = fill_missing_embeddings(g, table)
        assert np.array_equal(filled.get("b"), [1.0, 2.0])

    def test_mean_of_two_neighbors(self):
        g = self.make_graph()
        table = EmbeddingTable(["a", "c"], np.array([[2.0, 0.0], [0.0, 4.0]]))
        filled = fill_missing_embeddings(g, table)
        assert np.array_equal(filled.get("b"), [1.0, 2.0])

    def test_absent_when_no_embedded_neighbor(self):
        g = self.make_graph()
        table = EmbeddingTable(["a"], np.array([[1.0, 2.0]]))
        assert "d" not in fill_missing_embeddings(g, table)

    @pytest.mark.parametrize("coverage", [0.0, 0.3, 0.8, 1.0])
    def test_matches_per_node_reference(self, rng, coverage):
        n = 60
        pairs = rng.integers(0, n, size=(150, 2))
        g = Graph.build([f"v{i}" for i in range(n)], pairs)
        embedded = [name for name in g.names if rng.random() < coverage]
        # Off-graph tokens stay in the table and feed no fill.
        tokens = embedded + ["off0", "off1"]
        table = EmbeddingTable(tokens, rng.normal(size=(len(tokens), 4)))
        filled = fill_missing_embeddings(g, table)
        expected = coldstart_reference(g, table)
        assert filled.tokens == expected.tokens
        # np.array_equal: a mean of exactly -0.0 comes out +0.0 here.
        assert np.array_equal(filled.vectors, expected.vectors)

    def test_fill_is_single_round(self):
        # a - b - c - d with only a embedded: b gets filled, c and d do
        # not (no chaining through freshly filled vectors).
        g = self.make_graph()
        table = EmbeddingTable(["a"], np.array([[1.0, 2.0]]))
        filled = fill_missing_embeddings(g, table)
        assert "b" in filled and np.array_equal(filled.get("b"), [1.0, 2.0])
        assert "c" not in filled and "d" not in filled


class TestTableIO:
    def test_save_load_round_trip_exact(self, tmp_path, rng):
        table = EmbeddingTable([f"t{i}" for i in range(5)],
                               rng.normal(size=(5, 3)))
        path = tmp_path / "emb.txt"
        table.save(path)
        header = path.read_text().splitlines()[0]
        assert header == "5 3"
        loaded = EmbeddingTable.load(path)
        assert loaded.tokens == table.tokens
        assert np.array_equal(loaded.vectors, table.vectors)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ValidationError):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("header", ["2 x", "two 3", "2.5 3", ""])
    def test_non_numeric_header_names_path_and_line(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\na 1 2 3\nb 4 5 6\n")
        with pytest.raises(ValidationError, match=r"emb\.txt:1: "):
            EmbeddingTable.load(path)

    def test_non_numeric_component_names_path_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 2 3\nb 4 five 6\n")
        with pytest.raises(ValidationError, match=r"emb\.txt:3: .*'b'"):
            EmbeddingTable.load(path)

    def test_wrong_width_names_path_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 2 3\nb 4 5\n")
        with pytest.raises(ValidationError, match=r"emb\.txt:3: "):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("header", ["1 0", "0 0", "-1 3"])
    def test_bad_header_size_names_path_and_line(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\na\n")
        with pytest.raises(ValidationError, match=r"emb\.txt:1: "):
            EmbeddingTable.load(path)

    def test_repeated_token_names_path_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1 2\na 3 4\n")
        with pytest.raises(ValidationError,
                           match=r"emb\.txt:3: 'a': repeated token"):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_component_names_path_and_line(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\na 1 2\nb {value} 4\n")
        with pytest.raises(ValidationError,
                           match=r"emb\.txt:3: 'b': non-finite component"):
            EmbeddingTable.load(path)

    def test_empty_token_names_path_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\n 1 2\n")
        with pytest.raises(ValidationError,
                           match=r"emb\.txt:2: '': empty token"):
            EmbeddingTable.load(path)

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 1\na 1\r\n\xff 2\n")
        with pytest.raises(ValidationError,
                           match=r"emb\.txt:3: not UTF-8 text"):
            EmbeddingTable.load(path)

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("0 5\n")
        table = EmbeddingTable.load(path)
        assert len(table) == 0 and table.vectors.shape == (0, 5)
        table.save(tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == "0 5\n"
