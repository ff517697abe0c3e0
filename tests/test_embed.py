"""Sentence generation, negative-sampling training, and cold-start fills."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import logging
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demograph import cli, embed, graph, synth
from demograph.embed import (EmbeddingTable, TrainConfig, build_sentences,
                             fill_missing_embeddings, pair_gradients,
                             pair_objective, read_corpus, sigmoid,
                             train_embeddings, write_corpus)
from demograph.errors import ConfigError, DivergenceError, ValidationError
from demograph.graph import Graph, load_directed_edges, row_indices, texts
from demograph.pipeline import PipelineConfig, derive_seed

from oracles import (central_difference, reference_build_sentences,
                     reference_vocabulary, reference_word2vec,
                     relative_error, two_branch_sigmoid)


def directed(tmp_path, lines):
    p = tmp_path / "edges.tsv"
    p.write_text("".join(line + "\n" for line in lines))
    return load_directed_edges(p)


def interned(sentences):
    """Token-list sentences as (names, id arrays), each name at its first
    use, as ``read_corpus`` interns a corpus file."""
    index: dict[str, int] = {}
    ids = [np.array([index.setdefault(t, len(index)) for t in s],
                    dtype=np.int64) for s in sentences]
    return list(index), ids


def named(names, sentences):
    """Id sentences as token lists, for the oracles that judge names."""
    return [[names[i] for i in s] for s in sentences]


def spy_csr(monkeypatch):
    """Record the arrays that every ``graph._csr_from_keys`` call in the
    package returns, whichever module calls it."""
    real, calls = graph._csr_from_keys, []

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]
    for name, module in list(sys.modules.items()):
        if name.startswith("demograph") and hasattr(module, "_csr_from_keys"):
            monkeypatch.setattr(module, "_csr_from_keys", spy)
    return calls


# sha256 of the corpus file of the pipeline-emb graph
# (perfbench/worker.py's EMB_GRAPH at seed 1) with the pipeline's
# sentence seed, by ``bidirectional``.
CORPUS_SHA256 = {
    False: "40102fba9bc583c2c018b3b2d2bd42bb5063a8a1bbe9a2b1096bbacb6d8eff09",
    True: "7b9a7d969461de5c1cd76bdcfb8366e2f02b84af11704ea9664058fec5b53647",
}

# sha256 of the vectors that ``train_embeddings`` gives on the pipeline-emb
# corpus (bidirectional) with the pipeline's seeds and the emb_* settings
# of perfbench/worker.py's EMB_SETTINGS, by mode.
VECTORS_SHA256 = {
    "skipgram": "f3e86997ab5972050af54e0ff6df945a6729950a7f6ecea7263900ce87f3cf88",
    "cbow": "ee195a58f9d11751217a6cd7575cf40d160564b1c535bf517673241c55b58e86",
}

# Tokens that sort and count apart: ties, non-ASCII, a trailing NUL.
_token = st.sampled_from(["a", "a\x00", "b", "B", "é", "e\u0301", "日", "\x00"])


@st.composite
def id_corpora(draw):
    """Distinct names, some never used, and id sentences over them."""
    names = draw(st.lists(_token, unique=True, max_size=8))
    sentence = st.lists(st.integers(0, max(len(names) - 1, 0)),
                        max_size=6 if names else 0)
    return names, draw(st.lists(sentence, max_size=12))


# Largest difference allowed between a vector of the trainer and the same
# vector of an oracle that sums the batch's terms in another order.
TOLERANCE = 1e-12


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
        sentences = named(d.names, build_sentences(d, rng_seed=11))
        assert len(sentences) == 1
        assert sorted(sentences[0]) == ["A", "B", "X"]
        again = named(d.names, build_sentences(d, rng_seed=11))
        assert sentences == again

    def test_no_sentence_for_sinks(self, tmp_path):
        d = directed(tmp_path, ["X\tA"])
        sentences = named(d.names, build_sentences(d, rng_seed=0))
        assert [sorted(s) for s in sentences] == [["A", "X"]]

    def test_corpus_round_trip_bytes(self, tmp_path):
        d = directed(tmp_path, ["X\tA", "X\tB", "B\tA", "A\tC"])
        out1, out2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
        write_corpus(d.names, build_sentences(d, rng_seed=5), out1)
        write_corpus(d.names, build_sentences(d, rng_seed=5), out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert named(*read_corpus(out1)) == \
            named(d.names, build_sentences(d, rng_seed=5))

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
        out_degree = Counter(u for u, _ in set(map(tuple, d.arcs.tolist())))
        expected = sum(k + 1 for k in out_degree.values())
        assert sum(len(s) for s in sentences) == expected

    def test_bidirectional_includes_followers(self, tmp_path):
        d = directed(tmp_path, ["A\tB"])
        plain = named(d.names, build_sentences(d, rng_seed=0))
        both = named(d.names, build_sentences(d, rng_seed=0,
                                              bidirectional=True))
        assert len(plain) == 1            # only A has out-edges
        assert len(both) == 2             # B now sees its follower
        assert sorted(sorted(s) for s in both) == [["A", "B"], ["A", "B"]]

    @staticmethod
    def random_lines(rng, n, arcs):
        """Random arcs over nodes ``0..n-1``, a third of them reciprocated,
        plus self-loop lines (dropped on load) on a few of them and on node
        ``n``, which is left isolated.  Nodes without out-arcs are sinks."""
        src, dst = rng.integers(0, n, arcs), rng.integers(0, n, arcs)
        back = rng.random(arcs) < 1 / 3
        loops = np.append(rng.choice(n, size=n // 20, replace=False), n)
        pairs = np.concatenate([np.stack([src, dst], axis=1),
                                np.stack([dst[back], src[back]], axis=1),
                                np.stack([loops, loops], axis=1)])
        return [f"u{u}\tu{v}" for u, v in rng.permutation(pairs)]

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_matches_per_node_reference(self, tmp_path, rng, bidirectional):
        for n, arcs in ((2, 1), (5, 3), (30, 40), (200, 500)):
            d = directed(tmp_path, self.random_lines(rng, n, arcs))
            seed = int(rng.integers(1000))
            assert named(d.names, build_sentences(d, seed, bidirectional)) \
                == reference_build_sentences(d, seed, bidirectional)

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_matches_reference_when_node_keys_pass_int32(self, tmp_path,
                                                         bidirectional):
        """n * n > 2**31: (node, neighbor) keys overflow int32 indices."""
        rng = np.random.default_rng(7)
        n = 46_400
        d = directed(tmp_path, [f"u{2 * i}\tu{2 * i + 1}"
                                for i in range(n // 2)]
                     + self.random_lines(rng, n, 2_000))
        assert len(d.names) == n + 1 and n * n > 2**31
        assert d.arcs.dtype == np.int32
        assert named(d.names, build_sentences(d, 3, bidirectional)) == \
            reference_build_sentences(d, 3, bidirectional)

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_one_csr_per_corpus(self, tmp_path, monkeypatch, bidirectional):
        """Loading the follow arcs and building the corpus sort them once,
        into int32 CSR arrays."""
        calls = spy_csr(monkeypatch)
        d = directed(tmp_path, ["A\tB", "B\tC", "C\tA", "A\tB", "C\tC"])
        build_sentences(d, 0, bidirectional)
        assert len(calls) == 1
        assert all(arr.dtype == np.int32 for arr in calls[0])

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_corpus_bytes_pinned(self, tmp_path, monkeypatch, bidirectional):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        from worker import EMB_GRAPH
        paths = synth.write_outputs(synth.generate(
            synth.PlantedGraphSpec(**EMB_GRAPH, rng_seed=1)), tmp_path)
        d = load_directed_edges(paths["edges"])
        write_corpus(d.names, build_sentences(d, derive_seed(1, "sentences"),
                                              bidirectional),
                     tmp_path / "corpus.txt")
        digest = hashlib.sha256((tmp_path / "corpus.txt").read_bytes())
        assert digest.hexdigest() == CORPUS_SHA256[bidirectional]

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_vectors_pinned(self, tmp_path, monkeypatch, mode):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        from worker import EMB_GRAPH, EMB_SETTINGS
        paths = synth.write_outputs(synth.generate(
            synth.PlantedGraphSpec(**EMB_GRAPH, rng_seed=1)), tmp_path)
        cfg = PipelineConfig.from_settings(**EMB_SETTINGS, root_seed=1)
        d = load_directed_edges(paths["edges"])
        sentences = build_sentences(d, derive_seed(1, "sentences"),
                                    cfg.emb_bidirectional)
        table = train_embeddings(d.names, sentences, dataclasses.replace(
            cfg.emb, mode=mode, rng_seed=derive_seed(1, "embed")))
        digest = hashlib.sha256(table.vectors.tobytes()).hexdigest()
        assert digest == VECTORS_SHA256[mode]

    def test_text_path_trains_the_same_vectors(self, tmp_path, monkeypatch):
        """``sentences``, the corpus file, ``embed`` and ``load`` give the
        vectors of ``build_sentences`` straight into ``train_embeddings``,
        bit for bit: ``read_corpus`` numbers the names by first use, not
        as the node ids, and that must change no vector."""
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        from worker import EMB_GRAPH, EMB_SETTINGS
        paths = synth.write_outputs(synth.generate(
            synth.PlantedGraphSpec(**EMB_GRAPH, rng_seed=1)), tmp_path)
        cfg = dataclasses.replace(
            PipelineConfig.from_settings(**EMB_SETTINGS, root_seed=1).emb,
            rng_seed=derive_seed(1, "embed"))
        seed, corpus = derive_seed(1, "sentences"), tmp_path / "corpus.txt"
        assert cli.main(["sentences", "--edges", str(paths["edges"]),
                         "--rng-seed", str(seed), "--bidirectional",
                         "--out", str(corpus)]) == 0
        assert cli.main(["embed", "--corpus", str(corpus), "--dim",
                         str(cfg.dim), "--window", str(cfg.window),
                         "--epochs", str(cfg.epochs), "--rate", str(cfg.rate),
                         "--min-count", str(cfg.min_count), "--rng-seed",
                         str(cfg.rng_seed), "--out", str(tmp_path / "e")]) == 0
        loaded = EmbeddingTable.load(tmp_path / "e")
        d = load_directed_edges(paths["edges"])
        table = train_embeddings(d.names, build_sentences(d, seed, True), cfg)
        first_use = read_corpus(corpus)[0]
        assert first_use != [name for name in d.names if name in first_use]
        assert loaded.tokens == table.tokens
        assert np.array_equal(loaded.vectors, table.vectors)


class TestVocabulary:
    def test_min_count_excludes_rare_tokens(self):
        sentences = [["a", "b"]] * 4 + [["b", "c", "b"]]
        cfg = TrainConfig(dim=4, min_count=5, epochs=1, rng_seed=0)
        table = train_embeddings(*interned(sentences), cfg)
        # "b" occurs 6 times, "a" 4, "c" 1; only ["b", "b"] is left to train.
        assert "b" in table.tokens
        assert "a" not in table.tokens and "c" not in table.tokens

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValidationError):
            train_embeddings(*interned([["a", "b"]]), TrainConfig(min_count=5))

    @pytest.mark.parametrize("sentences,cfg", [
        ([["a"]] * 5 + [["b"]] * 5, TrainConfig()),
        ([["a", "b"]] * 4 + [["b", "c"]], TrainConfig(min_count=5)),
        ([["a", "b"]] * 50, TrainConfig(min_count=1, subsample=1e-9)),
    ], ids=["one-token-sentences", "min-count-leaves-one", "subsample-all"])
    def test_no_training_pair_rejected(self, sentences, cfg):
        with pytest.raises(ValidationError, match="nothing to train"):
            train_embeddings(*interned(sentences), cfg)

    @given(id_corpora(), st.integers(1, 5))
    @example((["a", "a\x00", "b"], [[0, 1, 0], [1, 2], [2]]), 2)
    # Tokens at exactly min_count; the last sentence keeps one of them.
    @example((["x", "y", "z", "w", "v"], [[0, 1], [0, 2], [1, 2, 3], [3, 4]]),
             2)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, corpus, min_count):
        names, sentences = corpus
        tokens, counts, ids, lengths = embed._vocabulary(
            names, [np.array(s, dtype=np.int64) for s in sentences], min_count)
        want, want_counts, encoded = reference_vocabulary(
            named(names, sentences), min_count)
        assert tokens == want
        assert counts.tolist() == want_counts
        assert lengths.tolist() == [len(row) for row in encoded]
        assert ids.tolist() == [i for row in encoded for i in row]
        assert ids.dtype == lengths.dtype == np.int64

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_embeddings([], [], TrainConfig(min_count=1))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            train_embeddings(*interned([["a", "b"]]),
                             TrainConfig(mode="glove", min_count=1))

    def test_noise_lookup_matches_clipped_search(self, rng):
        sentences = [[f"t{i}"] * (i * i + 1) for i in range(8)]
        noise = embed._vocabulary(*interned(sentences), min_count=1)[1] ** 0.75
        cdf = np.cumsum(noise / noise.sum())  # as train_embeddings builds it
        draws = np.concatenate([
            cdf, cdf, np.nextafter(cdf, 0.0), [0.0, 0.0],
            [np.nextafter(1.0, 0.0)] * 3, rng.random(100)])
        rng.shuffle(draws)
        direct = np.searchsorted(cdf, draws, side="right")
        assert (direct == len(cdf)).any()  # the clamp is exercised
        found = embed._noise_ids(cdf, draws)
        assert found.dtype == direct.dtype
        assert (found == np.minimum(len(cdf) - 1, direct)).all()


class TestGradients:
    def test_analytic_matches_central_differences(self, rng):
        """The batch form ``_update`` calls: shared negatives, one of them
        some example's target (so ``keep`` has a false entry), and a
        weight per example."""
        for _ in range(10):
            b, k = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            d, size = int(rng.integers(2, 9)), int(rng.integers(3, 9))
            w_out = rng.normal(size=(size, d))
            targets, negs = rng.integers(0, size, b), rng.integers(0, size, k)
            negs[rng.integers(k)] = targets[rng.integers(b)]
            keep = targets[:, None] != negs
            weights = rng.uniform(0.1, 2.0, b)
            rows = [rng.normal(size=(b, d)), w_out[targets], w_out[negs]]
            grads = pair_gradients(*rows, keep, weights)
            for i, grad in enumerate(grads):
                def objective(x, i=i):
                    return pair_objective(*rows[:i], x, *rows[i + 1:],
                                          keep, weights)
                num = central_difference(objective, rows[i].copy())
                assert relative_error(grad, num) <= 1e-6

    def test_single_update_matches_hand_trace(self, monkeypatch):
        """Replicates the documented RNG protocol and checks each SGD
        update against inline gradient formulas, not pair_gradients."""
        monkeypatch.setattr(embed, "BATCH", 1)
        seed, dim, rate = 123, 4, 0.025
        cfg = TrainConfig(dim=dim, negatives=1, epochs=1, min_count=1,
                          rate=rate, rng_seed=seed)
        table = train_embeddings(*interned([["A", "B"]]), cfg)

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

    def test_shared_draw_matches_hand_trace(self, monkeypatch):
        """``BATCH = 2`` over the two pairs of ["A", "B"]: both examples
        read the batch-start weights and share one negative, which is
        always one example's target and so is skipped for that one.  Two
        epochs, so the second batch reads trained output rows."""
        monkeypatch.setattr(embed, "BATCH", 2)
        dim, rate, epochs = 4, 0.025, 2
        hit = set()
        for seed in range(6):
            cfg = TrainConfig(dim=dim, negatives=1, epochs=epochs,
                              min_count=1, rate=rate, rng_seed=seed)
            table = train_embeddings(*interned([["A", "B"]]), cfg)

            rng = np.random.default_rng(seed)
            w_in = (rng.random((2, dim)) - 0.5) / dim
            w_out = np.zeros((2, dim))
            noise_cdf = np.array([0.5, 1.0])
            seen, total_pairs = 0, 2.0 * epochs
            for _ in range(epochs):
                draw = int(np.searchsorted(noise_cdf, rng.random(1),
                                           "right")[0])
                v, u = w_in.copy(), w_out.copy()  # the batch start
                for center, positive in ((0, 1), (1, 0)):
                    lr = max(rate * 1e-4, rate * (1.0 - seen / total_pairs))
                    seen += 1
                    ids = [positive] + ([draw] if draw != positive else [])
                    grad_v = np.zeros(dim)
                    for row, tok in enumerate(ids):
                        score = float(u[tok] @ v[center])
                        coef = (row == 0) - 1.0 / (1.0 + math.exp(-score))
                        grad_v += coef * u[tok]
                        w_out[tok] = w_out[tok] + lr * coef * v[center]
                    w_in[center] = w_in[center] + lr * grad_v
                hit.add(draw)
            assert table.tokens == ["A", "B"]
            assert np.abs(table.vectors - w_in).max() <= TOLERANCE
        assert hit == {0, 1}  # the draw hit each example's target

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_shared_negative_step_matches_pair_gradients(self, rng, mode):
        """Each example's step, and the batch's summed output-row steps,
        equal ``pair_gradients`` of that example alone (``B = 1``).
        The draw repeats id 3, and 3 and 5 are some examples' targets."""
        size, dim, batch = 40, 4, 9
        negs = np.array([3, 7, 3, 5])
        targets = rng.integers(0, size, batch)
        targets[[0, 2, 4]] = 3
        targets[5] = 5
        counts = (np.ones(batch, dtype=np.int64) if mode == "skipgram"
                  else rng.integers(1, 4, batch))
        # Distinct input rows, so each example's step can be read off w_in.
        inputs = rng.permutation(size)[:counts.sum()]
        owned = np.split(inputs, np.cumsum(counts)[:-1])
        rates = rng.uniform(0.01, 0.1, batch)
        w_in, w_out = rng.normal(size=(2, size, dim))
        new_in, new_out = w_in.copy(), w_out.copy()
        embed._update(new_in, new_out, embed._flat_rows(inputs, dim), counts,
                      targets, rates, negs)
        want_out = np.zeros_like(w_out)
        for e in range(batch):
            grad_h, grad_pos, grad_neg = pair_gradients(
                w_in[owned[e]].mean(axis=0)[None], w_out[targets[e:e + 1]],
                w_out[negs], targets[e:e + 1, None] != negs, rates[e:e + 1])
            step = new_in[owned[e]] - w_in[owned[e]]
            assert np.abs(step - grad_h / counts[e]).max() <= TOLERANCE
            np.add.at(want_out, np.append(targets[e], negs),
                      np.concatenate([grad_pos, grad_neg]))
        assert np.abs(new_out - w_out - want_out).max() <= TOLERANCE
        touched = (new_out != w_out).any(axis=1)
        assert touched.sum() == len(set(targets) | set(negs))

    def test_fixed_seed_training_is_bit_identical(self, rng):
        corpus = clique_corpus(rng, size=6)
        cfg = TrainConfig(dim=8, min_count=1, epochs=2, rng_seed=9)
        a = train_embeddings(*interned(corpus), cfg)
        b = train_embeddings(*interned(corpus), cfg)
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
    def test_matches_shared_negative_trainer(self, mode, caplog, monkeypatch):
        """At batch 1 the reference is the per-example trainer; above it,
        every example reads the weights of its batch start and the batch
        shares one negative draw.  The step sums the batch's terms in
        another order than the reference does, so the vectors agree to
        ``TOLERANCE``, not bit for bit.  Small blocks put block boundaries
        inside sentences and at the end of an epoch; the vectors must not
        depend on them, to the bit."""
        caplog.set_level(logging.INFO, logger="demograph.embed")
        checked = Counter()
        blocks = (1, 3, embed.BLOCK)
        for batch, seed, window, subsample, negatives, min_count in (
                itertools.product((1, 2, 7, 64), range(5), (None, 1, 3),
                                  (0.0, 0.05), (1, 5), (1, 2))):
            monkeypatch.setattr(embed, "BATCH", batch)
            sentences = self.corpus(seed)
            cfg = TrainConfig(mode=mode, dim=5, window=window,
                              negatives=negatives, epochs=2,
                              min_count=min_count, subsample=subsample,
                              rng_seed=seed)
            tokens, vectors, seen = reference_word2vec(
                sentences, mode, cfg.dim, cfg.effective_window, negatives,
                cfg.rate, cfg.epochs, min_count, subsample, seed, batch)
            first = None
            for block in blocks:
                monkeypatch.setattr(embed, "BLOCK", block)
                if not seen:  # the corpus leaves no pair to train
                    with pytest.raises(ValidationError,
                                       match="nothing to train"):
                        train_embeddings(*interned(sentences), cfg)
                    checked[block] += 1
                    continue
                caplog.clear()
                table = train_embeddings(*interned(sentences), cfg)
                assert table.tokens == tokens
                assert np.abs(table.vectors - vectors).max() <= TOLERANCE, (
                    batch, block, cfg)
                first = table.vectors if first is None else first
                assert np.array_equal(table.vectors, first), (batch, block)
                assert caplog.records[-1].msg == (
                    "trained %d vectors (dim %d) over %d pairs")
                assert caplog.records[-1].args[-1] == seen
                checked[block] += 1
        assert all(checked[block] >= 400 for block in blocks), checked


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
        table = train_embeddings(*interned(corpus), cfg)
        intra, inter = [], []
        names = table.tokens
        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                value = cosine(table.vectors[i], table.vectors[j])
                (intra if a[:2] == names[j][:2] else inter).append(value)
        assert np.mean(intra) > np.mean(inter)


def test_non_finite_weights_raise_divergence(rng):
    """The two-clique corpus at rate 1.0 and window 10 overflows to NaN
    within a few epochs.  The trainer raises, and no overflow warning comes
    first (the test suite turns warnings into errors)."""
    cfg = TrainConfig(dim=8, min_count=1, epochs=20, rate=1.0, window=10)
    with pytest.raises(DivergenceError, match="training diverged"):
        train_embeddings(*interned(clique_corpus(rng, size=20)), cfg)


def coldstart_reference(g: Graph, table: EmbeddingTable) -> EmbeddingTable:
    """Per-node fill: each unembedded node gets the mean of its embedded
    neighbors' vectors, in neighbor order, or none when it has none."""
    tokens, rows = list(table.tokens), [table.vectors]
    row = {token: i for i, token in enumerate(table.tokens)}
    names = [name.decode() for name in g.names.tolist()]
    for v in range(g.node_count):
        if names[v] in row:
            continue
        found = [table.vectors[row[names[u]]] for u in g.neighbors(v)
                 if names[u] in row]
        if found:
            tokens.append(names[v])
            rows.append(np.mean(found, axis=0)[None, :])
    return EmbeddingTable(tokens, np.concatenate(rows, axis=0))


def vector(table: EmbeddingTable, token: str) -> np.ndarray | None:
    """The vector of ``token``, or ``None`` when the table has none."""
    [i] = row_indices(table.tokens, [token])
    return None if i < 0 else table.vectors[i]


class TestColdStart:
    def make_graph(self):
        return Graph.build(["a", "b", "c", "d"],
                           [(0, 1), (1, 2), (2, 3)])

    def test_single_neighbor_copies_vector(self):
        g = self.make_graph()
        table = EmbeddingTable(["a"], np.array([[1.0, 2.0]]))
        filled = fill_missing_embeddings(g, table)
        assert np.array_equal(vector(filled, "b"), [1.0, 2.0])

    def test_mean_of_two_neighbors(self):
        g = self.make_graph()
        table = EmbeddingTable(["a", "c"], np.array([[2.0, 0.0], [0.0, 4.0]]))
        filled = fill_missing_embeddings(g, table)
        assert np.array_equal(vector(filled, "b"), [1.0, 2.0])

    def test_absent_when_no_embedded_neighbor(self):
        g = self.make_graph()
        table = EmbeddingTable(["a"], np.array([[1.0, 2.0]]))
        assert vector(fill_missing_embeddings(g, table), "d") is None

    @pytest.mark.parametrize("coverage", [0.0, 0.3, 0.8, 1.0])
    def test_matches_per_node_reference(self, rng, coverage):
        n = 60
        pairs = rng.integers(0, n, size=(150, 2))
        g = Graph.build([f"v{i}" for i in range(n)], pairs)
        embedded = [name for name in texts(g.names) if rng.random() < coverage]
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
        assert np.array_equal(vector(filled, "b"), [1.0, 2.0])
        assert vector(filled, "c") is None and vector(filled, "d") is None


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

    def test_nul_ended_token_names_path_and_line(self, tmp_path):
        # save writes such a token as it is (test_writers.py), but names are
        # held as bytes arrays, which would merge "a\0" with "a".
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1 2\na\0 3 4\n")
        with pytest.raises(ValidationError,
                           match=r"emb\.txt:3: 'a\\x00': token ends in NUL"):
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
