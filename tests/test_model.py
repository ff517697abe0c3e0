"""Classifiers, splits, metrics, and feature joins."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demograph import graph, model
from demograph.errors import ConfigError, DivergenceError, ValidationError
from demograph.graph import texts
from demograph.model import (FeatureMatrix, ModelParams, SplitSpec, TrainHyper,
                             _init_params, auc_rank, balance_classes, evaluate,
                             fnv1a64, join_features, loss_and_gradients,
                             predict, split, train_logistic, train_mlp,
                             train_softmax)

from oracles import (brute_force_auc, central_difference,
                     reference_join_features, reference_loss_and_gradients,
                     relative_error)


def matrix(nodes, width=2, fill=1.0):
    values = np.full((len(nodes), width), fill)
    return FeatureMatrix(list(nodes), [f"f{i}" for i in range(width)], values)


# Raw feature CSVs for the array read: a header, rows of distinct names
# and exactly printed floats, blank lines, LF or CRLF line ends, an
# optional missing final newline, and at most one row that the array read
# must decline or the line reader reject.
_ODD_CSV_ROWS = [row.encode() for row in [
    '"q,r",1,2', "a,1", "a,1,2,3", "b,1_0,2", "b,nan,1", "b,1e400,1",
    "b,-inf,0", "b, 3,4 ", "b,,1", "b,abc,1", "b,0x10,1", "b,\x1c2,1",
    "b,2\xa0,1", "b,\u0661,1", "b,+1,.5", "\u00e9\u540d,1,2", "a b,1,2",
    ",1,2", "#x,1,2", "a\x00,1,2", "n0,5,6", "b,1\r2,3", "  ", "b,1,2\x85",
    "b,1e5_0,1"]] + [b"\xff,1,2"]


def _csv_bytes(header, rows, odd, at, eol, final_newline):
    lines = [header.encode()] + [
        f"n{i},{x!r},{y!r}".encode() for i, (x, y) in enumerate(rows)]
    lines.insert(min(at, len(lines)), odd)
    return eol.join(lines) + (eol if final_newline else b"")


_finite = st.floats(allow_nan=False, allow_infinity=False)
_raw_csv = st.builds(
    _csv_bytes,
    st.sampled_from(["node,x,y"] * 6 + ["node,x", "node", "id,x,y", ""]),
    st.lists(st.tuples(_finite, _finite), max_size=8),
    st.sampled_from([b""] * 16 + _ODD_CSV_ROWS),
    st.integers(1, 9), st.sampled_from([b"\n", b"\n", b"\r\n"]),
    st.booleans())


def _multi_block_csv(rows, eol, blanks, odd, at):
    """The bytes of a feature CSV of ``rows`` with blank lines inserted
    before the rows numbered in ``blanks`` and the raw row ``odd`` (a
    repeat of the first node for ``b"repeat"``) ``at`` lines past the
    middle, and whether the array read must decline it."""
    lines = [f"{name},{x!r},{y!r}".encode() for name, x, y in rows]
    for i in sorted(blanks, reverse=True):
        lines.insert(min(i, len(lines)), b"")
    if odd == b"repeat":
        odd = f"{rows[0][0]},1,2".encode()
    if odd:
        lines.insert(min(len(lines) // 2 + at, len(lines)), odd)
    return eol.join([b"node,x,y", *lines, b""]), bool(odd)


# Rows of distinct names with 2- and 3-byte UTF-8 characters, and at most
# one row in the later half that the array read must decline: a repeated
# node, a bad value or a non-finite one.
_multi_block_raw = st.builds(
    _multi_block_csv,
    st.lists(st.tuples(st.text("ab\u00e9\u00fc\u540d\u20ac", min_size=1,
                               max_size=5), _finite, _finite),
             min_size=12, max_size=24, unique_by=lambda row: row[0]),
    st.sampled_from([b"\n", b"\r\n"]),
    st.lists(st.integers(0, 24), max_size=4),
    st.sampled_from([b"", b"repeat", b"z,abc,1", b"z,1,nan", b"z,-inf,1",
                     b"z,1e400,1", b"z,1"]),
    st.integers(0, 12))


def _csv_outcome(path):
    try:
        fm = FeatureMatrix.from_csv(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    return fm.nodes.tolist(), fm.columns, fm.values.shape, fm.values.tobytes()


class TestFeatureMatrix:
    def test_csv_round_trip(self, tmp_path, rng):
        fm = FeatureMatrix(["a", "b"], ["x", "y"], rng.normal(size=(2, 2)))
        path = tmp_path / "f.csv"
        fm.to_csv(path)
        back = FeatureMatrix.from_csv(path)
        assert np.array_equal(back.nodes, fm.nodes) and back.columns == fm.columns
        assert np.array_equal(back.values, fm.values)

    @pytest.mark.parametrize("rows,message", [
        ("a,1,2\nb,inf,0\n", r"f\.csv:3: non-finite value"),
        ("a,1,2\nb,0,nan\n", r"f\.csv:3: non-finite value"),
        ("a,1,2\n\nb,0,1\na,3,4\n", r"f\.csv:5: repeated node")])
    def test_csv_rejects_bad_rows_with_path_and_line(self, tmp_path, rows,
                                                      message):
        path = tmp_path / "f.csv"
        path.write_text("node,x,y\n" + rows)
        with pytest.raises(ValidationError, match=message):
            FeatureMatrix.from_csv(path)

    @given(_raw_csv, st.sampled_from([5, 16, 1 << 20]))
    @settings(max_examples=300, deadline=None)
    def test_array_read_matches_line_reader(self, tmp_path_factory, data,
                                            block):
        path = tmp_path_factory.mktemp("f") / "f.csv"
        path.write_bytes(data)
        with mock.patch.object(graph, "_BLOCK", block):
            fast = _csv_outcome(path)
        with mock.patch.object(model, "_array_csv", return_value=None):
            assert fast == _csv_outcome(path)

    @given(_multi_block_raw, st.sampled_from([8, 16, 24, 32]))
    @settings(max_examples=200, deadline=None)
    def test_read_in_many_blocks_matches_line_reader(self, tmp_path_factory,
                                                     case, block):
        data, declined = case
        path = tmp_path_factory.mktemp("f") / "f.csv"
        path.write_bytes(data)
        assert len(data) > 3 * block
        with mock.patch.object(graph, "_BLOCK", block):
            fast = _csv_outcome(path)
            assert (model._array_csv(path) is None) == declined
        with mock.patch.object(model, "_array_csv", return_value=None):
            assert fast == _csv_outcome(path)

    def test_array_read_peak_per_file_byte(self, tmp_path, rng):
        # Only the nodes, the values and one block of lines are held; the
        # file is read a block at a time (1.20 times its size here).  A
        # read of the whole file peaked at 2.0 times its size, and of the
        # whole text at once at 3.5.
        fm = FeatureMatrix([f"node{i}" for i in range(15_000)],
                           [f"c{i}" for i in range(7)],
                           rng.normal(size=(15_000, 7)))
        path = tmp_path / "f.csv"
        fm.to_csv(path)
        with mock.patch.object(graph, "_BLOCK", 1 << 16):
            tracemalloc.start()
            try:
                nodes, _, values = model._array_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(nodes, fm.nodes)
        assert values.tobytes() == fm.values.tobytes()
        assert peak < 1.35 * path.stat().st_size

    @pytest.mark.parametrize("odd", _ODD_CSV_ROWS)
    def test_odd_row_matches_line_reader(self, tmp_path, odd):
        path = tmp_path / "f.csv"
        path.write_bytes(b"node,x,y\r\nn0,1,2\r\n" + odd + b"\r\nn1,3,4\r\n")
        fast = _csv_outcome(path)
        with mock.patch.object(model, "_array_csv", return_value=None):
            assert fast == _csv_outcome(path)

    def test_array_read_takes_what_to_csv_writes(self, tmp_path, rng):
        fm = FeatureMatrix(["a", "b", "c"], ["x", "y"], rng.normal(size=(3, 2)))
        fm.to_csv(tmp_path / "f.csv")
        nodes, columns, values = model._array_csv(tmp_path / "f.csv")
        assert np.array_equal(nodes, fm.nodes) and columns == fm.columns
        assert values.tobytes() == fm.values.tobytes()

    def test_csv_requires_node_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,x\na,1\n")
        with pytest.raises(ValidationError):
            FeatureMatrix.from_csv(path)

    def test_join_identical_key_sets(self):
        fm = join_features({"l": matrix("ab", fill=1.0),
                            "r": matrix("ab", fill=2.0)})
        assert texts(fm.nodes) == ["a", "b"]
        assert fm.columns == ["l.f0", "l.f1", "r.f0", "r.f1"]
        assert np.array_equal(fm.values[0], [1.0, 1.0, 2.0, 2.0])

    def test_join_disjoint_fails(self):
        with pytest.raises(ValidationError):
            join_features({"l": matrix("ab"), "r": matrix("cd")})

    def test_join_single_overlap(self):
        fm = join_features({"l": matrix("ab"), "r": matrix("bc")})
        assert texts(fm.nodes) == ["b"]

    def test_join_preserves_first_block_order(self):
        fm = join_features({"l": matrix(["z", "a", "m"]), "r": matrix("amz")})
        assert texts(fm.nodes) == ["z", "a", "m"]

    def test_join_peak_is_one_table(self, rng):
        # The joined table is the one large allocation; gathering each
        # block whole before stacking peaked at 2.1 tables here.
        names = [f"n{i}" for i in range(40_000)]
        blocks = {"a": FeatureMatrix(names, [f"a{i}" for i in range(8)],
                                     rng.normal(size=(40_000, 8))),
                  "b": FeatureMatrix(names[::-1], [f"b{i}" for i in range(24)],
                                     rng.normal(size=(40_000, 24)))}
        tracemalloc.start()
        try:
            joined = join_features(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(joined.values[::-1, 8:], blocks["b"].values)
        assert peak < 1.7 * joined.values.nbytes

    def test_repeated_node_rejected(self):
        with pytest.raises(ValidationError, match="'b'"):
            FeatureMatrix(["a", "b", "c", "b"], ["x"], np.zeros((4, 1)))

    # Each block holds some of the names, in its own order.
    @given(st.lists(st.permutations("abcdefgh").flatmap(
               lambda names: st.integers(0, 8).map(lambda k: names[:k])),
               min_size=1, max_size=3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_join_equals_reference(self, node_lists, seed):
        rng = np.random.default_rng(seed)
        blocks = {f"b{i}": FeatureMatrix(
                      nodes, [f"c{j}" for j in range(i + 1)],
                      rng.normal(size=(len(nodes), i + 1)))
                  for i, nodes in enumerate(node_lists)}
        try:
            want = reference_join_features(blocks)
        except ValueError:
            with pytest.raises(ValidationError, match="share no nodes"):
                join_features(blocks)
            return
        got = join_features(blocks)
        assert np.array_equal(got.nodes, want.nodes)
        assert got.columns == want.columns
        assert got.values.tobytes() == want.values.tobytes()


class TestSplit:
    def test_hash_mode_is_deterministic(self):
        nodes = [f"user{i}" for i in range(500)]
        spec = SplitSpec(mode="hash", train_fraction=0.75)
        assert all(map(np.array_equal, split(nodes, spec), split(nodes, spec)))

    def test_hash_fraction_approximately_honored(self):
        nodes = [f"user{i}" for i in range(20000)]
        train, test = split(nodes, SplitSpec(mode="hash", train_fraction=0.75))
        assert abs(len(train) / len(nodes) - 0.75) < 0.02

    @given(st.sets(st.text(min_size=1, max_size=12), min_size=1, max_size=40),
           st.sets(st.text(min_size=1, max_size=12), min_size=0, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_growth_never_reassigns(self, base, extra):
        spec = SplitSpec(mode="hash", train_fraction=0.6)
        small = sorted(base)
        large = sorted(base | extra)
        train_small = {small[i] for i in split(small, spec)[0]}
        train_large = {large[i] for i in split(large, spec)[0]}
        assert train_small == train_large & set(small)

    def test_random_mode_seeded(self):
        nodes = [f"u{i}" for i in range(100)]
        a = split(nodes, SplitSpec(mode="random", rng_seed=5))
        b = split(nodes, SplitSpec(mode="random", rng_seed=5))
        c = split(nodes, SplitSpec(mode="random", rng_seed=6))
        assert all(map(np.array_equal, a, b))
        assert not all(map(np.array_equal, a, c))
        assert len(a[0]) == 70  # default random fraction

    def test_default_fractions(self):
        assert SplitSpec(mode="hash").resolved_fraction() == 0.75
        assert SplitSpec(mode="random").resolved_fraction() == 0.70

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            split(["a"], SplitSpec(mode="hash", train_fraction=1.0))

    def test_fnv_published_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8

    @given(st.lists(st.text(max_size=45), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_array_fnv_matches_fnv1a64(self, names):
        names += ["", "\u00e9\u540d", "a\x00", "x" * 40]
        assert model._fnv1a64_all(names).tolist() == [fnv1a64(n) for n in names]


class TestLogistic:
    def test_zero_weights_predict_half(self):
        params = ModelParams([np.zeros((3, 1))], [np.zeros(1)], "sigmoid")
        probs = predict(params, np.array([[5.0, -2.0, 0.1]]))
        assert np.array_equal(probs[0], [0.5, 0.5])

    def test_separable_1d_reaches_full_accuracy(self):
        x = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        params = train_logistic(x, y, TrainHyper(rate=0.5, epochs=300,
                                                 minibatch=6, rng_seed=0))
        assert (predict(params, x).argmax(axis=1) == y).all()

    def test_single_sgd_steps_match_hand_computation(self):
        # Two rows (one per class), batch size 1: replay both updates with
        # inline formulas following the documented init protocol.
        seed, rate = 42, 0.3
        x = np.array([[0.5, -1.0], [1.5, 2.0]])
        y = np.array([1, 0])
        params = train_logistic(x, y, TrainHyper(rate=rate, epochs=1,
                                                 minibatch=1, rng_seed=seed))
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(2.0)
        w = rng.uniform(-bound, bound, size=(2, 1))
        b = np.zeros(1)
        for i in rng.permutation(2):
            z = (x[i] @ w + b).item()
            p = 1.0 / (1.0 + math.exp(-z))
            delta = p - y[i]
            w = w - rate * (x[i].reshape(2, 1) * delta)
            b = b - rate * delta
        assert np.abs(params.weights[0] - w).max() <= 1e-12
        assert abs(params.biases[0][0] - b[0]) <= 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            train_logistic(np.ones((3, 1)), np.array([1, 1, 1]))

    def test_gradient_check(self, rng):
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        params = ModelParams([rng.normal(size=(3, 1)) * 0.3], [rng.normal(size=1)],
                             "sigmoid")
        _, grads_w, grads_b = loss_and_gradients(params, x, y, l2=0.01)

        def loss_of_w(w):
            return loss_and_gradients(
                ModelParams([w], [params.biases[0]], "sigmoid"), x, y, 0.01)[0]

        num = central_difference(loss_of_w, params.weights[0].copy())
        assert relative_error(grads_w[0], num) <= 1e-6
        num_b = central_difference(
            lambda b: loss_and_gradients(
                ModelParams([params.weights[0]], [b], "sigmoid"), x, y, 0.01)[0],
            params.biases[0].copy())
        assert relative_error(grads_b[0], num_b) <= 1e-6


class TestStepAgainstReference:
    """The in-place minibatch step against the one-hot step it replaced."""

    @given(st.sampled_from(["sigmoid", "softmax", "mlp"]),
           st.sampled_from([0.0, 0.01, math.nan]), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_loss_and_gradients_equal(self, head, l2, batch, seed):
        rng = np.random.default_rng(seed)
        classes = 2 if head == "sigmoid" else 5
        hidden = [7, 4] if head == "mlp" else []
        widths = [6, *hidden, 1 if head == "sigmoid" else classes]
        params = ModelParams(
            [rng.normal(size=(a, b)) for a, b in zip(widths[:-1], widths[1:])],
            [rng.normal(size=b) for b in widths[1:]],
            "sigmoid" if head == "sigmoid" else "softmax")
        # Large inputs saturate some probabilities, so the clip is used.
        x = rng.normal(size=(batch, 6)) * rng.choice([1.0, 30.0])
        y = rng.integers(0, classes, size=batch)
        loss, grads_w, grads_b = loss_and_gradients(params, x, y, l2)
        want_loss, want_w, want_b = reference_loss_and_gradients(
            params, x, y, l2)
        assert np.array_equal(loss, want_loss, equal_nan=True)
        for got, want in zip(grads_w + grads_b, want_w + want_b):
            assert np.array_equal(got, want, equal_nan=True)


class TestSoftmaxAndMLP:
    def test_xor_memorized(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        params = train_mlp(x, y, [8], n_classes=2,
                           hyper=TrainHyper(rate=0.5, epochs=2000,
                                            minibatch=4, rng_seed=0))
        assert (predict(params, x).argmax(axis=1) == y).all()

    def test_mlp_gradient_check(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)
        widths = [3, 4, 4, 2]
        weights = [rng.normal(size=(a, b)) * 0.4
                   for a, b in zip(widths[:-1], widths[1:])]
        biases = [rng.normal(size=b) * 0.1 for b in widths[1:]]
        params = ModelParams(weights, biases, "softmax")
        _, grads_w, grads_b = loss_and_gradients(params, x, y)
        for layer in range(3):
            def loss_of(w, layer=layer):
                ws = [m.copy() for m in weights]
                ws[layer] = w
                return loss_and_gradients(
                    ModelParams(ws, biases, "softmax"), x, y)[0]
            num = central_difference(loss_of, weights[layer].copy())
            assert relative_error(grads_w[layer], num) <= 1e-6

    def test_zero_input_row_uses_bias_path(self, rng):
        params = train_softmax(rng.normal(size=(10, 3)),
                               rng.integers(0, 3, size=10), 3,
                               TrainHyper(rate=0.1, epochs=2, minibatch=4,
                                          rng_seed=1))
        probs = predict(params, np.zeros((1, 3)))
        z = params.biases[-1]
        expected = np.exp(z - z.max())
        expected /= expected.sum()
        assert np.allclose(probs[0], expected, atol=1e-12)

    def test_uniform_output_for_zero_weight_softmax(self):
        params = ModelParams([np.zeros((4, 3))], [np.zeros(3)], "softmax")
        probs = predict(params, np.ones((2, 4)))
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_loss_decreases_on_fixed_dataset(self, rng):
        x = rng.normal(size=(40, 3))
        w_true = np.array([1.0, -2.0, 0.5])
        y = (x @ w_true > 0).astype(int)
        params = train_mlp(x, y, [8], n_classes=2,
                           hyper=TrainHyper(rate=0.05, epochs=30,
                                            minibatch=8, rng_seed=2))
        assert params.loss_history[-1] < params.loss_history[0]

    @pytest.mark.parametrize("trainer", [
        lambda x, y, h: train_logistic(x, y % 2, h),
        lambda x, y, h: train_softmax(x, y, 3, h),
        lambda x, y, h: train_mlp(x, y, [5, 4], 3, h)])
    def test_epoch_loss_is_minibatch_mean(self, rng, trainer):
        # Replays the training steps: each epoch logs the batch-size-weighted
        # mean of its minibatch losses, each taken before its step.
        x = rng.normal(size=(50, 3))
        y = np.arange(50) % 3
        hyper = TrainHyper(rate=0.2, epochs=3, minibatch=7, l2=0.01,
                           rng_seed=4)
        params = trainer(x, y, hyper)
        labels = y % 2 if params.output == "sigmoid" else y
        replay_rng = np.random.default_rng(hyper.rng_seed)
        widths = [w.shape[0] for w in params.weights]
        replay = _init_params(widths + [params.weights[-1].shape[1]],
                              params.output, replay_rng)
        expected = []
        for _ in range(hyper.epochs):
            order = replay_rng.permutation(len(x))
            total = 0.0
            for start in range(0, len(x), hyper.minibatch):
                batch = order[start:start + hyper.minibatch]
                loss, grads_w, grads_b = loss_and_gradients(
                    replay, x[batch], labels[batch], hyper.l2)
                total += loss * len(batch)
                for w, b, gw, gb in zip(replay.weights, replay.biases,
                                        grads_w, grads_b):
                    w -= hyper.rate * gw
                    b -= hyper.rate * gb
            expected.append(total / len(x))
        assert params.loss_history == expected
        for trained, replayed in zip(params.weights, replay.weights):
            assert np.array_equal(trained, replayed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_last_step_is_caught(self, rng):
        # One minibatch per epoch: the loss before the step is finite, and
        # only the weights after it show the blow-up.
        x = rng.normal(size=(20, 2)) * 100
        y = np.arange(20) % 2
        with pytest.raises(DivergenceError) as exc:
            train_logistic(x, y, TrainHyper(rate=1e308, epochs=1,
                                            minibatch=20))
        assert exc.value.epoch == 1 and math.isnan(exc.value.loss)

    def test_nan_l2_diverges(self, rng):
        # A NaN l2 passes TrainHyper's checks; it must still poison the
        # loss rather than switch the penalty off.
        x = rng.normal(size=(20, 2))
        y = np.arange(20) % 2
        with pytest.raises(DivergenceError) as exc:
            train_logistic(x, y, TrainHyper(epochs=2, minibatch=20,
                                            l2=math.nan))
        assert exc.value.epoch == 1 and math.isnan(exc.value.loss)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self, rng):
        x = rng.normal(size=(20, 2)) * 1e6
        y = rng.integers(0, 2, size=20)
        with pytest.raises(DivergenceError) as exc:
            train_mlp(x, y, [8], n_classes=2,
                      hyper=TrainHyper(rate=1e9, epochs=5, minibatch=5,
                                       rng_seed=0))
        assert exc.value.epoch >= 1

    def test_width_mismatch_rejected(self, rng):
        params = train_softmax(rng.normal(size=(8, 3)),
                               rng.integers(0, 2, size=8), 2,
                               TrainHyper(epochs=1, minibatch=8))
        with pytest.raises(ValidationError):
            predict(params, np.zeros((1, 5)))

    def test_probabilities_sum_to_one(self, rng):
        params = train_mlp(rng.normal(size=(12, 4)),
                           rng.integers(0, 3, size=12), [6], n_classes=3,
                           hyper=TrainHyper(epochs=2, minibatch=4, rng_seed=3))
        probs = predict(params, rng.normal(size=(7, 4)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9

    def test_bad_hidden_sizes_rejected(self, rng):
        with pytest.raises(ConfigError):
            train_mlp(np.ones((4, 2)), np.array([0, 1, 0, 1]), [],
                      n_classes=2)

    @pytest.mark.parametrize("train", [
        train_logistic, lambda x, y: train_mlp(x, y, [4])],
        ids=["logistic", "mlp"])
    def test_zero_width_matrix_rejected(self, train):
        with pytest.raises(ValidationError, match="no feature columns"):
            train(np.zeros((4, 0)), np.array([0, 1, 0, 1]))

    def test_balance_downsamples_majority(self, rng):
        y = np.array([0] * 10 + [1] * 3)
        keep = balance_classes(y, rng)
        assert (y[keep] == 0).sum() == 3 and (y[keep] == 1).sum() == 3


# Scores that reach every branch of auc_rank's sign split: both zeros,
# which must tie, the infinities, subnormals on either side of zero, and
# a few values that repeat so that ties form across the two sides.
_AUC_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, -1.0, 1.0, -0.5, 0.5]),
    st.floats(allow_nan=False))


class TestMetrics:
    @given(st.lists(st.tuples(_AUC_SCORES, st.booleans()), min_size=2,
                    max_size=60),
           st.sampled_from([bool, int, np.int8, np.int64]), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_equals_brute_force_on_any_scores(self, pairs, label_type, tied):
        scores = np.array([score for score, _ in pairs])
        if tied:
            scores[:] = scores[0]
        labels = [True, False] + [label for _, label in pairs[2:]]
        labels = np.array(labels).astype(label_type)
        assert auc_rank(scores, labels) == brute_force_auc(scores, labels)
        assert auc_rank(scores.tolist(), labels.tolist()) == \
            brute_force_auc(scores, labels)

    def test_perfect_ranking(self):
        assert auc_rank([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_scores(self):
        assert auc_rank([0.9, 0.9], [1, 0]) == 0.5

    def test_hand_counted_pairs(self):
        # pos {0.8, 0.6}, neg {0.7, 0.1}: 3 of 4 pairs correct, no ties.
        assert auc_rank([0.8, 0.6, 0.7, 0.1], [1, 1, 0, 0]) == 0.75

    def test_one_class_truth(self):
        with pytest.raises(ValidationError):
            auc_rank([0.3, 0.4], [1, 1])
        metrics = evaluate(np.array([0.3, 0.4]), np.array([1, 1]))
        assert metrics["auc"] is None
        assert metrics["accuracy"] == 0.0  # both below 0.5

    def test_rank_statistic_equals_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 60))
            scores = rng.choice([0.1, 0.25, 0.5, 0.77, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc_rank(scores, labels) == brute_force_auc(scores, labels)

    def test_tie_heavy_scores_equal_brute_force(self, rng):
        for _ in range(2):
            n = int(rng.integers(1900, 2100))
            levels = rng.random(int(rng.integers(2, 6)))
            scores = rng.choice(levels, size=n)
            labels = rng.integers(0, 2, size=n)
            assert auc_rank(scores, labels) == brute_force_auc(scores, labels)

    def test_distinct_scores_equal_brute_force(self, rng):
        scores = rng.permutation(2000) / 7.0
        labels = rng.integers(0, 2, size=2000)
        assert len(set(scores)) == 2000
        assert auc_rank(scores, labels) == brute_force_auc(scores, labels)

    def test_single_tie_group_equals_brute_force(self, rng):
        scores = np.full(500, 0.3)
        labels = rng.integers(0, 2, size=500)
        assert auc_rank(scores, labels) == brute_force_auc(scores, labels)
        assert auc_rank(scores, labels) == 0.5

    def test_nan_scores_rejected(self):
        # A NaN has no place in the order, so it cannot get a rank.
        with pytest.raises(ValidationError, match="1 AUC scores are NaN"):
            auc_rank([0.2, np.nan, 0.7, 0.4], [1, 0, 1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predictions_rejected(self, bad):
        with pytest.raises(ValidationError, match="1 of 3 prediction rows"):
            evaluate(np.array([0.9, bad, 0.2]), np.array([1, 0, 0]))
        probs = np.array([[0.1, 0.9], [0.5, 0.5], [bad, 0.0]])
        with pytest.raises(ValidationError, match="1 of 3 prediction rows"):
            evaluate(probs, np.array([1, 0, 0]))

    @pytest.mark.parametrize("truth", [[0, 2], [-1, 1]])
    def test_truth_outside_prediction_width_rejected(self, truth):
        with pytest.raises(ValidationError, match=r"\[0, 2\)"):
            evaluate(np.array([0.9, 0.2]), np.array(truth))

    def test_cross_entropy_clamped(self):
        metrics = evaluate(np.array([[1.0, 0.0]]), np.array([1]))
        assert math.isfinite(metrics["cross_entropy"])
        assert metrics["cross_entropy"] == pytest.approx(-math.log(1e-12))

    def test_cross_entropy_of_certain_predictions_is_plus_zero(self):
        metrics = evaluate(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1, 0]))
        assert math.copysign(1.0, metrics["cross_entropy"]) == 1.0

    def test_scalar_predictions_expand(self):
        metrics = evaluate(np.array([0.9, 0.2]), np.array([1, 0]))
        assert metrics["accuracy"] == 1.0
        assert metrics["auc"] == 1.0

    def test_row_permutation_invariance(self, rng):
        probs = rng.random(30)
        y = rng.integers(0, 2, size=30)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        base = evaluate(probs, y)
        perm = rng.permutation(30)
        assert evaluate(probs[perm], y[perm]) == base

    def test_multiclass_metrics(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        metrics = evaluate(probs, np.array([0, 1]))
        assert metrics["auc"] is None
        assert metrics["accuracy"] == 1.0
        expected_ce = -(math.log(0.7) + math.log(0.8)) / 2.0
        assert metrics["cross_entropy"] == pytest.approx(expected_ce)
