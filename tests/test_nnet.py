import json
import math
import struct

import numpy as np
import pytest

from wuw.errors import DataError, ModelError
from wuw import features, nnet
from wuw.features import CLOUD, DEVICE, FeatureMatrix
from wuw.nnet import (
    Adam,
    GRUParams,
    GRUStack,
    LinearStack,
    ScorePair,
    TrainSpec,
    WeightStore,
    _ce_batch,
    fit,
    gru_cell,
    gru_outputs,
    init_gru_scorer,
    linear_grads,
    load_weights,
    make_scorer,
    make_stack,
    param_count,
    save_weights,
    softmax2,
    stack_key,
    train_classifier,
)


def cross_entropy(s, label):
    """One row of ``_ce_batch``: (loss, gradient w.r.t. (logit_pos,
    logit_neg)) of a score pair against a binary label."""
    loss, grad = _ce_batch(np.array([[s[0], s[1]]], dtype=np.float64), np.array([label]))
    return loss, (float(grad[0, 0]), float(grad[0, 1]))


def zero_gru(i=3, h=4):
    return GRUParams(np.zeros((3 * h, i)), np.zeros((3 * h, h)),
                     np.zeros(3 * h), np.zeros(3 * h))


def gru_sequence(frames, params, mode="last"):
    """A GRU over a sequence, pooled with the final state or max over time."""
    states = gru_outputs(frames, params)
    return states[-1] if mode == "last" else states.max(axis=0)


def scalar_gru_cell(x, h, p):
    """Oracle: element-by-element scalar reimplementation."""
    hs = len(h)
    out = np.empty(hs)
    for j in range(hs):
        giz = sum(p.w_ih[j, k] * x[k] for k in range(len(x))) + p.b_ih[j]
        gir = sum(p.w_ih[hs + j, k] * x[k] for k in range(len(x))) + p.b_ih[hs + j]
        gin = sum(p.w_ih[2 * hs + j, k] * x[k] for k in range(len(x))) + p.b_ih[2 * hs + j]
        ghz = sum(p.w_hh[j, k] * h[k] for k in range(hs)) + p.b_hh[j]
        ghr = sum(p.w_hh[hs + j, k] * h[k] for k in range(hs)) + p.b_hh[hs + j]
        ghn = sum(p.w_hh[2 * hs + j, k] * h[k] for k in range(hs)) + p.b_hh[2 * hs + j]
        z = 1.0 / (1.0 + math.exp(-(giz + ghz)))
        r = 1.0 / (1.0 + math.exp(-(gir + ghr)))
        n = math.tanh(gin + r * ghn)
        out[j] = (1.0 - z) * n + z * h[j]
    return out


class TestGruCell:
    def test_zero_params_halve_state(self):
        h = np.array([1.0, -2.0, 0.5, 4.0])
        out = gru_cell(np.zeros(3), h, zero_gru())
        np.testing.assert_allclose(out, 0.5 * h, rtol=1e-12)

    def test_zero_params_zero_state(self):
        out = gru_cell(np.zeros(3), np.zeros(4), zero_gru())
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        p = GRUParams(rng.normal(size=(12, 3)), rng.normal(size=(12, 4)),
                      rng.normal(size=12), rng.normal(size=12))
        x, h = rng.normal(size=3), rng.normal(size=4)
        np.testing.assert_allclose(gru_cell(x, h, p), scalar_gru_cell(x, h, p),
                                   rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gru_cell(np.zeros(5), np.zeros(4), zero_gru())


class TestGruSequence:
    def test_single_frame_last_equals_max(self):
        rng = np.random.default_rng(2)
        p = GRUParams(rng.normal(size=(12, 3)), rng.normal(size=(12, 4)),
                      rng.normal(size=12), rng.normal(size=12))
        frames = rng.normal(size=(1, 3))
        np.testing.assert_array_equal(
            gru_sequence(frames, p, "last"), gru_sequence(frames, p, "max")
        )

    def test_zero_params_last_is_zero(self):
        frames = np.random.default_rng(3).normal(size=(7, 3))
        np.testing.assert_array_equal(gru_sequence(frames, zero_gru(), "last"),
                                      np.zeros(4))

    def test_max_dominates_last(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = GRUParams(rng.normal(size=(12, 3)), rng.normal(size=(12, 4)),
                          rng.normal(size=12), rng.normal(size=12))
            frames = rng.normal(size=(5, 3))
            last = gru_sequence(frames, p, "last")
            best = gru_sequence(frames, p, "max")
            assert np.all(best >= last)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError):
            gru_sequence(np.zeros((0, 3)), zero_gru())


class TestSgruScorer:
    def test_reference_param_count(self):
        # closed form: layer1 3(128*13 + 128^2 + 256) = 54912,
        # layer2 3(128*128 + 128^2 + 256) = 99072, head 258
        ws = init_gru_scorer(DEVICE, seed=0)
        assert param_count(ws) == 54912 + 99072 + 258 == 154242

    def test_zero_weights_zero_logits(self):
        ws = init_gru_scorer(DEVICE, seed=0)
        zeroed = WeightStore(
            {k: np.zeros_like(v) for k, v in ws.tensors.items()}, ws.metadata
        )
        fm = FeatureMatrix(np.random.default_rng(5).normal(size=(29, 13)), 1)
        assert make_scorer(zeroed).fn(fm) == ScorePair(0.0, 0.0)

    def test_deterministic(self):
        ws = init_gru_scorer(DEVICE, seed=7)
        fm = FeatureMatrix(np.random.default_rng(6).normal(size=(29, 13)), 1)
        assert make_scorer(ws).fn(fm) == make_scorer(ws).fn(fm)

    def test_config_mismatch_rejected(self):
        ws = init_gru_scorer(DEVICE, seed=0)
        fm = FeatureMatrix(np.zeros((148, 40)), CLOUD.config_id)
        with pytest.raises(ModelError):
            make_scorer(ws).fn(fm)

    def test_gru_max_kind(self):
        ws = init_gru_scorer(CLOUD, kind="gru-max", hidden=8, layers=1, seed=1)
        fm = FeatureMatrix(np.random.default_rng(7).normal(size=(148, 40)), 2)
        out = make_scorer(ws).fn(fm)
        assert np.isfinite(out.logit_pos) and np.isfinite(out.logit_neg)


class TestSoftmax2:
    def test_symmetric(self):
        assert softmax2(ScorePair(0.0, 0.0)) == (0.5, 0.5)

    def test_large_logits_stable(self):
        p_pos, p_neg = softmax2(ScorePair(1000.0, 0.0))
        assert p_pos == pytest.approx(1.0)
        assert p_neg == pytest.approx(0.0, abs=1e-300)

    def test_ln9(self):
        p_pos, p_neg = softmax2(ScorePair(math.log(9.0), 0.0))
        assert p_pos == pytest.approx(0.9, rel=1e-12)
        assert p_neg == pytest.approx(0.1, rel=1e-12)

    def test_sums_to_one_no_nan(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, b = rng.uniform(-1e4, 1e4, size=2)
            p_pos, p_neg = softmax2(ScorePair(a, b))
            assert abs(p_pos + p_neg - 1.0) < 1e-7
            assert np.isfinite(p_pos) and np.isfinite(p_neg)


class TestCrossEntropy:
    def test_symmetric_point(self):
        loss, grad = cross_entropy(ScorePair(0.0, 0.0), 1)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)
        assert grad == pytest.approx((-0.5, 0.5))

    def test_matches_log_sum_exp_form(self):
        rng = np.random.default_rng(10)
        pairs = [(0.0, 0.0), (40.0, 0.0), (0.0, 40.0), *rng.uniform(-20, 20, size=(500, 2))]
        for a, b in pairs:
            for label in (0, 1):
                m = max(a, b)
                lse = m + math.log(math.exp(a - m) + math.exp(b - m))
                p_pos = math.exp(a - lse)
                loss, grad = cross_entropy(ScorePair(a, b), label)
                assert abs(loss - (lse - (a if label == 1 else b))) <= 1e-12
                np.testing.assert_allclose(grad, (p_pos - label, label - p_pos),
                                           rtol=0, atol=1e-12)

    def test_loss_saturates_beyond_a_margin_of_about_690(self):
        floor = -math.log(1e-300)
        assert cross_entropy(ScorePair(-1000.0, 0.0), 1)[0] == pytest.approx(floor, rel=1e-12)
        assert cross_entropy(ScorePair(0.0, 1000.0), 1)[0] == pytest.approx(floor, rel=1e-12)
        assert cross_entropy(ScorePair(650.0, 0.0), 0)[0] == pytest.approx(650.0, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        delta = 1e-4
        for _ in range(100):
            a, b = rng.uniform(-4, 4, size=2)
            label = int(rng.integers(0, 2))
            _, grad = cross_entropy(ScorePair(a, b), label)
            num_a = (
                cross_entropy(ScorePair(a + delta, b), label)[0]
                - cross_entropy(ScorePair(a - delta, b), label)[0]
            ) / (2 * delta)
            num_b = (
                cross_entropy(ScorePair(a, b + delta), label)[0]
                - cross_entropy(ScorePair(a, b - delta), label)[0]
            ) / (2 * delta)
            np.testing.assert_allclose(grad, (num_a, num_b), rtol=1e-4, atol=1e-7)


class TestWeightFiles:
    def make_store(self):
        rng = np.random.default_rng(10)
        return WeightStore(
            {"a": rng.normal(size=(3, 4)).astype(np.float32),
             "b": rng.normal(size=7).astype(np.float32)},
            {"kind": "linear", "config_id": 1, "hparams": {"n": 1}},
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        ws = self.make_store()
        save_weights(ws, tmp_path / "w.wuwm")
        back = load_weights(tmp_path / "w.wuwm")
        assert list(back.tensors) == list(ws.tensors)
        for name in ws.tensors:
            assert back[name].tobytes() == ws[name].tobytes()
            assert back[name].shape == ws[name].shape
        assert back.metadata == ws.metadata

    def test_param_count(self):
        assert param_count(WeightStore({}, {})) == 0
        assert param_count(WeightStore({"t": np.zeros((3, 4))}, {})) == 12
        assert param_count(self.make_store()) == 19

    def test_bad_magic(self, tmp_path):
        ws = self.make_store()
        save_weights(ws, tmp_path / "w.wuwm")
        blob = bytearray((tmp_path / "w.wuwm").read_bytes())
        blob[:4] = b"JUNK"
        (tmp_path / "bad.wuwm").write_bytes(bytes(blob))
        with pytest.raises(ModelError, match=r"bad\.wuwm: bad weight-file magic"):
            load_weights(tmp_path / "bad.wuwm")

    def test_bad_version(self, tmp_path):
        ws = self.make_store()
        save_weights(ws, tmp_path / "w.wuwm")
        blob = bytearray((tmp_path / "w.wuwm").read_bytes())
        blob[4] = 42
        (tmp_path / "bad.wuwm").write_bytes(bytes(blob))
        with pytest.raises(ModelError, match=r"bad\.wuwm: unsupported version 42"):
            load_weights(tmp_path / "bad.wuwm")

    def test_truncated_payload(self, tmp_path):
        ws = self.make_store()
        save_weights(ws, tmp_path / "w.wuwm")
        blob = (tmp_path / "w.wuwm").read_bytes()
        (tmp_path / "bad.wuwm").write_bytes(blob[:-5])
        with pytest.raises(ModelError, match=r"bad\.wuwm: payload for '[^']+' truncated"):
            load_weights(tmp_path / "bad.wuwm")

    def test_shape_payload_mismatch(self, tmp_path):
        ws = self.make_store()
        save_weights(ws, tmp_path / "w.wuwm")
        blob = (tmp_path / "w.wuwm").read_bytes()
        (tmp_path / "bad.wuwm").write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(ModelError, match=r"bad\.wuwm: 4 trailing bytes"):
            load_weights(tmp_path / "bad.wuwm")

    @staticmethod
    def write_declared(path, metadata, payload_floats=3):
        """A weight file whose metadata is ``metadata``, verbatim."""
        meta = json.dumps(metadata).encode()
        path.write_bytes(b"WUWM" + struct.pack("<BI", 1, len(meta)) + meta
                         + bytes(4 * payload_floats))
        return path

    @pytest.mark.parametrize("metadata", [
        {"tensors": [{"name": "a", "shape": [2.5]}]},
        {"tensors": [{"name": "a", "shape": "ab"}]},
        {"tensors": [{"name": "a", "shape": [-1]}]},
        {"tensors": [{"name": 5, "shape": [3]}]},
        {"tensors": [{"name": "a", "shape": [True, 3]}]},
        5,
    ], ids=["float-dim", "string-shape", "negative-dim", "int-name", "bool-dim", "not-an-object"])
    def test_malformed_tensor_declaration(self, tmp_path, metadata):
        with pytest.raises(ModelError, match=r"bad\.wuwm: invalid metadata"):
            load_weights(self.write_declared(tmp_path / "bad.wuwm", metadata))

    @pytest.mark.parametrize("case", ["header", "metadata", "duplicate-names"])
    def test_truncated_or_ambiguous_header_refused(self, tmp_path, case):
        path = tmp_path / "bad.wuwm"
        if case == "header":
            path.write_bytes(b"WUWM\x01\x00")
        elif case == "metadata":
            path.write_bytes(b"WUWM\x01" + struct.pack("<I", 50) + b"{}")
        else:
            self.write_declared(path, {"tensors": [{"name": "a", "shape": [1]}] * 2}, 2)
        refusal = {"header": "truncated header", "metadata": "truncated metadata",
                   "duplicate-names": "duplicate tensor names"}[case]
        with pytest.raises(ModelError, match=rf"bad\.wuwm: {refusal}"):
            load_weights(path)

    def test_declared_size_beyond_int64_is_truncation(self, tmp_path):
        metadata = {"tensors": [{"name": "a", "shape": [2**70]}]}
        with pytest.raises(ModelError, match=r"bad\.wuwm: payload for 'a' truncated"):
            load_weights(self.write_declared(tmp_path / "bad.wuwm", metadata))

    def test_non_finite_tensor_rejected(self):
        with pytest.raises(ModelError):
            WeightStore({"t": np.array([np.inf], dtype=np.float32)}, {})


def separable_dataset(n, seed, config_id=1, frames=4, coeffs=DEVICE.n_mfcc):
    """Two classes split by the mean of the feature matrix."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        base = 2.0 if label else -2.0
        values = rng.normal(base, 0.5, size=(frames, coeffs))
        data.append((FeatureMatrix(values, config_id), label))
    return data


class TestLinearClassifier:
    def test_zero_weights_zero_logits(self):
        ws = WeightStore(
            {"norm.mean": np.zeros(13), "norm.std": np.ones(13),
             "w": np.zeros((2, 52)), "b": np.zeros(2)},
            {"kind": "linear", "config_id": 1},
        )
        fm = FeatureMatrix(np.random.default_rng(11).normal(size=(4, 13)), 1)
        assert make_scorer(ws).fn(fm) == ScorePair(0.0, 0.0)

    def test_single_feature_sign(self):
        w = np.zeros((2, 13))
        w[:, 0] = [1.0, -1.0]
        ws = WeightStore(
            {"norm.mean": np.zeros(13), "norm.std": np.ones(13), "w": w, "b": np.zeros(2)},
            {"kind": "linear", "config_id": 1},
        )
        values = np.zeros((1, 13))
        values[0, 0] = 2.5
        fm = FeatureMatrix(values, 1)
        out = make_scorer(ws).fn(fm)
        assert out.logit_pos == pytest.approx(2.5)
        assert out.logit_neg == pytest.approx(-2.5)

    def test_trains_to_high_accuracy_on_separable_data(self):
        train = separable_dataset(200, seed=12, coeffs=DEVICE.n_mfcc)
        valid = separable_dataset(50, seed=13, coeffs=DEVICE.n_mfcc)
        ws = train_classifier(train, valid, TrainSpec(max_epochs=120, seed=0))
        score = make_scorer(ws).fn
        correct = 0
        for fm, label in train:
            s = score(fm)
            correct += int((s.logit_pos >= s.logit_neg) == bool(label))
        assert correct / len(train) >= 0.99

    def test_final_validation_loss_small(self):
        train = separable_dataset(200, seed=14, coeffs=DEVICE.n_mfcc)
        valid = separable_dataset(80, seed=15, coeffs=DEVICE.n_mfcc)
        ws = train_classifier(train, valid, TrainSpec(max_epochs=200, seed=1))
        score = make_scorer(ws).fn
        losses = []
        for fm, label in valid:
            losses.append(cross_entropy(score(fm), label)[0])
        assert np.mean(losses) < 0.1

    def test_zero_epochs_returns_init(self):
        train = separable_dataset(40, seed=16)
        valid = separable_dataset(10, seed=17)
        a = train_classifier(train, valid, TrainSpec(max_epochs=0, seed=5))
        b = train_classifier(train, valid, TrainSpec(max_epochs=0, seed=5))
        assert a["w"].tobytes() == b["w"].tobytes()
        # init itself: a fresh seeded rng must reproduce the weights
        rng = np.random.default_rng(5)
        dim = 52
        w0 = rng.uniform(-1 / np.sqrt(dim), 1 / np.sqrt(dim), size=(2, dim))
        np.testing.assert_allclose(a["w"], w0.astype(np.float32))

    def test_seed_reproducibility_bit_exact(self):
        train = separable_dataset(100, seed=18)
        valid = separable_dataset(30, seed=19)
        spec = TrainSpec(max_epochs=40, seed=9)
        a = train_classifier(train, valid, spec)
        b = train_classifier(train, valid, spec)
        for name in a.tensors:
            assert a[name].tobytes() == b[name].tobytes()

    @pytest.mark.parametrize("split", ["train", "valid"])
    @pytest.mark.parametrize("config_id,coeffs,refusal", [
        (1, 3, "features have 3 coefficients, config 1 has 13"),
        (99, 13, "config_id 99 is not a feature preset"),
    ], ids=["width", "config"])
    def test_features_no_scorer_loads_are_refused(self, split, config_id, coeffs, refusal,
                                                   monkeypatch):
        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(nnet, "fit", no_epoch)
        good = separable_dataset(20, seed=22)
        bad = separable_dataset(20, seed=23, config_id=config_id, coeffs=coeffs)
        train, valid = (bad, good) if split == "train" else (good, bad)
        with pytest.raises(DataError, match=refusal):
            train_classifier(train, valid, TrainSpec(max_epochs=1))

    def test_single_class_rejected(self):
        data = [(fm, 1) for fm, _ in separable_dataset(20, seed=20)]
        with pytest.raises(DataError):
            train_classifier(data, data, TrainSpec(max_epochs=1))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        delta = 1e-4
        for _ in range(100):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            w = rng.normal(size=(2, d))
            b = rng.normal(size=2)
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n)
            _, dw, db = linear_grads(w, b, x, y)

            def loss_at(w_, b_):
                return linear_grads(w_, b_, x, y)[0]

            for idx in np.ndindex(*w.shape):
                wp, wm = w.copy(), w.copy()
                wp[idx] += delta
                wm[idx] -= delta
                num = (loss_at(wp, b) - loss_at(wm, b)) / (2 * delta)
                np.testing.assert_allclose(dw[idx], num, rtol=1e-4, atol=1e-8)
            for i in range(2):
                bp, bm = b.copy(), b.copy()
                bp[i] += delta
                bm[i] -= delta
                num = (loss_at(w, bp) - loss_at(w, bm)) / (2 * delta)
                np.testing.assert_allclose(db[i], num, rtol=1e-4, atol=1e-8)


class TestTrainSpec:
    @pytest.mark.parametrize("lr0", [float("nan"), float("inf"), 0.0, -1.0])
    def test_learning_rate_must_be_positive_and_finite(self, lr0):
        with pytest.raises(ValueError):
            TrainSpec(lr0=lr0)


def scripted_fit(losses, patience, lr0=0.1, max_epochs=100):
    """``fit`` on one parameter with a constant gradient of 1, so each epoch
    (one Adam step) moves it down by the current learning rate, and with
    ``losses`` as the validation loss of epochs 1, 2, ... (the last one
    repeats). Returns (params after each epoch, the step of each epoch,
    the returned param)."""
    x = np.zeros(1)
    seen = []

    def val_loss():
        seen.append(x[0])
        return losses[min(len(seen), len(losses)) - 1]

    spec = TrainSpec(batch_size=1, lr0=lr0, max_epochs=max_epochs, plateau_patience=patience)
    best = fit([x], lambda idx: [np.ones(1)], val_loss, 1, spec, np.random.default_rng(0))
    return seen, -np.diff([0.0] + seen), best[0][0]


class TestPlateauSchedule:
    """The plateau schedule of ``fit``, with MAX_LR_REDUCTIONS = 4."""

    def test_reduce_then_stop(self):
        seen, steps, best = scripted_fit([1.0], patience=2)
        # best at epoch 1; a reduction after every 2 stale epochs; the 5th
        # plateau, with 4 reductions spent, stops the loop
        assert len(seen) == 1 + 2 * 5
        np.testing.assert_allclose(
            steps, 0.1 * np.array([1, 1, 1, 1e-1, 1e-1, 1e-2, 1e-2, 1e-3, 1e-3, 1e-4, 1e-4]),
            rtol=1e-6)
        assert best == seen[0]

    def test_improvement_resets_reductions(self):
        seen, steps, best = scripted_fit([1.0, 1.0, 1.0, 0.5], patience=1)
        # two reductions, a new best at epoch 4, then four more before the stop
        assert len(seen) == 4 + 5
        np.testing.assert_allclose(
            steps, 0.1 * np.array([1, 1, 1e-1, 1e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]), rtol=1e-6)
        assert best == seen[3]

    def test_tiny_improvement_does_not_count(self):
        seen, steps, best = scripted_fit([1.0, 1.0 - 5e-5], patience=1)
        assert len(seen) == 1 + 5
        np.testing.assert_allclose(steps, 0.1 * np.array([1, 1, 1e-1, 1e-2, 1e-3, 1e-4]),
                                   rtol=1e-6)
        assert best == seen[0]


class TestAdam:
    def test_converges_on_quadratic(self):
        x = np.array([5.0])
        adam = Adam([x], lr=0.1)
        for _ in range(400):
            adam.step([2.0 * x])
        assert abs(x[0]) < 1e-3


class TestMakeScorer:
    def test_make_scorer_dispatch(self):
        ws = init_gru_scorer(DEVICE, seed=0)
        scorer = make_scorer(ws, member_id="dev")
        assert scorer.member_id == "dev"
        assert scorer.config_id == DEVICE.config_id
        fm = FeatureMatrix(np.zeros((29, 13)), 1)
        assert isinstance(scorer.fn(fm), ScorePair)
        ws.metadata["name"] = "ignored"
        assert make_scorer(ws).member_id == "sgru"

    def test_make_scorer_unknown_kind(self):
        with pytest.raises(ModelError):
            make_scorer(WeightStore({}, {"kind": "mystery", "config_id": 1}))

    @pytest.mark.parametrize("config_id", [None, 99, "x", [1], True, 3, 4, 5])
    def test_config_id_that_is_not_a_preset_is_a_model_error(self, config_id):
        for ws in (init_gru_scorer(DEVICE, hidden=4, layers=1), linear_store()):
            ws.metadata["config_id"] = config_id
            with pytest.raises(ModelError, match="config_id"):
                make_scorer(ws)


def oracle_logits(ws: WeightStore, frames: np.ndarray) -> np.ndarray:
    """A GRU scorer's (pos, neg) logits on one window, step by step through
    the gru_cell oracle."""
    seq = np.asarray(frames, dtype=np.float64)
    for i in range(ws.metadata["hparams"]["layers"]):
        params = GRUParams(*(ws[f"gru{i}.{n}"].astype(np.float64)
                             for n in ("w_ih", "w_hh", "b_ih", "b_hh")))
        seq = gru_outputs(seq, params)
    pooled = seq[-1] if ws.kind == "sgru" else seq.max(axis=0)
    return ws["head.w"].astype(np.float64) @ pooled + ws["head.b"].astype(np.float64)


class TestGRUStack:
    KINDS = ("sgru", "gru-max", "sgru")

    def stores(self, hidden=16, layers=2):
        return [init_gru_scorer(CLOUD, kind=k, hidden=hidden, layers=layers, seed=i)
                for i, k in enumerate(self.KINDS)]

    @pytest.mark.parametrize("batch", [1, 5])
    def test_matches_gru_cell_oracle(self, batch):
        stores = self.stores()
        x = np.random.default_rng(batch).normal(size=(batch, 148, 40)).astype(np.float32)
        got = GRUStack(stores).logits(x)
        assert got.shape == (len(stores), batch, 2)
        for m, ws in enumerate(stores):
            for b in range(batch):
                np.testing.assert_allclose(got[m, b], oracle_logits(ws, x[b]),
                                           rtol=0, atol=1e-12)

    def test_default_size_members_match_oracle(self):
        stores = [init_gru_scorer(CLOUD, kind=k, seed=i) for i, k in enumerate(self.KINDS)]
        x = np.random.default_rng(0).normal(size=(2, 20, 40)).astype(np.float32)
        got = GRUStack(stores).logits(x)
        for m, ws in enumerate(stores):
            for b in range(2):
                np.testing.assert_allclose(got[m, b], oracle_logits(ws, x[b]),
                                           rtol=0, atol=1e-12)

    def test_chunked_batch_matches_whole_batch(self, monkeypatch):
        stores = self.stores(hidden=8)
        x = np.random.default_rng(3).normal(size=(7, 30, 40))
        whole = GRUStack(stores).logits(x)
        monkeypatch.setattr(nnet, "_SCRATCH_BYTES", 1)  # one window per chunk
        monkeypatch.setattr(features, "_GEMM_MAX_MNK", 1)   # one row per matmul
        np.testing.assert_allclose(GRUStack(stores).logits(x), whole, rtol=0, atol=1e-12)

    def test_single_layer(self):
        stores = self.stores(hidden=8, layers=1)
        x = np.random.default_rng(4).normal(size=(3, 12, 40))
        got = GRUStack(stores).logits(x)
        for m, ws in enumerate(stores):
            for b in range(3):
                np.testing.assert_allclose(got[m, b], oracle_logits(ws, x[b]),
                                           rtol=0, atol=1e-12)

    def test_forward_functions_are_views_of_the_kernel(self):
        stores = self.stores()
        fm = FeatureMatrix(np.random.default_rng(6).normal(size=(148, 40)), 2)
        for ws in stores:
            got = make_scorer(ws).fn(fm)
            np.testing.assert_allclose(got, oracle_logits(ws, fm.values), rtol=0, atol=1e-12)
            assert got == tuple(GRUStack([ws]).logits(fm.values[None])[0, 0])

    def test_wrong_input_width_rejected(self):
        stack = GRUStack(self.stores())
        with pytest.raises(DataError):
            stack.logits(np.zeros((1, 148, 13)))
        with pytest.raises(DataError):
            stack.logits(np.zeros((1, 0, 40)))

    def test_mixed_shapes_refused(self):
        wide = init_gru_scorer(CLOUD, hidden=16, seed=0)
        narrow = init_gru_scorer(CLOUD, hidden=8, seed=1)
        with pytest.raises(ModelError):
            GRUStack([wide, narrow])
        with pytest.raises(ModelError):
            GRUStack([])

    def test_malformed_store_refused_by_make_scorer(self):
        ws = init_gru_scorer(CLOUD, hidden=8, seed=0)
        tensors = dict(ws.tensors)
        del tensors["gru1.w_hh"]
        with pytest.raises(ModelError):
            make_scorer(WeightStore(tensors, ws.metadata))

    @pytest.mark.parametrize("case,match", [
        ("missing", "malformed"), ("missing-w_ih", "malformed"), ("chain", "layer 1 input"),
        ("no-layers", "no layers"), ("head", "head"), ("config", "config_id"),
        ("flat-w_ih0", "malformed"), ("flat-w_ih1", "malformed"),
        ("input-width", "layer 0 input is 13 wide, not the config's 40"),
    ])
    def test_malformed_store_refused_on_every_path(self, case, match):
        ws = init_gru_scorer(DEVICE if case == "input-width" else CLOUD, hidden=8, seed=0)
        tensors, meta = dict(ws.tensors), dict(ws.metadata)
        if case == "input-width":  # a device-config stack that claims the cloud config
            meta["config_id"] = CLOUD.config_id
        elif case.startswith("flat-"):
            name = f"gru{case[-1]}.w_ih"
            tensors[name] = tensors[name].reshape(-1)[:24]
        elif case == "missing":
            del tensors["gru1.w_hh"]
        elif case == "missing-w_ih":  # layer 1's other tensors still claim it
            del tensors["gru1.w_ih"]
        elif case == "chain":
            tensors["gru1.w_ih"] = np.zeros((24, 6))
        elif case == "no-layers":
            tensors = {k: t for k, t in tensors.items() if not k.startswith("gru")}
        elif case == "head":
            tensors["head.w"] = np.zeros((2, 6))
        else:
            meta["config_id"] = 99
        bad = WeightStore(tensors, meta)
        for build in (make_scorer, lambda s: make_stack([s]), lambda s: GRUStack([s])):
            with pytest.raises(ModelError, match=match):
                build(bad)

    def test_make_scorer_keeps_weights(self):
        ws = init_gru_scorer(CLOUD, hidden=8, seed=0)
        assert make_scorer(ws).weights is ws

    def test_three_layers_match_oracle(self):
        stores = self.stores(hidden=8, layers=3)
        x = np.random.default_rng(7).normal(size=(4, 25, 40)).astype(np.float32)
        got = GRUStack(stores).logits(x)
        for m, ws in enumerate(stores):
            for b in range(4):
                np.testing.assert_allclose(got[m, b], oracle_logits(ws, x[b]),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hparams", [None, {"hidden": 8, "layers": 1}],
                             ids=["no-hparams", "declares-1"])
    def test_depth_comes_from_the_tensor_names(self, hparams):
        # three layers of tensors run as three layers, whatever hparams says
        full = self.stores(hidden=8, layers=3)
        stores = []
        for ws in full:
            meta = {k: v for k, v in ws.metadata.items() if k != "hparams"}
            if hparams is not None:
                meta["hparams"] = hparams
            stores.append(WeightStore(ws.tensors, meta))
        x = np.random.default_rng(10).normal(size=(2, 25, 40)).astype(np.float32)
        want = np.array([[oracle_logits(ws, xb) for xb in x] for ws in full])
        for got in (GRUStack(stores).logits(x), make_stack(stores).logits(x)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for m, ws in enumerate(stores):
            scorer = make_scorer(ws)
            for b in range(2):
                got = scorer.fn(FeatureMatrix(x[b], CLOUD.config_id))
                np.testing.assert_allclose(got, want[m, b], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["sgru", "gru-max"])
    def test_layers_of_different_widths_match_oracle(self, kind):
        # layer 1 cannot take over layer 0's (T*B, 8) states for its own 12
        rng = np.random.default_rng(8)
        tensors = {}
        for i, (size_in, hidden) in enumerate([(40, 8), (8, 12)]):
            tensors[f"gru{i}.w_ih"] = rng.uniform(-0.3, 0.3, size=(3 * hidden, size_in))
            tensors[f"gru{i}.w_hh"] = rng.uniform(-0.3, 0.3, size=(3 * hidden, hidden))
            tensors[f"gru{i}.b_ih"] = rng.uniform(-0.3, 0.3, size=3 * hidden)
            tensors[f"gru{i}.b_hh"] = rng.uniform(-0.3, 0.3, size=3 * hidden)
        tensors["head.w"] = rng.uniform(-0.3, 0.3, size=(2, 12))
        tensors["head.b"] = rng.uniform(-0.3, 0.3, size=2)
        ws = WeightStore(tensors, {"kind": kind, "config_id": CLOUD.config_id,
                                   "hparams": {"layers": 2}})
        x = rng.normal(size=(3, 20, 40)).astype(np.float32)
        got = make_stack([ws]).logits(x)
        for b in range(3):
            np.testing.assert_allclose(got[0, b], oracle_logits(ws, x[b]), rtol=0, atol=1e-12)

    # A float32 stack computes in float32 from the input projection to the
    # head. Against the float64 oracle over 148 steps its logits stay within
    # 1e-5 relative plus 1e-6 absolute; measured errors are about 1e-7.
    F32_RTOL, F32_ATOL = 1e-5, 1e-6

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("hidden", [16, 128])
    def test_float32_stack_matches_the_oracle(self, hidden, layers):
        stores = self.stores(hidden=hidden, layers=layers)
        x = np.random.default_rng(layers).normal(size=(3, 148, 40)).astype(np.float32)
        stack = GRUStack(stores, dtype=np.float32)
        assert all(t.dtype == np.float32 for layer in stack.layers for t in layer)
        got = stack.logits(x)
        assert got.dtype == np.float32 and got.shape == (len(stores), 3, 2)
        for m, ws in enumerate(stores):
            for b in range(3):
                np.testing.assert_allclose(got[m, b], oracle_logits(ws, x[b]),
                                           rtol=self.F32_RTOL, atol=self.F32_ATOL)

    def test_float32_chunk_keeps_the_byte_budget(self, monkeypatch):
        # a 4-byte chunk takes twice the windows of an 8-byte one
        stores = self.stores(hidden=8, layers=1)
        x = np.random.default_rng(5).normal(size=(9, 10, 40)).astype(np.float32)
        runs = []

        def run(stack, chunk):
            runs.append(len(chunk))
            return np.zeros((stack.n_members, len(chunk), 2), stack.dtype)

        monkeypatch.setattr(GRUStack, "_run", run)
        # two float64 windows: 8 bytes x 3 members x 10 steps x 4H
        monkeypatch.setattr(nnet, "_SCRATCH_BYTES", 2 * 8 * 3 * 10 * 4 * 8)
        GRUStack(stores).logits(x)
        GRUStack(stores, dtype=np.float32).logits(x)
        assert runs == [2, 2, 2, 2, 1, 4, 4, 1]

    def test_chunk_is_bound_by_one_gates_recurrent_product(self, monkeypatch):
        # three 2x128 members over 148 steps: 4 float64 windows fill the
        # scratch budget; 9 float32 windows do, under the 16 rows of a
        # (chunk, 128) @ (128, 128) single-thread gemm
        stores = [init_gru_scorer(CLOUD, kind=k, seed=i) for i, k in enumerate(self.KINDS)]
        x = np.zeros((9, 148, 40), dtype=np.float32)
        runs = []

        def run(stack, chunk):
            runs.append(len(chunk))
            return np.zeros((stack.n_members, len(chunk), 2), stack.dtype)

        monkeypatch.setattr(GRUStack, "_run", run)
        GRUStack(stores).logits(x)
        GRUStack(stores, dtype=np.float32).logits(x)
        assert runs == [4, 4, 1, 9]

    def test_layer_writes_its_states_over_its_input(self):
        layer0, layer1 = GRUStack(self.stores(hidden=8, layers=2)).layers
        steps, n = 6, 2
        rng = np.random.default_rng(9)
        states = rng.normal(size=(3, steps * n, 8))  # a previous layer's, time-major
        want = nnet._gru_layer(states.copy(), layer1, steps, n)
        got = nnet._gru_layer(states, layer1, steps, n)
        assert np.shares_memory(got, states)
        assert got.tobytes() == want.tobytes()
        x = rng.normal(size=(steps * n, 40))  # the first layer's input is the caller's
        kept = x.copy()
        assert not np.shares_memory(nnet._gru_layer(x, layer0, steps, n), x)
        assert x.tobytes() == kept.tobytes()


def member_major_layer(seq, params, steps, n):
    """The member-major form of the GRU stack's layer, the oracle of the
    gate-major kernel: the same arithmetic in the same order, on params
    w_ih (M, I, 3H), w_hh (M, H, 3H), b_ih and b_hh (M, 1, 3H), where each
    gate is a strided slice of a 3H row."""
    w_ih, w_hh, b_ih, b_hh = params
    m, hs, dtype = w_hh.shape[0], w_hh.shape[1], w_hh.dtype
    gi = features._matmul_rows(seq, w_ih)  # (M, T*B, 3H): the hoisted input projection
    gi += b_ih
    gi = gi.reshape(m, steps, n, 3 * hs)
    if seq.shape == (m, steps * n, hs):
        states = seq.reshape(m, steps, n, hs)
    else:
        states = np.empty((m, steps, n, hs), dtype=dtype)
    h = np.zeros((m, n, hs), dtype=dtype)
    gh = np.empty((m, n, 3 * hs), dtype=dtype)
    zr = np.empty((m, n, 2 * hs), dtype=dtype)
    cand = np.empty((m, n, hs), dtype=dtype)
    keep = np.empty((m, n, hs), dtype=dtype)
    z, r = zr[..., :hs], zr[..., hs:]
    for t in range(steps):
        np.matmul(h, w_hh, out=gh)
        gh += b_hh
        g = gi[:, t]
        # z and r in one sigmoid: 1 / (1 + exp(-x))
        np.add(g[..., : 2 * hs], gh[..., : 2 * hs], out=zr)
        np.negative(zr, out=zr)
        np.exp(zr, out=zr)
        zr += 1.0
        np.reciprocal(zr, out=zr)
        np.multiply(r, gh[..., 2 * hs :], out=cand)
        cand += g[..., 2 * hs :]
        np.tanh(cand, out=cand)
        # h' = (1 - z) * n + z * h
        np.subtract(1.0, z, out=keep)
        keep *= cand
        h *= z
        h += keep
        states[:, t] = h
    return states


def member_major_logits(stores, x, dtype, chunks):
    """Logits (M, B, 2) of GRU scorers over windows x (B, T, I) through
    ``member_major_layer``, in ``dtype``, run over consecutive window chunks
    of the given sizes."""
    def stacked(name, transpose=False):
        return np.ascontiguousarray(
            np.stack([ws[name].T if transpose else ws[name] for ws in stores]), dtype=dtype)

    layers = [(stacked(f"gru{i}.w_ih", True), stacked(f"gru{i}.w_hh", True),
               stacked(f"gru{i}.b_ih")[:, None, :], stacked(f"gru{i}.b_hh")[:, None, :])
              for i in range(nnet._gru_depth(stores[0]))]
    head_w, head_b = stacked("head.w", True), stacked("head.b")[:, None, :]
    max_pool = np.array([ws.kind == "gru-max" for ws in stores])[:, None, None]
    out, start = [], 0
    for size in chunks:
        part = x[start : start + size]
        start += size
        steps = part.shape[1]
        seq = np.ascontiguousarray(part.transpose(1, 0, 2), dtype=dtype).reshape(steps * size, -1)
        for params in layers:
            states = member_major_layer(seq, params, steps, size)
            seq = states.reshape(len(stores), steps * size, -1)
        pooled = np.where(max_pool, states.max(axis=1), states[:, -1])
        out.append(pooled @ head_w + head_b)
    assert start == len(x)
    return np.concatenate(out, axis=1)


class TestGateMajorKernel:
    """``GRUStack.logits`` against the member-major layer it replaced, bit
    for bit: storing the gates as their own blocks moves no rounding."""

    def check(self, monkeypatch, stores, x, dtype, atol=0.0):
        chunks = []
        run = GRUStack._run

        def recorded(stack, part):
            chunks.append(len(part))
            return run(stack, part)

        monkeypatch.setattr(GRUStack, "_run", recorded)
        got = GRUStack(stores, dtype).logits(x)
        want = member_major_logits(stores, x, dtype, chunks)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        if atol:
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 4, 5, 9])
    def test_mixed_2x128_stack(self, monkeypatch, batch, dtype):
        stores = [init_gru_scorer(CLOUD, kind=k, seed=i)
                  for i, k in enumerate(("sgru", "gru-max", "sgru"))]
        x = np.random.default_rng(batch).normal(size=(batch, 148, 40)).astype(np.float32)
        self.check(monkeypatch, stores, x, dtype)

    # OpenBLAS 0.3.31 on an AVX-512 core runs a float32 (R, 40) @ (40, 8)
    # product through another kernel than (R, 40) @ (40, 24), with its own
    # rounding: so an H=8 float32 stack, whose gate-major projection issues
    # the first, is only within 1e-6 of the member-major one (measured: up to
    # 6e-8). Its float64 products round alike, and so do float32 ones at
    # H=128.
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 0.0), (np.float32, 1e-6)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_small_stacks(self, monkeypatch, layers, dtype, atol):
        stores = [init_gru_scorer(CLOUD, kind=k, hidden=8, layers=layers, seed=i)
                  for i, k in enumerate(("gru-max", "sgru"))]
        x = np.random.default_rng(layers).normal(size=(3, 25, 40)).astype(np.float32)
        self.check(monkeypatch, stores, x, dtype, atol)


def linear_store(frames=4, coeffs=DEVICE.n_mfcc, seed=0, config_id=DEVICE.config_id):
    rng = np.random.default_rng(seed)
    return WeightStore(
        {"norm.mean": rng.normal(size=coeffs), "norm.std": rng.uniform(0.5, 2.0, size=coeffs),
         "w": rng.normal(size=(2, frames * coeffs)), "b": rng.normal(size=2)},
        {"kind": "linear", "config_id": config_id},
    )


def linear_oracle(ws: WeightStore, frames: np.ndarray) -> np.ndarray:
    """A linear scorer's (pos, neg) logits on one window, term by term:
    standardize each coefficient column, flatten row-major, w @ x + b."""
    mean, std, w, b = (ws[n].astype(np.float64) for n in ("norm.mean", "norm.std", "w", "b"))
    n_frames, n_coeffs = frames.shape
    x = [(float(frames[t, c]) - mean[c]) / std[c]
         for t in range(n_frames) for c in range(n_coeffs)]
    return np.array([sum(w[k, j] * x[j] for j in range(len(x))) + b[k] for k in range(2)])


class TestLinearStack:
    @pytest.mark.parametrize("members", [1, 2])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_matches_per_window_loop(self, batch, members):
        stores = [linear_store(seed=i) for i in range(members)]
        x = np.random.default_rng(batch).normal(size=(batch, 4, 13)).astype(np.float32)
        got = LinearStack(stores).logits(x)
        assert got.shape == (members, batch, 2)
        for m, ws in enumerate(stores):
            for b in range(batch):
                np.testing.assert_allclose(got[m, b], linear_oracle(ws, x[b]), rtol=0, atol=1e-12)
                fm = FeatureMatrix(x[b], DEVICE.config_id)
                np.testing.assert_allclose(make_scorer(ws).fn(fm), linear_oracle(ws, x[b]),
                                           rtol=0, atol=1e-12)

    def test_float32_stack_matches_the_oracle(self):
        stores = [linear_store(frames=148, coeffs=40, seed=i, config_id=CLOUD.config_id)
                  for i in range(2)]
        x = np.random.default_rng(2).normal(size=(3, 148, 40)).astype(np.float32)
        stack = LinearStack(stores, dtype=np.float32)
        got = stack.logits(x)
        assert got.dtype == np.float32 and stack.w.dtype == np.float32
        for m, ws in enumerate(stores):
            for b in range(3):
                want = linear_oracle(ws, x[b])
                # sums of 5,920 float32 terms, with logits up to about 200:
                # measured errors reach 5e-5
                np.testing.assert_allclose(got[m, b], want, rtol=1e-5, atol=1e-4)

    def test_wrong_input_shape_rejected(self):
        stack = LinearStack([linear_store()])
        for shape in [(1, 5, 13), (1, 4, 12), (4, 13)]:
            with pytest.raises(DataError):
                stack.logits(np.zeros(shape))

    @pytest.mark.parametrize("case", ["missing", "bias", "width", "norm", "zero_std", "coeffs"])
    def test_malformed_store_refused_by_make_scorer(self, case):
        ws = linear_store()
        tensors = dict(ws.tensors)
        if case == "missing":
            del tensors["norm.std"]
        elif case == "bias":
            tensors["b"] = np.zeros(3)
        elif case == "width":
            tensors["w"] = np.zeros((2, 14))
        elif case == "coeffs":  # consistent in itself, but the device config has 13
            tensors = dict(linear_store(coeffs=3).tensors)
        elif case == "norm":
            tensors["norm.std"] = np.ones(4)
        else:
            tensors["norm.std"][1] = 0.0
        with pytest.raises(ModelError):
            make_scorer(WeightStore(tensors, ws.metadata))


class TestMakeStack:
    def test_kernel_follows_the_kind(self):
        gru_max = init_gru_scorer(CLOUD, kind="gru-max", hidden=4, layers=1)
        assert isinstance(make_stack([linear_store()]), LinearStack)
        assert isinstance(make_stack([gru_max]), GRUStack)
        sgru = init_gru_scorer(CLOUD, kind="sgru", hidden=4, layers=1, seed=1)
        assert stack_key(sgru) == stack_key(gru_max)
        assert stack_key(linear_store()) != stack_key(linear_store(frames=5))

    def test_one_stack_per_tuple_of_stores(self):
        a = init_gru_scorer(CLOUD, hidden=4, layers=1, seed=0)
        b = init_gru_scorer(CLOUD, hidden=4, layers=1, seed=1)
        twin = WeightStore(dict(a.tensors), dict(a.metadata))
        stack = make_stack([a, b])
        assert make_stack([a, b]) is stack
        assert stack.stores == (a, b)
        for other in ([b, a], [a], [twin, b]):
            assert make_stack(other) is not stack
        linear = linear_store()
        assert make_stack([linear]) is make_stack([linear])

    @pytest.mark.parametrize("store", [
        lambda: init_gru_scorer(CLOUD, hidden=4, layers=1, seed=0), linear_store,
    ], ids=["gru", "linear"])
    def test_one_stack_per_tuple_of_stores_and_dtype(self, store):
        ws = store()
        wide = make_stack([ws])
        narrow = make_stack([ws], np.float32)
        assert wide.dtype == np.float64 and narrow.dtype == np.float32
        assert narrow is not wide
        assert make_stack([ws], np.float32) is narrow
        assert make_stack([ws], "float32") is narrow
        assert make_stack([ws], np.float64) is wide
        assert narrow.stores == wide.stores == (ws,)

    def test_stacked_tensors_are_read_only(self):
        ws = init_gru_scorer(CLOUD, hidden=4, layers=1)
        ws["head.b"][0] = 1.0  # writable until stacked
        make_stack([ws])
        for t in ws.tensors.values():
            with pytest.raises(ValueError):
                t[...] = 0.0

    def test_a_dropped_stack_leaves_the_cache(self):
        ws = init_gru_scorer(CLOUD, hidden=4, layers=1)
        make_stack([ws])
        make_stack([ws], np.float32)
        for dtype in (np.float64, np.float32):
            assert ((id(ws),), np.dtype(dtype)) not in nnet._STACKS

    def test_mixed_or_unknown_kinds_refused(self):
        gru = init_gru_scorer(DEVICE, hidden=4, layers=1)
        mystery = WeightStore({}, {"kind": "mystery", "config_id": 1})
        assert stack_key(mystery) is None
        for kind in (["sgru"], {"a": 1}):
            assert stack_key(WeightStore({}, {"kind": kind, "config_id": 1})) is None
        for stores in ([], [mystery], [linear_store(), gru], [gru, linear_store()]):
            with pytest.raises(ModelError):
                make_stack(stores)
