import math

import numpy as np
import pytest

from wuw.errors import DataError, ModelError
from wuw.evaluation import _confusion, f1
from wuw.features import CLOUD, DEVICE, FeatureMatrix
from wuw.fusion import (
    Ensemble,
    FusionModel,
    LogOddsVector,
    ScoreDataset,
    fuse,
    load_fusion,
    log_odds,
    logits_log_odds,
    mlp_forward,
    mlp_grads,
    synth_score_task,
    train_fusion,
)
from wuw.nnet import (
    Scorer,
    ScorePair,
    TrainSpec,
    WeightStore,
    init_gru_scorer,
    make_scorer,
    save_weights,
    softmax2,
)

from test_nnet import linear_oracle, linear_store, oracle_logits


def fusion_from_arrays(w1, b1, w2, b2, member_ids):
    ws = WeightStore(
        {"fc1.w": w1, "fc1.b": b1, "fc2.w": w2, "fc2.b": b2},
        {"kind": "fusion", "member_ids": list(member_ids)},
    )
    return FusionModel(ws)


class TestLogOdds:
    def test_even_split_is_zero(self):
        assert log_odds(0.5, 0.5) == 0.0

    def test_nine_to_one(self):
        assert log_odds(0.9, 0.1) == pytest.approx(math.log(9.0), rel=1e-12)

    def test_softmax_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(-8, 8, size=2)
            lo = log_odds(*softmax2(ScorePair(a, b)))
            assert lo == pytest.approx(a - b, abs=1e-5)

    def test_clamped_extremes_stay_finite(self):
        lo = log_odds(*softmax2(ScorePair(100.0, -100.0)))
        assert np.isfinite(lo)
        assert lo == pytest.approx(math.log((1 - 1e-7) / 1e-7), rel=1e-6)

    def test_inconsistent_probabilities_rejected(self):
        with pytest.raises(DataError):
            log_odds(0.7, 0.7)


class TestStackScores:
    def test_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            LogOddsVector(np.zeros(1), ("a", "b"))

    def test_permuted_member_order_rejected_by_fuse(self):
        model = fusion_from_arrays(
            np.ones((2, 2)), np.zeros(2), np.ones((2, 2)), np.zeros(2), ["a", "b"]
        )
        z = LogOddsVector(np.array([1.0, -1.0]), ("b", "a"))
        with pytest.raises(ModelError):
            fuse(z, model)


class TestFuse:
    def test_zero_weights_zero_logits(self):
        model = fusion_from_arrays(
            np.zeros((4, 2)), np.zeros(4), np.zeros((2, 4)), np.zeros(2), ["a", "b"]
        )
        z = LogOddsVector(np.array([1.0, -1.0]), ("a", "b"))
        assert fuse(z, model) == ScorePair(0.0, 0.0)

    def test_handbuilt_relu_passthrough(self):
        # hidden unit 0 carries z0 through ReLU; output 0 reads it back,
        # so logit_pos = max(z0, 0).
        w1 = np.zeros((3, 2))
        w1[0, 0] = 1.0
        w2 = np.zeros((2, 3))
        w2[0, 0] = 1.0
        model = fusion_from_arrays(w1, np.zeros(3), w2, np.zeros(2), ["a", "b"])
        for z0 in (-2.0, -0.5, 0.0, 0.7, 3.0):
            z = LogOddsVector(np.array([z0, 1.0]), ("a", "b"))
            assert fuse(z, model).logit_pos == pytest.approx(max(z0, 0.0))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        w1 = rng.normal(size=(5, 3))
        b1 = rng.normal(size=5)
        w2 = rng.normal(size=(2, 5))
        b2 = rng.normal(size=2)
        model = fusion_from_arrays(w1, b1, w2, b2, ["a", "b", "c"])
        z = rng.normal(size=3)
        w1f, b1f, w2f, b2f = (model.weights[k].astype(np.float64)
                              for k in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"))
        hidden = [max(sum(w1f[i, j] * z[j] for j in range(3)) + b1f[i], 0.0)
                  for i in range(5)]
        oracle = [sum(w2f[k, i] * hidden[i] for i in range(5)) + b2f[k]
                  for k in range(2)]
        out = fuse(LogOddsVector(z, ("a", "b", "c")), model)
        np.testing.assert_allclose([out.logit_pos, out.logit_neg], oracle, rtol=1e-6)


class TestMlpGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        delta = 1e-4
        for _ in range(100):
            n_members = int(rng.integers(1, 5))
            hidden = int(rng.integers(2, 6))
            n = int(rng.integers(1, 6))
            params = [
                rng.normal(size=(hidden, n_members)),
                rng.normal(size=hidden),
                rng.normal(size=(2, hidden)),
                rng.normal(size=2),
            ]
            z = rng.normal(size=(n, n_members))
            y = rng.integers(0, 2, size=n)
            _, grads = mlp_grads(params, z, y)
            for p_idx, p in enumerate(params):
                flat_grad = np.asarray(grads[p_idx]).reshape(-1)
                for flat_i in range(p.size):
                    idx = np.unravel_index(flat_i, p.shape)
                    orig = p[idx]
                    p[idx] = orig + delta
                    up = mlp_grads(params, z, y)[0]
                    p[idx] = orig - delta
                    down = mlp_grads(params, z, y)[0]
                    p[idx] = orig
                    num = (up - down) / (2 * delta)
                    np.testing.assert_allclose(
                        flat_grad[flat_i], num, rtol=1e-4, atol=1e-7
                    )


def macro_f1(y_true, y_pred):
    """Mean of the positive-class and negative-class F1 scores."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    return float(np.mean([f1(*_confusion(y_pred == cls, y_true == cls)) for cls in (1, 0)]))


def fusion_predictions(model, data):
    """Hard labels the fused model assigns to every row of a dataset."""
    if data.member_ids != model.member_ids:
        raise ModelError("dataset member ids do not match the fusion model")
    logits = mlp_forward(model.params, data.log_odds)
    return (logits[:, 0] >= logits[:, 1]).astype(np.int64)


def heldout_macro_f1(model, data):
    return macro_f1(data.labels, fusion_predictions(model, data))


def member_macro_f1(data, member_idx):
    pred = (data.log_odds[:, member_idx] > 0).astype(int)
    return macro_f1(data.labels, pred)


class TestSynthScoreTask:
    def test_zero_sigma_members_are_perfect(self):
        rng = np.random.default_rng(3)
        data = synth_score_task(2, [0.0, 0.0], 500, rng)
        for i in range(2):
            assert member_macro_f1(data, i) == 1.0

    def test_fully_seeded(self):
        a = synth_score_task(3, [1.0, 2.0, 3.0], 100, np.random.default_rng(4))
        b = synth_score_task(3, [1.0, 2.0, 3.0], 100, np.random.default_rng(4))
        np.testing.assert_array_equal(a.log_odds, b.log_odds)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestTrainFusion:
    def test_perfect_oracle_member(self):
        rng = np.random.default_rng(5)
        train = synth_score_task(1, [0.0], 2000, rng, mu=3.0)
        test = synth_score_task(1, [0.0], 500, rng, mu=3.0)
        model = train_fusion(train, TrainSpec(max_epochs=80, seed=0))
        pred = fusion_predictions(model, test)
        assert (pred == test.labels).mean() >= 0.99

    def test_zero_information_gives_chance(self):
        labels = np.arange(400) % 2
        data = ScoreDataset(np.zeros((400, 2)), labels, ("a", "b"))
        model = train_fusion(data, TrainSpec(max_epochs=30, seed=0))
        pred = fusion_predictions(model, data)
        acc = (pred == data.labels).mean()
        assert 0.35 <= acc <= 0.65
        from wuw.fusion import mlp_forward as fwd
        from wuw.nnet import _ce_batch

        params = [model.weights[k].astype(np.float64)
                  for k in ("fc1.w", "fc1.b", "fc2.w", "fc2.b")]
        loss, _ = _ce_batch(fwd(params, data.log_odds), data.labels)
        assert loss == pytest.approx(math.log(2.0), abs=0.05)

    def test_fused_beats_best_member_on_heterogeneous_task(self):
        rng = np.random.default_rng(6)
        sigmas = [1.5, 2.0, 2.5, 3.0]
        train = synth_score_task(4, sigmas, 20000, rng)
        test = synth_score_task(4, sigmas, 5000, rng)
        model = train_fusion(train, TrainSpec(seed=0))
        fused = heldout_macro_f1(model, test)
        best_member = max(member_macro_f1(test, i) for i in range(4))
        assert fused > best_member

    def test_useless_member_changes_little(self):
        rng = np.random.default_rng(7)
        base = synth_score_task(2, [1.0, 1000.0], 20000, rng)
        test = synth_score_task(2, [1.0, 1000.0], 5000, rng)
        with_junk = train_fusion(base, TrainSpec(seed=0))
        f1_with = heldout_macro_f1(with_junk, test)

        solo_train = ScoreDataset(base.log_odds[:, :1], base.labels, ("m0",))
        solo_test = ScoreDataset(test.log_odds[:, :1], test.labels, ("m0",))
        solo = train_fusion(solo_train, TrainSpec(seed=0))
        f1_solo = heldout_macro_f1(solo, solo_test)
        assert abs(f1_with - f1_solo) < 0.01

    def test_monotone_in_oracle_member(self):
        rng = np.random.default_rng(8)
        train = synth_score_task(1, [0.0], 2000, rng, mu=3.0)
        model = train_fusion(train, TrainSpec(max_epochs=80, seed=1))
        low = fuse(LogOddsVector(np.array([-3.0]), ("m0",)), model)
        high = fuse(LogOddsVector(np.array([3.0]), ("m0",)), model)
        assert high.logit_pos >= low.logit_pos

    def test_single_class_rejected(self):
        data = ScoreDataset(np.ones((10, 1)), np.ones(10), ("m0",))
        with pytest.raises(DataError):
            train_fusion(data, TrainSpec(max_epochs=1))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(9)
        data = synth_score_task(2, [1.0, 2.0], 1500, rng)
        spec = TrainSpec(max_epochs=25, seed=3)
        a = train_fusion(data, spec)
        b = train_fusion(data, spec)
        for name in a.weights.tensors:
            assert a.weights[name].tobytes() == b.weights[name].tobytes()

    def test_persistence_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        data = synth_score_task(2, [1.0, 2.0], 800, rng)
        model = train_fusion(data, TrainSpec(max_epochs=10, seed=0))
        save_weights(model.weights, tmp_path / "f.wuwm")
        back = load_fusion(tmp_path / "f.wuwm")
        assert back.member_ids == model.member_ids
        z = LogOddsVector(np.array([0.3, -0.2]), model.member_ids)
        assert fuse(z, back) == fuse(z, model)


class TestLogitsLogOdds:
    def test_bit_identical_to_scalar_path(self):
        rng = np.random.default_rng(0)
        pairs = np.concatenate([rng.normal(size=(200, 2)) * 3,
                                rng.normal(size=(200, 2)) * 40,
                                [[0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [-1e3, 1e3]]])
        got = logits_log_odds(pairs)
        want = [log_odds(*softmax2(ScorePair(a, b))) for a, b in pairs]
        assert got.tolist() == want

    def test_any_leading_shape(self):
        pairs = np.random.default_rng(1).normal(size=(3, 4, 2))
        assert logits_log_odds(pairs).shape == (3, 4)
        np.testing.assert_array_equal(logits_log_odds(pairs)[1],
                                      logits_log_odds(pairs[1]))


def gru_member(kind, seed, hidden=16):
    return make_scorer(init_gru_scorer(CLOUD, kind=kind, hidden=hidden, seed=seed),
                       f"{kind}{seed}")


def plug_in(member_id="plug"):
    """A plug-in scorer that is no GRU: logits from the features' mean."""
    return Scorer(member_id, CLOUD.config_id,
                  lambda fm: ScorePair(float(fm.values.mean()), 0.25))


class TestEnsemble:
    def per_window(self, scorers, x):
        """The per-window path: every scorer's fn on every window."""
        return np.array([[log_odds(*softmax2(s.fn(FeatureMatrix(w, s.config_id))))
                          for s in scorers] for w in x])

    @pytest.mark.parametrize("batch", [1, 5])
    def test_mixed_members_match_gru_cell_oracle(self, batch):
        scorers = [gru_member("sgru", 0), plug_in(), gru_member("gru-max", 1),
                   gru_member("sgru", 2)]
        x = np.random.default_rng(batch).normal(size=(batch, 148, 40)).astype(np.float32)
        got = Ensemble(scorers).log_odds({CLOUD.config_id: x})
        assert got.shape == (batch, 4)
        for b in range(batch):
            for col, s in enumerate(scorers):
                if s.weights is None:
                    want = log_odds(*softmax2(s.fn(FeatureMatrix(x[b], 2))))
                    assert got[b, col] == want  # plug-in column kept in place
                else:
                    pair = oracle_logits(s.weights, x[b])
                    want = log_odds(*softmax2(ScorePair(*pair)))
                    assert abs(got[b, col] - want) <= 1e-12

    def test_stacks_same_shape_members_and_keeps_column_order(self):
        scorers = [gru_member("sgru", 0), plug_in("a"), gru_member("gru-max", 1),
                   gru_member("sgru", 2, hidden=8), plug_in("b"), gru_member("sgru", 3)]
        core = Ensemble(scorers)
        stacks = sorted(np.arange(6)[index].tolist() for index, _ in core._stacks)
        assert stacks == [[0, 2, 5], [3]]
        assert core.member_ids == tuple(s.member_id for s in scorers)
        x = np.random.default_rng(7).normal(size=(3, 30, 40))
        np.testing.assert_allclose(core.log_odds({2: x}), self.per_window(scorers, x),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_interleaved_stack_columns_equal_each_scorers_fn(self, batch):
        # the sgru stack's columns 0 and 2 are not contiguous; the linear
        # member between them is its own stack
        linear = make_scorer(linear_store(frames=148, coeffs=40, seed=3,
                                          config_id=CLOUD.config_id), "lin")
        scorers = [gru_member("sgru", 0, hidden=8), linear, gru_member("sgru", 1, hidden=8)]
        core = Ensemble(scorers)
        assert sorted(np.arange(3)[index].tolist() for index, _ in core._stacks) == [[0, 2], [1]]
        x = np.random.default_rng(batch).normal(size=(batch, 148, 40)).astype(np.float32)
        got = core.log_odds({2: x})
        # each scorer alone, at the same batch: a GRU's last bits may depend
        # on how many windows share its gemm, never on its column
        alone = np.column_stack([Ensemble([s]).log_odds({2: x})[:, 0] for s in scorers])
        np.testing.assert_array_equal(got, alone)
        if batch == 1:
            np.testing.assert_array_equal(got, self.per_window(scorers, x))

    @pytest.mark.parametrize("batch", [1, 5])
    def test_unevenly_spaced_stack_columns_equal_each_scorers_fn(self, batch):
        # the sgru stack's columns 0, 2 and 3 are no strided slice; each
        # stack writes exactly the columns it lists
        linear = make_scorer(linear_store(frames=148, coeffs=40, seed=4,
                                          config_id=CLOUD.config_id), "lin")
        scorers = [gru_member("sgru", 0, hidden=8), linear, gru_member("sgru", 1, hidden=8),
                   gru_member("sgru", 2, hidden=8)]
        core = Ensemble(scorers)
        assert sorted(cols for cols, _ in core._stacks) == [[0, 2, 3], [1]]
        x = np.random.default_rng(10 + batch).normal(size=(batch, 148, 40)).astype(np.float32)
        got = core.log_odds({2: x})
        # bit for bit: each scorer alone at the same batch, and at B=1 its fn;
        # a member's last bits may depend on how many windows share its
        # product (the linear one's do at B=5), so at B=5 fn agrees to 1e-12
        alone = np.column_stack([Ensemble([s]).log_odds({2: x})[:, 0] for s in scorers])
        np.testing.assert_array_equal(got, alone)
        per_window = self.per_window(scorers, x)
        if batch == 1:
            np.testing.assert_array_equal(got, per_window)
        np.testing.assert_allclose(got, per_window, rtol=0, atol=1e-12)

    def test_stacked_members_skip_fn(self):
        ws = init_gru_scorer(CLOUD, hidden=8, seed=0)

        def never(fm):
            raise AssertionError("a stacked member must not be called through fn")

        core = Ensemble([Scorer("g", CLOUD.config_id, never, ws)])
        x = np.random.default_rng(8).normal(size=(2, 10, 40)).astype(np.float32)
        got = core.log_odds({2: x})
        want = [log_odds(*softmax2(ScorePair(*oracle_logits(ws, w)))) for w in x]
        np.testing.assert_allclose(got[:, 0], want, rtol=0, atol=1e-12)

    def test_linear_members_skip_fn(self):
        stores = [linear_store(frames=29, coeffs=13, seed=i) for i in range(2)]

        def never(fm):
            raise AssertionError("a stacked member must not be called through fn")

        scorers = [Scorer(f"lin{i}", DEVICE.config_id, never, ws) for i, ws in enumerate(stores)]
        core = Ensemble([*scorers, gru_member("sgru", 0, hidden=8)])
        assert sorted(np.arange(3)[index].tolist() for index, _ in core._stacks) == [[0, 1], [2]]
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 29, 13)).astype(np.float32)
        got = core.log_odds({1: x, 2: rng.normal(size=(3, 20, 40))})
        for col, ws in enumerate(stores):
            want = [log_odds(*softmax2(ScorePair(*linear_oracle(ws, w)))) for w in x]
            np.testing.assert_allclose(got[:, col], want, rtol=0, atol=1e-12)

    def test_scorer_without_weights_goes_through_fn(self):
        inner = gru_member("sgru", 0, hidden=8)
        calls = []

        def counted(fm):
            calls.append(fm.values.shape)
            return inner.fn(fm)

        core = Ensemble([Scorer("traced", CLOUD.config_id, counted)])
        x = np.random.default_rng(9).normal(size=(4, 10, 40))
        got = core.log_odds({2: x})
        assert calls == [(10, 40)] * 4
        np.testing.assert_array_equal(got, self.per_window([inner], x))

    def test_scorer_whose_weights_name_another_config_is_refused(self):
        # such a scorer's fn would be fed its own config's features and fail
        # on every window
        device_store = init_gru_scorer(DEVICE, hidden=8, seed=0)
        mismatched = Scorer("m0", CLOUD.config_id, make_scorer(device_store).fn, device_store)
        with pytest.raises(ModelError, match="'m0' is over config 2, its weights over config 1"):
            Ensemble([gru_member("sgru", 0, hidden=8), mismatched])

    def test_configs_are_fed_separately(self):
        device = Scorer("device", DEVICE.config_id,
                        lambda fm: ScorePair(float(fm.values.sum()), 0.0))
        core = Ensemble([device, gru_member("sgru", 0, hidden=8)])
        assert core.config_ids == (DEVICE.config_id, CLOUD.config_id)
        rng = np.random.default_rng(10)
        feats = {1: rng.normal(size=(2, 29, 13)), 2: rng.normal(size=(2, 148, 40))}
        got = core.log_odds(feats)
        assert got.shape == (2, 2)
        with pytest.raises(ModelError):
            core.log_odds({2: feats[2]})
        with pytest.raises(DataError):
            core.log_odds({1: feats[1], 2: feats[2][:1]})


def fusion_store(case=None):
    """A three-member fusion store, well formed or with the one defect that
    ``case`` names."""
    tensors = {"fc1.w": np.zeros((4, 3)), "fc1.b": np.zeros(4),
               "fc2.w": np.zeros((2, 4)), "fc2.b": np.zeros(2)}
    meta = {"kind": "fusion", "member_ids": ["device", "a", "b"]}
    if case is None:
        pass
    elif case.startswith("no "):
        del tensors[case[3:]]
    elif case == "member_ids int":
        meta["member_ids"] = 3
    elif case == "member_ids str":
        meta["member_ids"] = "dab"
    elif case == "member_ids of ints":
        meta["member_ids"] = [0, 1, 2]
    elif case == "member_ids empty":
        meta["member_ids"] = []
    elif case == "member_ids absent":
        del meta["member_ids"]
    elif case == "fc1.w width":
        tensors["fc1.w"] = np.zeros((4, 2))
    elif case == "fc1.w 1-d":
        tensors["fc1.w"] = np.zeros(3)
    elif case == "fc1.w 0-d":
        tensors["fc1.w"] = np.zeros(())
    elif case == "fc1.b":
        tensors["fc1.b"] = np.zeros(5)
    elif case == "fc2.w":
        tensors["fc2.w"] = np.zeros((2, 5))
    elif case == "fc2.w outputs":
        tensors["fc2.w"] = np.zeros((3, 4))
    elif case == "fc2.b":
        tensors["fc2.b"] = np.zeros((1, 2))
    else:
        raise ValueError(case)
    return WeightStore(tensors, meta)


MALFORMED_FUSION = ["no fc1.w", "no fc1.b", "no fc2.w", "no fc2.b", "member_ids int",
                    "member_ids str", "member_ids of ints", "member_ids empty",
                    "member_ids absent", "fc1.w width", "fc1.w 1-d", "fc1.w 0-d", "fc1.b",
                    "fc2.w", "fc2.w outputs", "fc2.b"]


class TestFusionModelChecks:
    @pytest.mark.parametrize("case", MALFORMED_FUSION)
    def test_malformed_store_is_a_model_error(self, case):
        with pytest.raises(ModelError):
            FusionModel(fusion_store(case))

    def test_well_formed_store_loads(self, tmp_path):
        save_weights(fusion_store(), tmp_path / "f.wuwm")
        assert load_fusion(tmp_path / "f.wuwm").member_ids == ("device", "a", "b")


class TestFusionParams:
    def test_cast_once_and_used_by_fuse(self):
        rng = np.random.default_rng(11)
        model = fusion_from_arrays(rng.normal(size=(4, 3)), rng.normal(size=4),
                                   rng.normal(size=(2, 4)), rng.normal(size=2),
                                   ("a", "b", "c"))
        assert all(p.dtype == np.float64 for p in model.params)
        z = LogOddsVector(rng.normal(size=3), ("a", "b", "c"))
        want = mlp_forward([model.weights[n].astype(np.float64)
                            for n in ("fc1.w", "fc1.b", "fc2.w", "fc2.b")], z.values[None])[0]
        assert fuse(z, model) == ScorePair(float(want[0]), float(want[1]))
