import gc
import weakref

import numpy as np
import pytest

from latentdepth import autodiff as ad
from latentdepth import losses, network
from latentdepth.autodiff import ShapeMismatchError, Tensor
from latentdepth.data import synth_scene
from latentdepth.losses import LossWeights
from latentdepth.network import DepthModel, NetworkConfig, save_checkpoint
from latentdepth.training import (MOMENTUM, SgdOptimizer, TrainConfig,
                                  TrainingError, _write_loss_csv,
                                  constant_predictor_rmse, evaluate,
                                  train_color, train_guided)

NET16 = NetworkConfig(input_channels=1, base_width=2, bottleneck_blocks=1,
                      input_h=16, input_w=16)
NET16_RGB = NetworkConfig(input_channels=3, base_width=2, bottleneck_blocks=1,
                          input_h=16, input_w=16)


def _samples(n, seed=0, h=16, w=16):
    return [synth_scene(seed * 1000 + i, h, w, 2) for i in range(n)]


class TestSgdStep:
    def test_two_step_unroll(self):
        # from rest with constant gradient g: v1 = g, v2 = m*g + g,
        # total displacement after two steps = lr * (2 + m) * g
        p0 = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        lr, m = 0.1, MOMENTUM
        p = Tensor(p0.copy(), requires_grad=True)
        opt = SgdOptimizer([p], lr=lr)
        p.grad = g.copy()
        opt.step()
        np.testing.assert_allclose(opt.velocity[0], g, rtol=1e-15)
        opt.step()
        np.testing.assert_allclose(opt.velocity[0], (1 + m) * g, rtol=1e-15)
        np.testing.assert_allclose(p0 - p.data, lr * (2 + m) * g,
                                   rtol=1e-14)

    def test_updates_model_arrays_in_place(self):
        # every parameter array keeps its identity, so a state_items()
        # array taken before a step sees the update
        model = DepthModel(NET16, seed=0)
        _, arr = model.state_items()[0]
        start = arr.copy()
        params = model.parameters()
        arrays = [p.data for p in params]
        opt = SgdOptimizer(params, lr=0.1)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        assert all(p.data is a for p, a in zip(params, arrays))
        np.testing.assert_array_equal(arr, start - 0.1)


class TestSgdOptimizer:
    def test_matches_manual_updates(self):
        rng = np.random.default_rng(0)
        params = [Tensor(rng.random(4), requires_grad=True) for _ in range(2)]
        want = [p.data.copy() for p in params]
        vel = [np.zeros(4) for _ in params]
        opt = SgdOptimizer(params, lr=0.2)
        for _ in range(3):
            grads = [rng.random(4) for _ in params]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            for i in range(2):
                vel[i] = MOMENTUM * vel[i] + grads[i]
                want[i] = want[i] - 0.2 * vel[i]
        for p, w in zip(params, want):
            np.testing.assert_array_equal(p.data, w)

    def test_none_grad_treated_as_zero(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = SgdOptimizer([p], lr=0.1)
        opt.step()
        assert p.data[0] == 5.0


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="stage"):
            TrainConfig(stage="finetune", net=NET16, steps=1)
        for lr in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning rate"):
                TrainConfig(stage="guided", net=NET16, steps=1,
                            learning_rate=lr)
        with pytest.raises(ValueError):
            TrainConfig(stage="guided", net=NET16, steps=1, batch_size=0)
        # the guided stage trains on GUIDED_WEIGHTS alone
        with pytest.raises(ValueError, match="weights"):
            TrainConfig(stage="guided", net=NET16, steps=1,
                        weights=LossWeights(latent=0.5))


class TestTrainGuided:
    def test_zero_steps_returns_seed_init(self):
        config = TrainConfig(stage="guided", net=NET16, steps=0, seed=5)
        model, history = train_guided(config, _samples(2))
        fresh = DepthModel(NET16, seed=5)
        assert history == []
        for (_, a), (_, b) in zip(model.state_items(), fresh.state_items()):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases(self):
        config = TrainConfig(stage="guided", net=NET16, steps=30,
                             batch_size=4, learning_rate=0.02, seed=3)
        _, history = train_guided(config, _samples(4, seed=3))
        assert history[-1].data < history[0].data

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            config = TrainConfig(stage="guided", net=NET16, steps=5,
                                 batch_size=2, seed=9)
            model, history = train_guided(config, _samples(3, seed=9))
            runs.append((history, [a.tobytes()
                                   for _, a in model.state_items()]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_empty_dataset(self):
        config = TrainConfig(stage="guided", net=NET16, steps=1)
        with pytest.raises(TrainingError, match="empty"):
            train_guided(config, [])

    def test_wrong_stage(self):
        config = TrainConfig(stage="color", net=NET16_RGB, steps=1)
        with pytest.raises(ValueError):
            train_guided(config, _samples(1))

    def test_artifacts_written(self, tmp_path):
        ckpt = str(tmp_path / "g.ckpt")
        csv = str(tmp_path / "g.csv")
        config = TrainConfig(stage="guided", net=NET16, steps=3,
                             batch_size=2, seed=1, checkpoint_path=ckpt,
                             loss_csv_path=csv)
        _, history = train_guided(config, _samples(2, seed=1))
        lines = open(csv).read().splitlines()
        assert lines[0] == "step,data,latent,grad_image,grad_feature,total"
        assert len(lines) == 4
        assert float(lines[1].split(",")[5]) == history[0].total
        from latentdepth.network import load_checkpoint
        assert load_checkpoint(ckpt).config == NET16


class TestLossCsv:
    def test_round_trips_floats(self, tmp_path):
        report = losses.LossReport(data=1.0 / 3.0, latent=2.5e-17,
                                   grad_image=0.1, grad_feature=7.0,
                                   total=1e300)
        path = tmp_path / "loss.csv"
        _write_loss_csv(str(path), [report])
        _, row = path.read_text().splitlines()
        fields = row.split(",")
        assert fields[0] == "0"
        assert losses.LossReport(*map(float, fields[1:])) == report


class TestTrainColor:
    def _guided(self, seed=0, steps=20):
        config = TrainConfig(stage="guided", net=NET16, steps=steps,
                             batch_size=2, learning_rate=0.02, seed=seed)
        model, _ = train_guided(config, _samples(3, seed=seed))
        return model

    def test_loss_decreases_full_objective(self):
        guided = self._guided(seed=2)
        config = TrainConfig(
            stage="color", net=NET16_RGB, steps=30, batch_size=4,
            learning_rate=0.01, seed=2,
            weights=LossWeights(1.0, 0.02, 1.0, 0.005))
        _, history = train_color(config, _samples(4, seed=2), guided)
        assert history[-1].total < history[0].total
        assert history[0].latent > 0 and history[0].grad_feature > 0

    def test_guided_left_byte_identical(self):
        guided = self._guided(seed=4)
        before = [a.tobytes() for _, a in guided.state_items()]
        config = TrainConfig(stage="color", net=NET16_RGB, steps=5,
                             batch_size=2, seed=4,
                             weights=LossWeights(1.0, 0.02, 1.0, 0.005))
        train_color(config, _samples(2, seed=4), guided)
        after = [a.tobytes() for _, a in guided.state_items()]
        assert before == after

    def test_zero_feature_weights_degrades_to_supervised(self):
        guided = self._guided(seed=6, steps=1)
        config = TrainConfig(
            stage="color", net=NET16_RGB, steps=30, batch_size=4,
            learning_rate=0.01, seed=6,
            weights=LossWeights(1.0, 0.0, 1.0, 0.0))
        _, history = train_color(config, _samples(4, seed=6), guided)
        assert history[-1].total < history[0].total
        assert all(h.latent == 0.0 and h.grad_feature == 0.0
                   for h in history)

    def test_size_mismatch_rejected(self):
        guided = DepthModel(NetworkConfig(input_channels=1, base_width=2,
                                          bottleneck_blocks=1, input_h=32,
                                          input_w=32), seed=0)
        config = TrainConfig(stage="color", net=NET16_RGB, steps=1)
        with pytest.raises(ShapeMismatchError):
            train_color(config, _samples(1), guided)

    @pytest.mark.parametrize("weights", [LossWeights(1.0, 0.02, 1.0, 0.005),
                                         LossWeights(1.0, 0.0, 1.0, 0.0)])
    def test_feature_extraction_calls(self, monkeypatch, weights):
        # one extraction of the prediction and one of the target per drawn
        # sample, repeats included (nothing is kept per sample), none when
        # unweighted
        calls = []
        real = network.extract_features

        def counting(guided, y):
            calls.append("pred" if y.requires_grad else "target")
            return real(guided, y)

        monkeypatch.setattr(network, "extract_features", counting)
        samples = _samples(3, seed=10)
        config = TrainConfig(stage="color", net=NET16_RGB, steps=3,
                             batch_size=4, seed=10, weights=weights)
        train_color(config, samples, DepthModel(NET16, seed=10))
        rng = np.random.default_rng(config.seed)
        drawn = [int(i) for _ in range(config.steps)
                 for i in rng.integers(0, len(samples), config.batch_size)]
        assert len(set(drawn)) < len(drawn)
        if weights.latent == 0 and weights.grad_feature == 0:
            assert calls == []
        else:
            assert calls == ["pred", "target"] * len(drawn)

    def _color_error(self):
        config = TrainConfig(stage="color", net=NET16_RGB, steps=4,
                             batch_size=2, seed=12,
                             weights=LossWeights(1.0, 0.02, 1.0, 0.005))
        with pytest.raises(TrainingError) as info:
            train_color(config, _samples(2, seed=12),
                        DepthModel(NET16, seed=12))
        return str(info.value)

    def test_non_finite_loss_names_term_and_step(self, monkeypatch):
        # from the third step on (batch 2) the prediction's guided features
        # are NaN: latent is the first non-finite term
        real = network.extract_features
        preds = []

        def poisoned(guided, y):
            feats = real(guided, y)
            if not y.requires_grad:
                return feats
            preds.append(y)
            if len(preds) <= 4:
                return feats
            return [Tensor(np.full(f.shape, np.nan), requires_grad=True)
                    for f in feats]

        monkeypatch.setattr(network, "extract_features", poisoned)
        assert self._color_error() == "non-finite loss at step 2: latent"

    def test_non_finite_total_with_finite_terms(self, monkeypatch):
        real = losses.total_loss
        calls = []

        def poisoned(*args):
            report, loss = real(*args)
            calls.append(loss)
            return report, ad.scale(loss, np.inf) if len(calls) > 2 else loss

        monkeypatch.setattr(losses, "total_loss", poisoned)
        assert self._color_error() == "non-finite loss at step 1: total"


class TestPerSampleBackward:
    """_run_loop runs backward once per sample; the gradients of a step
    must be those of one backward through the batch-mean loss, and no
    sample's graph may outlive its backward."""

    WEIGHTS = LossWeights(1.0, 0.02, 1.0, 0.005)

    def _config(self, stage, steps=1):
        if stage == "guided":  # the guided stage takes no weights
            return TrainConfig(stage=stage, net=NET16, steps=steps,
                               batch_size=3, seed=14)
        return TrainConfig(stage=stage, net=NET16_RGB, steps=steps,
                           batch_size=3, seed=14, weights=self.WEIGHTS)

    def _train(self, stage, samples, steps=1):
        config = self._config(stage, steps)
        if stage == "guided":
            return train_guided(config, samples)[0]
        return train_color(config, samples, DepthModel(NET16, seed=14))[0]

    @pytest.mark.parametrize("stage", ["guided", "color"])
    def test_step_grads_match_one_backward_of_the_batch(self, stage):
        samples = _samples(2, seed=14)  # batch 3 of 2: an index repeats
        config = self._config(stage)
        trained = self._train(stage, samples)

        guided = DepthModel(NET16, seed=14)
        guided.freeze()
        model = DepthModel(config.net, seed=config.seed)
        idxs = np.random.default_rng(config.seed).integers(
            0, len(samples), size=config.batch_size)
        total = None
        for i in idxs:
            s = samples[i]
            target = Tensor(s.depth)
            if stage == "guided":
                pred, _ = model.forward(Tensor(s.depth))
                loss = losses.data_loss(pred, target, s.mask)
            else:
                pred, _ = model.forward(Tensor(s.rgb))
                _, loss = losses.total_loss(
                    pred, target, s.mask, self.WEIGHTS,
                    network.extract_features(guided, pred),
                    network.extract_features(guided, target))
            total = loss if total is None else ad.add(total, loss)
        ad.backward(ad.scale(total, 1.0 / config.batch_size))

        assert all(p.grad is not None for p in model.parameters())
        assert [p.grad.tobytes() for p in trained.parameters()] == \
            [p.grad.tobytes() for p in model.parameters()]

    @pytest.mark.parametrize("stage", ["guided", "color"])
    def test_previous_prediction_freed_before_next_forward(
            self, stage, monkeypatch):
        # reference counting alone must free a sample's graph: the
        # collector is off, so a cycle through the graph would keep it.
        # A live prediction Tensor holds its array, so a dead array
        # means a dead Tensor
        real = DepthModel.forward
        preds = []

        def forward(model, x):
            assert all(ref() is None for ref in preds)
            pred, taps = real(model, x)
            preds.append(weakref.ref(pred.data))
            return pred, taps

        monkeypatch.setattr(DepthModel, "forward", forward)
        gc.disable()
        try:
            self._train(stage, _samples(2, seed=15), steps=2)
        finally:
            gc.enable()
        assert len(preds) == 6


class TestEvaluate:
    def test_perfect_guided_identity_is_cheap(self):
        # evaluate routes depth input to a 1-channel model
        model = DepthModel(NET16, seed=0)
        samples = _samples(2, seed=11)
        result = evaluate(model, samples)
        assert result.n_images == 2
        assert result.n_valid_pixels == 2 * 16 * 16

    def test_leaves_model_state_unchanged(self):
        model = DepthModel(NET16_RGB, seed=1)
        samples = _samples(2, seed=12)
        before = [a.tobytes() for _, a in model.state_items()]
        evaluate(model, samples)
        assert [a.tobytes() for _, a in model.state_items()] == before

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="no valid pixels"):
            evaluate(DepthModel(NET16, seed=0), [])

    def test_one_prediction_at_a_time(self, monkeypatch):
        # a generator of samples is drawn one by one, and sample k's
        # prediction is released before sample k + 1 is drawn; the
        # collector is off, so only reference counting frees it
        real = DepthModel.forward
        preds = []

        def forward(model, x):
            pred, taps = real(model, x)
            preds.append(weakref.ref(pred.data))
            return pred, taps

        def samples():
            for s in _samples(3, seed=16):
                assert all(ref() is None for ref in preds)
                yield s

        monkeypatch.setattr(DepthModel, "forward", forward)
        gc.disable()
        try:
            result = evaluate(DepthModel(NET16_RGB, seed=1), samples())
        finally:
            gc.enable()
        assert result.n_images == 3 and len(preds) == 3


class TestConstantPredictor:
    def test_hand_case(self):
        def mk(depth_vals, mask_vals):
            d = np.array(depth_vals, float)[None]
            m = np.array(mask_vals, bool)
            from latentdepth.data import RgbdSample
            return RgbdSample(rgb=np.zeros((3,) + d.shape[1:]), depth=d,
                              mask=m)

        train = [mk([[2.0, 4.0]], [[True, True]])]     # mean 3
        evalset = [mk([[3.0, 5.0]], [[True, True]])]   # diffs 0, 2
        result = constant_predictor_rmse(train, evalset)
        assert result.rmse == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_mask_respected_in_mean(self):
        from latentdepth.data import RgbdSample
        d = np.array([[[2.0, 100.0]]])
        m = np.array([[True, False]])
        train = [RgbdSample(rgb=np.zeros((3, 1, 2)), depth=d, mask=m)]
        result = constant_predictor_rmse(train, train)
        assert result.rmse == 0.0


class TestLrSweep:
    def test_larger_lr_moves_params_farther_in_one_step(self):
        # one step from identical init: displacement is linear in lr
        samples = _samples(2, seed=13)
        norms = {}
        for lr in (0.001, 0.01):
            config = TrainConfig(stage="guided", net=NET16, steps=1,
                                 batch_size=2, learning_rate=lr, seed=13)
            model, _ = train_guided(config, samples)
            init = DepthModel(NET16, seed=13)
            sq = 0.0
            for p, q in zip(model.parameters(), init.parameters()):
                sq += float(np.sum((p.data - q.data) ** 2))
            norms[lr] = np.sqrt(sq)
        assert norms[0.01] == pytest.approx(10 * norms[0.001], rel=1e-8)
