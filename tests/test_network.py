import json
import tracemalloc
import warnings

import numpy as np
import pytest

import latentdepth.autodiff as ad
from latentdepth.autodiff import ShapeMismatchError, Tensor, backward, \
    finite_diff_check
from latentdepth.network import (CKPT_MAGIC, CheckpointError, DepthModel,
                                 NetworkConfig, ResBlock, extract_features,
                                 load_checkpoint, save_checkpoint, shape_plan)

DESK = NetworkConfig(input_channels=3, base_width=4, bottleneck_blocks=2,
                     input_h=32, input_w=32)
GUIDED_DESK = NetworkConfig(input_channels=1, base_width=4,
                            bottleneck_blocks=2, input_h=32, input_w=32)


class TestConfigs:
    def test_dims_must_divide_16(self):
        for h, w in [(30, 32), (0, 16), (16, -16)]:
            with pytest.raises(ValueError, match="divisible by 16"):
                NetworkConfig(input_channels=3, input_h=h, input_w=w)

    def test_non_integer_field_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            NetworkConfig(input_channels=3, base_width=2.5)

    def test_stage_widths_double(self):
        cfg = NetworkConfig(input_channels=3, base_width=64,
                            input_h=320, input_w=240)
        assert cfg.stage_widths == (64, 128, 256, 512)
        assert cfg.latent_shape == (512, 20, 15)


class TestResBlock:
    def test_zero_branch_is_exact_identity(self):
        rng = np.random.default_rng(0)
        for channels, kernel in [(4, 3), (8, 5)]:
            block = ResBlock(channels, kernel)  # no rng: zero convs
            x = rng.standard_normal((channels, 6, 6))
            out = block(Tensor(x))
            np.testing.assert_array_equal(out.data, x)

    def test_shape_preserved(self):
        block = ResBlock(64, 9, rng=np.random.default_rng(1))
        out = block(Tensor(np.random.default_rng(2).random((64, 32, 32))))
        assert out.shape == (64, 32, 32)

    def test_channel_mismatch(self):
        block = ResBlock(4, 3, rng=np.random.default_rng(1))
        with pytest.raises(ShapeMismatchError, match="channels"):
            block(Tensor(np.zeros((3, 8, 8))))

    def test_gradient_check(self):
        block = ResBlock(2, 3, rng=np.random.default_rng(7))
        probe = np.random.default_rng(8).standard_normal((2, 4, 4))
        err = finite_diff_check(
            lambda t: ad.reduce(block(t), "l2sq"),
            Tensor(probe))
        assert err < 1e-4


class TestShapePipeline:
    def test_desk_scale_execution(self):
        model = DepthModel(DESK, seed=3)
        x = Tensor(np.random.default_rng(4).random((3, 32, 32)))
        latent, taps = model.encoder_forward(x)
        assert latent.shape == (32, 2, 2)
        assert len(taps) == 5
        plan = shape_plan(DESK)
        assert tuple(t.shape for t in taps) == plan["taps"]
        pred, taps2 = model.forward(x)
        assert pred.shape == (1, 32, 32) == plan["output"]
        assert len(taps2) == 5

    def test_shape_plan_matches_execution_asymmetric(self):
        cfg = NetworkConfig(input_channels=3, base_width=4,
                            bottleneck_blocks=1, input_h=48, input_w=32)
        model = DepthModel(cfg, seed=5)
        pred, taps = model.forward(Tensor(np.zeros((3, 48, 32))))
        plan = shape_plan(cfg)
        assert tuple(t.shape for t in taps) == plan["taps"]
        assert pred.shape == plan["output"] == (1, 48, 32)

    def test_full_scale_plan(self):
        cfg = NetworkConfig(input_channels=3, base_width=64,
                            bottleneck_blocks=6, input_h=320, input_w=240)
        plan = shape_plan(cfg)
        assert plan["latent"] == (512, 20, 15)
        assert plan["output"] == (1, 320, 240)

    def test_bottleneck_preserves_shape(self):
        model = DepthModel(DESK, seed=6)
        latent = Tensor(np.random.default_rng(7).random((32, 2, 2)).astype(
            model.dtype))
        assert model.bottleneck_forward(latent).shape == (32, 2, 2)

    def test_decoder_rejects_wrong_latent(self):
        model = DepthModel(DESK, seed=6)
        with pytest.raises(ShapeMismatchError):
            model.decoder_forward(Tensor(np.zeros((32, 4, 4))))

    def test_input_shape_rejected(self):
        model = DepthModel(DESK, seed=6)
        with pytest.raises(ShapeMismatchError):
            model.forward(Tensor(np.zeros((1, 32, 32))))


class TestModelProperties:
    def test_param_shapes_pure_function_of_config(self):
        a = DepthModel(DESK, seed=1)
        b = DepthModel(DESK, seed=99)
        assert [p.shape for p in a.parameters()] == \
            [p.shape for p in b.parameters()]

    def test_parameters_and_state_items_agree(self):
        model = DepthModel(DESK, seed=1)
        params = model.parameters()
        items = model.state_items()
        assert len(params) == len(items)
        for p, (_, arr) in zip(params, items):
            assert p.data is arr

    @pytest.mark.parametrize("channels", [1, 3])
    def test_checkpoint_layout(self, channels):
        # the (name, shape) list of a 16x16, width-2, one-block model,
        # written out: a module's arrays in the order its constructor
        # assigns them, the modules in construction order
        def conv(name, cout, cin, k):
            return [(name + ".weight", (cout, cin, k, k)),
                    (name + ".bias", (cout,))]

        def bn(name, c):
            return [(name + ".gamma", (c,)), (name + ".beta", (c,))]

        def head(name, cout, cin, k):
            return conv(name + ".conv", cout, cin, k) + bn(name + ".bn", cout)

        def block(name, c, k):
            return (conv(name + ".conv1", c, c, k) + bn(name + ".bn1", c) +
                    conv(name + ".conv2", c, c, k) + bn(name + ".bn2", c))

        want = (head("enc0", 2, channels, 9) + block("enc0.block", 2, 9) +
                head("enc1", 4, 2, 7) + block("enc1.block", 4, 7) +
                head("enc2", 8, 4, 5) + block("enc2.block", 8, 5) +
                head("enc3", 16, 8, 3) + block("enc3.block", 16, 3) +
                head("enc_latent", 16, 16, 3) +
                block("bottleneck0", 16, 3) +
                head("dec0", 16, 16, 3) + block("dec0.block", 16, 3) +
                head("dec1", 8, 16, 3) + block("dec1.block", 8, 5) +
                head("dec2", 4, 8, 5) + block("dec2.block", 4, 7) +
                head("dec3", 2, 4, 7) + block("dec3.block", 2, 9) +
                conv("out", 1, 2, 9))
        model = DepthModel(NetworkConfig(channels, 2, 1, 16, 16), seed=0)
        assert [(n, a.shape) for n, a in model.state_items()] == want

    def test_parameters_hold_every_reachable_tensor(self):
        # a Tensor that the model reaches through any attribute, list or
        # tuple is a parameter, listed once
        seen, reached = set(), []

        def walk(obj):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, Tensor):
                reached.append(obj)
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    walk(item)
            elif type(obj).__module__ == DepthModel.__module__:
                for value in vars(obj).values():
                    walk(value)

        model = DepthModel(DESK, seed=1)
        walk(model)
        params = model.parameters()
        assert len({id(p) for p in params}) == len(params)
        assert {id(t) for t in reached} == {id(p) for p in params}

    def test_seed_none_draws_nothing(self):
        model = DepthModel(DESK, seed=None)
        assert [p.shape for p in model.parameters()] == \
            [p.shape for p in DepthModel(DESK, seed=1).parameters()]
        for name, arr in model.state_items():
            want = 1.0 if name.endswith(".gamma") else 0.0
            assert (arr == want).all(), name

    def test_zero_branch_model_blocks_are_identities(self):
        model = DepthModel(DESK, seed=None)  # zero convs in every branch
        rng = np.random.default_rng(3)
        for _, block in model.enc_stages:
            c = block.conv1.weight.shape[0]
            x = rng.standard_normal((c, 8, 8)).astype(model.dtype)
            np.testing.assert_array_equal(
                block(Tensor(x)).data, x)
        for block in model.bottleneck:
            x = rng.standard_normal((block.conv1.weight.shape[0], 4,
                                     4)).astype(model.dtype)
            np.testing.assert_array_equal(
                block(Tensor(x)).data, x)

    def test_deterministic_forward(self):
        x = np.random.default_rng(5).random((3, 32, 32))
        outs = []
        for _ in range(2):
            model = DepthModel(DESK, seed=11)
            pred, _ = model.forward(Tensor(x.copy()))
            outs.append(pred.data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_taps_do_not_alias_model_state(self):
        model = DepthModel(DESK, seed=12)
        x = Tensor(np.random.default_rng(13).random((3, 32, 32)))
        _, taps = model.forward(x)
        snapshot = [t.data.copy() for t in taps]
        taps[0].data += 100.0
        _, taps2 = model.forward(x)
        for fresh, snap in zip(taps2[1:], snapshot[1:]):
            np.testing.assert_array_equal(fresh.data, snap)

    def test_final_layer_is_linear(self):
        # negative outputs must be possible: no final activation
        found_negative = False
        for seed in range(5):
            model = DepthModel(DESK, seed=seed)
            pred, _ = model.forward(
                Tensor(np.random.default_rng(seed).random((3, 32, 32))))
            if (pred.data < 0).any():
                found_negative = True
                break
        assert found_negative


class TestDtype:
    def test_float32_by_default(self):
        model = DepthModel(DESK, seed=40)
        assert model.dtype == np.float32
        assert all(a.dtype == np.float32 for _, a in model.state_items())

    def test_same_draws_in_either_dtype(self):
        f32 = DepthModel(DESK, seed=41)
        f64 = DepthModel(DESK, seed=41, dtype=np.float64)
        for (_, a), (_, b) in zip(f32.state_items(), f64.state_items()):
            assert b.dtype == np.float64
            assert a.tobytes() == b.astype(np.float32).tobytes()

    def test_input_converted_at_entry(self):
        model = DepthModel(DESK, seed=42)
        x = np.random.default_rng(43).random((3, 32, 32))
        pred, taps = model.forward(Tensor(x))
        assert pred.data.dtype == np.float32
        assert all(t.data.dtype == np.float32 for t in taps)
        same, _ = model.forward(Tensor(x.astype(np.float32)))
        assert pred.data.tobytes() == same.data.tobytes()

    def test_float32_forward_near_float64(self):
        # the same weights and input in both dtypes: the predictions
        # differ by float32 rounding, which the normalizations over the
        # four values of each 2x2 map amplify (2.2e-4 at most over eight
        # seeds)
        x = np.random.default_rng(44).random((3, 32, 32))
        preds = [DepthModel(DESK, seed=45, dtype=dtype).forward(
            Tensor(x))[0].data for dtype in (np.float32, np.float64)]
        assert np.abs(preds[0] - preds[1]).max() <= \
            1e-3 * np.abs(preds[1]).max()

    def test_seed_none_model_allocates_in_its_dtype(self):
        # load_checkpoint builds such a model on every reload: its zeros
        # are allocated in float32, where float64 zeros cast afterwards
        # would peak near twice the parameters' bytes
        config = NetworkConfig(input_channels=3, base_width=16,
                               bottleneck_blocks=2, input_h=32, input_w=32)
        tracemalloc.start()
        try:
            model = DepthModel(config, seed=None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        params = sum(a.nbytes for _, a in model.state_items())
        assert all(a.dtype == np.float32 for _, a in model.state_items())
        assert peak < 1.5 * params

    def test_graph_recording_input_of_other_dtype_rejected(self):
        model = DepthModel(DESK, seed=46)
        x = Tensor(np.zeros((3, 32, 32)), requires_grad=True)
        with pytest.raises(ShapeMismatchError, match="float32 vs float64|"
                           "float64 vs float32"):
            model.forward(x)


class TestExtractFeatures:
    def test_deepest_layer_shape(self):
        guided = DepthModel(GUIDED_DESK, seed=20)
        guided.freeze()
        y = Tensor(np.random.default_rng(21).random((1, 32, 32)))
        feats = extract_features(guided, y)
        assert len(feats) == 5
        assert feats[4].shape == (32, 2, 2)

    def test_all_layers_default(self):
        guided = DepthModel(GUIDED_DESK, seed=20)
        guided.freeze()
        y = Tensor(np.random.default_rng(22).random((1, 32, 32)))
        assert len(extract_features(guided, y)) == 5

    def test_identical_input_identical_features(self):
        guided = DepthModel(GUIDED_DESK, seed=23)
        guided.freeze()
        y = np.random.default_rng(24).random((1, 32, 32))
        f1 = extract_features(guided, Tensor(y.copy()))
        f2 = extract_features(guided, Tensor(y.copy()))
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a.data, b.data)

    def test_gradient_flows_into_y_not_params(self):
        guided = DepthModel(GUIDED_DESK, seed=25)
        guided.freeze()
        # a graph-recording input is not converted: it comes in the
        # network's dtype, as the color network's prediction does
        y = Tensor(np.random.default_rng(26).random((1, 32, 32)).astype(
            guided.dtype), requires_grad=True)
        feats = extract_features(guided, y)
        backward(ad.reduce(feats[4], "l2sq"))
        assert y.grad is not None and np.abs(y.grad).max() > 0
        assert all(p.grad is None for p in guided.parameters())

    def test_gradient_wrt_y_finite_diff(self):
        cfg = NetworkConfig(input_channels=1, base_width=2,
                            bottleneck_blocks=1, input_h=16, input_w=16)
        guided = DepthModel(cfg, seed=27, dtype=np.float64)
        guided.freeze()

        def f(t):
            feats = extract_features(guided, t)
            return ad.add(ad.reduce(feats[0], "l2sq"),
                          ad.reduce(feats[4], "l2sq"))

        probe = np.random.default_rng(28).uniform(0.5, 2.0, (1, 16, 16))
        assert finite_diff_check(f, Tensor(probe)) < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = DepthModel(DESK, seed=30)
        rng = np.random.default_rng(31)
        for p in model.parameters():
            p.data += rng.standard_normal(p.shape)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (n1, a1), (n2, a2) in zip(model.state_items(),
                                      loaded.state_items()):
            assert n1 == n2
            assert a1.tobytes() == a2.tobytes()

    def test_version_3_holds_gamma_and_beta_per_norm_layer(self, tmp_path):
        model = DepthModel(DESK, seed=34)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        blob = open(path, "rb").read()
        n = len(CKPT_MAGIC)
        hlen = int.from_bytes(blob[n:n + 8], "little")
        header = json.loads(blob[n + 8:n + 8 + hlen])
        assert header["version"] == 3
        assert "output_channels" not in header["config"]
        names = [a["name"] for a in header["arrays"]]
        n_norm = sum(nm.endswith(".gamma") for nm in names)
        n_conv = sum(nm.endswith(".weight") for nm in names)
        # 8 stages of head + 2-norm block, the latent head, 2 blocks of 2
        assert n_norm == 8 * 3 + 1 + 2 * 2
        assert len(names) == 2 * n_norm + 2 * n_conv

    def test_save_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(DepthModel(DESK, seed=32), p1)
        save_checkpoint(DepthModel(DESK, seed=32), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_float32_round_trip_keeps_dtype_and_bytes(self, tmp_path):
        # the <f8 payload holds every float32 value exactly
        model = DepthModel(DESK, seed=35)
        rng = np.random.default_rng(36)
        for p in model.parameters():
            p.data += rng.standard_normal(p.shape)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for (_, a), (_, b) in zip(model.state_items(), loaded.state_items()):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()

    def test_value_past_float32_range_rejected(self, tmp_path):
        model = DepthModel(DESK, seed=37, dtype=np.float64)
        model.out_conv.bias.data[0] = 1e300  # finite in float64
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointError,
                               match="out.bias is not finite in float32"):
                load_checkpoint(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.ckpt")
        save_checkpoint(DepthModel(DESK, seed=33), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
