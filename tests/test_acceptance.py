"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (run with -s or look at captured output on failure).

The end-to-end criteria share one module-scoped synthetic training run
(seed 7, 64 scenes at 32x32, base width 4) that is executed twice so the
determinism criterion compares genuinely independent repetitions.
"""

import math
import os

import numpy as np
import pytest

from latentdepth import cli, data, verify
from latentdepth.autodiff import Tensor
from latentdepth.data import synth_scene
from latentdepth.losses import LossWeights, image_gradient_loss, latent_loss
from latentdepth.metrics import (TABLE2_BASELINES, TABLE2_OURS,
                                 relative_improvement, rmse)
from latentdepth.network import (DepthModel, NetworkConfig, load_checkpoint,
                                 save_checkpoint, shape_plan)
from latentdepth.training import (TrainConfig, constant_predictor_rmse,
                                  evaluate, train_color, train_guided)

SEED = 7
N_SCENES = 64
N_TRAIN = 48
SIZE = 32
BASE = 4
BATCH = 8
GUIDED_STEPS = 200
GUIDED_LR = 0.02
COLOR_STEPS = 500
COLOR_LR = 0.01
COLOR_WEIGHTS = LossWeights(data=1.0, latent=0.02, grad_image=1.0,
                            grad_feature=0.005)


def _verdict(criterion, ok, detail):
    print("[%s] criterion %s: %s" % ("PASS" if ok else "FAIL",
                                     criterion, detail))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


def _run_pipeline(out_dir):
    """Both training stages at the pinned seed; returns all artifacts."""
    samples = [synth_scene(SEED * 100003 + i, SIZE, SIZE, 2)
               for i in range(N_SCENES)]
    train, test = samples[:N_TRAIN], samples[N_TRAIN:]
    guided_net = NetworkConfig(input_channels=1, base_width=BASE,
                               bottleneck_blocks=6, input_h=SIZE,
                               input_w=SIZE)
    color_net = NetworkConfig(input_channels=3, base_width=BASE,
                              bottleneck_blocks=6, input_h=SIZE,
                              input_w=SIZE)
    paths = {name: os.path.join(out_dir, name)
             for name in ("guided.ckpt", "guided.csv",
                          "color.ckpt", "color.csv")}
    gconf = TrainConfig(stage="guided", net=guided_net, steps=GUIDED_STEPS,
                        batch_size=BATCH, learning_rate=GUIDED_LR, seed=SEED,
                        checkpoint_path=paths["guided.ckpt"],
                        loss_csv_path=paths["guided.csv"])
    guided, ghist = train_guided(gconf, train)
    guided_bytes_after_stage1 = open(paths["guided.ckpt"], "rb").read()
    cconf = TrainConfig(stage="color", net=color_net, steps=COLOR_STEPS,
                        batch_size=BATCH, learning_rate=COLOR_LR, seed=SEED,
                        weights=COLOR_WEIGHTS,
                        checkpoint_path=paths["color.ckpt"],
                        loss_csv_path=paths["color.csv"])
    color, chist = train_color(cconf, train, guided)
    return {"paths": paths, "train": train, "test": test,
            "ghist": ghist, "chist": chist, "color": color,
            "guided_bytes_after_stage1": guided_bytes_after_stage1}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    runs = []
    for name in ("run_a", "run_b"):
        out_dir = str(tmp_path_factory.mktemp(name))
        runs.append(_run_pipeline(out_dir))
    return runs


def test_criterion_1_table2_arithmetic():
    want = {"Eigen et al.": 54.13, "Sihaeng et al.": 8.37,
            "Zhang et al.": 29.49}
    worst = 0.0
    for name, baseline in TABLE2_BASELINES.items():
        got = relative_improvement(baseline, TABLE2_OURS)
        worst = max(worst, abs(got - want[name]))
    _verdict(1, worst <= 0.01,
             "published-comparison arithmetic, max deviation %.5f "
             "percentage points (tolerance 0.01)" % worst)


def test_criterion_2_gradient_suite():
    worst_name, worst_err = "", 0.0
    for seed in range(20):
        for check in verify.run_gradient_checks(seed=seed):
            if check["max_rel_error"] > worst_err:
                worst_name = check["name"]
                worst_err = check["max_rel_error"]
    _verdict(2, worst_err < 1e-4,
             "finite-difference suite over 20 seeds, worst %s at %.3e "
             "(tolerance 1e-4)" % (worst_name, worst_err))


def test_criterion_3_loss_exactness():
    y = Tensor(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
    zero = Tensor(np.zeros((1, 2, 2)))
    ok_img = image_gradient_loss(y, zero).item() == 1.5

    fy = [Tensor(np.array([[[1.0, 3.0]]]))]
    ft = [Tensor(np.zeros((1, 1, 2)))]
    ok_latent = latent_loss(fy, ft).item() == 2.5

    x = np.random.default_rng(0).random((1, 4, 4))
    ok_zero = image_gradient_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    t = np.random.default_rng(1).random((1, 4, 4))
    base = image_gradient_loss(Tensor(x), Tensor(t)).item()
    shifted = image_gradient_loss(Tensor(x + 2.5), Tensor(t)).item()
    ok_offset = abs(shifted - base) <= 4 * np.finfo(float).eps

    ok = ok_img and ok_latent and ok_zero and ok_offset
    _verdict(3, ok,
             "hand cases: image-gradient 1.5 %s, latent stub 2.5 %s, "
             "zero-on-identical %s, offset invariance %s"
             % (ok_img, ok_latent, ok_zero, ok_offset))


def test_criterion_4_shape_pipeline():
    full = shape_plan(NetworkConfig(input_channels=3, base_width=64,
                                    bottleneck_blocks=6, input_h=320,
                                    input_w=240))
    ok_full = full["latent"] == (512, 20, 15) and \
        full["output"] == (1, 320, 240)

    desk_cfg = NetworkConfig(input_channels=3, base_width=4,
                             bottleneck_blocks=6, input_h=32, input_w=32)
    model = DepthModel(desk_cfg, seed=0)
    x = Tensor(np.random.default_rng(0).random((3, 32, 32)))
    latent, taps = model.encoder_forward(x)
    pred, _ = model.forward(x)
    ok_desk = latent.shape == (32, 2, 2) and pred.shape == (1, 32, 32)
    ok_plan = shape_plan(desk_cfg)["latent"] == latent.shape and \
        shape_plan(desk_cfg)["taps"] == tuple(t.shape for t in taps)

    _verdict(4, ok_full and ok_desk and ok_plan,
             "full-scale bookkeeping 3x320x240 -> 512x20x15 -> 1x320x240 "
             "%s; desk-scale execution 3x32x32 -> 32x2x2 -> 1x32x32 %s; "
             "plan matches execution %s" % (ok_full, ok_desk, ok_plan))


def test_criterion_5_resblock_identity():
    model = DepthModel(NetworkConfig(input_channels=3, base_width=4,
                                     bottleneck_blocks=6, input_h=32,
                                     input_w=32), seed=None)
    rng = np.random.default_rng(1)
    blocks = [b for _, b in model.enc_stages] + list(model.bottleneck) + \
        [b for _, b in model.dec_stages]
    n_exact = 0
    for block in blocks:
        x = rng.standard_normal((block.conv1.weight.shape[0], 8,
                                 8)).astype(model.dtype)
        out = block(Tensor(x))
        n_exact += int(np.array_equal(out.data, x))
    _verdict(5, n_exact == len(blocks),
             "zero-branch residual blocks bit-exact identity: %d/%d"
             % (n_exact, len(blocks)))


def test_criterion_6a_guided_halves_reconstruction(pipeline):
    hist = pipeline[0]["ghist"]
    first, last = hist[0].data, hist[-1].data
    ratio = last / first
    _verdict("6a", ratio < 0.5,
             "guided reconstruction L1 %.4f -> %.4f after %d steps, "
             "ratio %.3f (< 0.5 required)"
             % (first, last, GUIDED_STEPS, ratio))


def test_criterion_6b_color_beats_constant_predictor(pipeline):
    run = pipeline[0]
    held_out = evaluate(run["color"], run["test"]).rmse
    baseline = constant_predictor_rmse(run["train"], run["test"]).rmse
    ratio = held_out / baseline
    _verdict("6b", ratio < 0.5,
             "held-out RMSE %.4f vs constant-mean predictor %.4f, "
             "ratio %.3f (< 0.5 required)" % (held_out, baseline, ratio))


def test_criterion_7_determinism(pipeline):
    a, b = pipeline
    same = {}
    for name in ("guided.csv", "color.csv", "guided.ckpt", "color.ckpt"):
        same[name] = open(a["paths"][name], "rb").read() == \
            open(b["paths"][name], "rb").read()
    guided_untouched = open(a["paths"]["guided.ckpt"], "rb").read() == \
        a["guided_bytes_after_stage1"]
    ok = all(same.values()) and guided_untouched
    _verdict(7, ok,
             "repeat run bit-identical: %s; guided checkpoint untouched "
             "by stage 2: %s" % (same, guided_untouched))


def test_criterion_8_rmse_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    pairs = []
    for i in range(10):
        s = synth_scene(900 + i, 32, 32, 2)
        pred = s.depth + rng.normal(0.0, 0.3, s.depth.shape)
        pairs.append((pred, s.depth, s.mask))
    details, ok = [], True
    # float32 predictions, as the models make them: rmse accumulates in
    # float64, and so does the oracle (float32 - float64 is float64)
    for dtype in (np.float64, np.float32):
        cast = [(y.astype(dtype), t, m) for y, t, m in pairs]
        got = rmse(cast).rmse
        flat = np.concatenate(
            [(y - t)[np.broadcast_to(np.asarray(m, bool)[None],
                                     y.shape)].ravel()
             for y, t, m in cast])
        want = float(np.sqrt(np.mean(flat * flat)))
        diff = abs(got - want)
        tol = math.ulp(max(got, want))
        ok = ok and diff <= tol
        details.append("%s pooled %.17g vs flat-vector oracle %.17g, "
                       "|diff| %.3g (<= 1 ulp = %.3g)"
                       % (np.dtype(dtype), got, want, diff, tol))
    _verdict(8, ok, "; ".join(details))


def test_criterion_9_io_round_trips(pipeline, tmp_path):
    rng = np.random.default_rng(2)
    ppm = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    data.write_ppm(str(tmp_path / "a.ppm"), ppm)
    ok_ppm = np.array_equal(data.read_ppm(str(tmp_path / "a.ppm")), ppm)

    pgm = rng.integers(0, 65536, (16, 16), dtype=np.uint16)
    data.write_pgm16(str(tmp_path / "a.pgm"), pgm)
    ok_pgm = np.array_equal(data.read_pgm16(str(tmp_path / "a.pgm")), pgm)

    model = DepthModel(NetworkConfig(input_channels=3, base_width=2,
                                     bottleneck_blocks=1, input_h=16,
                                     input_w=16), seed=3)
    save_checkpoint(model, str(tmp_path / "m.ckpt"))
    loaded = load_checkpoint(str(tmp_path / "m.ckpt"))
    ok_ckpt = all(a.tobytes() == b.tobytes() and na == nb
                  for (na, a), (nb, b) in zip(model.state_items(),
                                              loaded.state_items()))

    data.write_pgm16(str(tmp_path / "d.pgm"),
                     np.full((16, 16), 1500, dtype=np.uint16))
    data.write_ppm(str(tmp_path / "d.ppm"),
                   np.full((16, 16, 3), 100, dtype=np.uint8))
    sample = data.load_rgbd_pair(str(tmp_path / "d.ppm"),
                                 str(tmp_path / "d.pgm"), 16, 16)
    ok_units = bool(np.all(sample.depth == 1.5))

    run = pipeline[0]
    rgb_path = str(tmp_path / "in.ppm")
    data.save_rgbd_pair(run["test"][0], rgb_path, str(tmp_path / "in.pgm"))
    rc = cli.main(["predict", "--model", run["paths"]["color.ckpt"],
                   "--rgb", rgb_path,
                   "--depth-out", str(tmp_path / "pred.pgm"),
                   "--out", str(tmp_path / "pred.json")])
    back = data.load_rgbd_pair(rgb_path, str(tmp_path / "pred.pgm"), 32, 32)
    ok_predict = rc == 0 and back.depth.shape == (1, 32, 32)

    ok = ok_ppm and ok_pgm and ok_ckpt and ok_units and ok_predict
    _verdict(9, ok,
             "ppm %s, pgm %s, checkpoint %s, 1500mm==1.5m %s, predict "
             "reloadable %s" % (ok_ppm, ok_pgm, ok_ckpt, ok_units,
                                ok_predict))
