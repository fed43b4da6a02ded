"""The four benchmark workloads.

Each workload builds its inputs from the seed, warms up, then runs
identical rounds in a closed loop: the next training step or CLI call
starts when the previous one has returned. Rounds repeat the same seed,
so every round after the first is also a determinism check against the
first. Checks run after a round's timed (and traced) part.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

from latentdepth import cli, data, losses, network, training
from latentdepth.autodiff import Tensor, no_grad

_now = time.perf_counter_ns

# loss weights and learning rates of the acceptance gate
GATE_WEIGHTS = losses.LossWeights(data=1.0, latent=0.02, grad_image=1.0,
                                  grad_feature=0.005)
GUIDED_LR = 0.02
COLOR_LR = 0.01
LOSS_END_STEPS = 4   # color_loss_end averages the last steps of a stage


class Round:
    """One round: `ops` holds (kind, start_ns, end_ns, items) for each
    operation that finished, `attempted` counts the operations the round
    set out to do, and `failed` those that raised or failed a check."""

    def __init__(self):
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.payload = None

    def add(self, kind, start_ns, end_ns, items):
        self.ops.append((kind, start_ns, end_ns, items))

    def items(self, *kinds):
        return sum(op[3] for op in self.ops if not kinds or op[0] in kinds)

    def count(self, *kinds):
        return sum(1 for op in self.ops if op[0] in kinds)


def _scenes(seed, n, size):
    return [data.synth_scene(seed * 100003 + i, size, size, 2)
            for i in range(n)]


def _same_state(a, b):
    ia, ib = a.state_items(), b.state_items()
    return len(ia) == len(ib) and all(
        na == nb and x.shape == y.shape and x.tobytes() == y.tobytes()
        for (na, x), (nb, y) in zip(ia, ib))


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _call_cli(argv):
    """Run the CLI in-process; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


class Workload:
    primary = ""     # the kind of operation whose latency is reported

    def __init__(self, seed, clock):
        self.seed = seed
        self.clock = clock
        self.first = None   # payload of the first round, for determinism

    def prepare(self, workdir):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def run_round(self, rnd):
        raise NotImplementedError

    def check(self, rnd):
        """Count failed operations of a finished round."""
        raise NotImplementedError


class _Train(Workload):
    primary = "color step"
    guided_steps = 0

    def __init__(self, seed, clock, size, width, batch, scenes, color_steps):
        super().__init__(seed, clock)
        self.params = {"size": size, "base_width": width, "batch": batch,
                       "bottleneck_blocks": 6, "scenes": scenes,
                       "guided_steps": self.guided_steps,
                       "color_steps": color_steps,
                       "guided_lr": GUIDED_LR, "color_lr": COLOR_LR,
                       "weights": vars(GATE_WEIGHTS)}
        self.gnet = network.NetworkConfig(1, base_width=width,
                                          bottleneck_blocks=6,
                                          input_h=size, input_w=size)
        self.cnet = network.NetworkConfig(3, base_width=width,
                                          bottleneck_blocks=6,
                                          input_h=size, input_w=size)

    def prepare(self, workdir):
        p = self.params
        self.workdir = workdir
        self.samples = _scenes(self.seed, p["scenes"], p["size"])
        # the frozen G of a color-only workload; untrained weights cost
        # the same compute as trained ones
        self.guided = None if self.guided_steps else \
            network.DepthModel(self.gnet, seed=self.seed)

    def _config(self, stage, steps, batch, lr, weights=losses.LossWeights()):
        net = self.gnet if stage == "guided" else self.cnet
        return training.TrainConfig(
            stage=stage, net=net, steps=steps, batch_size=batch,
            learning_rate=lr, seed=self.seed, weights=weights,
            checkpoint_path=os.path.join(self.workdir, stage + ".ckpt"))

    def _stages(self, guided_steps, color_steps, batch):
        """Train the stages; returns [(stage, model, history, steps)],
        steps as (start_ns, end_ns)."""
        out = []
        guided = self.guided
        if guided_steps:
            conf = self._config("guided", guided_steps, batch, GUIDED_LR)
            guided, hist = training.train_guided(conf, self.samples)
            out.append(("guided", guided, hist, self.clock.take()))
        conf = self._config("color", color_steps, batch, COLOR_LR,
                            GATE_WEIGHTS)
        color, hist = training.train_color(conf, self.samples, guided)
        out.append(("color", color, hist, self.clock.take()))
        return out

    def warmup(self):
        self._stages(min(self.guided_steps, 1), 1, 2)

    def run_round(self, rnd):
        p = self.params
        self.clock.take()
        rnd.attempted = self.guided_steps + p["color_steps"]
        stages = self._stages(self.guided_steps, p["color_steps"], p["batch"])
        for stage, _, _, steps in stages:
            for start, end in steps:
                rnd.add(stage + " step", start, end, p["batch"])
        rnd.payload = stages

    def check(self, rnd):
        failed = 0
        summary = {}
        for stage, model, hist, _ in rnd.payload:
            totals = [r.total for r in hist]
            bad = sum(1 for v in totals if not math.isfinite(v))
            path = os.path.join(self.workdir, stage + ".ckpt")
            reloaded = _same_state(model, network.load_checkpoint(path))
            summary[stage] = (totals, _digest(path))
            if not reloaded:
                bad = len(totals)
            failed += bad
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            failed = rnd.attempted
        return failed

    def color_loss_end(self):
        totals = self.first["color"][0]
        return sum(totals[-LOSS_END_STEPS:]) / len(totals[-LOSS_END_STEPS:])


class TrainDesk(_Train):
    """train_guided then train_color at the acceptance-gate shape. Small
    tensors, so op dispatch and batch norm weigh; drawing 128 samples
    from 48 scenes makes the target-feature cache mostly hit."""
    guided_steps = 4

    def __init__(self, seed, clock):
        super().__init__(seed, clock, size=32, width=4, batch=8, scenes=48,
                         color_steps=16)


class TrainMid(_Train):
    """train_color alone at 64x64, width 8, against a frozen G.
    GEMM-bound conv2d; 16 draws from 128 scenes make the target-feature
    cache mostly miss. Batch 2, so that a run holds enough steps for a
    tail percentile."""

    def __init__(self, seed, clock):
        super().__init__(seed, clock, size=64, width=8, batch=2, scenes=128,
                         color_steps=8)


class InferNyu(Workload):
    """CLI eval of NYU-sized 480x640 PPM/PGM pairs with a 32x32 width-4
    checkpoint: decoding and resizing weigh like the no_grad forward,
    and nothing runs backward."""
    primary = "eval call"

    def __init__(self, seed, clock):
        super().__init__(seed, clock)
        self.params = {"images": 8, "image_h": 480, "image_w": 640,
                       "model_size": 32, "base_width": 4,
                       "bottleneck_blocks": 6}

    def prepare(self, workdir):
        p = self.params
        records = []
        for i in range(p["images"]):
            scene = data.synth_scene(self.seed * 100003 + i, p["image_h"],
                                     p["image_w"], 2)
            rgb = os.path.join(workdir, "nyu_%02d.ppm" % i)
            depth = os.path.join(workdir, "nyu_%02d.pgm" % i)
            data.save_rgbd_pair(scene, rgb, depth)
            records.append(data.ManifestRecord(rgb, depth, "scene%d" % i,
                                               "test"))
        manifest = os.path.join(workdir, "manifest.json")
        data.save_manifest(manifest, records, relative_to=workdir)
        net = network.NetworkConfig(3, base_width=p["base_width"],
                                    bottleneck_blocks=6,
                                    input_h=p["model_size"],
                                    input_w=p["model_size"])
        ckpt = os.path.join(workdir, "color.ckpt")
        network.save_checkpoint(network.DepthModel(net, seed=self.seed), ckpt)
        out = os.path.join(workdir, "eval.json")
        self.argv = ["eval", "--model", ckpt, "--manifest", manifest,
                     "--split", "test", "--out", out]
        self.out = out

    def warmup(self):
        rc, err = _call_cli(self.argv)
        if rc != 0:
            raise RuntimeError("eval exited %d: %s" % (rc, err.strip()))
        with open(self.out) as fh:
            self.first = json.load(fh)

    def run_round(self, rnd):
        rnd.attempted = 1
        self.clock.sample_speed()
        t0 = _now()
        rnd.payload = _call_cli(self.argv)
        rnd.add(self.primary, t0, _now(), self.params["images"])

    def check(self, rnd):
        rc, _ = rnd.payload
        if rc != 0:
            return 1
        with open(self.out) as fh:
            result = json.load(fh)
        return int(result != self.first)

    def rmse(self):
        return self.first["rmse"]


class PredictLarge(Workload):
    """CLI predict of 128x128 images with a 29 MB width-16 checkpoint
    reloaded per call: the only workload whose large maps take the
    offset-accumulation conv2d path."""
    primary = "predict call"

    def __init__(self, seed, clock):
        super().__init__(seed, clock)
        self.params = {"images": 2, "size": 128, "base_width": 16,
                       "bottleneck_blocks": 6}

    def prepare(self, workdir):
        p = self.params
        net = network.NetworkConfig(3, base_width=p["base_width"],
                                    bottleneck_blocks=6, input_h=p["size"],
                                    input_w=p["size"])
        self.model = network.DepthModel(net, seed=self.seed)
        ckpt = os.path.join(workdir, "large.ckpt")
        network.save_checkpoint(self.model, ckpt)
        self.calls = []
        for i in range(p["images"]):
            scene = data.synth_scene(self.seed * 100003 + i, p["size"],
                                     p["size"], 2)
            rgb = os.path.join(workdir, "in_%d.ppm" % i)
            data.save_rgbd_pair(scene, rgb,
                                os.path.join(workdir, "in_%d.pgm" % i))
            pgm = os.path.join(workdir, "out_%d.pgm" % i)
            argv = ["predict", "--model", ckpt, "--rgb", rgb,
                    "--depth-out", pgm,
                    "--out", os.path.join(workdir, "out_%d.json" % i)]
            self.calls.append((argv, rgb, pgm, scene.depth[0]))

    def warmup(self):
        """Reference depth maps from a direct no_grad forward of the
        in-memory model on the decoded input."""
        self.first = []
        for _, rgb_path, _, _ in self.calls:
            rgb = data.read_ppm(rgb_path).astype(float).transpose(2, 0, 1)
            with no_grad():
                pred, _ = self.model.forward(Tensor(rgb / 255.0))
            self.first.append(np.clip(np.rint(pred.data[0] * 1000.0), 0,
                                      65535).astype(np.uint16))

    def run_round(self, rnd):
        rnd.attempted = len(self.calls)
        codes = []
        for argv, _, _, _ in self.calls:
            self.clock.sample_speed()
            t0 = _now()
            codes.append(_call_cli(argv)[0])
            rnd.add(self.primary, t0, _now(), 1)
        rnd.payload = codes

    def check(self, rnd):
        failed = 0
        for rc, (_, _, pgm, _), ref in zip(rnd.payload, self.calls,
                                           self.first):
            failed += int(rc != 0 or
                          not np.array_equal(data.read_pgm16(pgm), ref))
        return failed

    def rmse(self):
        """Mean RMSE (m) of the reference depth maps against the scenes."""
        errs = [math.sqrt(float(np.mean((mm / 1000.0 - truth) ** 2)))
                for mm, (_, _, _, truth) in zip(self.first, self.calls)]
        return sum(errs) / len(errs)


WORKLOADS = {"train_desk": TrainDesk, "train_mid": TrainMid,
             "infer_nyu": InferNyu, "predict_large": PredictLarge}
