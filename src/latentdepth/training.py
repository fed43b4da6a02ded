"""Two-stage training: a guided depth-to-depth autoencoder by masked L1
reconstruction, then a color-to-depth network against the full combined
objective with the guide frozen. Plain SGD with classical momentum."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses, metrics, network
from .autodiff import ShapeMismatchError, Tensor
from .losses import LossWeights
from .network import DepthModel, NetworkConfig, save_checkpoint

MOMENTUM = 0.9
# the guided stage reconstructs depth by masked L1 alone, whatever the
# config's weights
GUIDED_WEIGHTS = LossWeights(1.0, 0.0, 0.0, 0.0)


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    stage: str                     # guided | color
    net: NetworkConfig
    steps: int
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    checkpoint_path: str | None = None
    loss_csv_path: str | None = None

    def __post_init__(self):
        if self.stage not in ("guided", "color"):
            raise ValueError("TrainConfig: stage must be guided or color")
        if self.batch_size < 1 or self.steps < 0:
            raise ValueError("TrainConfig: bad batch size or step count")
        if not (math.isfinite(self.learning_rate) and
                self.learning_rate > 0):
            raise ValueError("TrainConfig: learning rate must be positive "
                             "and finite")
        # train_guided uses GUIDED_WEIGHTS and extracts no features
        if self.stage == "guided" and self.weights != LossWeights():
            raise ValueError("TrainConfig: guided stage ignores weights")


class SgdOptimizer:
    """Classical momentum (Sutskever et al., 2013), in place: each step
    v <- MOMENTUM*v + g; p <- p - lr*v, with a missing grad read as zero.
    Parameter and velocity arrays keep their identity across steps."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p, v in zip(self.params, self.velocity):
            v *= MOMENTUM
            if p.grad is not None:
                v += p.grad
            p.data -= self.lr * v


def _write_loss_csv(path, history):
    with open(path, "w") as fh:
        fh.write(",".join(("step",) + losses.LossReport._fields) + "\n")
        for step, report in enumerate(history):
            fh.write(",".join([str(step)] + [repr(v) for v in report]) + "\n")


def _run_loop(model, samples, config, batch_loss):
    """Shared training loop; batch_loss maps a sample to (LossReport,
    scalar Tensor). Each sample's graph is built, run backward on its
    share of the batch mean and released before the next sample's, so a
    step holds one sample's graph; the parameter gradients add up over
    the batch in draw order."""
    if not samples:
        raise TrainingError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    opt = SgdOptimizer(model.parameters(), config.learning_rate)
    history = []
    for step in range(config.steps):
        idxs = rng.integers(0, len(samples), size=config.batch_size)
        opt.zero_grad()
        acc = np.zeros(len(losses.LossReport._fields))
        for i in idxs:
            report, loss = batch_loss(samples[i])
            if not np.isfinite(loss.data):
                term = next((name for name, v in zip(report._fields, report)
                             if not np.isfinite(v)), "total")
                raise TrainingError("non-finite loss at step %d: %s"
                                    % (step, term))
            acc += report
            ad.backward(ad.scale(loss, 1.0 / config.batch_size))
        opt.step()
        history.append(losses.LossReport(*(acc / config.batch_size).tolist()))
    if config.checkpoint_path:
        save_checkpoint(model, config.checkpoint_path)
    if config.loss_csv_path:
        _write_loss_csv(config.loss_csv_path, history)
    return history


def _target(model, sample):
    """The sample's depth as the loss target: converted to the model's
    dtype, as the model's entry converts its input."""
    return Tensor(sample.depth.astype(model.dtype, copy=False))


def train_guided(config, samples):
    """Stage 1: depth-to-depth reconstruction with masked L1."""
    if config.stage != "guided":
        raise ValueError("train_guided: config.stage must be 'guided'")
    model = DepthModel(config.net, seed=config.seed)

    def batch_loss(sample):
        depth = _target(model, sample)
        pred, _ = model.forward(depth)
        return losses.total_loss(pred, depth, sample.mask, GUIDED_WEIGHTS,
                                 None, None)

    history = _run_loop(model, samples, config, batch_loss)
    return model, history


def train_color(config, samples, guided):
    """Stage 2: color-to-depth against the combined objective; the guided
    network is frozen and encodes both the prediction and the target of
    every drawn sample, so nothing is kept per sample."""
    if config.stage != "color":
        raise ValueError("train_color: config.stage must be 'color'")
    g = guided.config
    if (g.input_channels, g.input_h, g.input_w) != \
            (1, config.net.input_h, config.net.input_w):
        raise ShapeMismatchError(
            "guided network takes %d channel(s) at %dx%d; training needs 1 "
            "at %dx%d" % (g.input_channels, g.input_h, g.input_w,
                          config.net.input_h, config.net.input_w))
    guided.freeze()
    model = DepthModel(config.net, seed=config.seed)
    need_features = config.weights.latent > 0 or \
        config.weights.grad_feature > 0

    def batch_loss(sample):
        pred, _ = model.forward(Tensor(sample.rgb))
        target = _target(model, sample)
        fy = ft = None
        if need_features:
            # through the module attribute, so a wrapped
            # network.extract_features sees every call
            fy = network.extract_features(guided, pred)
            ft = network.extract_features(guided, target)
        return losses.total_loss(pred, target, sample.mask, config.weights,
                                 fy, ft)

    history = _run_loop(model, samples, config, batch_loss)
    return model, history


def evaluate(model, samples):
    """Pooled RMSE of model predictions over any iterable of samples."""
    depth_input = model.config.input_channels == 1
    with ad.no_grad():
        return metrics.rmse(
            (model.forward(Tensor(s.depth if depth_input else s.rgb))[0].data,
             s.depth, s.mask) for s in samples)


def constant_predictor_rmse(train_samples, eval_samples):
    """RMSE of predicting the training set's mean valid depth everywhere;
    the self-relative baseline for synthetic end-to-end runs."""
    total = 0.0
    count = 0
    for s in train_samples:
        total += float(s.depth[0][s.mask].sum())
        count += int(s.mask.sum())
    mean = total / count
    return metrics.rmse((np.full_like(s.depth, mean), s.depth, s.mask)
                        for s in eval_samples)
