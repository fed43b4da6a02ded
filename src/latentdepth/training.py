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
from .network import N_TAPS, DepthModel, NetworkConfig, save_checkpoint


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    stage: str                     # guided | color
    net: NetworkConfig
    steps: int
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    latent_layers: tuple | None = None   # None = all feature taps
    checkpoint_path: str | None = None
    loss_csv_path: str | None = None

    def __post_init__(self):
        if self.stage not in ("guided", "color"):
            raise ValueError("TrainConfig: stage must be guided or color")
        if self.batch_size < 1 or self.steps < 0:
            raise ValueError("TrainConfig: bad batch size or step count")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("TrainConfig: momentum must be in [0, 1)")
        if not (math.isfinite(self.learning_rate) and
                self.learning_rate > 0):
            raise ValueError("TrainConfig: learning rate must be positive "
                             "and finite")
        layers = self.latent_layers
        if layers is not None and (
                not layers or len(set(layers)) != len(layers) or
                any(not 0 <= j < N_TAPS for j in layers)):
            raise ValueError("TrainConfig: latent layers must be distinct "
                             "tap indices in 0..%d, got %s"
                             % (N_TAPS - 1, list(layers)))


def sgd_step(param, grad, velocity, lr, momentum):
    """One classical-momentum update: v <- m*v + g; p <- p - lr*v."""
    param = np.asarray(param)
    grad = np.asarray(grad)
    velocity = np.asarray(velocity)
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ShapeMismatchError("sgd_step: shapes %s / %s / %s"
                                 % (param.shape, grad.shape, velocity.shape))
    v = momentum * velocity + grad
    return param - lr * v, v


class SgdOptimizer:
    def __init__(self, params, lr, momentum):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.data, self.velocity[i] = sgd_step(p.data, g, self.velocity[i],
                                                self.lr, self.momentum)


def _write_loss_csv(path, history):
    with open(path, "w") as fh:
        fh.write(losses.CSV_HEADER + "\n")
        for step, report in enumerate(history):
            fh.write(report.csv_row(step) + "\n")


def _run_loop(model, samples, config, batch_loss):
    """Shared training loop; batch_loss maps a sample and its index in
    samples to (LossReport, scalar Tensor)."""
    if not samples:
        raise TrainingError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    opt = SgdOptimizer(model.parameters(), config.learning_rate,
                       config.momentum)
    history = []
    for step in range(config.steps):
        idxs = rng.integers(0, len(samples), size=config.batch_size)
        opt.zero_grad()
        total = None
        acc = np.zeros(5)
        for i in idxs:
            report, loss = batch_loss(samples[int(i)], int(i))
            acc += (report.data, report.latent, report.grad_image,
                    report.grad_feature, report.total)
            total = loss if total is None else ad.add(total, loss)
        total = ad.scale(total, 1.0 / config.batch_size)
        if not np.isfinite(total.data):
            term = next((name for name, v in zip(losses.TERMS, acc)
                         if not np.isfinite(v)), "total")
            raise TrainingError("non-finite loss at step %d: %s"
                                % (step, term))
        ad.backward(total)
        opt.step()
        acc /= config.batch_size
        history.append(losses.LossReport(*(float(v) for v in acc)))
    if config.checkpoint_path:
        save_checkpoint(model, config.checkpoint_path)
    if config.loss_csv_path:
        _write_loss_csv(config.loss_csv_path, history)
    return history


def train_guided(config, samples):
    """Stage 1: depth-to-depth reconstruction with masked L1."""
    if config.stage != "guided":
        raise ValueError("train_guided: config.stage must be 'guided'")
    model = DepthModel(config.net, seed=config.seed)

    def batch_loss(sample, _index):
        x = Tensor(sample.depth)
        pred, _ = model.forward(x)
        loss = losses.data_loss(pred, Tensor(sample.depth), sample.mask)
        val = loss.item()
        report = losses.LossReport(data=val, latent=0.0, grad_image=0.0,
                                   grad_feature=0.0, total=val)
        return report, loss

    history = _run_loop(model, samples, config, batch_loss)
    return model, history


def train_color(config, samples, guided):
    """Stage 2: color-to-depth against the combined objective; the guided
    network is frozen and its target-side features are cached per sample."""
    if config.stage != "color":
        raise ValueError("train_color: config.stage must be 'color'")
    if guided.config.input_h != config.net.input_h or \
            guided.config.input_w != config.net.input_w:
        raise ShapeMismatchError("guided network is %dx%d but training "
                                 "config wants %dx%d"
                                 % (guided.config.input_h,
                                    guided.config.input_w,
                                    config.net.input_h, config.net.input_w))
    guided.freeze()
    model = DepthModel(config.net, seed=config.seed)
    need_features = config.weights.latent > 0 or \
        config.weights.grad_feature > 0
    target_cache = {}   # sample index -> features of its depth map

    def batch_loss(sample, index):
        pred, _ = model.forward(Tensor(sample.rgb))
        target = Tensor(sample.depth)
        fy = ft = None
        if need_features:
            # through the module attribute, so a wrapped
            # network.extract_features sees every call
            fy = network.extract_features(guided, pred, config.latent_layers)
            if index not in target_cache:
                target_cache[index] = network.extract_features(
                    guided, target, config.latent_layers)
            ft = target_cache[index]
        return losses.total_loss(pred, target, sample.mask, config.weights,
                                 fy, ft)

    history = _run_loop(model, samples, config, batch_loss)
    return model, history


def evaluate(model, samples):
    """Pooled RMSE of model predictions over an evaluation set."""
    if not samples:
        raise TrainingError("empty evaluation dataset")
    pairs = []
    with ad.no_grad():
        for sample in samples:
            pred, _ = model.forward(Tensor(sample.rgb if
                                           model.config.input_channels == 3
                                           else sample.depth))
            pairs.append((pred.data, sample.depth, sample.mask))
    return metrics.rmse(pairs)


def constant_predictor_rmse(train_samples, eval_samples):
    """RMSE of predicting the training set's mean valid depth everywhere;
    the self-relative baseline for synthetic end-to-end runs."""
    total = 0.0
    count = 0
    for s in train_samples:
        total += float(s.depth[0][s.mask].sum())
        count += int(s.mask.sum())
    mean = total / count
    pairs = [(np.full_like(s.depth, mean), s.depth, s.mask)
             for s in eval_samples]
    return metrics.rmse(pairs)
