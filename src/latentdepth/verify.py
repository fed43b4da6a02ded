"""Gradient verification suite: finite-difference checks for every
differentiable operation and for the composed training objective."""

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tensor, finite_diff_check
from .losses import LossWeights
from .network import DepthModel, NetworkConfig, ResBlock, extract_features

TOLERANCE = 1e-4


def _away_from_zero(rng, shape, margin=0.2):
    x = rng.uniform(margin, 1.0, shape)
    return x * rng.choice([-1.0, 1.0], shape)


def run_gradient_checks(seed=0):
    """Run every check at one seed; returns a list of
    {name, max_rel_error, passed} dicts."""
    rng = np.random.default_rng(seed)
    checks = []

    def run(name, f, x):
        err = finite_diff_check(f, Tensor(x))
        checks.append({"name": name, "max_rel_error": err,
                       "passed": err < TOLERANCE})

    # conv2d w.r.t. input, weights, bias
    x = rng.standard_normal((2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    b = rng.standard_normal(3) * 0.1
    run("conv2d/input",
        lambda t: ad.reduce(ad.conv2d(t, Tensor(w), Tensor(b), 1), "sum"), x)
    run("conv2d/weight",
        lambda t: ad.reduce(ad.conv2d(Tensor(x), t, Tensor(b), 1), "l2sq"), w)
    run("conv2d/bias",
        lambda t: ad.reduce(ad.conv2d(Tensor(x), Tensor(w), t, 2), "l2sq"), b)

    # per-sample normalization, and the one-element rule on a Cx1x1 input
    bn_x = rng.standard_normal((3, 4, 4)) + 0.5
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3) * 0.2
    single_x = rng.standard_normal((3, 1, 1))
    single_w = rng.uniform(0.5, 1.5, (3, 1, 1))
    # random-weighted sum: l2sq of a normalized output is nearly constant
    # in the input, which would leave nothing for the check to see
    probe_w = rng.standard_normal((3, 4, 4))

    def bn(t, g, bt, weight=probe_w):
        out = ad.batch_norm2d(t, g, bt)
        return ad.reduce(ad.mul_const(out, weight), "sum")

    run("batch_norm2d/input",
        lambda t: bn(t, Tensor(gamma), Tensor(beta)), bn_x)
    run("batch_norm2d/gamma",
        lambda t: bn(Tensor(bn_x), t, Tensor(beta)), gamma)
    run("batch_norm2d/beta",
        lambda t: bn(Tensor(bn_x), Tensor(gamma), t), beta)
    run("batch_norm2d/single/input",
        lambda t: bn(t, Tensor(gamma), Tensor(beta), single_w), single_x)

    # relu (inputs bounded away from the kink)
    run("relu", lambda t: ad.reduce(ad.relu(t), "l2sq"),
        _away_from_zero(rng, (2, 4, 4)))

    # add, upsampling, spatial gradients
    other = rng.standard_normal((2, 4, 4))
    run("add", lambda t: ad.reduce(ad.add(t, Tensor(other)), "l2sq"),
        rng.standard_normal((2, 4, 4)))
    run("bilinear_upsample_x2",
        lambda t: ad.reduce(ad.bilinear_upsample_x2(t), "l2sq"),
        rng.standard_normal((2, 3, 4)))
    run("spatial_gradients",
        lambda t: ad.reduce(ad.add(*ad.spatial_gradients(t)), "l2sq"),
        rng.standard_normal((1, 4, 4)))

    # reductions
    run("reduce/sum", lambda t: ad.reduce(t, "sum"),
        rng.standard_normal((3, 3)))
    rng.standard_normal((3, 3))  # unused: the checks below keep their inputs
    run("reduce/l1", lambda t: ad.reduce(t, "l1"),
        _away_from_zero(rng, (3, 3)))
    run("reduce/l2sq", lambda t: ad.reduce(t, "l2sq"),
        rng.standard_normal((3, 3)))

    # residual block
    block = ResBlock(2, 3, rng=np.random.default_rng(seed + 1))
    run("res_block", lambda t: ad.reduce(block(t), "l2sq"),
        rng.standard_normal((2, 4, 4)))

    # composed objective with a tiny frozen guided network
    net = NetworkConfig(input_channels=1, base_width=2, bottleneck_blocks=1,
                        input_h=16, input_w=16)
    guided = DepthModel(net, seed=seed + 2)
    guided.freeze()
    target = Tensor(rng.uniform(1.0, 3.0, (1, 16, 16)))
    ft = extract_features(guided, target)
    mask = np.ones((16, 16), dtype=bool)
    weights = LossWeights()

    def objective(t):
        _, total = losses.total_loss(t, target, mask, weights,
                                     extract_features(guided, t), ft)
        return total

    # keep |y - y*| away from 0 so the L1 terms are differentiable
    y0 = target.data + _away_from_zero(rng, (1, 16, 16), margin=0.3)
    run("total_loss/prediction", objective, y0)

    # conv2d w.r.t. input at stride 2, on an odd, non-square map with
    # kh != kw; drawn last so every check above sees the same values
    x2 = rng.standard_normal((2, 7, 6))
    w2 = rng.standard_normal((3, 2, 5, 3)) * 0.5
    run("conv2d/input/stride2",
        lambda t: ad.reduce(ad.conv2d(t, Tensor(w2), Tensor(np.zeros(3)), 2),
                            "l2sq"), x2)

    return checks
