"""Training objective: masked L1 data term, latent feature-matching term,
and gradient-consistency terms at image and feature level."""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError

CSV_HEADER = "step,data,latent,grad_image,grad_feature,total"


@dataclass(frozen=True)
class LossWeights:
    data: float = 1.0
    latent: float = 1.0
    grad_image: float = 1.0
    grad_feature: float = 1.0

    def __post_init__(self):
        vals = (self.data, self.latent, self.grad_image, self.grad_feature)
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ValueError("LossWeights: weights must be finite and "
                             "nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("LossWeights: at least one weight must be "
                             "positive")


@dataclass
class LossReport:
    data: float
    latent: float
    grad_image: float
    grad_feature: float
    total: float

    def csv_row(self, step):
        return "%d,%r,%r,%r,%r,%r" % (step, self.data, self.latent,
                                      self.grad_image, self.grad_feature,
                                      self.total)


def data_loss(y, target, mask):
    """Mean absolute error over valid pixels."""
    if y.shape != target.shape:
        raise ShapeMismatchError("data_loss: shape %s vs %s"
                                 % (y.shape, target.shape))
    m = np.asarray(mask, dtype=bool)
    if m.shape != y.shape:
        if m.shape == y.shape[1:] and y.data.ndim == 3:
            m = m[None]
            m = np.broadcast_to(m, y.shape)
        else:
            raise ShapeMismatchError("data_loss: mask shape %s vs %s"
                                     % (m.shape, y.shape))
    n_valid = int(m.sum())
    if n_valid == 0:
        raise ValueError("data_loss: mask has no valid pixels")
    diff = ad.mul_const(ad.sub(y, target), m.astype(float))
    return ad.scale(ad.reduce(diff, "l1"), 1.0 / n_valid)


def image_gradient_loss(y, target):
    """Mean L1 mismatch of horizontal and vertical forward differences."""
    if y.shape != target.shape:
        raise ShapeMismatchError("image_gradient_loss: shape %s vs %s"
                                 % (y.shape, target.shape))
    yh, yv = ad.spatial_gradients(y)
    th, tv = ad.spatial_gradients(target)
    n = y.shape[-1] * y.shape[-2]
    total = ad.add(ad.reduce(ad.sub(yh, th), "l1"),
                   ad.reduce(ad.sub(yv, tv), "l1"))
    return ad.scale(total, 1.0 / n)


def _paired_features(extract, y, target):
    fy = extract(y)
    ft = extract(target)
    if len(fy) == 0:
        raise ValueError("latent losses: empty feature layer set")
    return fy, ft


def latent_loss(extract, y, target):
    """Per-layer mean (over spatial locations) of half the squared channel
    distance between feature maps of y and target, summed over layers."""
    fy, ft = _paired_features(extract, y, target)
    total = None
    for a, b in zip(fy, ft):
        if a.shape != b.shape:
            raise ShapeMismatchError("latent_loss: feature shape %s vs %s"
                                     % (a.shape, b.shape))
        n_loc = a.shape[-1] * a.shape[-2]
        term = ad.scale(ad.reduce(ad.sub(a, b), "l2sq"), 0.5 / n_loc)
        total = term if total is None else ad.add(total, term)
    return total


def feature_gradient_loss(extract, y, target):
    """image_gradient_loss applied per feature layer, summed over layers.

    Layers with spatial extent below 2 have empty difference maps and
    contribute zero."""
    fy, ft = _paired_features(extract, y, target)
    total = None
    for a, b in zip(fy, ft):
        if a.shape != b.shape:
            raise ShapeMismatchError("feature_gradient_loss: feature shape "
                                     "%s vs %s" % (a.shape, b.shape))
        if a.shape[-1] < 2 or a.shape[-2] < 2:
            continue
        ah, av = ad.spatial_gradients(a)
        bh, bv = ad.spatial_gradients(b)
        n_loc = a.shape[-1] * a.shape[-2]
        term = ad.scale(ad.add(ad.reduce(ad.sub(ah, bh), "l1"),
                               ad.reduce(ad.sub(av, bv), "l1")),
                        1.0 / n_loc)
        total = term if total is None else ad.add(total, term)
    if total is None:
        total = ad.Tensor(0.0)
    return total


def total_loss(extract, y, target, mask, weights):
    """Weighted combination; returns (LossReport, scalar Tensor).

    Feature extraction is skipped entirely when both feature-based weights
    are zero. The mask applies to the data term only.
    """
    terms = {}
    terms["data"] = data_loss(y, target, mask)
    terms["grad_image"] = image_gradient_loss(y, target)
    if weights.latent > 0 or weights.grad_feature > 0:
        fy, ft = _paired_features(extract, y, target)
        cached = lambda t: fy if t is y else ft
        terms["latent"] = latent_loss(cached, y, target)
        terms["grad_feature"] = feature_gradient_loss(cached, y, target)
    else:
        terms["latent"] = None
        terms["grad_feature"] = None

    lam = {"data": weights.data, "latent": weights.latent,
           "grad_image": weights.grad_image,
           "grad_feature": weights.grad_feature}
    total = None
    for name in ("data", "latent", "grad_image", "grad_feature"):
        if terms[name] is None or lam[name] == 0:
            continue
        part = ad.scale(terms[name], lam[name])
        total = part if total is None else ad.add(total, part)

    def val(t):
        return 0.0 if t is None else t.item()

    report = LossReport(data=val(terms["data"]),
                        latent=val(terms["latent"]),
                        grad_image=val(terms["grad_image"]),
                        grad_feature=val(terms["grad_feature"]),
                        total=total.item())
    return report, total
