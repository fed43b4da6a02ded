"""Training objective: masked L1 data term, latent feature-matching term,
and gradient-consistency terms at image and feature level."""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError

# the loss terms in LossReport order; LossWeights fields carry the same names
TERMS = ("data", "latent", "grad_image", "grad_feature")
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


def _layer_pairs(name, fy, ft):
    if len(fy) == 0:
        raise ValueError("%s: empty feature layer set" % name)
    if len(fy) != len(ft):
        raise ShapeMismatchError("%s: %d prediction layers vs %d target "
                                 "layers" % (name, len(fy), len(ft)))
    for a, b in zip(fy, ft):
        if a.shape != b.shape:
            raise ShapeMismatchError("%s: feature shape %s vs %s"
                                     % (name, a.shape, b.shape))
    return zip(fy, ft)


def latent_loss(fy, ft):
    """Per-layer mean (over spatial locations) of half the squared channel
    distance between the feature maps fy of the prediction and ft of the
    target, summed over layers."""
    total = None
    for a, b in _layer_pairs("latent_loss", fy, ft):
        n_loc = a.shape[-1] * a.shape[-2]
        term = ad.scale(ad.reduce(ad.sub(a, b), "l2sq"), 0.5 / n_loc)
        total = term if total is None else ad.add(total, term)
    return total


def feature_gradient_loss(fy, ft):
    """image_gradient_loss applied per feature layer, summed over layers.

    Layers with spatial extent below 2 have empty difference maps and
    contribute zero."""
    total = None
    for a, b in _layer_pairs("feature_gradient_loss", fy, ft):
        if a.shape[-1] < 2 or a.shape[-2] < 2:
            continue
        term = image_gradient_loss(a, b)
        total = term if total is None else ad.add(total, term)
    if total is None:
        total = ad.Tensor(0.0)
    return total


def total_loss(y, target, mask, weights, fy, ft):
    """Weighted combination; returns (LossReport, scalar Tensor).

    fy and ft are the frozen network's feature lists of y and target; they
    are read only when a feature-based weight is positive. The mask applies
    to the data term only.
    """
    terms = {"data": data_loss(y, target, mask),
             "grad_image": image_gradient_loss(y, target),
             "latent": None, "grad_feature": None}
    if weights.latent > 0 or weights.grad_feature > 0:
        terms["latent"] = latent_loss(fy, ft)
        terms["grad_feature"] = feature_gradient_loss(fy, ft)

    total = None
    for name in TERMS:
        lam = getattr(weights, name)
        if terms[name] is None or lam == 0:
            continue
        part = ad.scale(terms[name], lam)
        total = part if total is None else ad.add(total, part)

    values = [0.0 if terms[n] is None else terms[n].item() for n in TERMS]
    return LossReport(*values, total=total.item()), total
