"""Training objective: masked L1 data term, latent feature-matching term,
and gradient-consistency terms at image and feature level."""

import math
from dataclasses import asdict, astuple, dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError
from .metrics import masked_pixels


@dataclass(frozen=True)
class LossWeights:
    """Per-term weights; the field order is the summation order of the
    total."""
    data: float = 1.0
    latent: float = 1.0
    grad_image: float = 1.0
    grad_feature: float = 1.0

    def __post_init__(self):
        vals = astuple(self)
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ValueError("LossWeights: weights must be finite and "
                             "nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("LossWeights: at least one weight must be "
                             "positive")


class LossReport(NamedTuple):
    """Term values of one loss evaluation, the LossWeights fields then the
    total; the field order is the loss CSV's column order."""
    data: float
    latent: float
    grad_image: float
    grad_feature: float
    total: float


def data_loss(y, target, mask):
    """Mean absolute error over valid pixels; y is CxHxW, mask HxW."""
    m = masked_pixels("data_loss", y.shape, target.shape, mask)
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
        total = ad.Tensor(np.zeros((), dtype=fy[0].data.dtype))
    return total


def total_loss(y, target, mask, weights, fy, ft):
    """Weighted combination; returns (LossReport, scalar Tensor).

    A term is computed only when its weight is positive and reports 0.0
    otherwise, so fy and ft, the frozen network's feature lists of y and
    target, are read only when a feature-based weight is positive. The mask
    applies to the data term only.
    """
    term_fns = {"data": lambda: data_loss(y, target, mask),
                "latent": lambda: latent_loss(fy, ft),
                "grad_image": lambda: image_gradient_loss(y, target),
                "grad_feature": lambda: feature_gradient_loss(fy, ft)}
    total = None
    values = []
    for name, lam in asdict(weights).items():
        if lam == 0:
            values.append(0.0)
            continue
        term = term_fns[name]()
        values.append(term.item())
        part = ad.scale(term, lam)
        total = part if total is None else ad.add(total, part)
    return LossReport(*values, total=total.item()), total
