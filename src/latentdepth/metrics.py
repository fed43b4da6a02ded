"""Evaluation: pooled RMSE over valid pixels and relative-improvement
arithmetic for baseline comparisons."""

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatchError


@dataclass(frozen=True)
class EvalResult:
    rmse: float
    n_valid_pixels: int
    n_images: int

    def __post_init__(self):
        if not np.isfinite(self.rmse) or self.rmse < 0:
            raise ValueError("EvalResult: rmse must be finite and >= 0")
        if self.n_valid_pixels <= 0:
            raise ValueError("EvalResult: need at least one valid pixel")

    def summary(self):
        return "RMSE %.6f over %d valid pixels in %d images" % (
            self.rmse, self.n_valid_pixels, self.n_images)


def masked_pixels(name, shape, target_shape, mask):
    """The HxW mask broadcast over the CxHxW shape that a prediction and
    its truth share, or a ShapeMismatchError from the named caller."""
    m = np.asarray(mask, dtype=bool)
    if shape != target_shape or len(shape) != 3 or m.shape != shape[1:]:
        raise ShapeMismatchError("%s: shape %s vs %s with mask shape %s"
                                 % (name, shape, target_shape, m.shape))
    return np.broadcast_to(m, shape)


def rmse(pairs):
    """Pooled root mean squared error over an iterable of (prediction,
    truth, mask) pairs, with prediction and truth CxHxW and mask HxW.

    The divisor is the total valid-pixel count across the whole set, not
    the image count; accumulation order is the given pair order.
    """
    sq_sum = 0.0
    n_valid = 0
    n_images = 0
    for y, target, mask in pairs:
        y = np.asarray(y, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        m = masked_pixels("rmse", y.shape, target.shape, mask)
        diff = (y - target)[m]
        sq_sum += float(np.sum(diff * diff))
        n_valid += int(m.sum())
        n_images += 1
        del y, target, diff  # so a generator of pairs holds one at a time
    if n_valid == 0:
        raise ValueError("rmse: no valid pixels in the evaluation set")
    return EvalResult(rmse=float(np.sqrt(sq_sum / n_valid)),
                      n_valid_pixels=n_valid, n_images=n_images)


def relative_improvement(baseline_rmse, ours_rmse):
    """Percentage improvement of ours over a baseline RMSE."""
    if baseline_rmse <= 0:
        raise ValueError("relative_improvement: baseline must be positive")
    return 100.0 * (baseline_rmse - ours_rmse) / baseline_rmse


# published comparison values the report command reproduces
TABLE2_BASELINES = {"Eigen et al.": 0.907,
                    "Sihaeng et al.": 0.454,
                    "Zhang et al.": 0.590}
TABLE2_OURS = 0.416
