"""Evaluation: pooled RMSE over valid pixels and relative-improvement
arithmetic for baseline comparisons."""

from dataclasses import dataclass

import numpy as np


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


def rmse(pairs):
    """Pooled root mean squared error over (prediction, truth, mask) pairs,
    with prediction and truth CxHxW and mask HxW.

    The divisor is the total valid-pixel count across the whole set, not
    the image count; accumulation order is the given pair order.
    """
    sq_sum = 0.0
    n_valid = 0
    n_images = 0
    for y, target, mask in pairs:
        y = np.asarray(y, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        m = np.asarray(mask, dtype=bool)
        if y.shape != target.shape:
            raise ValueError("rmse: shape %s vs %s" % (y.shape, target.shape))
        if y.ndim != 3 or m.shape != y.shape[1:]:
            raise ValueError("rmse: mask shape %s vs %s" % (m.shape, y.shape))
        m = np.broadcast_to(m, y.shape)
        diff = (y - target)[m]
        sq_sum += float(np.sum(diff * diff))
        n_valid += int(m.sum())
        n_images += 1
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
